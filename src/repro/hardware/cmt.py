"""Cache Monitoring Technology (CMT) model.

Intel RDT's monitoring half (Herdrich et al., HPCA 2016 — the paper's
reference [31]): each thread is tagged with a *resource monitoring ID*
(RMID); the hardware tracks per-RMID LLC occupancy and, with MBM,
memory traffic.  The paper proposes CAT schemes derived offline; CMT is
what enables the *online* classification its related-work section
points to (miss-ratio models).  :class:`CmtSample` is one such
reading, built from the analytic simulator's per-region occupancies and
counter rates.

Used by :mod:`repro.core.online` to classify operators into CUID
categories without a-priori knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CmtSample:
    """One monitoring reading for an RMID."""

    rmid: int
    llc_occupancy_bytes: float
    llc_references: float
    llc_misses: float
    memory_bandwidth_bytes_per_s: float = 0.0

    @property
    def miss_ratio(self) -> float:
        if self.llc_references <= 0:
            return 0.0
        return self.llc_misses / self.llc_references
