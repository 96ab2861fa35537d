"""Schema versions and the one version rule for every versioned payload.

Service and fleet reports, attack specs, detector state and run
artifacts each carry a version key.  Every version number is defined
here once, and :func:`check_version` is the only code that compares a
payload's version with the build's.  The rule is the same everywhere:
**a payload loads only at its current version**.  Nothing in the
repository keeps an older layout around, so there are no per-version
shims — an older payload is rejected with a pointer to re-record it,
a newer one with the build's version.

Loaders pass their own :mod:`repro.errors` class, so each subsystem
keeps its error family.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Service report (``report_version``): the run's config block, the
#: offered ``arrivals`` log replay re-drives, the per-window
#: ``arrival_windows`` counts the forecaster trains on, and the
#: simulated results.
REPORT_VERSION = 4

#: Fleet report (``fleet_report_version``): the fleet config block,
#: per-node service reports, the ``execution``, ``arrival_windows``,
#: ``planner`` and ``defense`` blocks.
FLEET_REPORT_VERSION = 6

#: Serialized :class:`~repro.defense.attacks.AttackSpec`
#: (``schema_version``).
ATTACK_SCHEMA_VERSION = 1

#: Serialized :class:`~repro.defense.detector.ContentionDetector` state
#: (``schema_version``).
DETECTOR_SCHEMA_VERSION = 1

#: Run artifact written by :func:`repro.obs.write_artifact`
#: (``schema_version``).
ARTIFACT_SCHEMA_VERSION = 3

#: The two report kinds, by version key.
_REPORT_KEYS = {
    "report_version": REPORT_VERSION,
    "fleet_report_version": FLEET_REPORT_VERSION,
}


def check_version(
    payload: dict, key: str, current: int, error: type[Exception]
) -> int:
    """``payload[key]`` if it equals ``current``; else raise ``error``.

    A missing key, a non-int (a bool included), a value below 1, a
    newer and an older version are each rejected, the key named in
    the message.
    """
    if key not in payload:
        raise error(
            f"payload has no {key!r} key — refusing to guess its layout"
        )
    version = payload[key]
    if type(version) is not int or version < 1:
        raise error(f"invalid {key}: {version!r} (an int >= 1)")
    if version > current:
        raise error(
            f"{key} {version} is newer than this build understands "
            f"({current})"
        )
    if version < current:
        raise error(
            f"{key} {version} predates this build's {current} and only "
            "the current version loads; re-record it with this build"
        )
    return version


def read_json(source: str | Path | dict, error: type[Exception]) -> dict:
    """A JSON object from a path (read once) or an already-parsed dict.

    Unreadable files, invalid JSON and a top-level value that is not
    an object raise ``error``.
    """
    payload = source
    if not isinstance(source, dict):
        try:
            payload = json.loads(Path(source).read_text(encoding="utf-8"))
        except OSError as exc:
            raise error(f"cannot read {source}: {exc}") from None
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise error(f"{source} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise error(
            f"{source} must hold a JSON object, not "
            f"{type(payload).__name__}"
        )
    return payload


def load_report(
    source: str | Path | dict, error: type[Exception]
) -> dict:
    """A service or fleet report at the current version, as a dict.

    The kind comes from the version key the report carries
    (``report_version`` or ``fleet_report_version``).
    """
    payload = read_json(source, error)
    for key, current in _REPORT_KEYS.items():
        if key in payload:
            check_version(payload, key, current, error)
            return payload
    where = "payload" if isinstance(source, dict) else source
    raise error(
        f"{where} is not a service report or fleet report: it has no "
        f"{' or '.join(map(repr, _REPORT_KEYS))} key"
    )
