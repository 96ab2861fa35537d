"""Schema versions, the one version rule and the one config contract.

Service and fleet reports, attack specs, detector state and run
artifacts each carry a version key.  Every version number is defined
here once, and :func:`check_version` is the only code that compares a
payload's version with the build's.  The rule is the same everywhere:
**a payload loads only at its current version**.  Nothing in the
repository keeps an older layout around, so there are no per-version
shims — an older payload is rejected with a pointer to re-record it,
a newer one with the build's version.

Every config dataclass (service, fleet, planner, defense, sampling,
attack and fault specs) keeps one contract, also defined here:
:func:`check_finite` is the first check of its ``__post_init__``,
:func:`config_to_dict` its exact, field-driven serialization, and
:func:`config_from_dict` the inverse that ``from_dict`` delegates to —
so a report's config block determines its run.

Loaders pass their own :mod:`repro.errors` class, so each subsystem
keeps its error family.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import fields
from pathlib import Path

from .errors import ReproError

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


def check_finite(config, error: type[Exception]) -> None:
    """The one value rule: every float field of ``config`` is finite.

    NaN and ±inf raise ``error`` naming the field — ``x <= 0`` checks
    alone let NaN through.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite: {value}")


def config_to_dict(config) -> dict:
    """``config``'s fields, unrounded: nested specs via their own
    ``to_dict``, tuples as lists."""
    return {f.name: _jsonable(getattr(config, f.name)) for f in fields(config)}


def _jsonable(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def config_from_dict(cls, payload: dict, error: type[Exception]):
    """The inverse of :func:`config_to_dict`, through JSON.

    Every field of ``cls`` must be present and no other key.  Each
    value must have its field's declared JSON type — an int counts as
    a float, a bool as nothing, a tuple is a list — and a nested spec
    is rebuilt through its own ``from_dict``.  Values then pass
    unchanged to ``cls``'s own construction checks.
    """
    what = cls.__name__
    if not isinstance(payload, dict):
        raise error(
            f"{what} block must be a JSON object: {type(payload).__name__}"
        )
    names = [f.name for f in fields(cls)]
    missing = sorted(set(names) - payload.keys())
    unknown = sorted(payload.keys() - set(names))
    if missing or unknown:
        raise error(
            f"{what} block has missing keys {missing} and unknown keys "
            f"{unknown}"
        )
    hints = typing.get_type_hints(cls)
    return cls(**{
        name: load_value(hints[name], payload[name], f"{what}.{name}", error)
        for name in names
    })


#: Scalar field type -> the JSON values it admits.
_SCALARS = {str: (str,), int: (int,), float: (int, float)}


def load_value(hint, value, where: str, error: type[Exception]):
    """``value`` checked against the type ``hint``, specs rebuilt.

    The JSON type rule of :func:`config_from_dict`, for one value: an
    int counts as a float, a bool as nothing, a tuple is a list, a
    ``dict[K, V]`` is an object; nothing is coerced.  A mismatch raises
    ``error`` naming ``where``.
    """
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(hint):
            return None
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if hasattr(hint, "from_dict"):
        try:
            return hint.from_dict(value)
        except ReproError as exc:
            raise error(f"{where}: {exc}") from exc
    if typing.get_origin(hint) is tuple:
        kinds = typing.get_args(hint)
        if kinds[-1] is Ellipsis and isinstance(value, list):
            kinds = kinds[:1] * len(value)
        if not isinstance(value, list) or len(value) != len(kinds):
            raise error(f"{where} must be a list ({hint}): {value!r}")
        return tuple(
            load_value(kind, item, f"{where}[{i}]", error)
            for i, (kind, item) in enumerate(zip(kinds, value))
        )
    if typing.get_origin(hint) is dict:
        key_kind, item_kind = typing.get_args(hint)
        if not isinstance(value, dict):
            raise error(f"{where} must be an object ({hint}): {value!r}")
        return {
            load_value(key_kind, key, f"{where} key", error):
                load_value(item_kind, item, f"{where}[{key!r}]", error)
            for key, item in value.items()
        }
    if isinstance(value, bool) or not isinstance(value, _SCALARS[hint]):
        raise error(f"{where} must be {hint.__name__}: {value!r}")
    return value
