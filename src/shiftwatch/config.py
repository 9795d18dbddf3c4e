"""Application configuration: a flat key = value text file plus CLI flag
overrides. Flags win over file values, which win over defaults."""

from __future__ import annotations

import math
import os
import re
from typing import Optional, Tuple, Union, get_args, get_origin, get_type_hints

from .calibration import GridSpec
from .errors import ConfigError
from .estimator import DEFAULT_K
from .monitor import MonitorConfig
from .shiftsim import DEFAULT_ABLATION_FRACTION, Schedule, ShiftScenario

# A '#' starts a comment at the start of a line or after whitespace, so a
# value such as "results#2" is kept whole.
_COMMENT = re.compile(r"(?:^|\s)#")


class AppConfig:
    """Every setting of a command. ``parse_config`` makes one from the
    keys it read, each as its field; a field it did not set keeps the
    default below."""

    source: Optional[str] = None
    production: Optional[str] = None
    out_dir: str = "out"
    k: int = DEFAULT_K
    seed: int = 0
    n_seeds: int = 1
    workers: int = 1
    feature_kinds: Optional[Tuple[str, ...]] = None
    ablation_fraction: float = DEFAULT_ABLATION_FRACTION
    eps_harm_grid: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.1)
    eps_tol_grid: Tuple[float, ...] = (0.0,)
    # Settings parse_config builds from their keys (see BUILT); not keys.
    monitor: MonitorConfig = MonitorConfig()
    grid: GridSpec = GridSpec()
    shift_schedule: Schedule = Schedule()

    def __init__(self, **settings):
        unknown = settings.keys() - AppConfig.__annotations__
        if unknown:
            raise TypeError(f"AppConfig has no fields {sorted(unknown)}")
        vars(self).update(settings)


# By AppConfig attribute: the settings type parse_config builds there. Each
# of its fields is the key of its name, save Schedule's kind, keyed
# schedule, and the field's annotation is the key's type.
BUILT = {"monitor": MonitorConfig, "grid": GridSpec, "shift_schedule": Schedule}


def _keys_of(kind) -> dict:
    """Each key of a settings type in BUILT, to the field it sets."""
    return {"schedule" if name == "kind" else name: name for name in kind._fields}


# Each other key's type is the annotation of its AppConfig field.
_KEY_TYPES = {key: kind for key, kind in get_type_hints(AppConfig).items() if key not in BUILT} | {
    key: get_type_hints(kind)[name] for kind in BUILT.values() for key, name in _keys_of(kind).items()
}
KNOWN_KEYS = frozenset(_KEY_TYPES)


def _coerce(key: str, raw):
    """Parse a file or flag value (a string) into the type of ``key``'s
    field: a comma-separated list for a tuple field."""
    kind = _KEY_TYPES[key]
    if get_origin(kind) is Union:  # Optional[X]
        kind = get_args(kind)[0]
    try:
        if get_origin(kind) is tuple:
            item = get_args(kind)[0]
            return tuple(item(x.strip()) for x in str(raw).split(",") if x.strip())
        return kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(key, f"cannot parse value {raw!r}")


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    values, lines = {}, {}
    # a byte-order mark (U+FEFF) would start the first key
    for lineno, line in enumerate(text.removeprefix("\ufeff").split("\n"), 1):
        line = _COMMENT.split(line, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(key, "unknown configuration key")
        if key in values:
            raise ConfigError(key, f"set twice, on lines {lines[key]} and {lineno}")
        values[key], lines[key] = raw, lineno
    return values


def parse_config(file: Optional[str] = None, **flags) -> AppConfig:
    """Build and validate an AppConfig from an optional file plus flag
    overrides (flags with value None are treated as unset)."""
    merged = {}
    if file:
        merged.update(_read_config_file(file))
    for key, value in flags.items():
        if value is None:
            continue
        if key not in KNOWN_KEYS:
            raise ConfigError(key, "unknown configuration key")
        merged[key] = value

    values = {key: _coerce(key, raw) for key, raw in merged.items()}
    # each settings object from its keys, in BUILT's order; then the rest
    settings = {
        name: kind(**{f: values.pop(key) for key, f in _keys_of(kind).items() if key in values})
        for name, kind in BUILT.items()
    }
    cfg = AppConfig(**settings, **values)
    _validate(cfg)
    return cfg


def _validate(cfg: AppConfig) -> None:
    """Check every key not checked as ``cfg``'s settings objects were
    built, before any command reads an input. Those objects' types
    (BUILT) own the range rules of their keys, and ShiftScenario that of
    ablation_fraction, built here; each raises ConfigError under the key
    at fault; each eps_tol_grid value must pass MonitorConfig's eps_tol
    rule. The other keys are checked here, then the input paths; the
    feature kinds, which need the source's feature count, are
    enumerate_scenarios' to check."""
    ShiftScenario(0, "above_median", ablation_fraction=cfg.ablation_fraction)
    for key, low in (("k", 1), ("seed", 0), ("n_seeds", 1), ("workers", 1)):
        if getattr(cfg, key) < low:
            raise ConfigError(key, f"must be >= {low}")
    if not cfg.eps_harm_grid:
        raise ConfigError("eps_harm_grid", "must list at least one value")
    if not all(math.isfinite(eps) for eps in cfg.eps_harm_grid):
        raise ConfigError("eps_harm_grid", "must hold finite values")
    if not cfg.eps_tol_grid:
        raise ConfigError("eps_tol_grid", "must list at least one value")
    for eps in cfg.eps_tol_grid:  # each is some sweep row's eps_tol
        try:
            cfg.monitor._replace(eps_tol=eps)
        except ConfigError as exc:
            raise ConfigError("eps_tol_grid", exc.message) from None
    if cfg.source == cfg.production == "-":  # stdin is one stream
        raise ConfigError("production", "stdin ('-') cannot be both the source and the production stream")
    for key in ("source", "production"):
        path = getattr(cfg, key)
        if path is not None and path != "-" and not os.path.exists(path):
            raise ConfigError(key, f"file not found: {path}")
