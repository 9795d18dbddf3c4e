"""Application configuration: a flat key = value text file plus CLI flag
overrides. Flags win over file values, which win over defaults."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Optional, Tuple

from .calibration import DEFAULT_FDP_MAX, DEFAULT_P_HAT_VALUES, DEFAULT_P_VALUES
from .errors import ConfigError
from .estimator import DEFAULT_K
from .monitor import MonitorConfig
from .shiftsim import DEFAULT_ABLATION_FRACTION

_FLOAT_KEYS = {
    "alpha_source",
    "alpha_prod",
    "alpha1",
    "eps_tol",
    "delta_corr",
    "fdp_max",
    "ablation_fraction",
}
_INT_KEYS = {"k", "horizon", "onset", "seed", "n_seeds", "workers"}
_STR_KEYS = {"source", "production", "out_dir", "schedule", "feature_kinds"}
_LIST_KEYS = {"p_values", "p_hat_values", "eps_harm_grid", "eps_tol_grid"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _LIST_KEYS
# A '#' starts a comment at the start of a line or after whitespace, so a
# value such as "results#2" is kept whole.
_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass
class AppConfig:
    source: Optional[str] = None
    production: Optional[str] = None
    out_dir: str = "out"
    k: int = DEFAULT_K
    p_values: Tuple[float, ...] = DEFAULT_P_VALUES
    p_hat_values: Tuple[float, ...] = DEFAULT_P_HAT_VALUES
    fdp_max: float = DEFAULT_FDP_MAX
    alpha_source: float = MonitorConfig.alpha_source
    alpha_prod: float = MonitorConfig.alpha_prod
    alpha1: Optional[float] = MonitorConfig.alpha1
    eps_tol: float = MonitorConfig.eps_tol
    delta_corr: float = MonitorConfig.delta_corr
    schedule: str = "sudden"
    horizon: int = 2000
    onset: Optional[int] = None
    seed: int = 0
    n_seeds: int = 1
    workers: int = 1
    feature_kinds: Optional[str] = None
    ablation_fraction: float = DEFAULT_ABLATION_FRACTION
    eps_harm_grid: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.1)
    eps_tol_grid: Tuple[float, ...] = (0.0,)


def _coerce(key: str, raw):
    """Parse a file or flag value (a string) into the type of ``key``."""
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _LIST_KEYS:
            return tuple(float(x) for x in str(raw).split(",") if x.strip())
        return str(raw)
    except (TypeError, ValueError):
        raise ConfigError(key, f"cannot parse value {raw!r}")


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    values = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        line = _COMMENT.split(line, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(key, "unknown configuration key")
        values[key] = raw
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

    cfg = AppConfig()
    for key, raw in merged.items():
        setattr(cfg, key, _coerce(key, raw))
    _validate(cfg)
    return cfg


def _validate(cfg: AppConfig) -> None:
    for key in ("alpha_source", "alpha_prod"):
        v = getattr(cfg, key)
        if not 0.0 < v < 1.0:
            raise ConfigError(key, f"must lie in (0, 1), got {v}")
    if cfg.alpha1 is not None and not 0.0 < cfg.alpha1 < cfg.alpha_prod:
        raise ConfigError("alpha1", f"must lie in (0, alpha_prod), got {cfg.alpha1}")
    if not 0.0 < cfg.fdp_max < 1.0:
        raise ConfigError("fdp_max", f"must lie in (0, 1), got {cfg.fdp_max}")
    if cfg.eps_tol < 0.0:
        raise ConfigError("eps_tol", "must be >= 0")
    if cfg.delta_corr < 0.0:
        raise ConfigError("delta_corr", "must be >= 0")
    if cfg.k < 1:
        raise ConfigError("k", "must be >= 1")
    if cfg.horizon < 1:
        raise ConfigError("horizon", "must be >= 1")
    if cfg.schedule not in ("none", "sudden", "sigmoid"):
        raise ConfigError("schedule", f"unknown schedule {cfg.schedule!r}")
    if cfg.onset is not None and not 1 <= cfg.onset <= cfg.horizon:
        raise ConfigError("onset", "must lie in [1, horizon]")
    if not 0.0 < cfg.ablation_fraction <= 1.0:
        raise ConfigError("ablation_fraction", "must lie in (0, 1]")
    if cfg.seed < 0:
        raise ConfigError("seed", "must be >= 0")
    if cfg.n_seeds < 1:
        raise ConfigError("n_seeds", "must be >= 1")
    if cfg.workers < 1:
        raise ConfigError("workers", "must be >= 1")
    for key in sorted(_LIST_KEYS):
        if not getattr(cfg, key):
            raise ConfigError(key, "must list at least one value")
    for key in ("source", "production"):
        path = getattr(cfg, key)
        if path is not None and path != "-" and not os.path.exists(path):
            raise ConfigError(key, f"file not found: {path}")
