"""Run configuration: defaults, flat config files, environment override.

Precedence is flags > config file > defaults. The config file is a flat
key = value text format; its path comes from --config or the RESURGENTIA_CONFIG
environment variable.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple, Optional

ENV_VAR = "RESURGENTIA_CONFIG"

_FORMATS = ("json", "csv")


# the numeric keys, each of which must be finite and positive: its command-line
# flag, the flag's help text, and the message that names a value out of range
POSITIVE_KEYS = {
    "order": ("--order", "truncation order N", "order must be positive"),
    "cap_sigma": ("--cap-sigma", "alien sigma_2 cap", "alien caps must be positive"),
    "cap_grade": ("--cap-grade", "alien exponential-grade cap", "alien caps must be positive"),
    "quad_tol": ("--tol", "quadrature tolerance", "quadrature tolerance must be positive"),
}


def _finite_positive(value) -> bool:
    """The range of every numeric key, from a flag or a file (NaN is outside it)."""
    return 0 < value < math.inf


class RunConfig(NamedTuple):
    order: int = 32          # truncation order N
    cap_sigma: int = 5       # alien cap K_sigma
    cap_grade: int = 5       # alien cap K_e
    quad_tol: float = 1e-10  # quadrature tolerance
    fmt: str = "json"        # output format
    output: Optional[str] = None  # output path (stdout when None)

    def validate(self) -> "RunConfig":
        for key, (_, _, message) in POSITIVE_KEYS.items():
            if not _finite_positive(getattr(self, key)):
                raise ValueError(message)
        if self.fmt not in _FORMATS:
            raise ValueError("format must be one of " + "|".join(_FORMATS))
        return self


def _coerce(key: str, raw: str):
    # the numeric keys take the type of their default; fmt and output stay text
    default = RunConfig._field_defaults[key]
    return type(default)(raw) if isinstance(default, (int, float)) else raw


def load_config_file(path: str) -> dict:
    """Parse a flat key = value file; '#' starts a comment."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in RunConfig._fields:
                raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
            out[key] = _coerce(key, raw)
    return out


def resolve_config(overrides: Optional[dict] = None, config_path: Optional[str] = None) -> RunConfig:
    """Defaults, then the config file (explicit path or environment), then flags."""
    cfg = RunConfig()
    path = config_path or os.environ.get(ENV_VAR)
    if path:
        cfg = cfg._replace(**load_config_file(path))
    if overrides:
        clean = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(clean) - set(RunConfig._fields)
        if unknown:
            raise ValueError("unknown config keys: " + ", ".join(sorted(unknown)))
        cfg = cfg._replace(**clean)
    return cfg.validate()
