"""Run configuration: defaults, flat config files, environment override.

Precedence is flags > config file > defaults. The config file is a flat
key = value text format; its path comes from --config or the RESURGENTIA_CONFIG
environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Optional

ENV_VAR = "RESURGENTIA_CONFIG"

_FORMATS = ("json", "csv")


# the numeric keys, each of which must be positive, and the message that
# names a value that is not
POSITIVE_KEYS = {
    "order": "order must be positive",
    "cap_sigma": "alien caps must be positive",
    "cap_grade": "alien caps must be positive",
    "quad_tol": "quadrature tolerance must be positive",
}


@dataclass(frozen=True)
class RunConfig:
    order: int = 32          # truncation order N
    cap_sigma: int = 5       # alien cap K_sigma
    cap_grade: int = 5       # alien cap K_e
    quad_tol: float = 1e-10  # quadrature tolerance
    fmt: str = "json"        # output format
    output: Optional[str] = None  # output path (stdout when None)

    def validate(self) -> "RunConfig":
        for key, message in POSITIVE_KEYS.items():
            if not getattr(self, key) > 0:
                raise ValueError(message)
        if self.fmt not in _FORMATS:
            raise ValueError("format must be one of " + "|".join(_FORMATS))
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_INT_KEYS = ("order", "cap_sigma", "cap_grade")
_FLOAT_KEYS = ("quad_tol",)


def _coerce(key: str, raw: str):
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return raw


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
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
            out[key] = _coerce(key, raw)
    return out


def resolve_config(overrides: Optional[dict] = None, config_path: Optional[str] = None) -> RunConfig:
    """Defaults, then the config file (explicit path or environment), then flags."""
    cfg = RunConfig()
    path = config_path or os.environ.get(ENV_VAR)
    if path:
        cfg = replace(cfg, **load_config_file(path))
    if overrides:
        clean = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(clean) - set(_FIELD_TYPES)
        if unknown:
            raise ValueError("unknown config keys: " + ", ".join(sorted(unknown)))
        cfg = replace(cfg, **clean)
    return cfg.validate()
