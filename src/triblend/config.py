"""Run configuration: flat INI-style text with sections, strictly validated.

parse_config/serialize_config round-trip: serializing a parsed config and
parsing it again yields the same normalized text.  Unknown sections or keys
are rejected rather than ignored so typos surface as ConfigError, and value
validation happens here (CFL range, positive floors, known modes) so the
solver can trust the fields.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

from .exceptions import ConfigError

_MODES = ("ho", "lo", "bp", "full")
_ROLES = ("wall", "outflow", "inflow", "farfield", "none")


@dataclass
class RunConfig:
    problem: str = ""
    mesh: str | None = None  # MSH path; None -> built-in generator
    mesh_n: int | None = None  # generator resolution; None -> problem default
    final_time: float | None = None  # None -> problem default
    cfl: float = 0.2
    gamma: float = 1.4
    c1: float = 1.0
    c2: float = 1.0
    mode: str = "full"
    # Invariant-domain overrides; None keeps the problem defaults.
    lo: float | None = None
    hi: float | None = None
    rho_min: float | None = None
    p_min: float | None = None
    # Output controls.
    directory: str = "out"
    vtk_every: int = 0  # steps between VTK dumps; 0 = final only
    diagnostics_every: int = 0  # steps between limiter dumps; 0 = never
    log_every: int = 10  # progress lines to stdout; 0 = silent
    # Physical-name -> role overrides for user-supplied meshes.
    boundary: dict = field(default_factory=dict)

    def validate(self) -> "RunConfig":
        if not self.problem:
            raise ConfigError("missing required key run.problem")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.final_time is not None and self.final_time < 0.0:
            raise ConfigError(f"final_time must be >= 0, got {self.final_time}")
        if self.gamma <= 1.0:
            raise ConfigError(f"gamma must exceed 1, got {self.gamma}")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ConfigError("damping constants must be >= 0")
        for name, val in (("rho_min", self.rho_min), ("p_min", self.p_min)):
            if val is not None and val <= 0.0:
                raise ConfigError(f"{name} must be > 0, got {val}")
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise ConfigError("interval override needs lo < hi")
        if self.mesh_n is not None and self.mesh_n < 1:
            raise ConfigError("mesh_n must be >= 1")
        for key in ("vtk_every", "diagnostics_every", "log_every"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        for name, role in self.boundary.items():
            if role not in _ROLES:
                raise ConfigError(
                    f"boundary role for {name!r} must be one of {_ROLES}"
                )
        return self


_SCHEMA = {
    "run": {
        "problem": str,
        "mesh": str,
        "mesh_n": int,
        "final_time": float,
        "cfl": float,
        "gamma": float,
        "c1": float,
        "c2": float,
        "mode": str,
    },
    "limits": {"lo": float, "hi": float, "rho_min": float, "p_min": float},
    "output": {
        "directory": str,
        "vtk_every": int,
        "diagnostics_every": int,
        "log_every": int,
    },
}


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep case: boundary names must match the mesh
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None

    cfg = RunConfig()
    for section in cp.sections():
        if section == "boundary":
            for name, role in cp.items(section):
                cfg.boundary[name] = role.strip()
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            typ = _SCHEMA[section][key]
            try:
                setattr(cfg, key, typ(raw))
            except ValueError:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r}"
                ) from None
    return cfg.validate()


def serialize_config(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    for section, keys in _SCHEMA.items():
        vals = {}
        for key in keys:
            v = getattr(cfg, key)
            if v is not None and v != "":
                vals[key] = repr(v) if isinstance(v, float) else str(v)
        if vals:
            cp[section] = vals
    if cfg.boundary:
        cp["boundary"] = dict(cfg.boundary)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config(text)
