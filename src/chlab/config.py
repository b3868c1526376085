"""Scenario configuration: parsing, validation, defaults, and hashing.

A scenario bundles everything one run needs — grid, initial datum, solver
knobs, weights to track, and which diagnostic layers to enable.  Configs
arrive as YAML (nested key/value sections, see ``configs/``) or as plain
dicts; both go through the same decoder, which fills every default in
and echoes the *effective* configuration back, so a run can always be
reproduced from its summary alone.

Each input check has one owner: ``scenario_from_dict`` judges the grammar,
``Scenario.weight_warnings`` names each uncertifiable tracked weight, and
``Scenario.build_initial`` judges the datum where a command builds it.

The dataclasses are the schema, ``Scenario`` at the top level included:
one codec walks their fields, checks each value against the field's
annotation, and fills the field's default when the key is absent; the
inverse walk produces the echo.  Value checks beyond the type live in each
dataclass's ``__post_init__``.  Validation errors carry the dotted path of
the offending field ("solver.cfl", "weights_to_track[1].weight.a") so a
typo in a config file points at the line that caused it, not at a traceback.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import (Any, List, Mapping, NewType, Optional, Sequence, Tuple,
                    Union, get_args, get_origin, get_type_hints)

import numpy as np
import yaml

from .field import Field, Grid
from .initial_data import (FromPotential, Gaussian, GaussianShape, InitialData,
                           MollifiedExponential, MollifiedPeakon,
                           OddGaussianDerivative, TanhGaussianShape)
from .solver import SolverConfig, boundary_fraction
from .weights import OneSided, StandardFamily, Truncated, Weight

# CPython's own SHA-256, the module hashlib itself falls back to: importing
# hashlib maps OpenSSL's libcrypto, 3.4 MB resident in every process.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "ConfigError",
    "TrackedWeight",
    "Scenario",
    "scenario_from_dict",
    "parse_scenario",
    "load_scenario",
    "canonical_json",
    "content_digest",
]

#: Initial data may not touch the domain boundary: the outermost cells must
#: stay below this fraction of the peak at t = 0 (runs on a periodic grid
#: only stand in for the line while wrap-around influence is negligible).
INITIAL_BOUNDARY_TOL = 1e-10


class _YAMLLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's safe loader where PyYAML was built with it (the same safe
    constructor as yaml.SafeLoader, with a C scanner and parser) that also
    reads the plain scalars YAML 1.2 reads as floats and YAML 1.1 as
    strings: an exponent without a dot or without a sign, ``1e-3`` and
    ``1.0e308``.  A quoted scalar stays a string.  A key repeated in a
    mapping is an error; a key merged in by ``<<`` may be overridden."""

    def construct_mapping(self, node, deep=False):
        seen = {}  # the explicit keys, before flattening adds merged ones
        for key_node, _ in node.value:
            if (isinstance(key_node, yaml.ScalarNode)
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node)
                if seen.setdefault(key, key_node) is not key_node:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}",
                        key_node.start_mark)
        return super().construct_mapping(node, deep=deep)


_YAMLLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
               r"|[0-9]+[eE][-+]?[0-9]+)$"),
    list("-+0123456789."))

#: A norm exponent p >= 1; the config spells the sup norm "inf".
Exponent = NewType("Exponent", float)


class ConfigError(ValueError):
    """A scenario config failed validation; ``path`` locates the field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class TrackedWeight:
    """One weighted norm to monitor during a run: W(t) with this weight
    and exponent p (math.inf for the sup norm)."""

    weight: Weight
    p: Exponent = math.inf


@dataclass(frozen=True)
class Scenario:
    """A decoded run description (all defaults resolved)."""

    name: str
    grid: Grid
    initial_data: InitialData
    solver: SolverConfig
    weights_to_track: Tuple[TrackedWeight, ...] = ()
    profiles_enabled: bool = False
    predictors_enabled: bool = True
    rate_cap_factor: Optional[float] = None

    def __post_init__(self):
        if not self.name or any(ch in self.name for ch in "/\\ \t\n"):
            raise ConfigError("name", f"must be non-empty, without spaces or "
                                      f"slashes: {self.name!r}")
        if self.rate_cap_factor is not None and self.rate_cap_factor <= 1.0:
            raise ConfigError("rate_cap_factor",
                              f"must exceed 1 (cap relative to the initial "
                              f"value), got {self.rate_cap_factor}")
        if not self.predictors_enabled:
            raise ConfigError("predictors_enabled", "must be true: every "
                              "run evaluates the a-priori predictors")

    def effective_config(self) -> dict:
        """Complete config echo: parsing this dict again reproduces the
        scenario exactly (every default is spelled out)."""
        return _encode(self)

    def content_hash(self) -> str:
        """Digest of the effective configuration (``content_digest``)."""
        return content_digest(self.effective_config())

    def run_dirname(self) -> str:
        """Artifact directory name: scenario name plus content hash, so
        distinct effective configs never collide and reruns of the same
        config land in the same place."""
        return f"{self.name}-{self.content_hash()}"

    def make_run_dir(self, out_root) -> Path:
        """Make and return ``out_root/<run_dirname>/``, before any work."""
        outdir = Path(out_root) / self.run_dirname()
        outdir.mkdir(parents=True, exist_ok=True)
        return outdir

    def build_initial(self) -> Field:
        """Build the datum and judge it: finite, not all zero, and an edge
        below ``INITIAL_BOUNDARY_TOL`` (or a tighter solver ``boundary_tol``)
        of the peak; ConfigError under ``initial_data`` otherwise."""
        where = f"on grid L={self.grid.L}, N={self.grid.N}"
        try:
            u0 = self.initial_data.build(self.grid)
        except ValueError as exc:
            raise ConfigError("initial_data", str(exc)) from exc
        if not np.all(np.isfinite(u0.values)):
            raise ConfigError("initial_data", f"non-finite samples {where}")
        if not np.any(u0.values):
            raise ConfigError("initial_data", f"all samples are zero {where}")
        # the solver would stop at step 0 above its own boundary_tol
        tol = min(INITIAL_BOUNDARY_TOL, self.solver.boundary_tol)
        edge = boundary_fraction(u0)
        if edge > tol:
            raise ConfigError("initial_data", f"boundary-contaminated {where}: "
                              f"relative edge magnitude {edge:.3e} exceeds "
                              f"{tol:.0e} (enlarge L or shrink the tails)")
        return u0

    def with_profiles(self) -> "Scenario":
        return replace(self, profiles_enabled=True)

    def weight_warnings(self) -> List[str]:
        """One message per tracked weight that cannot be certified: why no
        persistence guarantee attaches to its norm."""
        return [f"weights_to_track[{i}]: {tw.weight} {tw.weight.obstruction}"
                f"; it is tracked, but it cannot be certified admissible and "
                f"the tracked norm has no persistence guarantee"
                for i, tw in enumerate(self.weights_to_track)
                if not tw.weight.certifiable]


def canonical_json(data: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_digest(data: Any) -> str:
    """First 12 hex digits of the SHA-256 of ``canonical_json(data)``."""
    return _sha256(canonical_json(data).encode()).hexdigest()[:12]


def _exponent(raw: Any, path: str) -> float:
    if isinstance(raw, str):
        if raw.strip().lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(path, f"expected a number or 'inf', got {raw!r}")
    p = _number(raw, path)
    if not (p >= 1.0):
        raise ConfigError(path, f"exponent p must be >= 1, got {p}")
    return p


def _number(raw: Any, path: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(raw).__name__} {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {raw!r}")
    return value


def _integer(raw: Any, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        if isinstance(raw, float) and raw.is_integer():
            return int(raw)
        raise ConfigError(path, f"expected an integer, got {raw!r}")
    return int(raw)


def _boolean(raw: Any, path: str) -> bool:
    if not isinstance(raw, bool):
        raise ConfigError(path, f"expected true/false, got {raw!r}")
    return raw


def _mapping(raw: Any, path: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise ConfigError(path, f"expected a mapping, got {type(raw).__name__}")
    return raw


def _reject_unknown(data: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            path or "config",
            f"unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}",
        )


def _string(raw: Any, path: str) -> str:
    if not isinstance(raw, str):
        raise ConfigError(path, f"expected a string, got {type(raw).__name__} {raw!r}")
    return raw


def _sequence(raw: Any, path: str, noun: str) -> Sequence:
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ConfigError(path, f"expected {noun}, got {type(raw).__name__}")
    return raw


# kind (or shape) -> class: the only per-family tables.  Each class's
# dataclass fields are its schema.
INITIAL_KINDS = {
    "mollified_peakon": MollifiedPeakon,
    "mollified_exponential": MollifiedExponential,
    "gaussian": Gaussian,
    "odd_gaussian_derivative": OddGaussianDerivative,
    "from_potential": FromPotential,
}
POTENTIAL_SHAPES = {"gaussian": GaussianShape, "tanh_gaussian": TanhGaussianShape}
WEIGHT_KINDS = {
    "standard": StandardFamily,
    "one_sided": OneSided,
    "truncated": Truncated,
}

# field annotation -> (tag key, what the tag names, registry)
_FAMILIES = {
    InitialData: ("kind", "initial-data kind", INITIAL_KINDS),
    Union[tuple(POTENTIAL_SHAPES.values())]: ("shape", "potential shape",
                                              POTENTIAL_SHAPES),
    Weight: ("kind", "weight kind", WEIGHT_KINDS),
}
_TAGS = {cls: (tag, name) for tag, _, registry in _FAMILIES.values()
         for name, cls in registry.items()}
_SCALARS = {float: _number, int: _integer, bool: _boolean, str: _string,
            Exponent: _exponent}


def _decode_value(hint: Any, raw: Any, path: str) -> Any:
    """Check one value against a field annotation; family members,
    dataclasses, ``Tuple[X, ...]`` and ``Optional[X]`` recurse."""
    if hint in _FAMILIES:
        tag, noun, registry = _FAMILIES[hint]
        data = _mapping(raw, path)
        name = data.get(tag)
        if not isinstance(name, str) or name not in registry:
            raise ConfigError(f"{path}.{tag}", f"unknown {noun} {name!r}; one "
                                               f"of: {', '.join(sorted(registry))}")
        return _decode(registry[name], data, path, tag=tag)
    if is_dataclass(hint):
        return _decode(hint, raw, path)
    if get_origin(hint) is tuple:  # a null list (bare YAML key) is empty
        items = () if raw is None else _sequence(raw, path, "a list")
        return tuple(_decode_value(get_args(hint)[0], v, f"{path}[{i}]")
                     for i, v in enumerate(items))
    if get_origin(hint) is Union:  # Optional[X]
        return None if raw is None else _decode_value(get_args(hint)[0], raw, path)
    return _SCALARS[hint](raw, path)


@lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Tuple[str, Any, bool], ...]:
    """(name, resolved annotation, required) for each dataclass field."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


def _decode(cls: type, raw: Any, path: str, tag: Optional[str] = None) -> Any:
    """Build dataclass ``cls`` from a mapping with one key per field (plus
    the family ``tag``); absent keys take the field default."""
    data = _mapping(raw, path)
    names = [name for name, _, _ in _schema(cls)]
    _reject_unknown(data, names + [tag] if tag else names, path)
    kwargs = {}
    for name, hint, required in _schema(cls):
        field_path = f"{path}.{name}" if path else name
        if name in data:
            kwargs[name] = _decode_value(hint, data[name], field_path)
        elif required:
            raise ConfigError(field_path, "required")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _encode_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_encode_value(v) for v in value]
    if is_dataclass(value):
        return _encode(value)
    return "inf" if value == math.inf else value


def _encode(obj: Any) -> dict:
    """Inverse of ``_decode``: every field spelled out, family tag first."""
    tag = _TAGS.get(type(obj))
    out = {tag[0]: tag[1]} if tag else {}
    out.update((f.name, _encode_value(getattr(obj, f.name)))
               for f in fields(obj))
    return out


def scenario_from_dict(data: Mapping, *,
                       default_name: Optional[str] = None) -> Scenario:
    """Decode a raw config mapping into a Scenario.

    Fills defaults (``default_name`` stands in for an absent ``name``) and
    rejects unknown or ill-typed keys with their dotted path.  It judges
    the grammar only: it builds no datum (``Scenario.build_initial`` does)
    and accepts an uncertifiable weight (``Scenario.weight_warnings``).
    """
    data = _mapping(data, "")
    if default_name is not None and "name" not in data:
        data = {**data, "name": default_name}
    return _decode(Scenario, data, "")


def parse_scenario(text: str, *,
                   default_name: Optional[str] = None) -> Scenario:
    """Parse YAML text into a decoded Scenario (``scenario_from_dict``)."""
    try:
        data = yaml.load(text, Loader=_YAMLLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError("", f"invalid YAML{where}: {exc}") from exc
    if data is None:
        raise ConfigError("", "empty config")
    if not isinstance(data, Mapping):
        raise ConfigError("", f"expected a mapping at top level, got "
                              f"{type(data).__name__}")
    return scenario_from_dict(data, default_name=default_name)


def load_scenario(path) -> Scenario:
    """Read a scenario config file (YAML) as ``parse_scenario`` does."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError("", f"cannot read config {p}: {exc}") from exc
    return parse_scenario(text, default_name=p.stem)

