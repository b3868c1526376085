"""Seeded input generator: the workloads, their configs and their operations.

The scenario configs are copies of chlab's builtin catalog and of the
shipped ``configs/*.yaml`` as they stood when the benchmark was defined.
They are kept here, not read from the program, so that a change to the
program's catalog cannot change what the benchmark measures.

The seed changes only the initial amplitude of each config (``amplitude``,
``c`` or ``m0.amplitude``), by a factor in [0.95, 1.05], and the ``--seed``
passed to the CLI (which certification uses for its sample set).  It never
changes a rate, a grid or a solver setting.  Seed 0 is the unperturbed
catalog: every factor is exactly 1, and the oracle compares against the
values pinned for it.
"""

from __future__ import annotations

import copy
import random
from pathlib import Path

import yaml

AMPLITUDE_RANGE = (0.95, 1.05)

# Builtin scenarios, as chlab.scenarios defines them.
BUILTINS = {
    "peakon-travel": {
        "grid": {"L": 40.0, "N": 4096},
        "initial_data": {"kind": "mollified_peakon", "c": 1.0, "x0": 0.0,
                         "mollify_width": 0.1},
        "solver": {"t_end": 1.0},
    },
    "exponential-rate-cap": {
        "grid": {"L": 40.0, "N": 8192},
        "initial_data": {"kind": "mollified_peakon", "c": 1.0, "x0": 0.0,
                         "mollify_width": 0.1},
        "solver": {"t_end": 1.0},
        "rate_cap_factor": 3.0,
    },
    "algebraic-persistence": {
        "grid": {"L": 20.0, "N": 4096},
        "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                         "center": 0.0},
        "solver": {"t_end": 0.5},
        "weights_to_track": [
            {"weight": {"kind": "standard", "a": 0.0, "b": 0.0, "c": 2.0,
                        "d": 0.0}, "p": "inf"},
            {"weight": {"kind": "standard", "a": 0.5, "b": 1.0, "c": 0.0,
                        "d": 0.0}, "p": 2},
            {"weight": {"kind": "standard", "a": 0.5, "b": 1.0, "c": 0.0,
                        "d": 0.0}, "p": "inf"},
        ],
        "profiles_enabled": True,
    },
    "fast-decay-breakdown": {
        "grid": {"L": 40.0, "N": 8192},
        "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                         "center": 0.0},
        "solver": {"t_end": 6.0, "slope_stop": -4.0, "boundary_tol": 1e-3},
    },
    "positive-momentum-global": {
        "grid": {"L": 30.0, "N": 4096},
        "initial_data": {"kind": "from_potential",
                         "m0": {"shape": "gaussian", "amplitude": 1.0,
                                "width": 1.0, "center": 0.0}},
        "solver": {"t_end": 10.0, "slope_stop": -10.0, "boundary_tol": 1e-6},
    },
    "sign-change-momentum": {
        "grid": {"L": 40.0, "N": 4096},
        "initial_data": {"kind": "from_potential",
                         "m0": {"shape": "tanh_gaussian", "amplitude": 1.0,
                                "slope_width": 1.0, "envelope_width": 6.0}},
        "solver": {"t_end": 10.0, "slope_stop": -10.0, "boundary_tol": 1e-6},
    },
    "tail-profiles": {
        "grid": {"L": 40.0, "N": 4096},
        "initial_data": {"kind": "mollified_peakon", "c": 1.0, "x0": 0.0,
                         "mollify_width": 0.1},
        "solver": {"t_end": 0.5, "snapshot_stride": 1},
        "weights_to_track": [
            {"weight": {"kind": "standard", "a": 0.5, "b": 1.0, "c": 0.5,
                        "d": 1.0}, "p": "inf"},
        ],
        "profiles_enabled": True,
    },
    "steep-odd-breakdown": {
        "grid": {"L": 20.0, "N": 4096},
        "initial_data": {"kind": "odd_gaussian_derivative", "amplitude": 1.0,
                         "width": 1.0},
        "solver": {"t_end": 6.0, "slope_stop": -4.0, "boundary_tol": 1e-3},
    },
    "decay-threshold-sweep": {
        "grid": {"L": 60.0, "N": 8192},
        "initial_data": {"kind": "mollified_exponential", "amplitude": 1.0,
                         "rate": 1.0, "center": 0.0, "mollify_width": 0.1},
        "solver": {"t_end": 5.0, "slope_stop": -1.5, "boundary_tol": 1e-3,
                   "snapshot_stride": 16},
    },
}

# The shipped configs/*.yaml, without their comments.
SHIPPED = {
    "gaussian-hump": {
        "grid": {"L": 30.0, "N": 1024},
        "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                         "center": 0.0},
        "solver": {"t_end": 1.0, "cfl": 0.3, "dt_max": 0.05,
                   "dt_floor": 1.0e-09, "slope_stop": -100.0,
                   "snapshot_stride": 8, "dealias": True,
                   "boundary_tol": 1.0e-08},
        "weights_to_track": [
            {"weight": {"kind": "standard", "a": 0.0, "b": 0.0, "c": 2.0,
                        "d": 0.0}, "p": "inf"},
            {"weight": {"kind": "standard", "a": 0.5, "b": 1.0, "c": 0.0,
                        "d": 0.0}, "p": 2},
        ],
        "profiles_enabled": True,
        "predictors_enabled": True,
    },
    "peakon-rate-cap": {
        "grid": {"L": 30.0, "N": 4096},
        "initial_data": {"kind": "mollified_peakon", "c": 1.0, "x0": 0.0,
                         "mollify_width": 0.1},
        "solver": {"t_end": 0.5, "snapshot_stride": 4},
        "rate_cap_factor": 2.0,
    },
    "steepening-breakdown": {
        "grid": {"L": 20.0, "N": 2048},
        "initial_data": {"kind": "odd_gaussian_derivative", "amplitude": 3.0,
                         "width": 1.0},
        "solver": {"t_end": 1.0, "slope_stop": -6.0, "snapshot_stride": 1},
    },
}

# Weight kinds that no builtin or shipped config tracks, certified on top
# of the tracked ones: one-sided, truncated, the threshold profile
# e^{|x|/2}(1+|x|)^{1/2} log(e+|x|)^{3/4}, and one sub-exponential weight.
# Super-critical weights (a > 1, b = 1) are left out: they run every
# quadrature halving and cost 33-52 s per certificate (see README.md).
EXTRA_WEIGHTS = [
    {"weight": {"kind": "one_sided", "a": 0.5}, "p": "inf"},
    {"weight": {"kind": "truncated", "cap": 1.0e4,
                "base": {"kind": "standard", "a": 1.0, "b": 1.0, "c": 0.0,
                         "d": 0.0}}, "p": 2},
    {"weight": {"kind": "standard", "a": 0.5, "b": 1.0, "c": 0.5,
                "d": 0.75}, "p": "inf"},
    {"weight": {"kind": "standard", "a": 0.5, "b": 0.5, "c": 0.0,
                "d": 0.0}, "p": 2},
]


def _certify_kinds() -> dict:
    base = copy.deepcopy(SHIPPED["gaussian-hump"])
    base["weights_to_track"] = copy.deepcopy(EXTRA_WEIGHTS)
    return base


CATALOG = dict(BUILTINS, **SHIPPED, **{"certify-kinds": _certify_kinds()})

SWEEP_AXIS = "initial_data.rate"
SWEEP_VALUES = (0.5, 0.8, 1.2, 2.0)
SWEEP_WORKERS = 2

#: workload -> (why, operations).  An operation is (command, config name).
WORKLOADS = {
    "solver-long": (
        "long runs at N = 4096 and 8192 with artifacts and no observers: "
        "the spectral solver does almost all the work",
        [("simulate", name) for name in (
            "positive-momentum-global", "sign-change-momentum",
            "peakon-travel", "steep-odd-breakdown", "fast-decay-breakdown",
            "decay-threshold-sweep")]),
    "observer-dense": (
        "runs that observe most steps with tail profiles, tracked weights "
        "and the rate cap: the observers dominate",
        [("simulate", name) for name in (
            "tail-profiles", "algebraic-persistence", "exponential-rate-cap",
            "gaussian-hump", "peakon-rate-cap", "steepening-breakdown")]),
    "certify": (
        "weight certificates only (quadrature), with repeated weights: "
        "only the weights layer works",
        [("certify", name) for name in (
            "algebraic-persistence", "tail-profiles", "gaussian-hump",
            "certify-kinds")]),
    "sweep": (
        "a 4-value decay-rate sweep on 2 worker processes sharing the "
        "cores: shows a change that trades one run's speed for threads",
        [("sweep", "decay-threshold-sweep")]),
}


def _scale_amplitude(config: dict, factor: float) -> None:
    data = config["initial_data"]
    if data["kind"] == "mollified_peakon":
        data["c"] = data["c"] * factor
    elif data["kind"] == "from_potential":
        data["m0"]["amplitude"] = data["m0"]["amplitude"] * factor
    else:
        data["amplitude"] = data["amplitude"] * factor


def amplitude_factors(seed: int) -> dict:
    """Config name -> amplitude factor; seed 0 gives 1.0 everywhere."""
    rng = random.Random(seed)
    return {name: (1.0 if seed == 0 else rng.uniform(*AMPLITUDE_RANGE))
            for name in sorted(CATALOG)}


def build_plan(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's configs as YAML into ``directory`` and return
    the plan: the seed, the factors used, the config paths and the ordered
    operations.  chlab receives only these generated files."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"one of: {', '.join(WORKLOADS)}")
    _, operations = WORKLOADS[workload]
    factors = amplitude_factors(seed)
    directory.mkdir(parents=True, exist_ok=True)
    configs, used = {}, {}
    for _, name in operations:
        if name in configs:
            continue
        config = copy.deepcopy(CATALOG[name])
        config["name"] = name
        _scale_amplitude(config, factors[name])
        path = directory / f"{name}.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=True))
        configs[name] = str(path)
        used[name] = factors[name]
    ops = []
    for command, name in operations:
        op = {"id": f"{command}:{name}", "command": command, "config": name,
              "N": CATALOG[name]["grid"]["N"]}
        if command == "sweep":
            op.update(axis=SWEEP_AXIS, values=list(SWEEP_VALUES),
                      workers=SWEEP_WORKERS)
        ops.append(op)
    return {"workload": workload, "seed": seed, "factors": used,
            "configs": configs, "ops": ops}
