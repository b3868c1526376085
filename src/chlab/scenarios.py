"""Builtin scenario catalog.

Each entry is a complete, validated-by-construction run description named
by the behavior it demonstrates.  The catalog returns plain config dicts
that go through the same parser as user YAML files, so a builtin and a
config file with the same contents are indistinguishable downstream
(identical effective config, identical content hash, identical artifacts).

Grid sizes, end times, and stopping thresholds were tuned so every run
finishes in seconds while staying inside its trustworthy numerical regime:
tails clear of the periodic boundary, steepening resolved up to the
stopping slope, weighted norms above the spectral noise floor.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .config import Scenario, scenario_from_dict

__all__ = ["builtin_scenario", "builtin_names", "describe_builtins"]


def _peakon_travel() -> dict:
    return {
        "name": "peakon-travel",
        "grid": {"L": 40.0, "N": 4096},
        "initial_data": {"kind": "mollified_peakon", "c": 1.0, "x0": 0.0,
                         "mollify_width": 0.1},
        "solver": {"t_end": 1.0},
    }


def _exponential_rate_cap() -> dict:
    return {
        "name": "exponential-rate-cap",
        "grid": {"L": 40.0, "N": 8192},
        "initial_data": {"kind": "mollified_peakon", "c": 1.0, "x0": 0.0,
                         "mollify_width": 0.1},
        "solver": {"t_end": 1.0},
        "rate_cap_factor": 3.0,
    }


def _algebraic_persistence() -> dict:
    return {
        "name": "algebraic-persistence",
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
    }


def _fast_decay_breakdown() -> dict:
    return {
        "name": "fast-decay-breakdown",
        "grid": {"L": 40.0, "N": 8192},
        "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                         "center": 0.0},
        "solver": {"t_end": 6.0, "slope_stop": -4.0, "boundary_tol": 1e-3},
    }


def _positive_momentum_global() -> dict:
    return {
        "name": "positive-momentum-global",
        "grid": {"L": 30.0, "N": 4096},
        "initial_data": {"kind": "from_potential",
                         "m0": {"shape": "gaussian", "amplitude": 1.0,
                                "width": 1.0, "center": 0.0}},
        "solver": {"t_end": 10.0, "slope_stop": -10.0, "boundary_tol": 1e-6},
    }


def _sign_change_momentum() -> dict:
    return {
        "name": "sign-change-momentum",
        "grid": {"L": 40.0, "N": 4096},
        "initial_data": {"kind": "from_potential",
                         "m0": {"shape": "tanh_gaussian", "amplitude": 1.0,
                                "slope_width": 1.0, "envelope_width": 6.0}},
        "solver": {"t_end": 10.0, "slope_stop": -10.0, "boundary_tol": 1e-6},
    }


def _tail_profiles() -> dict:
    return {
        "name": "tail-profiles",
        "grid": {"L": 40.0, "N": 4096},
        "initial_data": {"kind": "mollified_peakon", "c": 1.0, "x0": 0.0,
                         "mollify_width": 0.1},
        "solver": {"t_end": 0.5, "snapshot_stride": 1},
        "weights_to_track": [
            {"weight": {"kind": "standard", "a": 0.5, "b": 1.0, "c": 0.5,
                        "d": 1.0}, "p": "inf"},
        ],
        "profiles_enabled": True,
    }


def _steep_odd_breakdown() -> dict:
    return {
        "name": "steep-odd-breakdown",
        "grid": {"L": 20.0, "N": 4096},
        "initial_data": {"kind": "odd_gaussian_derivative", "amplitude": 1.0,
                         "width": 1.0},
        "solver": {"t_end": 6.0, "slope_stop": -4.0, "boundary_tol": 1e-3},
    }


def _decay_threshold_sweep() -> dict:
    return {
        "name": "decay-threshold-sweep",
        "grid": {"L": 60.0, "N": 8192},
        "initial_data": {"kind": "mollified_exponential", "amplitude": 1.0,
                         "rate": 1.0, "center": 0.0, "mollify_width": 0.1},
        "solver": {"t_end": 5.0, "slope_stop": -1.5, "boundary_tol": 1e-3,
                   "snapshot_stride": 16},
    }


#: name -> (description, config factory)
BUILTIN_SCENARIOS: Dict[str, Tuple[str, callable]] = {
    "peakon-travel": (
        "mollified peakon translating at unit speed: transport fidelity "
        "of the scheme on the least regular traveling profile",
        _peakon_travel),
    "exponential-rate-cap": (
        "mollified peakon with the critical-decay cap monitored: "
        "sup e^{|x|}(|u|+|u_x|) must stay under a fixed multiple of its "
        "initial value",
        _exponential_rate_cap),
    "algebraic-persistence": (
        "smooth Gaussian hump tracked in algebraically and exponentially "
        "weighted norms: persistence with a fitted exponential envelope",
        _algebraic_persistence),
    "fast-decay-breakdown": (
        "Gaussian hump (decays faster than e^{-|x|}): steepens and breaks; "
        "run ends at the stopping slope with a breakdown-time bracket",
        _fast_decay_breakdown),
    "positive-momentum-global": (
        "single-signed initial potential m0 >= 0: slope stays bounded over "
        "a long run, matching the sign-pattern prediction of global "
        "existence",
        _positive_momentum_global),
    "sign-change-momentum": (
        "initial potential changing sign once from negative to positive: "
        "the other sign pattern that predicts a global solution",
        _sign_change_momentum),
    "tail-profiles": (
        "mollified peakon with dense snapshots and tail-profile "
        "accumulation: weighted tail functionals, residual windows, and "
        "the time-integrated reconstruction identity",
        _tail_profiles),
    "steep-odd-breakdown": (
        "odd Gaussian-derivative datum with a steep negative slope at the "
        "origin: both a-priori predictors fire and the run breaks",
        _steep_odd_breakdown),
    "decay-threshold-sweep": (
        "mollified exponential e^{-a|x|} for sweeping the decay rate a "
        "across the critical value 1: slower-than-critical tails persist, "
        "faster-than-critical tails break",
        _decay_threshold_sweep),
}


def builtin_names() -> List[str]:
    return sorted(BUILTIN_SCENARIOS)


def builtin_scenario(name: str) -> Scenario:
    """Build and validate a builtin scenario by name."""
    if name not in BUILTIN_SCENARIOS:
        known = ", ".join(builtin_names())
        raise KeyError(f"unknown builtin scenario {name!r}; available: {known}")
    _, factory = BUILTIN_SCENARIOS[name]
    return scenario_from_dict(factory())


def describe_builtins() -> List[Tuple[str, str]]:
    """(name, one-line description) for every builtin, sorted by name."""
    return [(name, BUILTIN_SCENARIOS[name][0]) for name in builtin_names()]
