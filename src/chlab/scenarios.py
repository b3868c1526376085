"""Builtin scenario catalog.

The catalog holds one complete run description per entry, a config dict
named by its key after the behavior it demonstrates.  It goes through the
same parser as user YAML files, so a builtin and a config file with the
same contents are indistinguishable downstream (identical effective
config, identical content hash, identical artifacts).

Grid sizes, end times, and stopping thresholds were tuned so every run
finishes in seconds while staying inside its trustworthy numerical regime:
tails clear of the periodic boundary, steepening resolved up to the
stopping slope, weighted norms above the spectral noise floor.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .config import Scenario, scenario_from_dict

__all__ = ["builtin_scenario", "builtin_names", "describe_builtins"]

#: name -> (description, config without "name": the key names it)
BUILTIN_SCENARIOS: Dict[str, Tuple[str, dict]] = {
    "peakon-travel": (
        "mollified peakon translating at unit speed: transport fidelity "
        "of the scheme on the least regular traveling profile",
        {"grid": {"L": 40.0, "N": 4096},
         "initial_data": {"kind": "mollified_peakon", "c": 1.0, "x0": 0.0,
                          "mollify_width": 0.1},
         "solver": {"t_end": 1.0}}),
    "exponential-rate-cap": (
        "mollified peakon with the critical-decay cap monitored: "
        "sup e^{|x|}(|u|+|u_x|) must stay under a fixed multiple of its "
        "initial value",
        {"grid": {"L": 40.0, "N": 8192},
         "initial_data": {"kind": "mollified_peakon", "c": 1.0, "x0": 0.0,
                          "mollify_width": 0.1},
         "solver": {"t_end": 1.0}, "rate_cap_factor": 3.0}),
    "algebraic-persistence": (
        "smooth Gaussian hump tracked in algebraically and exponentially "
        "weighted norms: persistence with a fitted exponential envelope",
        {"grid": {"L": 20.0, "N": 4096},
         "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                          "center": 0.0},
         "solver": {"t_end": 0.5},
         "weights_to_track": [
             {"weight": {"kind": "standard", "a": 0.0, "b": 0.0, "c": 2.0,
                         "d": 0.0}, "p": "inf"},
             {"weight": {"kind": "standard", "a": 0.5, "b": 1.0, "c": 0.0,
                         "d": 0.0}, "p": 2},
             {"weight": {"kind": "standard", "a": 0.5, "b": 1.0, "c": 0.0,
                         "d": 0.0}, "p": "inf"}],
         "profiles_enabled": True}),
    "fast-decay-breakdown": (
        "Gaussian hump (decays faster than e^{-|x|}): steepens and breaks; "
        "run ends at the stopping slope with a breakdown-time bracket",
        {"grid": {"L": 40.0, "N": 8192},
         "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                          "center": 0.0},
         "solver": {"t_end": 6.0, "slope_stop": -4.0, "boundary_tol": 1e-3}}),
    "positive-momentum-global": (
        "single-signed initial potential m0 >= 0: slope stays bounded over "
        "a long run, matching the sign-pattern prediction of global "
        "existence",
        {"grid": {"L": 30.0, "N": 4096},
         "initial_data": {"kind": "from_potential",
                          "m0": {"shape": "gaussian", "amplitude": 1.0,
                                 "width": 1.0, "center": 0.0}},
         "solver": {"t_end": 10.0, "slope_stop": -10.0,
                    "boundary_tol": 1e-6}}),
    "sign-change-momentum": (
        "initial potential changing sign once from negative to positive: "
        "the other sign pattern that predicts a global solution",
        {"grid": {"L": 40.0, "N": 4096},
         "initial_data": {"kind": "from_potential",
                          "m0": {"shape": "tanh_gaussian", "amplitude": 1.0,
                                 "slope_width": 1.0, "envelope_width": 6.0}},
         "solver": {"t_end": 10.0, "slope_stop": -10.0,
                    "boundary_tol": 1e-6}}),
    "tail-profiles": (
        "mollified peakon with dense snapshots and tail-profile "
        "accumulation: weighted tail functionals, residual windows, and "
        "the time-integrated reconstruction identity",
        {"grid": {"L": 40.0, "N": 4096},
         "initial_data": {"kind": "mollified_peakon", "c": 1.0, "x0": 0.0,
                          "mollify_width": 0.1},
         "solver": {"t_end": 0.5, "snapshot_stride": 1},
         "weights_to_track": [
             {"weight": {"kind": "standard", "a": 0.5, "b": 1.0, "c": 0.5,
                         "d": 1.0}, "p": "inf"}],
         "profiles_enabled": True}),
    "steep-odd-breakdown": (
        "odd Gaussian-derivative datum with a steep negative slope at the "
        "origin: both a-priori predictors fire and the run breaks",
        {"grid": {"L": 20.0, "N": 4096},
         "initial_data": {"kind": "odd_gaussian_derivative", "amplitude": 1.0,
                          "width": 1.0},
         "solver": {"t_end": 6.0, "slope_stop": -4.0, "boundary_tol": 1e-3}}),
    "decay-threshold-sweep": (
        "mollified exponential e^{-a|x|} for sweeping the decay rate a "
        "across the critical value 1: slower-than-critical tails persist, "
        "faster-than-critical tails break",
        {"grid": {"L": 60.0, "N": 8192},
         "initial_data": {"kind": "mollified_exponential", "amplitude": 1.0,
                          "rate": 1.0, "center": 0.0, "mollify_width": 0.1},
         "solver": {"t_end": 5.0, "slope_stop": -1.5, "boundary_tol": 1e-3,
                    "snapshot_stride": 16}}),
}


def builtin_names() -> List[str]:
    return sorted(BUILTIN_SCENARIOS)


def builtin_scenario(name: str) -> Scenario:
    """Build and validate a builtin scenario by name."""
    if name not in BUILTIN_SCENARIOS:
        known = ", ".join(builtin_names())
        raise KeyError(f"unknown builtin scenario {name!r}; available: {known}")
    return scenario_from_dict(BUILTIN_SCENARIOS[name][1], default_name=name)


def describe_builtins() -> List[Tuple[str, str]]:
    """(name, one-line description) for every builtin, sorted by name."""
    return [(name, BUILTIN_SCENARIOS[name][0]) for name in builtin_names()]
