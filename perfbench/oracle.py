"""Correctness oracle: every operation's artifacts are checked after it ran.

An operation fails when its status is not the expected fate, when a
conserved quantity drifts past its bound, when a diagnostic verdict is
negative, when a certificate gives the wrong verdict, or (at seed 0) when
a pinned value moves by more than roundoff.  A faster wrong answer is a
failure, not a gain.

The bounds on energy drift are ten times the largest drift measured for
that config at amplitude factors 0.95, 1.0 and 1.05.  The pins were
measured at seed 0; the relative tolerance ``PIN_RTOL`` admits the
roundoff-level movement that reordering floating-point work may cause.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

PIN_RTOL = 1e-9
MASS_TOL = 1e-10            # |mass(t) - mass(0)| / ||u0||_L1
RECONSTRUCTION_TOL = 2e-2   # profiles.reconstruction_error_rel

BREAKING = "WaveBreaking"
EXPECTED_STATUS = {
    "fast-decay-breakdown": BREAKING,
    "steep-odd-breakdown": BREAKING,
    "steepening-breakdown": BREAKING,
    "gaussian-hump": "BoundaryContaminated",
}

ENERGY_DRIFT_BOUND = {
    "peakon-travel": 5e-7,
    "exponential-rate-cap": 2e-8,
    "algebraic-persistence": 1e-10,
    "fast-decay-breakdown": 1e-4,
    "positive-momentum-global": 4e-4,
    "sign-change-momentum": 6e-7,
    "tail-profiles": 7e-8,
    "steep-odd-breakdown": 4e-8,
    "decay-threshold-sweep": 1e-3,
    "gaussian-hump": 4e-7,
    "peakon-rate-cap": 2e-8,
    "steepening-breakdown": 3e-8,
}

# Seed 0: RK4 steps and breakdown bracket of every simulated config.
PINNED_RUNS = {
    "algebraic-persistence": (171, None),
    "decay-threshold-sweep": (1064, None),
    "exponential-rate-cap": (317, None),
    "fast-decay-breakdown": (595, [1.7384650798045376, 1.7474084838134374]),
    "peakon-travel": (158, None),
    "positive-momentum-global": (1337, None),
    "sign-change-momentum": (1322, None),
    "steep-odd-breakdown": (152, [1.1595911135132069, 1.246049679277911]),
    "tail-profiles": (79, None),
    "gaussian-hump": (36, None),
    "peakon-rate-cap": (106, None),
    "steepening-breakdown": (52, [0.2548713569389412, 0.26056908123611305]),
}

# The sweep varies decay-threshold-sweep's rate: bound and seed-0 pins
# (RK4 steps, breakdown bracket) by rate.
SWEEP_ENERGY_DRIFT_BOUND = {0.5: 6e-9, 0.8: 6e-7, 1.2: 4e-5, 2.0: 7e-8}
PINNED_SWEEP = {
    0.5: (1061, None),
    0.8: (1063, None),
    1.2: (320, [1.4656459024781283, 1.542753710693491]),
    2.0: (50, [0.24586573219737579, 0.25612027333995946]),
}

# By weight: the integral of v e^{-|x|} (independent of the seed) and the
# sampled constants C0 and A at seed 0.
PINNED_CERTIFICATES = {
    "exp(0.0|x|^0.0)(1+|x|)^2.0log(e+|x|)^0.0": {
        "integral_v_exp": 9.999999999379153,
        "C0": 0.9981276357679427, "A": 1.9951663648547935},
    "exp(0.5|x|^1.0)(1+|x|)^0.0log(e+|x|)^0.0": {
        "integral_v_exp": 4.000000000456962, "C0": 1.0, "A": 0.5},
    "exp(0.5|x|^1.0)(1+|x|)^0.5log(e+|x|)^1.0": {
        "integral_v_exp": 10.534874382881435,
        "C0": 0.9982814019964703, "A": 1.366016307428597},
    "exp(0.5*max(x,0))": {
        "integral_v_exp": 3.0000000005389214, "C0": 1.0, "A": 0.5},
    "min(exp(1.0|x|^1.0)(1+|x|)^0.0log(e+|x|)^0.0, 10000.0)": {
        "integral_v_exp": 20.420680743941343, "C0": 1.0, "A": 1.0},
    "exp(0.5|x|^1.0)(1+|x|)^0.5log(e+|x|)^0.75": {
        "integral_v_exp": 9.329665614314422,
        "C0": 0.9983667577732237, "A": 1.2742101283748724},
    "exp(0.5|x|^0.5)(1+|x|)^0.0log(e+|x|)^0.0": {
        "integral_v_exp": 3.2040654499006784,
        "C0": 0.9849938871655723, "A": 5.079168646497583},
}


def _close(a, b, rtol=PIN_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _one(paths, what):
    paths = sorted(paths)
    if len(paths) != 1:
        raise FileNotFoundError(f"expected one {what}, found {len(paths)}")
    return paths[0]


def _column(path: Path, name: str) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(name)
    return [float(r[j]) for r in rows[1:]]


def check_run(summary_path: Path, expected_status: str, drift_bound: float,
              pin=None) -> tuple:
    """Check one run directory against its expected status, its energy
    drift bound and, when given, its pinned (steps, bracket).  Returns
    (errors, facts)."""
    errors = []
    run_dir = summary_path.parent
    s = json.loads(summary_path.read_text())
    facts = {"steps": s["steps"], "N": s["config"]["grid"]["N"],
             "energy_drift": s["conservation"]["energy_drift_rel"],
             "timing_s": s["timing_seconds"]}
    if s["status"] != expected_status:
        errors.append(f"status {s['status']}, expected {expected_status}")
    drift = s["conservation"]["energy_drift_rel"]
    if not drift <= drift_bound:
        errors.append(f"energy drift {drift:.3e} > {drift_bound:.0e}")
    mass = _column(run_dir / "run.csv", "mass")
    u0 = _column(run_dir / "snapshots.csv", "u_initial")
    x = _column(run_dir / "snapshots.csv", "x")
    l1 = sum(abs(v) for v in u0) * (x[1] - x[0])
    mass_drift = max(abs(m - mass[0]) for m in mass) / l1
    if not mass_drift <= MASS_TOL:
        errors.append(f"mass drift {mass_drift:.3e} of ||u0||_1 > {MASS_TOL:.0e}")
    for i, row in enumerate(s["persistence"]):
        if row["passed"] is not True:
            errors.append(f"persistence[{i}] not passed")
    if s["rate_cap"] is not None and s["rate_cap"]["passed"] is not True:
        errors.append("rate cap exceeded")
    prof = s["profiles"]
    if prof is not None:
        if prof.get("error"):
            errors.append(f"profiles error: {prof['error']}")
        elif prof.get("c1_positive") is not True:
            errors.append("profiles c1 not positive")
        else:
            recon = prof["reconstruction_error_rel"]
            if recon is None or not recon <= RECONSTRUCTION_TOL:
                errors.append(f"reconstruction error {recon} > "
                              f"{RECONSTRUCTION_TOL}")
        if not (run_dir / "profile.csv").is_file():
            errors.append("profile.csv missing")
    if pin is not None:
        steps, bracket = pin
        if s["steps"] != steps:
            errors.append(f"steps {s['steps']}, pinned {steps}")
        got = s["t_star_bracket"]
        if (got is None) != (bracket is None) or (
                got is not None
                and not all(_close(a, b) for a, b in zip(got, bracket))):
            errors.append(f"t_star_bracket {got}, pinned {bracket}")
    return errors, facts


def check_simulate(out: Path, op: dict, seed: int) -> tuple:
    name = op["config"]
    summary = _one(out.glob("*/summary.json"), "summary.json")
    errors, facts = check_run(summary, EXPECTED_STATUS.get(name, "ReachedTEnd"),
                              ENERGY_DRIFT_BOUND[name],
                              PINNED_RUNS[name] if seed == 0 else None)
    return errors, {"runs": [facts]}


def check_certify(out: Path, op: dict, seed: int) -> tuple:
    path = _one(out.glob("*/weight_certificates.json"),
                "weight_certificates.json")
    doc = json.loads(path.read_text())
    errors, keys = [], []
    if doc["seed"] != seed:
        errors.append(f"certificates carry seed {doc['seed']}, not {seed}")
    for rec in doc["certificates"]:
        cert, weight = rec["certificate"], rec["weight"]
        keys.append(weight)
        if cert["admissible"] is not True or not cert["quadrature_converged"]:
            errors.append(f"{weight}: not certified admissible")
            continue
        if not (math.isfinite(cert["C0"]) and math.isfinite(cert["A"])):
            errors.append(f"{weight}: non-finite C0 or A")
        pin = PINNED_CERTIFICATES.get(weight)
        if pin is None:
            errors.append(f"{weight}: no pinned certificate")
            continue
        if not _close(cert["integral_v_exp"], pin["integral_v_exp"]):
            errors.append(f"{weight}: integral {cert['integral_v_exp']!r}, "
                          f"pinned {pin['integral_v_exp']!r}")
        if seed == 0 and not (_close(cert["C0"], pin["C0"])
                              and _close(cert["A"], pin["A"])):
            errors.append(f"{weight}: C0/A moved from the seed-0 pins")
    return errors, {"certified": keys}


def check_sweep(out: Path, op: dict, seed: int) -> tuple:
    path = _one(out.glob("*-sweep-*/sweep.json"), "sweep.json")
    doc = json.loads(path.read_text())
    errors, runs, failed_rows = [], [], 0
    if not (path.parent / "sweep.csv").is_file():
        errors.append("sweep.csv missing")
    if [row["value"] for row in doc["rows"]] != op["values"]:
        errors.append("sweep rows do not match the requested values")
    for row in doc["rows"]:
        rate = row["value"]
        expected = "ReachedTEnd" if rate < 1.0 else BREAKING
        row_errors = []
        if row["error"]:
            row_errors.append(f"error row: {row['error']}")
        else:
            if row["status"] != expected:
                row_errors.append(f"status {row['status']}, expected {expected}")
            run_errors, facts = check_run(
                out / row["dir"] / "summary.json", expected,
                SWEEP_ENERGY_DRIFT_BOUND[rate],
                PINNED_SWEEP[rate] if seed == 0 else None)
            row_errors += run_errors
            runs.append(facts)
        if row_errors:
            failed_rows += 1
            errors += [f"rate {rate}: {e}" for e in row_errors]
    return errors, {"runs": runs, "failed_rows": failed_rows}


CHECKS = {"simulate": check_simulate, "certify": check_certify,
          "sweep": check_sweep}


def check(out: Path, op: dict, seed: int) -> tuple:
    """Errors (empty when correct) and facts for one operation's output."""
    try:
        return CHECKS[op["command"]](out, op, seed)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
