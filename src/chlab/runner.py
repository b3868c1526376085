"""Scenario execution: one run or a parameter sweep, with artifacts.

``run_scenario`` wires the solver to every diagnostic layer the scenario
enables — weighted-norm traces, breakdown predictors, the critical-decay
rate cap, tail-profile accumulation — and condenses the outcome into a
single JSON-able summary.  Terminal statuses (wave breaking included) are
results, not errors: the function only raises for genuinely broken inputs.

``sweep`` repeats a base scenario across values of one config field.
Every value, at any ``workers`` count, runs in a child process of its own,
so a run that raises, or a child that dies, becomes an error row, not an
aborted sweep.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import (ConfigError, Scenario, canonical_json, scenario_from_dict,
                     scenario_to_dict)
from .diagnostics import (PersistenceTrace, decay_blowup_predict,
                          mckean_classify, peakon_rate_cap_check,
                          persistence_check, slope_criterion_predict)
from .field import Field, momentum_of
from .io import (PROFILE_CSV, RUN_CSV, SCHEMA_VERSION, SNAPSHOT_CSV,
                 SUMMARY_JSON, write_profile_csv, write_run_csv,
                 write_snapshot_csv, write_summary)
from .profiles import (ProfileAccumulator, TailReference, phi_psi,
                       profile_bounds_check, profile_report, reconstruct)
from .solver import RunLog, SolverState, Status, run

__all__ = ["ScenarioResult", "run_scenario", "sweep", "apply_axis"]

#: Statuses that mark finite-time breakdown of the computed solution (the
#: run log then brackets the breakdown time between the last two rows).
_BREAKDOWN_STATUSES = (Status.WAVE_BREAKING, Status.DT_COLLAPSE,
                       Status.NON_FINITE)


@dataclass
class ScenarioResult:
    """Everything one run produced: summary plus in-memory objects."""

    scenario: Scenario
    summary: dict
    state: SolverState
    log: RunLog
    profile_rows: Optional[List[Tuple[float, ...]]]
    outdir: Optional[Path]


def _predictor_table(u0: Field) -> dict:
    """All a-priori verdicts on the initial datum.

    These are one-directional sufficient conditions: a fired predictor
    means breakdown is guaranteed; a silent one promises nothing.
    """
    mc = mckean_classify(momentum_of(u0))
    slope = slope_criterion_predict(u0)
    decay = decay_blowup_predict(u0)
    return {
        "momentum_sign": {
            "verdict": mc.verdict.value,
            "x0": mc.x0,
            "predicts_global": mc.predicts_global,
        },
        "slope_criterion": {"fired": slope.fired, "evidence": slope.evidence},
        "decay_blowup": {"fired": decay.fired, "evidence": decay.evidence},
    }


def _weight_warnings(scenario: Scenario) -> List[str]:
    out = []
    for i, tw in enumerate(scenario.weights_to_track):
        if not getattr(tw.weight, "certifiable", True):
            out.append(
                f"weights_to_track[{i}]: {tw.weight} grows faster than "
                f"exponential (b > 1); moderateness cannot be certified and "
                f"the tracked norm has no persistence guarantee"
            )
    return out


def _drift(column: np.ndarray) -> float:
    """Largest relative excursion of a conserved quantity from its t=0
    value."""
    ref = float(column[0])
    scale = max(abs(ref), 1e-300)
    return float(np.max(np.abs(column - ref)) / scale)


def run_scenario(scenario: Scenario, out_root=None, seed: int = 0
                 ) -> ScenarioResult:
    """Execute one scenario and assemble its run summary.

    ``seed`` is recorded for provenance; the integration itself is
    deterministic, so identical effective config and seed reproduce every
    CSV byte-for-byte.  When ``out_root`` is given, artifacts are written
    under ``out_root/<name>-<content hash>/``.
    """
    t_wall = time.perf_counter()
    grid = scenario.grid
    u0 = scenario.build_initial()
    solver = scenario.solver

    # --- observers -------------------------------------------------------
    # Each tracked weight is evaluated once per snapshot: its trace records
    # W (and M), and the log column W_i is the value the trace recorded.
    traces = [PersistenceTrace(weight=tw.weight, p=tw.p)
              for tw in scenario.weights_to_track]
    observers = []
    extra_log = [(f"W_{i}", trace.record) for i, trace in enumerate(traces)]

    rate_cap_cap = None
    rate_cap_samples: List[Tuple[float, float]] = []
    if scenario.rate_cap_factor is not None:
        sup0 = peakon_rate_cap_check(u0, C=math.inf).sup_value
        rate_cap_cap = scenario.rate_cap_factor * sup0

        def rate_cap_observer(s: SolverState, cap=rate_cap_cap):
            result = peakon_rate_cap_check(s.u, C=cap)
            rate_cap_samples.append((s.t, result.sup_value))

        observers.append(rate_cap_observer)

    acc: Optional[ProfileAccumulator] = None
    profile_rows: Optional[List[Tuple[float, ...]]] = None
    amplitude_series: List[Tuple[float, float]] = []
    profile_error: List[str] = []
    if scenario.profiles_enabled:
        acc = ProfileAccumulator(grid, dealias=solver.dealias)
        reference = TailReference.of(u0)
        profile_rows = []

        def profile_observer(s: SolverState):
            if profile_error:
                return
            acc.accumulate(s.u, s.t)
            if s.t <= 0.0:
                return
            try:
                Phi, Psi = phi_psi(acc, s.t)
            except ValueError as exc:
                # The weighted integrals have sunk to the contamination
                # guard (tails off the grid, or noise floor reached); keep
                # the rows collected so far and record why they stop.
                profile_error.append(f"profiles stopped at t={s.t:.6g}: {exc}")
                return
            amplitude_series.append((Phi, Psi))
            report = profile_report(acc, s.u, reference, s.t,
                                    amplitude_series)
            profile_rows.append((s.t, Phi, Psi, report.c1, report.c2,
                                 report.max_eps_plus, report.max_eps_minus))

        observers.append(profile_observer)

    # --- integrate ---------------------------------------------------------
    state, log = run(u0, solver, observers=observers, extra_log=extra_log)

    # --- condense ----------------------------------------------------------
    config = scenario.effective_config()
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.name,
        "config": config,
        "config_hash": scenario.content_hash(),
        "seed": int(seed),
        "status": state.status.value,
        "t_final": state.t,
        "steps": state.step_count,
        "conservation": {
            "energy_drift_rel": _drift(log.column("energy")),
            "mass_drift_rel": _drift(log.column("mass")),
        },
        "weight_warnings": _weight_warnings(scenario),
    }

    if state.status in _BREAKDOWN_STATUSES and len(log.rows) >= 2:
        summary["t_star_bracket"] = [log.rows[-2].t, log.rows[-1].t]
    else:
        summary["t_star_bracket"] = None

    summary["predictors"] = (_predictor_table(u0)
                             if scenario.predictors_enabled else None)

    persistence = []
    for tw, trace, echo in zip(scenario.weights_to_track, traces,
                               config["weights_to_track"]):
        report = persistence_check(trace)
        persistence.append({
            "weight": echo["weight"],
            "weight_str": str(tw.weight),
            "p": echo["p"],
            "W0": report.W0,
            "sup_W": report.sup_W,
            "C_fit": report.C_fit,
            "passed": report.passed,
            "diverged": report.diverged,
            "t_valid": list(report.t_valid),
        })
    summary["persistence"] = persistence

    if rate_cap_cap is not None:
        sups = np.array([s for _, s in rate_cap_samples])
        max_sup = float(np.max(sups)) if sups.size else math.nan
        summary["rate_cap"] = {
            "factor": scenario.rate_cap_factor,
            "sup_initial": rate_cap_samples[0][1] if rate_cap_samples else math.nan,
            "cap": rate_cap_cap,
            "max_sup": max_sup,
            "t_max_sup": (float(rate_cap_samples[int(np.argmax(sups))][0])
                          if sups.size else math.nan),
            "passed": bool(max_sup <= rate_cap_cap),
        }
    else:
        summary["rate_cap"] = None

    if acc is not None and profile_rows:
        c1, c2, positive = profile_bounds_check(amplitude_series)
        last = profile_rows[-1]
        if profile_error:
            # The accumulator stopped before the terminal state, so the
            # reconstruction identity has no state to compare against.
            recon_err = None
        else:
            recon = reconstruct(acc, u0)
            recon_err = float(np.max(np.abs(recon.values - state.u.values))
                              / max(np.max(np.abs(state.u.values)), 1e-300))
        summary["profiles"] = {
            "Phi0": reference.Phi0,
            "Psi0": reference.Psi0,
            "snapshots": len(profile_rows),
            "c1": c1,
            "c2": c2,
            "c1_positive": positive,
            "Phi_final": last[1],
            "Psi_final": last[2],
            "max_eps_plus": last[5],
            "max_eps_minus": last[6],
            "reconstruction_error_rel": recon_err,
            "error": profile_error[0] if profile_error else None,
        }
    elif acc is not None:
        summary["profiles"] = {
            "snapshots": 0,
            "error": profile_error[0] if profile_error
            else "no snapshots past t=0",
        }
    else:
        summary["profiles"] = None

    summary["timing_seconds"] = round(time.perf_counter() - t_wall, 6)

    # --- artifacts ---------------------------------------------------------
    outdir: Optional[Path] = None
    if out_root is not None:
        outdir = Path(out_root) / scenario.run_dirname()
        outdir.mkdir(parents=True, exist_ok=True)
        artifacts = {"run_csv": RUN_CSV, "snapshot_csv": SNAPSHOT_CSV,
                     "summary_json": SUMMARY_JSON}
        write_run_csv(outdir / RUN_CSV, log)
        write_snapshot_csv(outdir / SNAPSHOT_CSV, grid, u0.values,
                           state.u.values)
        if profile_rows is not None:
            write_profile_csv(outdir / PROFILE_CSV, profile_rows)
            artifacts["profile_csv"] = PROFILE_CSV
        summary["artifacts"] = artifacts
        write_summary(outdir / SUMMARY_JSON, summary)

    return ScenarioResult(scenario=scenario, summary=summary, state=state,
                          log=log, profile_rows=profile_rows, outdir=outdir)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def apply_axis(config: Mapping, axis: str, value) -> dict:
    """Return a copy of a config dict with the dotted-path ``axis`` set.

    The path must already exist (sweeping can change values, not invent
    fields), and integer-valued fields stay integers so grid sizes sweep
    cleanly.
    """
    if not axis:
        raise ConfigError("axis", "empty sweep axis")
    out = {k: (dict(v) if isinstance(v, Mapping) else v)
           for k, v in config.items()}
    node = out
    parts = axis.split(".")
    for j, part in enumerate(parts[:-1]):
        here = ".".join(parts[: j + 1])
        if not isinstance(node, dict) or part not in node:
            raise ConfigError("axis", f"no config section {here!r}")
        if isinstance(node[part], Mapping):
            node[part] = dict(node[part])
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        available = sorted(node) if isinstance(node, dict) else []
        raise ConfigError(
            "axis", f"no config field {axis!r}; available here: "
                    f"{', '.join(available)}")
    if isinstance(node[leaf], int) and not isinstance(node[leaf], bool):
        if float(value) != int(value):
            raise ConfigError("axis", f"{axis} takes integers, got {value}")
        value = int(value)
    else:
        value = float(value)
    node[leaf] = value
    return out


def _error_row(axis: str, value, error: Optional[str]) -> dict:
    return {"axis": axis, "value": value, "status": "Error", "t_final": None,
            "t_star_bracket": None, "config_hash": None, "predictors": None,
            "dir": None, "error": error}


def _sweep_worker(conn, base, axis, value, out_root, seed) -> None:
    """Run one sweep value in a child process and send its row.  A run
    that raises is sent as an error row; a child that dies before it
    sends is turned into one by the parent."""
    row = _error_row(axis, value, None)
    try:
        scenario = scenario_from_dict(apply_axis(base, axis, value))
        result = run_scenario(scenario, out_root=out_root, seed=seed)
        s = result.summary
        row.update(status=s["status"], t_final=s["t_final"],
                   t_star_bracket=s["t_star_bracket"],
                   config_hash=s["config_hash"], predictors=s["predictors"],
                   dir=scenario.run_dirname())
    except Exception as exc:  # isolation: a bad run is a row, not a crash
        row["error"] = f"{type(exc).__name__}: {exc}"
    conn.send(row)
    conn.close()


def _exit_cause(exitcode: Optional[int]) -> str:
    if exitcode is not None and exitcode < 0:
        try:
            return f"killed by {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"killed by signal {-exitcode}"
    return f"exit status {exitcode}"


def _run_children(jobs: List[tuple], n_workers: int) -> List[dict]:
    """Run each job once in a child process of its own, with at most
    ``n_workers`` alive at a time, and return the rows in input order.
    A child that dies before it sends its row becomes an error row naming
    the exit cause (exit status or signal)."""
    ctx = multiprocessing.get_context()
    rows: List[Optional[dict]] = [None] * len(jobs)
    pending = list(enumerate(jobs))
    running = {}  # pipe reader -> (job index, child)
    try:
        while pending or running:
            while pending and len(running) < n_workers:
                index, job = pending.pop(0)
                reader, writer = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_sweep_worker, args=(writer, *job))
                child.start()
                writer.close()
                running[reader] = (index, child)
            for reader in wait(list(running)):
                index, child = running.pop(reader)
                try:
                    rows[index] = reader.recv()
                except (EOFError, OSError):  # died before it sent
                    pass
                reader.close()
                child.join()
                if rows[index] is None:
                    _, axis, value, _, _ = jobs[index]
                    rows[index] = _error_row(
                        axis, value,
                        f"worker died: {_exit_cause(child.exitcode)}")
    finally:
        for reader, (_, child) in running.items():
            child.kill()
            child.join()
            reader.close()
    return rows


def sweep(base: Scenario, axis: str, values: Sequence[float], out_root=None,
          workers: Optional[int] = None, seed: int = 0) -> dict:
    """Run the base scenario once per axis value.

    Every value, at any ``workers`` count, runs in a child process of its
    own, with at most ``workers`` children alive at a time (default: one
    per value, capped at the CPU count).  Returns a sweep summary with one
    row per value in input order.  A run that raises, and a child process
    that dies (out of memory, a crash), each become an error row; the
    other values complete.  When ``out_root`` is given, each run writes
    its usual artifact directory and the sweep table lands in
    ``out_root/<name>-sweep-<hash>/``.
    """
    values = list(values)
    if not values:
        raise ConfigError("values", "empty sweep value list")
    if workers is not None and workers < 1:
        raise ConfigError("workers", f"need at least 1 worker, got {workers}")
    base_dict = scenario_to_dict(base)
    # Validate the axis (and surface bad paths) before starting children.
    apply_axis(base_dict, axis, values[0])

    out_root_str = str(out_root) if out_root is not None else None
    jobs = [(base_dict, axis, value, out_root_str, seed) for value in values]
    rows = _run_children(jobs, workers or min(len(jobs), os.cpu_count() or 1))

    digest = hashlib.sha256(canonical_json(
        {"base": base_dict, "axis": axis, "values": values}).encode())
    summary = {
        "schema_version": SCHEMA_VERSION,
        "scenario": base.name,
        "axis": axis,
        "values": values,
        "seed": int(seed),
        "base_config": base_dict,
        "sweep_hash": digest.hexdigest()[:12],
        "rows": rows,
    }

    if out_root is not None:
        sweep_dir = Path(out_root) / f"{base.name}-sweep-{summary['sweep_hash']}"
        sweep_dir.mkdir(parents=True, exist_ok=True)
        _write_sweep_csv(sweep_dir / "sweep.csv", rows)
        write_summary(sweep_dir / "sweep.json", summary)
        summary["dir"] = str(sweep_dir)
    return summary


def _write_sweep_csv(path: Path, rows: Iterable[Mapping]) -> None:
    import csv

    from .io import format_number

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("value", "status", "t_final", "bracket_lo",
                         "bracket_hi", "error"))
        for row in rows:
            bracket = row["t_star_bracket"] or (math.nan, math.nan)
            t_final = math.nan if row["t_final"] is None else row["t_final"]
            writer.writerow((
                format_number(row["value"]), row["status"],
                format_number(t_final), format_number(bracket[0]),
                format_number(bracket[1]), row["error"] or ""))
