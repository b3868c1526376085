"""Scenario execution: one run or a parameter sweep, with artifacts.

``run_scenario`` hands the solver one probe per diagnostic layer the
scenario enables — weighted-norm traces, the critical-decay rate cap,
tail-profile accumulation — and ``summarize`` builds every block of the
JSON-able summary from the datum and the tables the run records: the run
log and the profile rows.  Terminal statuses (wave breaking included) are
results, not errors: a run only raises for genuinely broken inputs.

``sweep`` repeats a base scenario across values of one config field.  It
decodes each value's scenario once, in the parent, and hands it to a child
process of its own at any ``workers`` count, so a run that raises, or a
child that dies, becomes an error row, not an aborted sweep.
"""

from __future__ import annotations

import math
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import ConfigError, Scenario, content_digest, scenario_from_dict
from .diagnostics import (PersistenceTrace, RateCapTrace, persistence_check,
                          predictor_table, rate_cap_check)
from .field import Field
from .io import (PROFILE_CSV, RUN_CSV, SCHEMA_VERSION, SNAPSHOT_CSV,
                 SUMMARY_JSON, format_number, write_profile_csv,
                 write_run_csv, write_snapshot_csv, write_summary)
from .profiles import ProfileAccumulator, phi0_psi0
from .solver import RunLog, Status, run

__all__ = ["run_scenario", "summarize", "sweep", "apply_axis"]

#: Statuses that mark finite-time breakdown of the computed solution.  The
#: last two rows of the run log then give ``t_star_bracket``: they bracket
#: when the stop fired (min u_x crossing ``slope_stop``, or the state
#: turning non-finite), not the breakdown time T*.
_BREAKDOWN_STATUSES = (Status.WAVE_BREAKING, Status.NON_FINITE)


@dataclass
class ScenarioResult:
    """Everything one run produced: summary plus in-memory objects."""

    scenario: Scenario
    summary: dict
    log: RunLog
    profile_rows: Optional[List[Tuple[float, ...]]]
    outdir: Optional[Path]


def _drift(column: np.ndarray, scale: float) -> float:
    """Largest excursion of a conserved quantity from its t=0 value,
    divided by ``scale`` (floored at 1e-300)."""
    return float(np.max(np.abs(column - column[0])) / max(scale, 1e-300))


def run_scenario(scenario: Scenario, out_root=None, seed: int = 0
                 ) -> ScenarioResult:
    """Execute one scenario: build its probes, ``run``, ``summarize``.

    ``seed`` is recorded for provenance; the integration itself is
    deterministic, so identical effective config and seed reproduce every
    CSV byte-for-byte.  The datum is built and judged first
    (``Scenario.build_initial``).  When ``out_root`` is given, artifacts are
    written under ``out_root/<name>-<content hash>/``, a directory made
    before the run starts, so an unusable ``out_root`` fails before any
    integration.
    """
    t_wall = time.perf_counter()
    u0 = scenario.build_initial()

    traces = [PersistenceTrace(tw.weight, tw.p, u0.grid, name=f"W_{i}")
              for i, tw in enumerate(scenario.weights_to_track)]
    rate_cap = RateCapTrace() if scenario.rate_cap_factor is not None else None
    profiles = ProfileAccumulator(u0) if scenario.profiles_enabled else None
    probes = traces + [p for p in (rate_cap, profiles) if p is not None]

    outdir = scenario.make_run_dir(out_root) if out_root is not None else None

    state, log = run(u0, scenario.solver, probes)

    rows = profiles.rows if profiles is not None else None
    summary = summarize(
        scenario, u0, log, rows, state.status, state.step_count,
        (profiles.error, profiles.reconstruction_error(state.u))
        if profiles is not None else (None, None))
    summary["seed"] = int(seed)
    summary["timing_seconds"] = round(time.perf_counter() - t_wall, 6)

    if outdir is not None:
        artifacts = {"run_csv": RUN_CSV, "snapshot_csv": SNAPSHOT_CSV,
                     "summary_json": SUMMARY_JSON}
        write_run_csv(outdir / RUN_CSV, log)
        write_snapshot_csv(outdir / SNAPSHOT_CSV, scenario.grid, u0.values,
                           state.u.values)
        if rows is not None:
            write_profile_csv(outdir / PROFILE_CSV, rows)
            artifacts["profile_csv"] = PROFILE_CSV
        summary["artifacts"] = artifacts
        write_summary(outdir / SUMMARY_JSON, summary)

    return ScenarioResult(scenario=scenario, summary=summary, log=log,
                          profile_rows=rows, outdir=outdir)


def summarize(scenario: Scenario, u0: Field, log: RunLog,
              profile_rows: Optional[Sequence[Sequence[float]]],
              status: Status, steps: int,
              profile_end: Tuple[Optional[str], Optional[float]]) -> dict:
    """The run summary bar ``seed``, ``timing_seconds`` and ``artifacts``.
    Each block is read from the datum and the run's tables (no profile
    rows: None), but for the facts no table records: ``status``, ``steps``
    and ``profile_end``, the profile block's (``error``,
    ``reconstruction_error_rel``).  Drifts are relative to the initial
    energy and to ||u0||_1 (mass(0) is roundoff for odd data)."""
    config = scenario.effective_config()
    breakdown = status in _BREAKDOWN_STATUSES and len(log.rows) >= 2
    energy = log.column("energy")
    times, M = log.column("t"), log.column("u_inf") + log.column("ux_inf")
    u0_l1 = float(np.sum(np.abs(u0.values)) * u0.grid.dx)
    factor = scenario.rate_cap_factor
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.name,
        "config": config,
        "config_hash": scenario.content_hash(),
        "status": status.value,
        "t_final": log.rows[-1][0],
        "steps": steps,
        "conservation": {
            "energy_drift_rel": _drift(energy, energy[0]),
            "mass_drift_rel": _drift(log.column("mass"), u0_l1),
        },
        "weight_warnings": scenario.weight_warnings(),
        "t_star_bracket": ([log.rows[-2][0], log.rows[-1][0]]
                           if breakdown else None),
        "predictors": predictor_table(u0),
        # the config echo gives each tracked weight's "weight" and "p"
        "persistence": [
            {**echo, "weight_str": str(tw.weight),
             **persistence_check(times, log.column(f"W_{i}"), M)}
            for i, (echo, tw) in enumerate(zip(config["weights_to_track"],
                                               scenario.weights_to_track))],
        "rate_cap": (rate_cap_check(times, log.column("rate_cap_sup"), factor)
                     if factor is not None else None),
        "profiles": (_profile_block(u0, profile_rows, *profile_end)
                     if profile_rows is not None else None),
    }


def _profile_block(u0: Field, rows: Sequence[Sequence[float]],
                   error: Optional[str], recon_err: Optional[float]) -> dict:
    """The profile block, read from the last profile row.  c1_positive is
    the two-sided time-uniform positivity c1 > 0 that pins the tail
    profiles."""
    if not rows:
        return {"snapshots": 0, "error": error or "no snapshots past t=0"}
    _, Phi, Psi, c1, c2, eps_plus, eps_minus = rows[-1]
    Phi0, Psi0 = phi0_psi0(u0)
    return {"Phi0": Phi0, "Psi0": Psi0, "snapshots": len(rows),
            "c1": c1, "c2": c2, "c1_positive": c1 > 0.0,
            "Phi_final": Phi, "Psi_final": Psi,
            "max_eps_plus": eps_plus, "max_eps_minus": eps_minus,
            "reconstruction_error_rel": recon_err, "error": error}


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def apply_axis(config: Mapping, axis: str, value) -> dict:
    """Return a copy of a config dict with the dotted-path ``axis`` set.

    Each section on the path and the field itself must already exist
    (sweeping can change values, not invent fields).  The value is set as
    given: the config codec judges it, and refuses a value its field does
    not take under the field's dotted path.
    """
    out = node = dict(config)
    *sections, leaf = axis.split(".")
    for j, part in enumerate(sections):
        if not isinstance(node.get(part), Mapping):
            raise ConfigError("axis", f"no config section "
                                      f"{'.'.join(sections[: j + 1])!r}")
        node[part] = dict(node[part])
        node = node[part]
    if leaf not in node:
        raise ConfigError(
            "axis", f"no config field {axis!r}; available here: "
                    f"{', '.join(sorted(node))}")
    node[leaf] = value
    return out


def _sweep_worker(conn, scenario: Scenario, out_root, seed) -> None:
    """Run one sweep value's scenario in a child process and send back the
    run's row fields, or the error of a run that raises."""
    try:
        s = run_scenario(scenario, out_root=out_root, seed=seed).summary
        outcome = {key: s[key] for key in ("status", "t_final",
                                           "t_star_bracket", "config_hash",
                                           "predictors")}
        outcome["dir"] = scenario.run_dirname()
    except Exception as exc:  # isolation: a bad run is a row, not a crash
        outcome = {"error": f"{type(exc).__name__}: {exc}"}
    conn.send(outcome)
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
    ``n_workers`` alive at a time, and return what each child sent, in
    input order.  A child that dies before it sends becomes an error
    naming the exit cause (exit status or signal)."""
    # imported here: only a sweep needs them, and they cost every other
    # command's start-up about 10 ms
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context()
    outcomes: List[Optional[dict]] = [None] * len(jobs)
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
                    outcomes[index] = reader.recv()
                except (EOFError, OSError):  # died before it sent
                    pass
                reader.close()
                child.join()
                if outcomes[index] is None:
                    cause = _exit_cause(child.exitcode)
                    outcomes[index] = {"error": f"worker died: {cause}"}
    finally:
        for reader, (_, child) in running.items():
            child.kill()
            child.join()
            reader.close()
    return outcomes


def sweep(base: Scenario, axis: str, values: Sequence[float], out_root=None,
          workers: Optional[int] = None, seed: int = 0) -> dict:
    """Run the base scenario once per axis value.

    Before any child starts, the base's datum is built and judged
    (``Scenario.build_initial``), and the config codec decodes each value's
    scenario, once: a base datum the judge refuses, or a value its field
    does not take, raises ConfigError under its dotted path, as does a
    value that is not an int or a float (a bool is not one), and two values
    that decode to the same scenario raise it under ``values``.  Each decoded
    scenario, at any ``workers`` count, then runs in a child process of its
    own, with at most ``workers`` children alive at a time (default: one
    per value, capped at the CPU count), and its run judges its own datum.
    Returns a sweep summary with one row per value in input order.  A run
    that raises, and a child process that dies (out of memory, a crash),
    each become an error row; the other values complete.  When
    ``out_root`` is given, each run writes its usual artifact directory and
    the sweep table lands in ``out_root/<name>-sweep-<hash>/``, made before
    any child starts.
    """
    base.build_initial()
    values = list(values)
    if not values:
        raise ConfigError("values", "empty sweep value list")
    for value in values:  # the sweep table and hash hold numbers only
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("values", f"sweep values must be ints or "
                                        f"floats, got {value!r}")
    if workers is not None and workers < 1:
        raise ConfigError("workers", f"need at least 1 worker, got {workers}")
    base_dict = base.effective_config()
    scenarios = [scenario_from_dict(apply_axis(base_dict, axis, value))
                 for value in values]
    hashes = [scenario.content_hash() for scenario in scenarios]
    for i, first in enumerate(map(hashes.index, hashes)):  # one run dir each
        if first != i:
            raise ConfigError("values", f"{values[first]!r} and {values[i]!r}"
                                        f" give the same {axis} scenario")

    sweep_hash = content_digest(dict(base=base_dict, axis=axis, values=values))
    sweep_dir: Optional[Path] = None
    if out_root is not None:  # an unusable out_root fails before any child
        sweep_dir = Path(out_root) / f"{base.name}-sweep-{sweep_hash}"
        sweep_dir.mkdir(parents=True, exist_ok=True)

    out_root_str = str(out_root) if out_root is not None else None
    jobs = [(scenario, out_root_str, seed) for scenario in scenarios]
    sent = _run_children(jobs, workers or min(len(jobs), os.cpu_count() or 1))
    # each child sent its run's fields, or the error that leaves them empty
    rows = [{"axis": axis, "value": value, "status": "Error", "t_final": None,
             "t_star_bracket": None, "config_hash": None, "predictors": None,
             "dir": None, "error": None, **fields}
            for value, fields in zip(values, sent)]

    summary = {
        "schema_version": SCHEMA_VERSION,
        "scenario": base.name,
        "axis": axis,
        "values": values,
        "seed": int(seed),
        "base_config": base_dict,
        "sweep_hash": sweep_hash,
        "rows": rows,
    }

    if sweep_dir is not None:
        _write_sweep_csv(sweep_dir / "sweep.csv", rows)
        write_summary(sweep_dir / "sweep.json", summary)
        summary["dir"] = str(sweep_dir)
    return summary


#: The predictors whose verdicts become ``sweep.csv`` columns.
_SWEEP_PREDICTORS = ("decay_blowup", "slope_criterion")


def _write_sweep_csv(path: Path, rows: Iterable[Mapping]) -> None:
    import csv  # only a sweep writes this table

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("value", "status", "t_final", "bracket_lo",
                         "bracket_hi", *_SWEEP_PREDICTORS, "error"))
        for row in rows:
            bracket = row["t_star_bracket"] or (math.nan, math.nan)
            t_final = math.nan if row["t_final"] is None else row["t_final"]
            # no predictors (an error row): empty cells
            predictors = row["predictors"]
            verdicts = [("fired" if predictors[name]["fired"] else "silent")
                        if predictors else "" for name in _SWEEP_PREDICTORS]
            writer.writerow((
                format_number(row["value"]), row["status"],
                format_number(t_final), format_number(bracket[0]),
                format_number(bracket[1]), *verdicts, row["error"] or ""))
