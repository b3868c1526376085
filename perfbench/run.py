"""chlab's benchmark: one workload, one seed, end-to-end or per-layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in ``inputs.py`` and explained in ``README.md``.
The run generates the workload's configs from the seed, measures set-up in
fresh interpreters, runs the measured loop (``measure.py``) in a fresh
process, and prints a table, a provenance line and, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from traced passes that alternate with
untraced ones, which give the tracing overhead.

Everything the run writes goes to ``.bench_tmp/`` in the checkout, which
is removed at the end.  Without the program's sources in the checkout the
run exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

SETUP_PROBES = 5
# Set-up is mostly loading code from disk, which slows with the machine
# differently from computation.  Each probe is normalized by a reference
# interpreter started right after it that imports only chlab's third-party
# dependencies; SETUP_REFERENCE_S is that interpreter's median time on the
# machine that defined the benchmark.  See README.md.
SETUP_REFERENCE = ("import time, numpy, scipy.special, yaml; "
                   "print(time.time())")
SETUP_REFERENCE_S = 0.43
DEADLINE_S = 170.0    # the whole run, set-up included

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "field.fft_calls": "count", "field.fft_per_step": "1/step",
    "field.fft_s": "s", "field.fft_bytes_computed": "B",
    "solver.steps": "count", "solver.rhs_calls": "count",
    "solver.rhs_s": "s", "solver.step_s": "s",
    "solver.ms_per_step_n4096": "ms", "solver.ms_per_step_n8192": "ms",
    "solver.energy_drift_max": "ratio",
    "profiles.accumulate_calls": "count", "profiles.accumulate_s": "s",
    "profiles.phi_psi_calls": "count", "profiles.phi_psi_s": "s",
    "profiles.phi_psi_per_snapshot": "1/snapshot",
    "profiles.report_s": "s", "profiles.reconstruct_s": "s",
    "diagnostics.persistence_record_calls": "count",
    "diagnostics.persistence_record_s": "s",
    "diagnostics.rate_cap_calls": "count", "diagnostics.rate_cap_s": "s",
    "diagnostics.predictors_s": "s", "diagnostics.persistence_check_s": "s",
    "weights.lp_norm_calls": "count", "weights.lp_norm_s": "s",
    "weights.certify_calls": "count", "weights.certify_s": "s",
    "weights.certify_max_s": "s",
    "io.write_s": "s", "io.bytes_written": "B",
    "config.import_s": "s", "config.load_s": "s", "initial_data.build_s": "s",
    "runner.run_scenario_self_s": "s", "runner.sweep_efficiency": "ratio",
    "runner.sweep_rows_failed": "count", "trace.overhead_frac": "ratio",
}

_RUN_SPANS = ["field.fft", "solver.run", "solver.step", "solver.rhs",
              "runner.run_scenario", "io.write_run_csv",
              "io.write_snapshot_csv", "io.write_summary", "config.load",
              "initial_data.build", "diagnostics.mckean_classify",
              "diagnostics.slope_criterion", "diagnostics.decay_blowup"]
#: Spans that must record calls in each workload; one that records none is
#: reported as missing (its metrics then read 0 but are not measurements).
EXPECTED_SPANS = {
    "solver-long": _RUN_SPANS,
    "observer-dense": _RUN_SPANS + [
        "io.write_profile_csv", "profiles.accumulate", "profiles.phi_psi",
        "profiles.phi0_psi0", "profiles.report", "profiles.reconstruct",
        "diagnostics.persistence_record", "diagnostics.persistence_check",
        "diagnostics.rate_cap", "weights.lp_norm"],
    "certify": ["weights.certify", "config.load", "initial_data.build",
                "io.write_summary"],
    "sweep": _RUN_SPANS,
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _run_child(cmd: list, deadline: float, **kwargs) -> str:
    """Run a child in its own process group; kill the group at the
    deadline.  Returns its standard output."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(cmd[1]).name} passed the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited with {proc.returncode}")
    return out


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _setup(root: Path, plan_path: Path, env: dict, deadline: float) -> dict:
    """Median over fresh interpreters of the normalized set-up time and of
    its split into import, config loading and initial-data building."""
    def started(cmd):
        start = time.time()
        out = _run_child([sys.executable] + cmd, deadline, env=env)
        return start, json.loads(out.strip().splitlines()[-1])

    probes = []
    for _ in range(SETUP_PROBES):
        start, probe = started([str(HERE / "setup_probe.py"), str(root),
                                str(plan_path)])
        probe["setup_s"] = probe["end"] - start
        start, end = started(["-c", SETUP_REFERENCE])
        probe["scale"] = SETUP_REFERENCE_S / (end - start)
        probes.append(probe)
    setup = {k: statistics.median(p[k] * p["scale"] for p in probes)
             for k in ("setup_s", "import_s", "load_s", "build_s")}
    setup["raw_samples"] = [p["setup_s"] for p in probes]
    return setup


def _measure(root, plan_path, work, seconds, trace, env, deadline) -> dict:
    result = work / "result.json"
    _run_child([sys.executable, str(HERE / "measure.py"), "--root", str(root),
                "--plan", str(plan_path), "--seconds", repr(seconds),
                "--trace", str(trace),
                "--work", str(work), "--result", str(result)],
               deadline, env=env)
    return json.loads(result.read_text())


def _wall(samples: dict) -> float:
    """Sum over operations of each one's median time: one pass."""
    return sum(statistics.median(v) for v in samples.values())


def _first_facts(m: dict) -> dict:
    """Per operation, the facts of its first checked repetition (they are
    deterministic for a seed)."""
    return {k: next((f for f in v if f), {}) for k, v in m["facts"].items()}


def _solver_figures(m: dict, plan: dict) -> dict:
    """ms per RK4 step by grid size, timed from outside; largest energy
    drift; sweep efficiency (summed run time over workers x sweep time)."""
    facts = _first_facts(m)
    time_by_n, steps_by_n, drift = {}, {}, 0.0
    efficiency, rows_failed = 0.0, 0
    for op in plan["ops"]:
        runs = facts[op["id"]].get("runs", [])
        if not runs:
            continue
        median_s = statistics.median(m["samples"][op["id"]])
        n = op["N"]
        time_by_n[n] = time_by_n.get(n, 0.0) + median_s
        steps_by_n[n] = steps_by_n.get(n, 0) + sum(r["steps"] for r in runs)
        drift = max([drift] + [r["energy_drift"] for r in runs])
        if op["command"] == "sweep":
            ratios = [sum(r["timing_s"] for r in f["runs"]) / (op["workers"] * t)
                      for f, t in zip(m["facts"][op["id"]],
                                      m["raw_samples"][op["id"]]) if f]
            efficiency = statistics.median(ratios)
            rows_failed = sum(f.get("failed_rows", 0)
                              for f in m["facts"][op["id"]])
    out = {f"solver.ms_per_step_n{n}": 1e3 * time_by_n[n] / steps_by_n[n]
           for n in (4096, 8192) if steps_by_n.get(n)}
    out.update({"solver.energy_drift_max": drift,
                "runner.sweep_efficiency": efficiency,
                "runner.sweep_rows_failed": rows_failed})
    return out


def _repeat_frac(m: dict) -> float:
    """Share of certificates whose weight was already certified in the
    same pass (with the same seed): what memoization could save."""
    facts = _first_facts(m)
    weights = [w for f in facts.values() for w in f.get("certified", [])]
    return 1.0 - len(set(weights)) / len(weights) if weights else 0.0


def _layers(m: dict, setup: dict, plan: dict, workload: str) -> tuple:
    trace = m["trace"]
    passes = m["passes"]
    spans = trace["spans"]

    def calls(name):
        return spans.get(name, [0])[0] / passes

    def total(*names):
        return sum(spans.get(n, [0, 0.0])[1] for n in names) / passes

    def self_time(name):
        return spans.get(name, [0, 0.0, 0.0])[2] / passes

    steps = calls("solver.step")
    reports = calls("profiles.report")
    io_spans = [n for n in spans if n.startswith("io.")]
    metrics = {
        "field.fft_calls": calls("field.fft"),
        "field.fft_per_step": calls("field.fft") / steps if steps else 0.0,
        "field.fft_s": total("field.fft"),
        "field.fft_bytes_computed": trace["fft_bytes"] / passes,
        "solver.steps": steps,
        "solver.rhs_calls": calls("solver.rhs"),
        "solver.rhs_s": total("solver.rhs"),
        "solver.step_s": self_time("solver.step"),
        "solver.ms_per_step_n4096": 0.0, "solver.ms_per_step_n8192": 0.0,
        "profiles.accumulate_calls": calls("profiles.accumulate"),
        "profiles.accumulate_s": total("profiles.accumulate"),
        "profiles.phi_psi_calls": calls("profiles.phi_psi"),
        "profiles.phi_psi_s": total("profiles.phi_psi"),
        "profiles.phi_psi_per_snapshot": (calls("profiles.phi_psi") / reports
                                          if reports else 0.0),
        "profiles.report_s": total("profiles.report"),
        "profiles.reconstruct_s": total("profiles.reconstruct"),
        "diagnostics.persistence_record_calls":
            calls("diagnostics.persistence_record"),
        "diagnostics.persistence_record_s":
            total("diagnostics.persistence_record"),
        "diagnostics.rate_cap_calls": calls("diagnostics.rate_cap"),
        "diagnostics.rate_cap_s": total("diagnostics.rate_cap"),
        "diagnostics.predictors_s": total(
            "diagnostics.mckean_classify", "diagnostics.slope_criterion",
            "diagnostics.decay_blowup"),
        "diagnostics.persistence_check_s":
            total("diagnostics.persistence_check"),
        "weights.lp_norm_calls": calls("weights.lp_norm"),
        "weights.lp_norm_s": total("weights.lp_norm"),
        "weights.certify_calls": calls("weights.certify"),
        "weights.certify_s": total("weights.certify"),
        "weights.certify_max_s": spans.get("weights.certify", [0, 0, 0, 0.0])[3],
        "io.write_s": total(*io_spans),
        "io.bytes_written": trace["io_bytes"] / passes,
        "config.import_s": setup["import_s"],
        "config.load_s": setup["load_s"],
        "initial_data.build_s": setup["build_s"],
        "runner.run_scenario_self_s": self_time("runner.run_scenario"),
        "trace.overhead_frac":
            _wall(m["traced_samples"]) / _wall(m["samples"]) - 1.0,
    }
    metrics.update(_solver_figures(m, plan))
    missing = sorted(set(trace["absent_targets"])
                     | {n for n in EXPECTED_SPANS[workload]
                        if not spans.get(n, [0])[0]})
    return metrics, missing


def _provenance(root: Path, m: dict, plan: dict, setup: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    spread = {}
    for op_id, values in m["samples"].items():
        q1, q2, q3 = _quartiles(values)
        spread[op_id] = {"n": len(values), "median_s": q2,
                         "iqr_frac": (q3 - q1) / q2, "samples_s": values,
                         "raw_samples_s": m["raw_samples"][op_id]}
    q1, q2, q3 = _quartiles(m["reference_s"])
    return {"cpu": cpu, "nproc": os.cpu_count(), **m["versions"],
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "seed": plan["seed"], "amplitude_factors": plan["factors"],
            "passes": m["passes"], "wall_raw_s": _wall(m["raw_samples"]),
            "setup_raw_samples_s": setup["raw_samples"],
            "reference_s": {"n": len(m["reference_s"]), "median": q2,
                            "iqr_frac": (q3 - q1) / q2},
            "op_spread": spread}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.time() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "chlab" / "__init__.py").is_file():
        print(f"error: no chlab sources under {root / 'src'}; run from the "
              f"root of a chlab checkout", file=sys.stderr)
        return 2

    tmp_root = root / ".bench_tmp"
    work = tmp_root / f"{args.workload}-{os.getpid()}"
    env = dict(os.environ, TMPDIR=str(work))
    try:
        work.mkdir(parents=True)
        plan = inputs.build_plan(args.workload, args.seed, work / "inputs")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        setup = _setup(root, plan_path, env, deadline)
        m = _measure(root, plan_path, work, args.seconds, args.trace, env,
                     deadline)
        provenance = _provenance(root, m, plan, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tmp_root.exists() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    attempted, failed = m["attempted"], m["failed"]
    provenance["certify_repeat_frac"] = _repeat_frac(m)
    provenance["trace.overhead_frac"] = None
    if args.trace:
        values, missing = _layers(m, setup, plan, args.workload)
        units = PER_LAYER
        provenance["trace.overhead_frac"] = values["trace.overhead_frac"]
        provenance["missing_spans"] = missing
    else:
        # With worker processes, their peak counts once per worker: a sum
        # of peaks, not the peak of the sum.
        workers = max(op.get("workers", 0) for op in plan["ops"])
        rss_kb = m["rss_self_kb"] + workers * m["rss_children_kb"]
        values = {"setup_s": setup["setup_s"], "wall_s": _wall(m["samples"]),
                  "peak_rss_mb": rss_kb / 1024.0}
        units, missing = END_TO_END, []

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={m['passes']}")
    for name, unit in units.items():
        shown = ("MISSING" if any(name.startswith(span + "_")
                                  for span in missing)
                 else f"{values[name]:.6g}")
        print(f"  {name:40s} {shown:>14s} {unit}")
    if not args.trace:
        print(f"  (wall_raw_s {provenance['wall_raw_s']:.6g}, not normalized)")
        for name, value in _solver_figures(m, plan).items():
            print(f"  ({name} {value:.6g})")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations)")
    for line in m["errors"][:20]:
        print(f"  FAILED {line}")
    if missing:
        print(f"  missing spans: {', '.join(missing)}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
