"""Measured loop of one workload, in a process of its own.

Runs the plan's operations through ``chlab.cli.main`` as a closed loop with
one client (the next operation starts when the previous one returned),
round robin, until ``--seconds`` have passed and every operation has run
``MIN_REPS`` times.  With ``--trace 1`` whole untraced and traced passes
alternate instead, so the counts are whole passes and the tracing overhead
is measured under the same machine conditions.  Every operation's output is
checked by the oracle outside the timed region.  Each sample is normalized
to the nominal machine speed (see ``calibrate.py``); the raw times are kept
beside the normalized ones.  The result is written as JSON to ``--result``;
this process's peak resident set is part of it, which is why the loop runs
in a fresh process.

Usage: python3 perfbench/measure.py --root DIR --plan PLAN.json
           --seconds S --trace 0|1 --work DIR --result OUT.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import calibrate
import oracle
from spans import Recorder

MIN_REPS = 2   # untraced samples of each operation, at least


def _argv(op: dict, plan: dict, out: Path) -> list:
    config = plan["configs"][op["config"]]
    common = ["--out", str(out), "--seed", str(plan["seed"]), "--quiet"]
    if op["command"] == "simulate":
        return ["simulate", config] + common
    if op["command"] == "certify":
        return ["weights", "certify", config] + common
    return (["sweep", config, "--axis", op["axis"], "--values",
             ",".join(repr(v) for v in op["values"]),
             "--workers", str(op["workers"])] + common)


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--plan", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    plan = json.loads(args.plan.read_text())
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import chlab
    import chlab.cli

    if Path(chlab.__file__).resolve().parent.parent != src:
        print(f"imported chlab from {chlab.__file__}, not {src}",
              file=sys.stderr)
        return 2

    ops = plan["ops"]
    samples = {op["id"]: [] for op in ops}
    raw_samples = {op["id"]: [] for op in ops}
    traced_samples = {op["id"]: [] for op in ops}
    facts = {op["id"]: [] for op in ops}
    errors = []
    recorder = Recorder()
    recorder.collect_forked_workers(args.work)
    counter = itertools.count()
    reference = [calibrate.reference_seconds()]

    def run_op(op: dict, traced: bool) -> None:
        out = args.work / f"out-{next(counter)}"
        # stdout is captured so a chatty command cannot mix into results.
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = chlab.cli.main(_argv(op, plan, out))
            except Exception as exc:  # a crashing operation is a failed one
                code = f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - t0
        # The machine's speed around the operation: the reference kernel
        # just before it and just after it.
        reference.append(calibrate.reference_seconds())
        elapsed = calibrate.normalized(raw, 0.5 * sum(reference[-2:]))
        if traced and op["command"] == "sweep":
            recorder.merge_worker_dumps(args.work)
        if code != 0:
            op_errors, op_facts = [f"exit {code}"], {}
        else:
            op_errors, op_facts = oracle.check(out, op, plan["seed"])
        errors.append([f"{op['id']}: {e}" for e in op_errors])
        if not traced:
            samples[op["id"]].append(elapsed)
            raw_samples[op["id"]].append(raw)
            facts[op["id"]].append(op_facts)
        else:
            traced_samples[op["id"]].append(elapsed)
        shutil.rmtree(out, ignore_errors=True)

    start = time.perf_counter()
    absent, passes = [], 0
    if args.trace:
        # Untraced and traced passes alternate, in alternating order, so
        # that a slow phase of the machine weighs on both alike.
        while passes == 0 or time.perf_counter() - start < args.seconds:
            for traced in (False, True) if passes % 2 == 0 else (True, False):
                if traced:
                    absent = recorder.install()
                for op in ops:
                    run_op(op, traced)
                recorder.uninstall()
            passes += 1
    else:
        i = 0
        while (time.perf_counter() - start < args.seconds
               or min(map(len, samples.values())) < MIN_REPS):
            run_op(ops[i % len(ops)], False)
            i += 1
        passes = i // len(ops)

    result = {
        "samples": samples, "raw_samples": raw_samples,
        "reference_s": reference, "facts": facts, "passes": passes,
        "attempted": len(errors), "failed": sum(1 for e in errors if e),
        "errors": [line for e in errors for line in e],
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "versions": _versions(),
    }
    if args.trace:
        result["traced_samples"] = traced_samples
        result["trace"] = {
            "spans": {k: [s.calls, s.total, s.self_time, s.max]
                      for k, s in recorder.spans.items()},
            "fft_bytes": recorder.fft_bytes, "io_bytes": recorder.io_bytes,
            "absent_targets": absent,
        }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
