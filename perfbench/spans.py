"""Outside-in span recorder for the traced run.

Spans are recorded around calls into chlab's public functions from the
benchmark's side: each function is replaced, in every ``chlab.*`` module
that holds the same function object, by a wrapper that times it.  By-name
imports (``chlab.runner.run``, ``chlab.cli.run_scenario``, ...) are separate
bindings, so each one is replaced.  Nothing under ``src/`` changes.

Transforms are counted at both ``numpy.fft`` and ``scipy.fft``, and in any
chlab module that imported a transform by name, so a change of FFT backend
is still counted.  ``uninstall`` restores every binding, so traced and
untraced passes can alternate in one process.

A span's self time is its duration minus the durations of the spans it
encloses.  Counters live in one ``Recorder`` per process; forked sweep
workers dump theirs to a file when they exit, and the parent merges them.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                 "irfftn")

# span name -> (module, attribute); "Class.method" patches a class attribute.
FUNCTION_SPANS = {
    "solver.run": ("chlab.solver", "run"),
    "solver.step": ("chlab.solver", "step"),
    "solver.rhs": ("chlab.solver", "rhs"),
    "runner.run_scenario": ("chlab.runner", "run_scenario"),
    "profiles.accumulate": ("chlab.profiles", "ProfileAccumulator.accumulate"),
    "profiles.phi_psi": ("chlab.profiles", "phi_psi"),
    "profiles.phi0_psi0": ("chlab.profiles", "phi0_psi0"),
    "profiles.report": ("chlab.profiles", "profile_report"),
    "profiles.reconstruct": ("chlab.profiles", "reconstruct"),
    "diagnostics.persistence_record": ("chlab.diagnostics",
                                       "PersistenceTrace.record"),
    "diagnostics.persistence_check": ("chlab.diagnostics", "persistence_check"),
    "diagnostics.rate_cap": ("chlab.diagnostics", "peakon_rate_cap_check"),
    "diagnostics.mckean_classify": ("chlab.diagnostics", "mckean_classify"),
    "diagnostics.slope_criterion": ("chlab.diagnostics",
                                    "slope_criterion_predict"),
    "diagnostics.decay_blowup": ("chlab.diagnostics", "decay_blowup_predict"),
    "weights.lp_norm": ("chlab.weights", "weighted_lp_norm"),
    "weights.certify": ("chlab.weights", "certify_admissible"),
    "config.load": ("chlab.config", "load_scenario"),
    "io.write_run_csv": ("chlab.io", "write_run_csv"),
    "io.write_profile_csv": ("chlab.io", "write_profile_csv"),
    "io.write_snapshot_csv": ("chlab.io", "write_snapshot_csv"),
    "io.write_summary": ("chlab.io", "write_summary"),
}


class Span:
    __slots__ = ("calls", "total", "self_time", "max")

    def __init__(self):
        self.calls, self.total, self.self_time, self.max = 0, 0.0, 0.0, 0.0

    def add(self, other: "Span") -> None:
        self.calls += other.calls
        self.total += other.total
        self.self_time += other.self_time
        self.max = max(self.max, other.max)


class Recorder:
    """Per-process span aggregates, kept in memory while installed."""

    def __init__(self):
        self.spans: dict = {}
        self.fft_bytes = 0
        self.io_bytes = 0
        self._children: list = []   # child time of each open span
        self._patches: list = []    # (owner, attribute, original)

    def reset(self) -> None:
        self.spans, self.fft_bytes, self.io_bytes = {}, 0, 0
        self._children.clear()   # the wrappers hold this list

    def span(self, name: str) -> Span:
        s = self.spans.get(name)
        if s is None:
            s = self.spans[name] = Span()
        return s

    def _wrap(self, name, fn, after=None):
        children, clock = self._children, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += duration
                s = self.span(name)
                s.calls += 1
                s.total += duration
                s.self_time += duration - inner
                s.max = max(s.max, duration)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_fft_bytes(self, args, result) -> None:
        self.fft_bytes += getattr(args[0], "nbytes", 0) + result.nbytes

    def _count_io_bytes(self, args, result) -> None:
        self.io_bytes += os.path.getsize(args[0])

    def _replace(self, fn, wrapper, owners) -> None:
        """Bind ``wrapper`` wherever an owner's attribute is ``fn``."""
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is fn:
                    self._patches.append((owner, key, fn))
                    setattr(owner, key, wrapper)

    def install(self) -> list:
        """Wrap every span target; returns the targets that do not exist."""
        import numpy.fft
        import scipy.fft

        import chlab.initial_data

        chlab_modules = [m for n, m in list(sys.modules.items())
                         if m is not None
                         and (n == "chlab" or n.startswith("chlab."))]
        for module in (numpy.fft, scipy.fft):
            for attr in FFT_FUNCTIONS:
                fn = getattr(module, attr)
                self._replace(fn, self._wrap("field.fft", fn,
                                             self._count_fft_bytes),
                              [module] + chlab_modules)
        missing = []
        for name, (module_name, attr) in FUNCTION_SPANS.items():
            owner = sys.modules.get(module_name)
            class_name, _, attr = attr.rpartition(".")
            if class_name:
                owner = getattr(owner, class_name, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                missing.append(name)
                continue
            after = self._count_io_bytes if name.startswith("io.") else None
            self._replace(fn, self._wrap(name, fn, after),
                          [owner] if class_name else chlab_modules)
        # Every initial-data family's build, as the subclass defines it.
        stack = [chlab.initial_data.InitialData]
        while stack:
            cls = stack.pop()
            stack.extend(cls.__subclasses__())
            if "build" in vars(cls):
                fn = vars(cls)["build"]
                self._replace(fn, self._wrap("initial_data.build", fn), [cls])
        return missing

    def uninstall(self) -> None:
        while self._patches:
            owner, key, fn = self._patches.pop()
            setattr(owner, key, fn)

    # --- forked workers -------------------------------------------------

    def collect_forked_workers(self, directory: Path) -> None:
        """Make each forked worker process dump its spans on exit."""
        def after_fork(recorder):
            if not recorder._patches:   # forked by an untraced pass
                return
            recorder.reset()
            multiprocessing.util.Finalize(
                None, recorder._dump, args=(directory,), exitpriority=100)

        multiprocessing.util.register_after_fork(self, after_fork)

    def _dump(self, directory: Path) -> None:
        doc = {"spans": {k: [s.calls, s.total, s.self_time, s.max]
                         for k, s in self.spans.items()},
               "fft_bytes": self.fft_bytes, "io_bytes": self.io_bytes}
        (Path(directory) / f"worker-{os.getpid()}.json").write_text(
            json.dumps(doc))

    def merge_worker_dumps(self, directory: Path) -> None:
        """Fold in and delete the dumps of exited workers."""
        paths = sorted(Path(directory).glob("worker-*.json"))
        for path in paths:
            doc = json.loads(path.read_text())
            for name, (calls, total, self_time, longest) in doc["spans"].items():
                other = Span()
                other.calls, other.total = calls, total
                other.self_time, other.max = self_time, longest
                self.span(name).add(other)
            self.fft_bytes += doc["fft_bytes"]
            self.io_bytes += doc["io_bytes"]
            path.unlink()
