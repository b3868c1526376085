"""Shared field builders, grid and weight helpers, and artifact readers
for the test suite."""

import csv
import json
from pathlib import Path

import numpy as np

from chlab.acceptance import _compact_random as compact_random
from chlab.acceptance import _random_band_limited as band_limited
from chlab.field import Field, Grid
from chlab.weights import Weight

# the random fields are the verification suite's own draws
__all__ = ["band_limited", "compact_random", "field_from_seed",
           "dealiased_source", "reflect", "shift_samples", "moderate_ratio",
           "count_transforms", "read_csv", "read_summary"]


def field_from_seed(grid: Grid, seed: int) -> Field:
    """Deterministic band-limited field keyed by an integer seed (the shape
    hypothesis draws; shrinking a seed shrinks to simpler RNG streams)."""
    return band_limited(grid, np.random.default_rng(seed))


def dealiased_source(u: Field) -> np.ndarray:
    """F(u) = u^2 + u_x^2 / 2 projected onto the 2/3-rule band by its own
    rfft and irfft: an independent reference for the profile integrands."""
    ux = u.derivative_values
    spectrum = np.fft.rfft(u.values * u.values + 0.5 * ux * ux)
    spectrum[u.grid.N // 3 + 1:] = 0.0
    return np.fft.irfft(spectrum, n=u.grid.N)


def reflect(u: Field) -> Field:
    """Samples of x -> u(-x) on the same grid (periodic index reversal)."""
    n = u.grid.N
    return Field(u.grid, u.values[(-np.arange(n)) % n])


def shift_samples(u: Field, steps: int) -> Field:
    """Samples of x -> u(x - steps*dx): exact grid-aligned translation."""
    return Field(u.grid, np.roll(u.values, int(steps)))


def moderate_ratio(v: Weight, x, y):
    """v(x+y) / (v(x) v(y)), evaluated in log space: the moderateness
    ratio of v against itself, which is its submultiplicativity ratio."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(v._log_value(x + y) - v._log_value(x) - v._log_value(y))
    return float(out) if out.ndim == 0 else out


class TransformCounter:
    """The numpy.fft.rfft/irfft calls made since ``count_transforms``, as
    (name, transforms) pairs: a call on a stacked (m, n) array makes m."""

    def __init__(self):
        self.log = []

    @property
    def calls(self) -> int:
        return len(self.log)

    @property
    def transforms(self) -> int:
        return sum(n for _, n in self.log)


def count_transforms(monkeypatch) -> TransformCounter:
    """Wrap numpy.fft.rfft and irfft so that every call is counted."""
    counter = TransformCounter()
    for name in ("rfft", "irfft"):
        fn = getattr(np.fft, name)

        def counted(a, *args, _fn=fn, _name=name, **kwargs):
            counter.log.append((_name, int(np.prod(np.shape(a)[:-1]))))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counter


def read_csv(path):
    """Read a CSV table back: (header, data) with data shaped (rows, cols)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader], float)
    return header, data


def read_summary(path) -> dict:
    return json.loads(Path(path).read_text())
