"""Shared field builders and artifact readers for the test suite."""

import csv
import json
from pathlib import Path

import numpy as np

from chlab.field import Field, Grid


def band_limited(grid: Grid, rng: np.random.Generator) -> Field:
    """Random real field with spectrum confined to the lowest quarter of the
    resolvable modes, normalized to unit peak (derivatives stay exactly
    representable, so operator identities hold to rounding)."""
    coeff = np.zeros(grid.N // 2 + 1, dtype=complex)
    n_band = grid.N // 8 - 1
    amplitude = rng.standard_normal(n_band)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_band)
    coeff[1 : grid.N // 8] = amplitude * np.exp(1j * phase)
    values = np.fft.irfft(coeff, n=grid.N)
    return Field(grid, values / np.max(np.abs(values)))


def compact_random(grid: Grid, rng: np.random.Generator) -> Field:
    """Random rough field supported in |x| < L/4, so circular convolutions
    of two such fields coincide with line convolutions (no wrap-around)."""
    values = rng.standard_normal(grid.N)
    values[np.abs(grid.x) >= grid.L / 4.0] = 0.0
    return Field(grid, values)


def field_from_seed(grid: Grid, seed: int) -> Field:
    """Deterministic band-limited field keyed by an integer seed (the shape
    hypothesis draws; shrinking a seed shrinks to simpler RNG streams)."""
    return band_limited(grid, np.random.default_rng(seed))


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
