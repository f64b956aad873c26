"""Energy spectra and the summary statistics that drive every bound.

Conventions (ħ = 1 throughout): levels are stored sorted ascending,
``e_above_ground`` is the mean energy measured from the ground level,
``variance_sqrt`` uses population normalization 1/N, and ``width`` is
the full spread of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class EnergySpectrum:
    """Sorted real energy levels E_0 <= ... <= E_{n-1}; repeats allowed."""

    levels: np.ndarray

    def __post_init__(self):
        arr = np.sort(np.asarray(self.levels, dtype=np.float64))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a spectrum needs at least one level")
        if not np.all(np.isfinite(arr)):
            raise ValueError("energy levels must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "levels", arr)

    def __eq__(self, other):
        return isinstance(other, EnergySpectrum) and np.array_equal(self.levels, other.levels)

    def __hash__(self):
        return hash(self.levels.tobytes())

    @property
    def n(self) -> int:
        return self.levels.size


@dataclass(frozen=True)
class EnergyStats:
    """Derived statistics of a spectrum, or of a stack of spectra.

    Each field is a float, or an array with one entry per spectrum of a
    stack.  ``e_above_ground + e_below_top == width`` up to rounding, and
    Popoviciu's inequality ``2 * variance_sqrt <= width`` always holds.
    """

    mean: float
    e_above_ground: float
    variance_sqrt: float
    width: float
    e_below_top: float

    def __post_init__(self):
        gaps = [self.e_above_ground, self.variance_sqrt, self.width, self.e_below_top]
        if not np.isfinite([self.mean, *gaps]).all():
            raise ValueError("energy statistics overflow float64 arithmetic")
        if np.any(np.minimum.reduce(gaps) < 0):
            raise ValueError("energy statistics cannot be negative")
        # Rounding slack scales with the level magnitudes the gaps came from.
        slack = 1e-12 * (1.0 + self.width + np.abs(self.mean))
        if np.any(np.abs((self.e_above_ground + self.e_below_top) - self.width) > slack):
            raise ValueError("e_above_ground + e_below_top must equal width")
        if np.any(2.0 * self.variance_sqrt > self.width + slack):
            raise ValueError("Popoviciu violated: 2*variance_sqrt exceeds width")


def compute_stats(s: EnergySpectrum) -> EnergyStats:
    """Mean, mean-above-ground, population std, width and top gap."""
    return level_stats(s.levels)


def level_stats(levels) -> EnergyStats:
    """:func:`compute_stats` of every row of sorted levels ``(..., n)``.

    A statistic whose computation overflows float64 comes out non-finite,
    and :class:`EnergyStats` rejects it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = levels.mean(axis=-1)
        # The mean of identical large levels can round an ulp past the
        # extremes; the gap statistics are nonnegative by definition.
        return EnergyStats(
            mean=mean,
            e_above_ground=np.maximum(0.0, mean - levels[..., 0]),
            variance_sqrt=levels.std(axis=-1),
            width=levels[..., -1] - levels[..., 0],
            e_below_top=np.maximum(0.0, levels[..., -1] - mean),
        )
