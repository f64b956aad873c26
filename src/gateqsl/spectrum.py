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
    """Sorted real energy levels E_0 <= ... <= E_{n-1}; repeats allowed.
    Complex levels raise ValueError, even where their imaginary parts vanish."""

    levels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.levels)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a spectrum needs at least one level")
        if np.iscomplexobj(arr):
            raise ValueError("energy levels must be real")
        arr = np.sort(arr.astype(np.float64, copy=False))
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
        # Rounding slack scales with the level magnitudes the gaps came from;
        # it is infinite, waiving both checks, where width + |mean| overflows.
        with np.errstate(over="ignore"):
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

    A width beyond float64 range, or a non-finite level, gives a
    non-finite statistic, and :class:`EnergyStats` rejects it.  Rows of no
    levels, a lone number and complex levels raise ValueError, as they do
    in :class:`EnergySpectrum`.
    """
    levels = np.asarray(levels)
    if not levels.ndim or levels.shape[-1] < 1:
        raise ValueError("a spectrum needs at least one level")
    if np.iscomplexobj(levels):
        raise ValueError("energy levels must be real")
    *shape, n = levels.shape
    owner = np.arange(levels.size) // n
    moments = _level_moments(levels.reshape(-1), np.arange(0, levels.size, n), n, owner)
    return EnergyStats(*moments.reshape(5, *shape))


def _level_moments(levels, lists, n, owner) -> np.ndarray:
    """Unchecked :class:`EnergyStats` fields ``(5, lists)`` of sorted level
    lists laid back to back in ``levels``: list i starts at ``lists[i]``
    and holds ``n`` levels (one n per list, or one for all); ``owner``
    is the list of each level.  Each sum runs by ``np.add.reduceat`` over
    one list's levels alone.

    Each list is scaled by the power of two that brings its largest
    ``|level|`` into [0.5, 1): exact, and the squared deviations that set
    the spread neither overflow nor underflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ends = lists + (n - 1)
        _, exp = np.frexp(np.maximum(-levels.take(lists), levels.take(ends)))
        x = np.ldexp(levels, -exp.take(owner))
        first, last = x.take(lists), x.take(ends)
        mean = np.add.reduceat(x, lists) / n
        std = np.sqrt(np.add.reduceat(np.square(x - mean.take(owner)), lists) / n)
        # The mean of identical levels can round an ulp past the extremes;
        # the gap statistics are nonnegative by definition.
        moments = np.array([mean, np.maximum(0.0, mean - first), std, last - first,
                            np.maximum(0.0, last - mean)])
        return np.ldexp(moments, exp)
