"""Energy spectra and the summary statistics that drive every bound.

Conventions (ħ = 1 throughout): levels are sorted ascending before any
statistic is taken, ``e_above_ground`` is the mean energy measured from
the ground level, ``variance_sqrt`` uses population normalization 1/N,
and ``width`` is the full spread of the spectrum.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


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


def _reals(values, message: str) -> np.ndarray:
    """``values`` as an array of real numbers: bool, integer or float, or
    an object array of real numbers, taken as float64.  Anything else,
    complex values included even where their imaginary parts vanish,
    raises ValueError(message)."""
    values = np.asarray(values)
    if values.dtype == object and all(isinstance(v, numbers.Real) for v in values.flat):
        values = values.astype(np.float64)
    if values.dtype.kind not in "biuf":
        raise ValueError(message)
    return values


def _sorted_levels(levels) -> np.ndarray:
    """Raw energy levels ``(..., n)`` as rows of finite float64 levels,
    each sorted ascending.  Complex or non-numeric levels, rows of no
    levels, a lone number and a non-finite level raise ValueError."""
    levels = _reals(levels, "energy levels must be real")
    if not levels.ndim or levels.shape[-1] < 1:
        raise ValueError("a spectrum needs at least one level")
    levels = np.sort(levels.astype(np.float64, copy=False), axis=-1)
    if not np.isfinite(levels).all():
        raise ValueError("energy levels must be finite")
    return levels


def level_stats(levels) -> EnergyStats:
    """Mean, mean-above-ground, population std, width and top gap of
    every row of levels ``(..., n)``, in any order: each row is checked
    and sorted first (see :func:`_sorted_levels`).

    A width beyond float64 range gives a non-finite statistic, and
    :class:`EnergyStats` rejects it.
    """
    levels = _sorted_levels(levels)
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
