"""Trace-based lower bounds on the time needed to enact a unitary gate.

All bounds depend on the gate only through ``r = |tr U| / N`` and on the
generating spectrum only through its gross statistics, so they are
invariant under global phases and basis changes of the gate:

* ML form:        T >= (pi / 2E) (1 - r sqrt(1 + 4/pi^2))
* MT form:        T >= sqrt(1 - r^2) / dE        (dE = sqrt of variance)
* dual ML form:   as ML with E_max - mean in place of E
* width forms:    T >= (pi / width)(1 - r sqrt(1 + 4/pi^2))
                  T >= (2 / width) sqrt(1 - r^2)

Negative raw ML values clamp to zero (a vacuous time bound).  A zero
denominator with a genuine trace deficit has no finite answer and raises
:class:`UndefinedBoundError` instead of returning infinity.  Every form
works elementwise, so one implementation serves a single gate and a
stack of campaign draws alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import EnergyStats

ML_TRACE_FACTOR = math.sqrt(1.0 + 4.0 / math.pi**2)


class UndefinedBoundError(ValueError):
    """Degenerate energy statistics make the requested bound undefined."""


@dataclass(frozen=True)
class TraceInput:
    """Gate dimension and trace modulus, the only gate data the bounds use.

    ``trace_abs`` is a float, or an array with one entry per gate of a
    stack; ``n`` is an int, or an array giving each gate's dimension.
    """

    n: int
    trace_abs: float

    def __post_init__(self):
        if np.less(self.n, 1).any():
            raise ValueError("dimension must be at least 1")
        t = np.asarray(self.trace_abs, dtype=np.float64)
        clamped = np.minimum(np.maximum(t, 0.0), self.n)
        # Absorb numerical overshoot from computed traces.
        outside = ~(np.abs(t - clamped) <= 1e-9 * self.n)
        if outside.any():
            n = np.broadcast_to(self.n, t.shape)[outside].flat[0]
            raise ValueError(f"|tr U| = {t[outside].flat[0]} outside [0, {n}]")
        object.__setattr__(self, "trace_abs", clamped[()])

    @property
    def ratio(self) -> float:
        return self.trace_abs / self.n


@dataclass(frozen=True)
class BoundSet:
    """All five bound values for one gate/spectrum pair, plus their max.

    Fields are floats, or arrays over a stack of pairs.
    """

    ml: float
    mt: float
    dual_ml: float
    width_ml: float
    width_mt: float
    combined: float

    def __post_init__(self):
        if np.any(np.minimum.reduce([self.ml, self.mt, self.dual_ml,
                                     self.width_ml, self.width_mt]) < 0):
            raise ValueError("bounds cannot be negative")
        if np.any(self.combined != np.maximum(self.ml, self.mt)):
            raise ValueError("combined must equal max(ml, mt)")


def ml_product(ratio: float) -> float:
    """Dimensionless ML bound: lower limit on E*T (equally on (E_max - mean)*T).

    Elementwise over an array of ratios, as are all the forms below.
    """
    return np.maximum(0.0, 0.5 * math.pi * (1.0 - ratio * ML_TRACE_FACTOR))


def mt_product(ratio: float) -> float:
    """Dimensionless MT bound: lower limit on dE*T."""
    return mt_from_deficit(1.0 - ratio * ratio)


def mt_from_deficit(deficit: float) -> float:
    """MT product ``sqrt(1 - r^2)`` from the trace deficit ``1 - r^2``.

    Near ``r = 1`` the deficit is best computed without subtracting
    from a rounded trace; :func:`gateqsl.minimal_time.dominance` takes
    it from the eigenphases.
    """
    return np.sqrt(np.maximum(0.0, deficit))


_E = "mean energy above ground"
_DE = "energy spread (std)"
_E_TOP = "mean energy below the top level"
_WIDTH = "spectrum width"


def _scaled(raw, denom, what):
    """``raw / denom``, 0 where both vanish, over one stack.

    ``raw`` and ``denom`` share a shape whose leading axis runs over the
    statistics named by ``what``; the first statistic that is zero where
    its numerator is not names the :class:`UndefinedBoundError`.  A
    quotient beyond float64 range raises ValueError.
    """
    raw = np.asarray(raw, dtype=np.float64)
    denom = np.asarray(denom, dtype=np.float64)
    positive = denom > 0.0
    undefined = ~(positive | (raw == 0.0))
    if undefined.any():
        first = int(np.argmax(undefined.reshape(len(what), -1).any(axis=-1)))
        raise UndefinedBoundError(
            f"{what[first]} is zero but the gate has a trace deficit; no finite bound exists"
        )
    with np.errstate(over="ignore"):
        out = np.divide(raw, denom, out=np.zeros(positive.shape), where=positive)
    if np.isinf(out).any():
        raise ValueError("a time bound overflows float64: the spectrum is too narrow")
    return out


def bound_set(t: TraceInput, stats: EnergyStats) -> BoundSet:
    return bounds_from_products(ml_product(t.ratio), mt_product(t.ratio), stats)


def bounds_from_products(ml, mt, stats: EnergyStats) -> BoundSet:
    """The five time bounds from the dimensionless ML and MT products,
    by one divide over the stacked numerators and denominators."""
    b_ml, b_mt, w_ml, w_mt, dual = _scaled(
        [ml, mt, 2.0 * ml, 2.0 * mt, ml],
        [stats.e_above_ground, stats.variance_sqrt, stats.width, stats.width,
         stats.e_below_top],
        [_E, _DE, _WIDTH, _WIDTH, _E_TOP],
    )
    return BoundSet(
        ml=b_ml,
        mt=b_mt,
        dual_ml=dual,
        width_ml=w_ml,
        width_mt=w_mt,
        combined=np.maximum(b_ml, b_mt),
    )
