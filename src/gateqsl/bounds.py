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


# The five bounds, in the order of BoundSet's fields, the margin rows of
# minimal_time.Dominance, the margin fields of VerificationRecord and the
# rows the ``bounds`` command prints.
BOUND_NAMES = ("ml", "mt", "dual_ml", "width_ml", "width_mt")

# The statistic behind each bound, in BOUND_NAMES order, as an index into
# (e_above_ground, variance_sqrt, width, e_below_top); in the same order,
# the least product behind it in a row (e_t, var_t, width_t, dual_t) of
# minimal_time.Dominance.products.
STATISTIC_INDEX = (0, 1, 3, 2, 2)

_STATISTIC_NAMES = ("mean energy above ground", "energy spread (std)", "spectrum width",
                    "mean energy below the top level")


class UndefinedBoundError(ValueError):
    """Degenerate energy statistics make the requested bound undefined."""


def _clamped_trace(n, modulus):
    """``modulus`` clamped into [0, n], elementwise; numerical overshoot of
    computed traces, up to ``1e-9 n``, is absorbed, and more raises
    ValueError naming the first such trace and its n."""
    t = np.asarray(modulus, dtype=np.float64)
    clamped = np.minimum(np.maximum(t, 0.0), n)
    within = np.abs(t - clamped) <= 1e-9 * n
    if not within.all():
        outside = ~within
        n = np.broadcast_to(n, t.shape)[outside].flat[0]
        raise ValueError(f"|tr U| = {t[outside].flat[0]} outside [0, {n}]")
    return clamped[()]


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

    def __post_init__(self):
        if np.less([getattr(self, name) for name in BOUND_NAMES], 0.0).any():
            raise ValueError("bounds cannot be negative")

    @property
    def combined(self) -> float:
        return np.maximum(self.ml, self.mt)


def ml_product(ratio: float) -> float:
    """Dimensionless ML bound: lower limit on E*T (equally on (E_max - mean)*T).

    Elementwise over an array of ratios, as are all the forms below.
    """
    return np.maximum(0.0, 0.5 * math.pi * (1.0 - ratio * ML_TRACE_FACTOR))


def mt_product(ratio: float) -> float:
    """Dimensionless MT bound: lower limit on dE*T, where r itself is the
    input (the qubit figures); ``1 - r^2`` cancels near ``r = 1``."""
    return mt_from_deficit(1.0 - ratio * ratio)


def mt_from_deficit(deficit: float) -> float:
    """MT product ``sqrt(1 - r^2)`` from the trace deficit ``1 - r^2``, taken
    from a gate's entries (:func:`gateqsl.linalg.trace_deficit`) or phases,
    never by cancellation from a rounded trace near ``r = 1``."""
    return np.sqrt(np.maximum(0.0, deficit))


def bound_forms(ml, mt) -> list:
    """The five dimensionless bound forms, in ``BOUND_NAMES`` order, from
    the ML and MT products: each bound times its statistic."""
    return [ml, mt, ml, 2.0 * ml, 2.0 * mt]


def _scaled(raw, denom):
    """``raw / denom``, 0 where both vanish, over one stack.

    ``raw`` and ``denom`` share a shape whose leading axis runs over the
    bounds in ``BOUND_NAMES`` order; the first bound whose statistic is
    zero where its numerator is not names that statistic in the
    :class:`UndefinedBoundError`.  A quotient beyond float64 range
    raises ValueError.
    """
    raw = np.asarray(raw, dtype=np.float64)
    denom = np.asarray(denom, dtype=np.float64)
    positive = denom > 0.0
    undefined = ~(positive | (raw == 0.0))
    if undefined.any():
        first = int(np.argmax(undefined.reshape(len(raw), -1).any(axis=-1)))
        raise UndefinedBoundError(f"{_STATISTIC_NAMES[STATISTIC_INDEX[first]]} is zero but "
                                  "the gate has a trace deficit; no finite bound exists")
    with np.errstate(over="ignore"):
        out = np.divide(raw, denom, out=np.zeros(positive.shape), where=positive)
    if np.isinf(out).any():
        raise ValueError("a time bound overflows float64: the spectrum is too narrow")
    return out


def bounds_from_products(ml, mt, stats: EnergyStats | None = None) -> BoundSet:
    """The five time bounds from the dimensionless ML and MT products,
    by one divide over the stacked numerators and denominators; with no
    ``stats``, the dimensionless forms themselves, every statistic 1."""
    forms = bound_forms(ml, mt)
    if stats is None:
        return BoundSet(*forms)
    gaps = (stats.e_above_ground, stats.variance_sqrt, stats.width, stats.e_below_top)
    return BoundSet(*_scaled(forms, [gaps[i] for i in STATISTIC_INDEX]))
