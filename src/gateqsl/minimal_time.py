"""Exact minimal-time products for a unitary via branch enumeration.

A unitary's eigenvalues ``e^{-i E_k T}`` pin each product ``E_k T`` only
modulo 2 pi, and any eigenphase may play the role of the ground level.
Enumerating the n cyclic choices of ground phase (each phase in turn
starts a half-open 2 pi window holding all the others) covers every
canonical Hamiltonian realizing the gate, and no other integer branch
assignment can do better: lowering by 2 pi any value at least 2 pi above
the minimum shrinks the mean and the width, and lowering any value more
than pi above the mean shrinks the spread around that mean and hence
the variance.  Either move stays within the valid assignments, so the
minimizers of all three products live inside a 2 pi window, and the
in-window assignments are exactly the n cyclic rotations.

For each rotation this module computes the dimensionless products
``E*T`` (mean above ground), ``dE*T`` (population std), ``width*T`` and
the dual gap ``(E_max - mean)*T``, takes the least of each over the
distinct rotations, and checks it against the corresponding trace
bound.  :func:`dominance_from_phases` does this for a stack ``(..., n)``
of sorted phase lists at once: a window kernel over an n-by-n cyclic
index, then a margin step that needs no n-by-n shape.  :func:`dominance`
and :func:`verify_dominance` run both on the eigenphases of unitaries; a
campaign runs the kernel on each dimension's phases ``(E_k - E_0) T``
and the margin step once over several dimensions.  A real gate stays
float64 throughout, so its eigenvalues come from LAPACK's real solver.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import TraceInput, ml_product, mt_from_deficit
from .linalg import _square_matrices, square_matrix, unitarity_error

TWO_PI = 2.0 * np.pi

DOMINANCE_TOL = 1e-9

# Max-abs-entry limit of ``u†u - I`` for a matrix whose eigenphases are taken.
EIGENPHASE_UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class VerificationRecord:
    """Signed worst-case margins (measured minus bound) over all rotations."""

    n: int
    trace_ratio: float
    ml_margin: float
    mt_margin: float
    dual_ml_margin: float
    width_ml_margin: float
    width_mt_margin: float
    passed: bool

    @property
    def worst(self) -> float:
        return min(
            self.ml_margin,
            self.mt_margin,
            self.dual_ml_margin,
            self.width_ml_margin,
            self.width_mt_margin,
        )


class Dominance(NamedTuple):
    """Dominance data of a stack of unitaries; each field has one entry per gate.

    ``margins`` holds the worst product minus bound over the rotations,
    one row per bound in the order ml, mt, dual_ml, width_ml, width_mt.
    """

    ratio: np.ndarray
    ml: np.ndarray
    mt: np.ndarray
    margins: np.ndarray


def _sorted_phases(ph: np.ndarray) -> np.ndarray:
    """Angles ``(..., n)`` reduced into [0, 2 pi) and sorted, in place.

    A non-finite angle stays non-finite; :func:`dominance_from_phases`
    rejects it.
    """
    ph %= TWO_PI
    # wrapping a phase an ulp below zero rounds to exactly 2 pi
    ph[ph >= TWO_PI] = 0.0
    ph.sort(axis=-1)
    return ph


def _phases(u: np.ndarray) -> np.ndarray:
    """Sorted eigenphases ``(..., n)`` of a stack ``(..., n, n)`` of square
    float64 or complex128 matrices, checked unitary first.

    A non-finite entry fails the unitarity check too.  A real stack goes
    to LAPACK's real eigensolver.
    """
    if not (unitarity_error(u) <= EIGENPHASE_UNITARY_TOL).all():
        raise ValueError(f"matrix is not unitary to tolerance {EIGENPHASE_UNITARY_TOL:g}")
    return _sorted_phases(-np.angle(np.linalg.eigvals(u)))


def phases_from_levels(levels: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sorted phases ``(E_k - E_0) T mod 2 pi`` of sorted levels ``(..., n)``
    and times ``(...)``.

    These are the eigenphases of ``exp(-i H T)`` for any H with those
    levels, less the global phase ``E_0 T``, which no bound or window
    product sees.
    """
    return _sorted_phases((levels - levels[..., :1]) * np.asarray(t)[..., None])


@functools.lru_cache(maxsize=16)
def _cyclic_index(n: int) -> np.ndarray:
    """``idx[j, k] = j + k``, read-only and built once per n; the 16 most
    recent n are kept, 8 n^2 bytes each.

    Row j of a length-2n list ``concatenate([a, a])`` lists the n slots
    of ``a`` starting at slot j.
    """
    j = np.arange(n)
    idx = j[:, None] + j
    idx.flags.writeable = False
    return idx


def cyclic_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest circular distance between sorted phase lists ``(..., n)``,
    least over the cyclic shifts of ``a``.

    Two computations of one phase multiset can differ by a cyclic shift,
    since a phase near 0 in one may come out near 2 pi in the other.
    """
    shifts = np.concatenate([a, a], axis=-1)[..., _cyclic_index(a.shape[-1])]
    gap = np.abs(b[..., None, :] - shifts) % TWO_PI
    return np.minimum(gap, TWO_PI - gap).max(axis=-1).min(axis=-1)


def _windows(ph: np.ndarray):
    """Products of every cyclic window of sorted phases ``(..., n)``.

    Window j lifts the phases below phi_j by 2 pi, so all values sit in
    [phi_j, phi_j + 2 pi): it is slots j to j + n - 1 of the phases
    followed by their 2 pi lift.  Returns the products ``(4, ..., n)``,
    in the order e_t, var_t, width_t, dual_t, and ``start`` ``(..., n)``,
    which is False where phi_j repeats the phase before it: that window
    duplicates an earlier one.
    """
    n = ph.shape[-1]
    theta = np.concatenate([ph, ph + TWO_PI], axis=-1)[..., _cyclic_index(n)]
    mean = theta.sum(axis=-1) / n
    var_t = np.sqrt(np.square(theta - mean[..., None]).sum(axis=-1) / n)
    last = theta[..., -1]
    start = np.ones(ph.shape, dtype=bool)
    start[..., 1:] = ph[..., 1:] != ph[..., :-1]
    return np.array([mean - ph, var_t, last - ph, last - mean]), start


def _exact_products(ph: np.ndarray) -> np.ndarray:
    """Least products ``(4, ...)`` over the distinct cyclic windows of
    sorted phases ``(..., n)``, in the order e_t, var_t, width_t, dual_t."""
    products, start = _windows(ph)
    return np.where(start, products, np.inf).min(axis=-1)


def _phase_products(ph: np.ndarray):
    """The per-n kernel: least window products ``(4, ...)`` of sorted
    phases ``(..., n)`` in [0, 2 pi), and their trace deficit ``1 - r^2``,
    free of cancellation near r = 1:
    ``n^2 - |tr U|^2 = sum_{j,k} 2 sin^2((phi_j - phi_k) / 2)``."""
    n = ph.shape[-1]
    s = np.sin(0.5 * (ph[..., :, None] - ph[..., None, :]))
    return _exact_products(ph), 2.0 * np.square(s).sum(axis=(-2, -1)) / (n * n)


def eigenphases(u) -> np.ndarray:
    """Sorted phases phi_k in [0, 2 pi) with eigenvalues(u) = {e^{-i phi_k}}."""
    return _phases(square_matrix(u))


def _margins(n, trace_abs, products, deficit) -> Dominance:
    """The margin step after :func:`_phase_products`, elementwise over
    rows whose dimension ``n`` may differ from row to row."""
    ratio = TraceInput(n, trace_abs).ratio
    ml = ml_product(ratio)
    mt = mt_from_deficit(deficit)
    e_t, var_t, width_t, dual_t = products
    margins = np.array([e_t - ml, var_t - mt, dual_t - ml, width_t - 2.0 * ml,
                        width_t - 2.0 * mt])
    return Dominance(ratio, ml, mt, margins)


def dominance_from_phases(ph: np.ndarray, trace_abs) -> Dominance:
    """Check every rotation of each sorted phase list of a stack ``(..., n)``
    against all five trace bounds; ``trace_abs`` is the matching ``|tr U|``.

    The MT product takes the trace deficit ``1 - r^2`` from the phases
    rather than from the rounded trace, so a near-identity gate's margin
    is not lost to cancellation.  Phases outside [0, 2 pi), NaN included,
    raise ValueError.
    """
    # NaN and infinities fail the range test as well
    if not ((0.0 <= ph) & (ph < TWO_PI)).all():
        raise ValueError("phases must be finite and lie in [0, 2*pi)")
    return _margins(ph.shape[-1], trace_abs, *_phase_products(ph))


def _dominance(u: np.ndarray) -> Dominance:
    """:func:`dominance` of a stack already checked square and finite."""
    trace = np.abs(np.trace(u, axis1=-2, axis2=-1))
    return _margins(u.shape[-1], trace, *_phase_products(_phases(u)))


def dominance(u) -> Dominance:
    """:func:`dominance_from_phases` of the eigenphases and trace of each
    unitary of a stack ``(..., n, n)``."""
    return _dominance(_square_matrices(u))


def verify_dominance(u) -> VerificationRecord:
    """Check every rotation of ``u`` against all five trace bounds.

    The batch of one of :func:`dominance`: the campaign's window kernel
    and margin step, run as a one-piece pass.  Passed when no margin is
    below ``-DOMINANCE_TOL``.  A failed check is reported in the record
    (negative margin, passed False), never raised.
    """
    u = square_matrix(u)
    d = _dominance(u)
    margins = d.margins.tolist()
    # the margin fields follow the bound order of d.margins
    return VerificationRecord(u.shape[0], float(d.ratio), *margins,
                              passed=min(margins) >= -DOMINANCE_TOL)
