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
the dual gap ``(E_max - mean)*T``, takes the least of each over all n
windows, which is the least over the distinct rotations, and checks it
against its trace bound.  The window kernel :func:`_phase_products`
takes sorted phase lists in [0, 2 pi) of any dimensions laid back to
back, ``count`` lists of n phases for each ``(n, count)`` of a ``runs``
tuple: it gathers every window from a layout cached per runs and sums
each window by ``np.add.reduceat`` over its own n values, so a list's
products do not depend on the lists beside it, and it takes each list's
trace deficit in O(n) from the trace its caller already holds.  A margin
step follows, elementwise.  One routine, :func:`_sorted_phases`, makes
the lists it reads, from a gate's eigenvalue angles and from a campaign
draw's products ``(E_k - E_0) T`` alike.
:func:`dominance_from_phases`, :func:`dominance` and
:func:`verify_dominance` run both on one run of equal-length lists; a
campaign pass runs each once over all its draws and cross-checked gates.
A real gate stays float64 throughout, so its eigenvalues come from
LAPACK's real solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import STATISTIC_INDEX, _clamped_trace, bound_forms, ml_product, mt_from_deficit
from .linalg import _modulus, _square_matrices, square_matrix, unitarity_error
from .spectrum import _reals

TWO_PI = 2.0 * np.pi

DOMINANCE_TOL = 1e-9

# Max-abs-entry limit of ``u†u - I`` for a matrix whose eigenphases are taken.
EIGENPHASE_UNITARY_TOL = 1e-9

# The two branches a window takes a phase from: the phase, and its 2 pi lift.
_LIFTS = np.array([[0.0], [TWO_PI]])

# Scales psi into the rows psi / 2 and psi of the trace deficit's sines.
_HALF_AND_WHOLE = np.array([[0.5], [1.0]])

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


class Dominance(NamedTuple):
    """Dominance data of a stack of unitaries; each field has one entry per gate.

    ``products`` holds the least e_t, var_t, width_t and dual_t over the
    rotations; ``margins`` the worst product minus bound, one row per
    bound in ``BOUND_NAMES`` order.
    """

    ratio: np.ndarray
    ml: np.ndarray
    mt: np.ndarray
    products: np.ndarray
    margins: np.ndarray


def _sorted_phases(ph: np.ndarray) -> np.ndarray:
    """Angles ``(..., n)`` reduced into [0, 2 pi) and sorted, in place: the
    one phase reduction, for a gate's eigenvalue angles and a campaign
    draw's products ``(E_k - E_0) T`` alike.

    On a nonnegative angle ``%`` is bitwise ``fmod``, and the wrap fix
    below never fires.  A non-finite angle stays non-finite;
    :func:`dominance_from_phases` rejects it.
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


class _Layout(NamedTuple):
    """Where every cyclic window and every list of sorted phase lists laid
    back to back lie; see :func:`_ragged_layout`."""

    gather: np.ndarray
    windows: np.ndarray
    repeats: np.ndarray
    last: np.ndarray
    owner: np.ndarray
    lists: np.ndarray
    n: np.ndarray


@functools.lru_cache(maxsize=16)
def _ragged_layout(runs: tuple) -> _Layout:
    """The window layout of ``count`` lists of n phases for each
    ``(n, count)`` of ``runs``, in that order, laid back to back in one
    flat array ``ph``: read-only, built once per ``runs``; the 16 most
    recent are kept, 8 bytes per window value and 32 per phase.

    Phase w, slot j of its list, starts window w: slots j to n - 1 of its
    list, then slots 0 to j - 1 lifted by 2 pi.  Every index points into
    ``lifted = concatenate([ph, ph + 2 pi])``.  ``gather`` lists every
    window's n values back to back, ``windows`` is where each window
    starts in that gather, ``repeats`` its length n and ``last`` the
    index of its last value.  ``owner`` is the list of each phase,
    ``lists`` is where each list starts in ``ph`` and ``n`` its length.
    """
    n = np.repeat([length for length, _ in runs], [count for _, count in runs]).astype(np.intp)
    lists = np.cumsum(n) - n
    total = int(n.sum())
    size = np.repeat(n, n)
    first = np.repeat(lists, n)
    slot = np.arange(total) - first
    windows = np.cumsum(size) - size
    window = np.repeat(np.arange(total), size)
    # slot j + k of window w's list, lifted where it passes the list's end
    at = slot[window] + np.arange(len(window)) - windows[window]
    gather = first[window] + at + np.where(at < size[window], 0, total - size[window])
    owner = np.repeat(np.arange(len(n)), n)
    layout = _Layout(gather, windows, size, gather[windows + size - 1], owner, lists, n)
    for a in layout:
        a.flags.writeable = False
    return layout


def _window_products(ph: np.ndarray, layout: _Layout):
    """Products of every cyclic window of sorted phase lists in [0, 2 pi)
    laid back to back in ``ph``, as ``layout`` lays them (see
    :func:`_ragged_layout`).

    Window w lifts the phases of its list below phi_w by 2 pi, so all its
    values sit in [phi_w, phi_w + 2 pi).  Each window's sums run by
    ``np.add.reduceat`` over its own n contiguous values, so they depend
    on the window alone, not on the lists beside it.  Returns the products
    ``(4, windows)``, in the order e_t, var_t, width_t, dual_t: one
    window per phase, repeated phases included (see
    :func:`_phase_products`).
    """
    # rows ph and ph + 2 pi, which take() reads as concatenate([ph, ph + 2 pi])
    lifted = _LIFTS + ph
    theta = lifted.take(layout.gather)
    mean = np.add.reduceat(theta, layout.windows) / layout.repeats
    theta -= np.repeat(mean, layout.repeats)
    var_t = np.sqrt(np.add.reduceat(np.square(theta, out=theta), layout.windows) / layout.repeats)
    last = lifted.take(layout.last)
    return np.array([mean - ph, var_t, last - ph, last - mean])


def _phase_products(ph: np.ndarray, runs: tuple, trace: np.ndarray):
    """The kernel of the campaign, :func:`dominance` and the qutrit figures:
    the least products ``(4, lists)``, e_t, var_t, width_t and dual_t, over
    all n cyclic windows of each sorted phase list in [0, 2 pi) laid back
    to back in ``ph`` as ``runs`` lays them (see :func:`_ragged_layout`),
    and each list's trace deficit ``1 - r^2``.

    A window that starts inside a run of m equal phases lifts k of them,
    0 < k < m: its e_t and dual_t exceed those of windows k = 0 and k = m,
    its width_t is 2 pi and its var_t is strictly concave in k, so it
    never sets a least.

    ``trace`` holds each list's ``sum_k e^{-i phi_k}``, or a trace close to
    it, such as the trace of the gate whose eigenphases the list holds.
    The deficit is taken about mu = -arg(trace), the phases' circular
    mean, free of cancellation near r = 1: with ``psi = phi - mu``,
    ``a = sum 2 sin^2(psi / 2)`` and ``b = sum sin psi``,
    ``n^2 - |sum e^{-i phi}|^2 = a (2 n - a) - b^2`` for any mu, and b
    vanishes where mu is the circular mean.  Every sum runs over one
    list's or one window's values alone, so a list's products and deficit
    do not depend on the lists beside it.
    """
    layout = _ragged_layout(runs)
    least = np.minimum.reduceat(_window_products(ph, layout), layout.lists, axis=-1)
    # rows sin(psi / 2) and sin(psi), psi = phi + arg(trace); a / 2 and b
    # are their sums after squaring the first
    arg = np.arctan2(trace.imag, trace.real)
    s = np.sin(_HALF_AND_WHOLE * (ph + arg.take(layout.owner)))
    np.square(s[0], out=s[0])
    half_a, b = np.add.reduceat(s, layout.lists, axis=-1)
    n = layout.n
    return least, (4.0 * half_a * (n - half_a) - b * b) / (n * n)


def _list_distance(ph: np.ndarray, other: np.ndarray, layout: _Layout, first: int):
    """For each sorted phase list in [0, 2 pi) of ``ph`` from list
    ``first`` on, laid out as in ``layout``: its largest circular distance
    from the matching list of ``other`` (laid back to back), least over
    the list's cyclic shifts.

    Two computations of one phase multiset can differ by a cyclic shift,
    since a phase near 0 in one may come out near 2 pi in the other.  The
    shifts are the windows, read unlifted through ``gather % len(ph)``;
    each window's largest gap and each list's least are taken by
    ``reduceat``, over the list's own values alone."""
    start = layout.lists[first]
    windows = layout.windows[start:] - layout.windows[start]
    shifts = ph.take(layout.gather[layout.windows[start]:] % len(ph))
    # where each window starts, less where its list starts in other
    lead = windows - (layout.lists.take(layout.owner[start:]) - start)
    faces = np.arange(len(shifts)) - np.repeat(lead, layout.repeats[start:])
    # both phases lie in [0, 2 pi), so their difference needs no reduction
    gap = np.abs(other.take(faces) - shifts)
    widest = np.maximum.reduceat(np.minimum(gap, TWO_PI - gap), windows)
    return np.minimum.reduceat(widest, layout.lists[first:] - start)


def _stack_products(ph: np.ndarray, trace: np.ndarray):
    """:func:`_phase_products` of a stack ``(..., n)`` of sorted phase lists,
    one run, with ``trace`` ``(...)``; shaped as the stack."""
    shape = ph.shape[:-1]
    products, deficit = _phase_products(ph.reshape(-1), ((ph.shape[-1], math.prod(shape)),),
                                        trace.reshape(-1))
    return products.reshape(4, *shape), deficit.reshape(shape)


def eigenphases(u) -> np.ndarray:
    """Sorted phases phi_k in [0, 2 pi) with eigenvalues(u) = {e^{-i phi_k}}."""
    return _phases(square_matrix(u))


def _margins(n, modulus, products, deficit) -> Dominance:
    """The margin step after :func:`_phase_products`, elementwise over
    rows whose dimension ``n`` may differ from row to row."""
    ratio = _clamped_trace(n, modulus) / n
    ml = ml_product(ratio)
    mt = mt_from_deficit(deficit)
    # each least product less its bound form, in BOUND_NAMES order
    margins = products.take(STATISTIC_INDEX, axis=0) - bound_forms(ml, mt)
    return Dominance(ratio, ml, mt, products, margins)


def dominance_from_phases(ph: np.ndarray, modulus) -> Dominance:
    """Check every rotation of each phase list of a stack ``(..., n)``
    against all five trace bounds; ``modulus`` is the matching ``|tr U|``,
    one per phase list or one for them all.

    A phase list is a multiset: it is judged sorted, in any input order.
    The MT product takes the trace deficit ``1 - r^2`` from the phases
    rather than from the rounded trace, so a near-identity gate's margin
    is not lost to cancellation.  Phases outside [0, 2 pi), NaN included,
    lists of no phases, a lone number, complex or non-numeric phases or
    moduli, and moduli that do not broadcast to one per phase list raise
    ValueError; an object array of real numbers is taken as float64.
    """
    # numpy orders complex values, so complex phases would pass the range test
    ph, modulus = (_reals(x, "phases and |tr U| must be real") for x in (ph, modulus))
    if not ph.ndim or ph.shape[-1] < 1:
        raise ValueError("a phase list needs at least one phase")
    # NaN and infinities fail the range test as well
    if not ((0.0 <= ph) & (ph < TWO_PI)).all():
        raise ValueError("phases must be finite and lie in [0, 2*pi)")
    ph = np.sort(ph, axis=-1)
    # the margin step stacks its bound forms, so one trace per phase list
    try:
        modulus = np.broadcast_to(modulus, ph.shape[:-1])
    except ValueError:
        raise ValueError("|tr U| must be one number or one per phase list") from None
    return _margins(ph.shape[-1], modulus, *_stack_products(ph, np.exp(-1j * ph).sum(axis=-1)))


def _dominance(u: np.ndarray) -> Dominance:
    """:func:`dominance` of a stack already checked square and finite."""
    trace = u.trace(axis1=-2, axis2=-1)
    return _margins(u.shape[-1], _modulus(trace), *_stack_products(_phases(u), trace))


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
    # the rows of d.margins and the record's margin fields both follow BOUND_NAMES
    return VerificationRecord(u.shape[0], float(d.ratio), *margins,
                              passed=min(margins) >= -DOMINANCE_TOL)
