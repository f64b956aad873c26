"""Randomized verification campaigns and figure-data generation.

A campaign draws (spectrum, time) pairs and judges each one from its
phases ``(E_k - E_0) T``: every trace bound and every exact product
depends on the gate only through ``|tr U|`` and its eigenphases, which
no basis change moves.  The draws run in passes that span dimensions:
per piece of a dimension run only the draws and their phases, and the
rest once per pass, over every draw's own levels and phases laid back
to back.  One draw in ``CROSS_CHECK_EVERY`` also goes the long way
round, through a Haar basis, the gate built on it and the gate's
``eigvals``, a pass's such draws in one identity-padded stack with one
Haar QR and one ``eigvals``; its phases and product margins must agree
with the spectral ones, or the campaign raises :class:`CrossCheckError`.
A pass is one layout and one stack: it closes before its window gather
or its padded stack would pass ``CHUNK_ENTRIES`` entries.
Figure helpers emit the curve data behind the qubit exact-time plot,
the qubit MUB-time plot and the two qutrit MUB family plots, each as
one float64 array of rows, its columns in CSV order, computed as one
stack (a qutrit figure as one per block of rows): the qutrit gates
are judged as by :func:`gateqsl.minimal_time.dominance`, and one array
check raises at the first point whose exact column is below its bound.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from . import bounds
from .catalog import MubFamily, _qutrit_mubs
from .linalg import _modulus, random_unitaries
from .minimal_time import (
    DOMINANCE_TOL,
    _dominance,
    _list_distance,
    _margins,
    _phase_products,
    _phases,
    _ragged_layout,
    phases_from_levels,
)
from .spectrum import EnergyStats, _level_moments

# The x value of each block of rows of a qutrit figure.
QUTRIT_X = (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi)

SPECTRUM_HIGH = 10.0
TIME_HIGH = 2.0

# Bound on the n^2 entries of each campaign pass's draws (its window
# gather) and of its cross-check stack's padded gates.
CHUNK_ENTRIES = 2**16

# Campaign draws whose index is a multiple of this are also judged
# through a Haar basis, the built gate and its eigvals.
CROSS_CHECK_EVERY = 64

# A cross-checked draw's gate phases must lie within this times
# (1 + (E_max - E_0) T) of its spectral phases, and its product margins
# within CROSS_CHECK_MARGIN_TOL of the spectral margins.
CROSS_CHECK_PHASE_TOL = 1e-9
CROSS_CHECK_MARGIN_TOL = 1e-12


class CampaignInputError(ValueError):
    """A campaign's dims, sample count or seed break its input rules."""


_DIMS_RULE = "dims must be a nonempty list of integers >= 2"
_SEED_RULE = "seed must be nonnegative"


def _at_least(value, low: int, rule: str) -> int:
    """``value`` through ``operator.index``, if at least ``low``; else CampaignInputError(rule)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise CampaignInputError(rule) from None
    if value < low:
        raise CampaignInputError(rule)
    return value


class CrossCheckError(RuntimeError):
    """A cross-checked draw's gate disagrees with its spectral verdict."""


class _FigureCheckError(RuntimeError):
    """A figure point's exact column is below its bound."""


@dataclass(frozen=True)
class VerificationReport:
    samples: int
    failures: int
    cross_checked: int
    worst_margin: float
    seed: int
    dims: tuple[int, ...]

    def as_json_dict(self) -> dict:
        """Deterministic payload: the report holds no wall-clock time, so
        identical runs serialize identically."""
        return asdict(self)


def _spectra(n: int, seed: int, indices: range):
    """Sorted levels ``(k, n)`` and times ``(k,)`` of campaign draws
    ``indices`` at dimension ``n``.

    Draw i reads words ``[i s, (i + 1) s)`` of one Philox stream keyed by
    ``(seed, n)``: its n levels, then its time.  The stride s is n + 1
    rounded up to whole 4-word blocks, so the stack opens the stream at
    Philox counter ``indices.start`` s / 4, and a draw is the same
    whatever stack it is made in.
    """
    stride = 4 * (n // 4 + 1)
    rng = np.random.Generator(np.random.Philox((seed, n), counter=indices.start * stride // 4))
    u = rng.random((len(indices), stride))
    levels = SPECTRUM_HIGH * u[:, :n]
    levels.sort(axis=-1)
    return levels, TIME_HIGH * (1.0 - u[:, n])


def _gates(basis: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """``basis diag(eigenvalues) basis†`` for stacks ``(k, n, n)`` and ``(k, n)``."""
    return (basis * eigenvalues[:, None, :]) @ np.swapaxes(basis.conj(), -1, -2)


def _build_gates(seed: int, dims: np.ndarray, indices: np.ndarray,
                 levels: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gates of campaign draws at dimensions ``dims``, indices ``indices``
    and times ``t`` ``(k,)``, whose sorted levels lie back to back in
    ``levels``, as one identity-padded stack ``(k, w, w)``, w the widest n.

    One :func:`random_unitaries` call draws the Haar bases, keyed by
    ``(seed, n, index)``, each padded as ``diag(I_{w-n}, basis)``.  Each
    run of equal n then builds ``U = basis diag(e^{-i (E_k - E_0) T})
    basis†`` on its basis blocks, at its own n, from the unreduced
    products ``(E_k - E_0) T``: a gate shares no step with the phase
    reduction its cross-check tests.
    """
    sizes = dims.tolist()
    w = max(sizes)
    u = random_unitaries(sizes, [(seed, n, index) for n, index in zip(sizes, indices.tolist())])
    stop, at = 0, 0
    for n, run in itertools.groupby(sizes):
        start, stop = stop, stop + len(list(run))
        block = u[start:stop, w - n:, w - n:]
        lv = levels[at:at + (stop - start) * n].reshape(-1, n)
        at += lv.size
        # each draw's gate at its own n: a padded product would move its last bits
        block[...] = _gates(block, np.exp(-1j * (lv - lv[:, :1]) * t[start:stop, None]))
    return u


def sample_spectrum_gate(n: int, seed: int, index: int):
    """Draw campaign sample ``index`` at dimension ``n``.

    Levels are uniform on [0, 10], the time uniform on (0, 2] (so the
    products E_k*T regularly exceed 2 pi and exercise branch wrapping),
    and the eigenbasis is Haar.  Returns (levels, T, U), the levels a
    sorted float64 array; the campaign draws the same levels and time,
    from the same stream opened at the same Philox counter (see
    :func:`_spectra`).  U comes from :func:`_build_gates` as a one-draw
    stack, so a cross-checked draw's gate, the trailing block of its
    pass's padded stack, is this U, bitwise up to a stack width of 128
    (see :func:`gateqsl.linalg.random_unitaries`).  An n, seed or index
    that no campaign draws raises :class:`CampaignInputError`.
    """
    n = _at_least(n, 2, _DIMS_RULE)
    seed = _at_least(seed, 0, _SEED_RULE)
    index = _at_least(index, 0, "index must be nonnegative")
    levels, t = _spectra(n, seed, range(index, index + 1))
    u = _build_gates(seed, np.array([n]), np.array([index]), levels.reshape(-1), t)
    return levels[0], float(t[0]), u[0]


def _passes(dims, samples_per_dim: int):
    """The campaign's draws as passes, lists of ``(n, indices)`` pieces.

    Consecutive pieces share a pass while it holds at most
    ``CHUNK_ENTRIES`` matrix entries, the values of its window gather,
    and while its cross-check stack does too: the pass's draws whose
    index is a multiple of ``CROSS_CHECK_EVERY``, each padded to the
    widest n among them (see :func:`_gate_phases`).  A draw whose n^2
    alone exceeds ``CHUNK_ENTRIES`` is a pass of its own.
    """
    batch, entries, checked, width = [], 0, 0, 0
    for n in dims:
        chunk = max(1, CHUNK_ENTRIES // (n * n))
        for first in range(0, samples_per_dim, chunk):
            indices = range(first, min(first + chunk, samples_per_dim))
            k = len(range(-(-first // CROSS_CHECK_EVERY) * CROSS_CHECK_EVERY, indices.stop,
                          CROSS_CHECK_EVERY))
            if batch and (entries + len(indices) * n * n > CHUNK_ENTRIES
                          or k and (checked + k) * max(width, n) ** 2 > CHUNK_ENTRIES):
                yield batch
                batch, entries, checked, width = [], 0, 0, 0
            batch.append((n, indices))
            entries += len(indices) * n * n
            if k:
                checked, width = checked + k, max(width, n)
    yield batch


def _gate_phases(seed: int, dims: np.ndarray, indices: np.ndarray,
                 levels: np.ndarray, t: np.ndarray):
    """Gate eigenphases and diagonals of cross-checked draws, laid back to
    back as their sorted levels are in ``levels``; the arguments are
    :func:`_build_gates`'.

    One :func:`_phases` call checks the padded stack unitary and takes its
    ``eigvals``.  A draw's identity block's phases come out exactly 0 and
    sort first, so U's phases and diagonal are the last n of its row.
    """
    if not len(dims):
        return np.empty(0), np.empty(0, dtype=np.complex128)
    u = _build_gates(seed, dims, indices, levels, t)
    own = np.arange(u.shape[-1]) >= (u.shape[-1] - dims)[:, None]
    return _phases(u)[own], np.diagonal(u, axis1=-2, axis2=-1)[own]


def _judge(seed: int, pieces) -> tuple[np.ndarray, int]:
    """Worst margin of each draw of a pass, over the five time bounds
    and the five rotation-product bounds, and the number of draws
    cross-checked.

    Per ``(n, indices)`` piece run only the draws and their phases
    (:func:`phases_from_levels`); the rest runs once per pass over one
    layout (:func:`_ragged_layout`): each draw's own levels or phases
    back to back, a run per piece, then the gate phases
    (:func:`_gate_phases`) of the draws whose index is a multiple of
    ``CROSS_CHECK_EVERY``, a run per dimension in pass order.  Every sum
    over a list runs by ``reduceat`` over its own values, so no draw's
    verdict depends on its pass.
    """
    drawn = [_spectra(n, seed, indices) for n, indices in pieces]
    count = np.repeat([n for n, _ in pieces], [len(indices) for _, indices in pieces])
    index = np.concatenate([np.arange(indices.start, indices.stop) for _, indices in pieces])
    is_checked = index % CROSS_CHECK_EVERY == 0
    checked = np.flatnonzero(is_checked)
    checked_n = count[checked]
    runs = tuple((n, len(indices)) for n, indices in pieces) + tuple(
        (n, len(list(run))) for n, run in itertools.groupby(checked_n.tolist()))
    layout = _ragged_layout(runs)
    levels = np.concatenate([lv.reshape(-1) for lv, _ in drawn])
    t = np.concatenate([tn for _, tn in drawn])
    draws, total = len(t), len(levels)
    ph = np.concatenate([phases_from_levels(lv, tn).reshape(-1) for lv, tn in drawn])
    # the spectral slots of the checked draws, in the gate phases' order
    mine = np.flatnonzero(is_checked.take(layout.owner[:total]))
    gate_ph, diagonal = _gate_phases(seed, checked_n, index[checked], levels.take(mine),
                                     t[checked])
    phases = np.concatenate([ph, gate_ph])
    trace = np.add.reduceat(np.concatenate([np.exp(-1j * ph), diagonal]), layout.lists)
    products, deficit = _phase_products(phases, runs, trace)
    d = _margins(np.concatenate([count, checked_n]), _modulus(trace), products, deficit)
    moments = _level_moments(levels, layout.lists[:draws], count, layout.owner[:total])
    if len(checked):
        # raise at the first draw whose gate phases or product margins
        # disagree with its spectral ones
        distance = _list_distance(phases, ph.take(mine), layout, draws)
        tol = CROSS_CHECK_PHASE_TOL * (1.0 + moments[3, checked] * t[checked])
        margin_gap = np.abs(d.margins[:, draws:] - d.margins[:, checked]).max(axis=0)
        bad = ~((distance <= tol) & (margin_gap <= CROSS_CHECK_MARGIN_TOL))
        if bad.any():
            i = int(np.argmax(bad))
            raise CrossCheckError(
                f"draw (seed {seed}, n {checked_n[i]}, index {index[checked[i]]}): gate phases "
                f"differ from the spectral phases by {distance[i]:.3g} (tolerance "
                f"{tol[i]:.3g}) and product margins by {margin_gap[i]:.3g} (tolerance "
                f"{CROSS_CHECK_MARGIN_TOL:g})"
            )
    bs = bounds.bounds_from_products(d.ml[:draws], d.mt[:draws], EnergyStats(*moments))
    return np.minimum(t - bs.max(axis=0), d.margins[:, :draws].min(axis=0)), len(checked)


def run_random_campaign(dims, samples_per_dim: int, seed: int) -> VerificationReport:
    """Dominance campaign; failures are counted, never raised.

    The draws run as passes (:func:`_passes`) whose draws and padded
    cross-check stack each hold at most ``CHUNK_ENTRIES`` matrix entries
    (one draw, if n^2 alone exceeds it), so memory stays flat whatever
    the sample count.  Bad dims, sample count or seed raise
    :class:`CampaignInputError` before the first draw; a cross-check
    mismatch raises :class:`CrossCheckError`.
    """
    dims = tuple(_at_least(d, 2, _DIMS_RULE) for d in dims)
    if not dims:
        raise CampaignInputError(_DIMS_RULE)
    if len(set(dims)) < len(dims):
        raise CampaignInputError("dims must be distinct")
    samples_per_dim = _at_least(samples_per_dim, 1, "need at least one sample per dimension")
    seed = _at_least(seed, 0, _SEED_RULE)
    failures = 0
    cross_checked = 0
    worst = math.inf
    for pieces in _passes(dims, samples_per_dim):
        margin, checked = _judge(seed, pieces)
        worst = min(worst, float(margin.min()))
        failures += int(np.count_nonzero(margin < -DOMINANCE_TOL))
        cross_checked += checked
    return VerificationReport(
        samples=len(dims) * samples_per_dim,
        failures=failures,
        cross_checked=cross_checked,
        worst_margin=worst,
        seed=seed,
        dims=dims,
    )


def _curve(abscissa, exact, ml, mt=None) -> np.ndarray:
    """Figure rows ``(points, 4)`` of the columns abscissa, exact, ml and
    mt, or ``(points, 3)`` with no mt, after one check over all of them:
    the exact column may not fall more than ``DOMINANCE_TOL`` below the
    bound, ml or max(ml, mt).  The first abscissa where it does raises."""
    limit = ml if mt is None else np.maximum(ml, mt)
    bad = exact < limit - DOMINANCE_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise _FigureCheckError(f"dominance violated at abscissa {abscissa[i]}: "
                                f"exact {exact[i]} < bound {limit[i]}")
    return np.column_stack((abscissa, exact, ml) + (() if mt is None else (mt,)))


def _grid(stop: float, points: int) -> np.ndarray:
    """``points`` evenly spaced abscissae over [0, stop]."""
    if points < 2:
        raise ValueError("need at least two grid points")
    return np.linspace(0.0, stop, points)


def _qubit_curve(grid, trace) -> np.ndarray:
    """Exact qubit E*T, arccos(|tr U|/2), vs the two bounds at each abscissa
    of ``grid``, where ``trace`` maps the abscissae to |tr U|.

    Everything is expressed as E*T with the qubit identity dE = E, so
    both bound columns live on the same axis as the exact curve.
    """
    ratio = trace(grid) / 2.0
    exact = np.array([math.acos(min(1.0, r)) for r in ratio.tolist()])
    return _curve(grid, exact, bounds.ml_product(ratio),
                  bounds.mt_from_deficit(1.0 - ratio * ratio))


def figure_qubit(points: int) -> np.ndarray:
    """Exact qubit time arccos(|tr U|/2) vs the two bounds, over |tr U| in [0, 2]."""
    return _qubit_curve(_grid(2.0, points), lambda tr: tr)


def figure_qubit_mub(points: int) -> np.ndarray:
    """E*T for reaching a qubit MUB partner basis, as a function of alpha in [0, pi].

    The trace modulus is sqrt(2)|cos alpha|; the minimum time pi/4 sits
    at the endpoints and the maximum pi/2 at alpha = pi/2.
    """
    return _qubit_curve(_grid(math.pi, points),
                        lambda alpha: math.sqrt(2.0) * np.abs(np.cos(alpha)))


def figure_qutrit(family: MubFamily, points: int) -> np.ndarray:
    """Minimum-rotation E*T vs the dimensionless ML bound for a qutrit family.

    One block of ``points`` rows per x value of ``QUTRIT_X``, each
    sweeping y over [0, 2 pi]; the abscissa column is y.  The exact
    column takes the smallest E*T over all canonical rotations, matching
    the most favorable energy ordering.
    Each block's gates are built as one stack and judged as ``dominance``
    judges them, so no layout spans more than one block.
    """
    grid = _grid(2.0 * math.pi, points)
    blocks = [_dominance(_qutrit_mubs(family, x, grid)) for x in QUTRIT_X]
    return _curve(np.tile(grid, len(blocks)), np.ravel([d.products[0] for d in blocks]),
                  np.ravel([d.ml for d in blocks]))
