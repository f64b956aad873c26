"""Randomized verification campaigns and figure-data generation.

A campaign draws (spectrum, time) pairs and judges each one from its
phases ``(E_k - E_0) T``: every trace bound and every exact product
depends on the gate only through ``|tr U|`` and its eigenphases, which
no basis change moves.  The draws run as stacked arrays in passes that
span dimensions, with only the n-by-n work done once per dimension.  One
draw in ``CROSS_CHECK_EVERY`` also goes the long way round, through a
Haar basis, the gate built on it and the gate's ``eigvals``; its phases
and product margins must agree with the spectral ones, or the campaign
raises :class:`CrossCheckError`.  Figure helpers emit the curve data
behind the qubit exact-time plot, the qubit MUB-time plot and the two
qutrit MUB family plots.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds
from .catalog import MubFamily, QutritMubParams, qutrit_mub
from .linalg import random_unitaries, trace_abs
from .minimal_time import (
    DOMINANCE_TOL,
    _exact_products,
    _margins,
    _phase_products,
    _phases,
    cyclic_distance,
    eigenphases,
    phases_from_levels,
)
from .spectrum import EnergySpectrum, EnergyStats, _level_moments

DEFAULT_QUTRIT_X = (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi)

SPECTRUM_HIGH = 10.0
TIME_HIGH = 2.0

# Matrix entries per stacked chunk of campaign draws.
CHUNK_ENTRIES = 2**16

# Campaign draws whose index is a multiple of this are also judged
# through a Haar basis, the built gate and its eigvals.
CROSS_CHECK_EVERY = 64

# A cross-checked draw's gate phases must lie within this times
# (1 + (E_max - E_0) T) of its spectral phases, and its product margins
# within CROSS_CHECK_MARGIN_TOL of the spectral margins.
CROSS_CHECK_PHASE_TOL = 1e-9
CROSS_CHECK_MARGIN_TOL = 1e-12


class CrossCheckError(RuntimeError):
    """A cross-checked draw's gate disagrees with its spectral verdict."""


@dataclass(frozen=True)
class VerificationReport:
    samples: int
    failures: int
    cross_checked: int
    worst_margin: float
    seed: int
    dims: tuple[int, ...]
    elapsed: float

    def as_json_dict(self) -> dict:
        """Deterministic payload: wall-clock time is deliberately excluded
        so identical runs serialize identically."""
        return {
            "samples": self.samples,
            "failures": self.failures,
            "cross_checked": self.cross_checked,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "dims": list(self.dims),
        }


@dataclass(frozen=True)
class CurvePoint:
    """One figure row; ``mt`` is None where that column does not apply."""

    abscissa: float
    exact: float
    ml: float
    mt: float | None


def _spectra(n: int, seed: int, indices, basis_every: int):
    """Sorted levels ``(k, n)`` and times ``(k,)`` of campaign draws
    ``indices`` at dimension ``n``, and the basis seeds of the draws whose
    index is a multiple of ``basis_every``.

    Each draw has its own RNG stream keyed by ``(seed, n, index)``, with
    its levels and time first and its basis seed next, so a draw is the
    same whatever stack it is made in.
    """
    levels = np.empty((len(indices), n))
    t = np.empty(len(indices))
    basis_seeds = []
    for i, index in enumerate(indices):
        rng = np.random.default_rng((seed, n, index))
        levels[i] = rng.uniform(0.0, SPECTRUM_HIGH, n)
        t[i] = TIME_HIGH * (1.0 - rng.uniform())
        if index % basis_every == 0:
            basis_seeds.append(int(rng.integers(0, 2**63 - 1)))
    levels.sort(axis=-1)
    return levels, t, basis_seeds


def _draws(n: int, seed: int, indices):
    """Campaign draws ``indices`` at dimension ``n``, with their gates, as stacks.

    Returns sorted levels ``(k, n)``, times ``(k,)`` and gates
    ``basis diag(e^{-i E_k T}) basis†`` ``(k, n, n)``.
    """
    levels, t, basis_seeds = _spectra(n, seed, indices, 1)
    u = _gates(random_unitaries(n, basis_seeds), np.exp(-1j * levels * t[:, None]))
    return levels, t, u


def _gates(basis: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """``basis diag(eigenvalues) basis†`` for stacks ``(k, n, n)`` and ``(k, n)``."""
    return (basis * eigenvalues[:, None, :]) @ np.swapaxes(basis.conj(), -1, -2)


def sample_spectrum_gate(n: int, seed: int, index: int):
    """Draw campaign sample ``index`` at dimension ``n``.

    Levels are uniform on [0, 10], the time uniform on (0, 2] (so the
    products E_k*T regularly exceed 2 pi and exercise branch wrapping),
    and the eigenbasis is Haar.  The gate ``basis diag(e^{-i E_k T})
    basis†`` is built from the drawn basis directly.  Returns
    (spectrum, T, U); the campaign draws the same levels and time.
    """
    levels, t, u = _draws(n, seed, [index])
    return EnergySpectrum(levels[0]), float(t[0]), u[0]


def _passes(dims, samples_per_dim: int):
    """The campaign's draws as passes, lists of ``(n, indices)`` pieces:
    consecutive pieces share a pass while it holds at most
    ``CHUNK_ENTRIES`` matrix entries."""
    batch, entries = [], 0
    for n in dims:
        chunk = max(1, CHUNK_ENTRIES // (n * n))
        for first in range(0, samples_per_dim, chunk):
            indices = range(first, min(first + chunk, samples_per_dim))
            if batch and entries + len(indices) * n * n > CHUNK_ENTRIES:
                yield batch
                batch, entries = [], 0
            batch.append((n, indices))
            entries += len(indices) * n * n
    yield batch


def _judge(seed: int, pieces) -> tuple[np.ndarray, int]:
    """Worst margin of each draw of a pass, over the five time bounds
    and the five rotation-product bounds, and the number of draws
    cross-checked.

    Each ``(n, indices)`` piece draws its levels, takes the phases
    ``(E_k - E_0) T``, the window kernel and the level moments.  Draws
    whose index is a multiple of ``CROSS_CHECK_EVERY`` also have a gate
    ``basis diag(e^{-i (E_k - E_0) T}) basis†`` built on a Haar basis and
    diagonalised, its phases stacked after the spectral ones in the same
    kernel call.  The margin step, the statistics and bound checks and
    the cross-check then run once over the rows of the whole pass.
    """
    spectral, gate, moments, times, checked_rows, labels, distance = ([] for _ in range(7))
    k = 0
    for n, indices in pieces:
        levels, t, basis_seeds = _spectra(n, seed, indices, CROSS_CHECK_EVERY)
        ph = phases_from_levels(levels, t)
        tr = np.abs(np.exp(-1j * ph).sum(axis=-1))
        if basis_seeds:
            checked = slice(-indices.start % CROSS_CHECK_EVERY, len(indices), CROSS_CHECK_EVERY)
            lv, tc = levels[checked], t[checked]
            # built from the unreduced products, so the gate shares no step
            # with the phase reduction it checks
            u = _gates(random_unitaries(n, basis_seeds),
                       np.exp(-1j * (lv - lv[:, :1]) * tc[:, None]))
            gate_ph = _phases(u)
            products, deficit = _phase_products(np.concatenate([ph, gate_ph]))
            gate.append((n, np.abs(np.trace(u, axis1=-2, axis2=-1)),
                         products[:, len(t):], deficit[len(t):]))
            products, deficit = products[:, :len(t)], deficit[:len(t)]
            checked_rows += range(k, k + len(t))[checked]
            labels += [(n, index) for index in indices[checked]]
            distance.append(cyclic_distance(ph[checked], gate_ph))
        else:
            products, deficit = _phase_products(ph)
        spectral.append((n, tr, products, deficit))
        moments.append(_level_moments(levels))
        times.append(t)
        k += len(t)
    ns, traces, products, deficits = zip(*spectral, *gate)
    d = _margins(np.repeat(ns, [len(tr) for tr in traces]), np.concatenate(traces),
                 np.concatenate(products, axis=-1), np.concatenate(deficits))
    moments = np.concatenate(moments, axis=-1)
    t = np.concatenate(times)
    if labels:
        # raise at the first draw whose gate phases or product margins
        # disagree with its spectral ones
        distance = np.concatenate(distance)
        tol = CROSS_CHECK_PHASE_TOL * (1.0 + moments[3, checked_rows] * t[checked_rows])
        margin_gap = np.abs(d.margins[:, k:] - d.margins[:, checked_rows]).max(axis=0)
        bad = ~((distance <= tol) & (margin_gap <= CROSS_CHECK_MARGIN_TOL))
        if bad.any():
            i = int(np.argmax(bad))
            raise CrossCheckError(
                f"draw (seed {seed}, n {labels[i][0]}, index {labels[i][1]}): gate phases "
                f"differ from the spectral phases by {distance[i]:.3g} (tolerance "
                f"{tol[i]:.3g}) and product margins by {margin_gap[i]:.3g} (tolerance "
                f"{CROSS_CHECK_MARGIN_TOL:g})"
            )
    bs = bounds.bounds_from_products(d.ml[:k], d.mt[:k], EnergyStats(*moments))
    worst_bound = np.maximum.reduce([bs.ml, bs.mt, bs.dual_ml, bs.width_ml, bs.width_mt])
    return np.minimum(t - worst_bound, d.margins[:, :k].min(axis=0)), len(labels)


def run_random_campaign(dims, samples_per_dim: int, seed: int) -> VerificationReport:
    """Dominance campaign; failures are counted, never raised.

    The draws run as passes of at most ``CHUNK_ENTRIES`` matrix entries
    (one draw, if n^2 alone exceeds it), so memory stays flat whatever
    the sample count.  A cross-check mismatch raises
    :class:`CrossCheckError`.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or min(dims) < 2:
        raise ValueError("dims must be a nonempty list of integers >= 2")
    if samples_per_dim < 1:
        raise ValueError("need at least one sample per dimension")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    started = time.perf_counter()
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
        elapsed=time.perf_counter() - started,
    )


def _checked_point(abscissa: float, exact: float, ml: float, mt: float | None) -> CurvePoint:
    ml = float(ml)
    mt = None if mt is None else float(mt)
    limit = ml if mt is None else max(ml, mt)
    if exact < limit - DOMINANCE_TOL:
        raise RuntimeError(
            f"dominance violated at abscissa {abscissa}: exact {exact} < bound {limit}"
        )
    return CurvePoint(abscissa=abscissa, exact=float(exact), ml=ml, mt=mt)


def _grid(stop: float, points: int) -> np.ndarray:
    """``points`` evenly spaced abscissae over [0, stop]."""
    if points < 2:
        raise ValueError("need at least two grid points")
    return np.linspace(0.0, stop, points)


def _qubit_curve(grid, trace) -> list[CurvePoint]:
    """Exact qubit E*T, arccos(|tr U|/2), vs the two bounds at each abscissa
    of ``grid``, where ``trace`` maps an abscissa to |tr U|.

    Everything is expressed as E*T with the qubit identity dE = E, so
    both bound columns live on the same axis as the exact curve.
    """
    out = []
    for a in grid:
        ratio = trace(a) / 2.0
        out.append(_checked_point(abscissa=float(a), exact=math.acos(min(1.0, ratio)),
                                  ml=bounds.ml_product(ratio), mt=bounds.mt_product(ratio)))
    return out


def figure_qubit(points: int) -> list[CurvePoint]:
    """Exact qubit time arccos(|tr U|/2) vs the two bounds, over |tr U| in [0, 2]."""
    return _qubit_curve(_grid(2.0, points), lambda tr: tr)


def figure_qubit_mub(points: int) -> list[CurvePoint]:
    """E*T for reaching a qubit MUB partner basis, as a function of alpha in [0, pi].

    The trace modulus is sqrt(2)|cos alpha|; the minimum time pi/4 sits
    at the endpoints and the maximum pi/2 at alpha = pi/2.
    """
    return _qubit_curve(_grid(math.pi, points),
                        lambda alpha: math.sqrt(2.0) * abs(math.cos(alpha)))


def figure_qutrit(family: MubFamily, x_values=DEFAULT_QUTRIT_X,
                  y_points: int = 100) -> list[CurvePoint]:
    """Minimum-rotation E*T vs the dimensionless ML bound for a qutrit family.

    One block of rows per x value, each sweeping y over [0, 2 pi]; the
    abscissa column is y.  The exact column takes the smallest E*T over
    all canonical rotations, matching the most favorable energy ordering.
    """
    grid = _grid(2.0 * math.pi, y_points)
    out = []
    for x in x_values:
        for y in grid:
            u = qutrit_mub(QutritMubParams(family=family, x=float(x), y=float(y)))
            ratio = min(1.0, trace_abs(u) / 3.0)
            out.append(
                _checked_point(
                    abscissa=float(y),
                    exact=_exact_products(eigenphases(u))[0],
                    ml=bounds.ml_product(ratio),
                    mt=None,
                )
            )
    return out
