"""Dense linear algebra for small unitary and Hermitian problems.

Everything here is a pure function: matrices go in, matrices come out,
and the only randomness (Haar sampling) is driven by an explicit seed.
Eigendecompositions go to LAPACK through ``numpy.linalg``.  Matrices are
plain numpy arrays, ``float64`` when their entries are real and
``complex128`` otherwise, so a real gate reaches LAPACK's real solvers
and real matrix products; :func:`square_matrix` is the validating
constructor used wherever input may be hostile (files, user code).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Tolerances(NamedTuple):
    """Package-wide numerical tolerances.

    ``structural`` gates predicate checks (unitarity, Hermiticity) and
    eigendecomposition residuals; ``reconstruction`` is the looser
    unitarity limit for a matrix whose eigenphases are taken.
    """

    structural: float = 1e-10
    reconstruction: float = 1e-9


TOL = Tolerances()


class ConvergenceError(RuntimeError):
    """The eigensolver failed to converge."""


class EigenDecomposition(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray


def _square_matrices(entries) -> np.ndarray:
    """Coerce ``entries`` to a stack ``(..., n, n)`` of square matrices with
    finite entries: float64 when the entries are real (bool, integer or
    float), complex128 otherwise.  A float64 or complex128 array is not
    copied."""
    a = np.asarray(entries)
    a = a.astype(np.float64 if a.dtype.kind in "biuf" else np.complex128, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def square_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a square matrix with finite entries: float64
    when the entries are real, complex128 otherwise."""
    a = _square_matrices(entries)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def is_hermitian(a, tol: float = TOL.structural) -> bool:
    """Max-abs-entry of ``a - a†`` is at most ``tol``."""
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and _maxabs(a - a.conj().T) <= tol


def unitarity_error(u) -> np.ndarray:
    """Max-abs-entry of ``u†u - I`` for each matrix of a stack ``(..., n, n)``.

    A real stack takes a real product.  A matrix with a non-finite entry
    has a non-finite error, which fails every ``error <= tol`` test.
    """
    u = np.asarray(u)
    adjoint = np.swapaxes(u, -1, -2)
    gram = (adjoint.conj() if np.iscomplexobj(u) else adjoint) @ u
    np.einsum("...ii->...i", gram)[...] -= 1.0
    return np.abs(gram).max(axis=(-2, -1))


def is_unitary(u, tol: float = TOL.structural) -> bool:
    """Max-abs-entry of ``u†u - I`` is at most ``tol``."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(unitarity_error(u) <= tol)


def matmul(a, b) -> np.ndarray:
    a = square_matrix(a)
    b = square_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


def trace_abs(u) -> float:
    """Modulus of the trace; lies in [0, n] for an n-dimensional unitary."""
    u = square_matrix(u)
    return float(abs(np.trace(u)))


def eig_hermitian(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues are real and sorted ascending, eigenvector columns are
    orthonormal, and ``a ≈ V diag(w) V†`` to the structural tolerance.
    """
    a = square_matrix(a)
    if not is_hermitian(a):
        raise ValueError(f"matrix is not Hermitian to tolerance {TOL.structural:g}")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver failed: {exc}") from exc
    return EigenDecomposition(w, v)


def expm_hermitian_scaled(h, t: float) -> np.ndarray:
    """``exp(-i h t)`` for Hermitian ``h``, via its eigendecomposition."""
    if not np.isfinite(t):
        raise ValueError("time parameter must be finite")
    w, v = eig_hermitian(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def random_unitaries(n: int, seeds) -> np.ndarray:
    """Stack of Haar-distributed n-by-n unitaries, one per seed.

    Each seed drives its own complex Ginibre matrix, so a unitary does
    not depend on the other seeds of the stack.  One stacked QR
    factorization follows, with each R diagonal's phases absorbed into
    its Q so the distribution is exactly Haar.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    z = np.empty((len(seeds), n, n), dtype=np.complex128)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        z[i] = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed n-by-n unitary, deterministic for a fixed seed."""
    return random_unitaries(n, [seed])[0]
