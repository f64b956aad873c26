"""Dense linear algebra for unitary gates.

Everything here is a pure function: matrices go in, matrices come out,
and the only randomness (Haar sampling) is driven by an explicit seed.
Matrices are plain numpy arrays, ``float64`` when their entries are real
and ``complex128`` otherwise, so a real gate reaches LAPACK's real
solvers and real matrix products; :func:`square_matrix` is the
validating constructor used wherever input may be hostile (files, user
code).
"""

from __future__ import annotations

import numpy as np


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


def _modulus(z) -> np.ndarray:
    """``|z|`` as ``hypot(re, im)``: rounds as scalar ``abs()``, which ``np.abs`` may not."""
    return np.hypot(z.real, z.imag)


def trace_deficit(u) -> tuple[float, float]:
    """``|tr U|`` and the trace deficit ``1 - r^2``, r = |tr U| / n, of a
    square matrix.  The deficit is ``a (2n - a) / n^2`` with
    ``a = ||cU - I||_F^2 / 2`` and ``c tr U = |tr U|``: for a unitary
    ``a = n - |tr U|``, but summed over the entries, free of cancellation."""
    u = square_matrix(u)
    n = u.shape[0]
    tr = np.trace(u)
    t = float(_modulus(tr))
    d = (tr.conjugate() / t if t > 0.0 else 1.0) * u
    np.einsum("ii->i", d)[...] -= 1.0
    a = 0.5 * np.vdot(d, d).real
    return t, float(a * (2 * n - a) / (n * n))


def random_unitaries(n, seeds) -> np.ndarray:
    """Stack of Haar-distributed n-by-n unitaries, one per seed.

    Each seed drives its own complex Ginibre matrix, so a unitary does
    not depend on the other seeds of the stack.  A seed may be any
    ``SeedSequence`` entropy, such as a ``(seed, n, index)`` tuple.  One
    stacked QR factorization follows, with each R diagonal's phases
    absorbed into its Q so the distribution is exactly Haar.

    ``n`` is one dimension for every seed, or one per seed, in any order,
    as a campaign pass's cross-checked draws come.  The stack is then
    ``(k, w, w)``, w the largest n, and holds ``diag(I_{w-n}, U)``:
    LAPACK factors the identity block as itself, and the zeros around it
    stay exactly 0.  U is bitwise the unitary its seed gives alone
    wherever LAPACK runs its unblocked QR on both shapes, as numpy's
    OpenBLAS does up to w = 128; a wider stack can move U's last bits.
    """
    sizes = np.broadcast_to(n, len(seeds)).tolist()
    if min(sizes, default=1) < 1:
        raise ValueError("dimension must be at least 1")
    w = max(sizes, default=0)
    z = np.zeros((len(seeds), w, w), dtype=np.complex128)
    np.einsum("...ii->...i", z)[...] = 1.0
    for i, (m, seed) in enumerate(zip(sizes, seeds)):
        rng = np.random.default_rng(seed)
        z[i, w - m:, w - m:] = (rng.standard_normal((m, m))
                                + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]

