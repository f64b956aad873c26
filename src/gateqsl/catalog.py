"""Named unitaries with closed-form traces.

Constructors for the gate families used throughout the verification
suite: discrete Fourier transforms, Grover iterations, permutations,
Hadamard tensor powers, general single-qubit gates and the two
two-parameter families of qutrit basis changes that map the
computational basis to a mutually unbiased one.

Grover iterations, permutations and Hadamard powers have real entries
and are returned as float64 arrays, so their eigenvalues come from
LAPACK's real solver; the other families are complex128.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Size guard of hadamard_power, in qubits, and the dimension it allows.
_MAX_HADAMARD_QUBITS = 10
_MAX_HADAMARD_DIM = 2**_MAX_HADAMARD_QUBITS


class MubFamily(enum.Enum):
    ONE = 1
    TWO = 2


@dataclass(frozen=True)
class QubitParams:
    """Angles (radians) of the general 2x2 unitary
    ``e^{i phi} [[e^{i alpha} cos th, e^{i beta} sin th],
                 [-e^{-i beta} sin th, e^{-i alpha} cos th]]``."""

    phi: float
    alpha: float
    beta: float
    theta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.phi, self.alpha, self.beta, self.theta))):
            raise ValueError("qubit parameters must be finite")


@dataclass(frozen=True)
class QutritMubParams:
    """Reduced coordinates (x, y) of a qutrit MUB transformation family."""

    family: MubFamily
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("qutrit parameters must be finite")


def fourier(n: int) -> np.ndarray:
    """Discrete Fourier transform matrix F[k,l] = w^{kl} / sqrt(n), complex128.

    Each entry is looked up in the table of the n roots of unity at
    ``(k l) mod n``, which also keeps the exponent small at large n.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    k = np.arange(n)
    roots = np.exp(2j * np.pi * k / n) / math.sqrt(n)
    return roots[np.outer(k, k) % n]


def gauss_trace(n: int) -> float:
    """|tr fourier(n)| in closed form (quadratic Gauss sum): depends on n mod 4."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return (math.sqrt(2.0), 1.0, 0.0, 1.0)[n % 4]


def grover(n: int, target: int) -> np.ndarray:
    """Grover iteration (2|s><s| - I)(I - 2|t><t|) with uniform |s>, float64."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for dimension {n}")
    s = np.full(n, 1.0 / math.sqrt(n))
    g = 2.0 * np.outer(s, s) - np.eye(n)
    # right-multiplying by I - 2|t><t| negates column t
    g[:, target] *= -1.0
    return g


def permutation(perm) -> np.ndarray:
    """Permutation matrix sending basis state j to perm[j], float64; trace
    counts fixed points."""
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("permutation must be a bijection on 0..n-1")
    p = np.zeros((n, n))
    p[perm, range(n)] = 1.0
    return p


def hadamard_power(q: int) -> np.ndarray:
    """q-fold tensor power of the 2x2 Hadamard (dimension 2**q, trace 0), float64."""
    if q < 1:
        raise ValueError("need at least one qubit")
    if q > _MAX_HADAMARD_QUBITS:
        raise ValueError(f"q = {q} exceeds the size guard ({_MAX_HADAMARD_QUBITS})")
    # Entry (i, j) is (-1)^popcount(i & j) (1/sqrt 2)^q, the power rounded
    # one factor at a time as np.kron would; Sylvester doubling fills the signs.
    out = np.empty((2**q, 2**q))
    out[0, 0] = math.prod([1.0 / math.sqrt(2.0)] * q)
    for k in range(q):
        s = 2**k
        out[:s, s:2 * s] = out[s:2 * s, :s] = out[:s, :s]
        np.negative(out[:s, :s], out=out[s:2 * s, s:2 * s])
    return out


def qubit_unitary(p: QubitParams) -> np.ndarray:
    """General single-qubit gate; |tr| = 2 |cos(theta) cos(alpha)|."""
    ct, st = math.cos(p.theta), math.sin(p.theta)
    m = np.array(
        [
            [np.exp(1j * p.alpha) * ct, np.exp(1j * p.beta) * st],
            [-np.exp(-1j * p.beta) * st, np.exp(-1j * p.alpha) * ct],
        ]
    )
    return np.exp(1j * p.phi) * m


def _omega_column(first_power: complex) -> np.ndarray:
    return np.array([1.0, first_power, np.conj(first_power)])


def qutrit_mub(p: QutritMubParams) -> np.ndarray:
    """Qutrit gate mapping the computational basis to a MUB partner basis.

    Family ONE has columns (1,1,1), e^{ix}(1, w~, w), e^{iy}(1, w, w~)
    over sqrt(3) with w = e^{2 pi i / 3}; family TWO swaps w and w~.
    Every entry has modulus 1/sqrt(3).
    """
    return _qutrit_mubs(p.family, p.x, p.y)


def _qutrit_mubs(family: MubFamily, x, y) -> np.ndarray:
    """:func:`qutrit_mub` of each pair of finite ``x`` and ``y``, floats or
    arrays that broadcast together: a stack ``(..., 3, 3)``, filled in place."""
    w = np.exp(2j * np.pi / 3.0)
    if family is MubFamily.ONE:
        c1, c2 = _omega_column(np.conj(w)), _omega_column(w)
    else:
        c1, c2 = _omega_column(w), _omega_column(np.conj(w))
    ex, ey = np.exp(1j * x), np.exp(1j * y)
    cols = np.empty(np.broadcast(ex, ey).shape + (3, 3), np.complex128)
    cols[..., 0] = 1.0
    cols[..., 1] = ex[..., None] * c1
    cols[..., 2] = ey[..., None] * c2
    return cols / math.sqrt(3.0)


def prior_mub_bound(n: int) -> float:
    """Earlier published MUB-change bound, in units of 1/E, for comparison."""
    if n < 3:
        raise ValueError("defined for dimension 3 and up")
    if n == 3:
        return 2.0 * math.pi / 9.0
    return math.pi * (n - 1) / (4.0 * n)
