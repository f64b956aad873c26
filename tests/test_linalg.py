"""Construction, eigendecomposition and sampling primitives."""

import numpy as np
import pytest

from gateqsl.linalg import (
    TOL,
    ConvergenceError,
    eig_hermitian,
    expm_hermitian_scaled,
    is_hermitian,
    is_unitary,
    matmul,
    random_unitary,
    square_matrix,
    trace_abs,
)
from gateqsl.minimal_time import eigenphases

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def fourier4():
    k = np.arange(4)
    return np.exp(2j * np.pi * np.outer(k, k) / 4) / 2.0


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            square_matrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            square_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_complex_inf(self):
        with pytest.raises(ValueError):
            square_matrix([[1j * np.inf, 0], [0, 1]])

    def test_predicates(self):
        assert is_hermitian(PAULI_X)
        assert is_unitary(HADAMARD)
        assert not is_unitary(2 * HADAMARD)
        assert not is_hermitian(1j * PAULI_X)


class TestMatmul:
    def test_identity(self):
        i2 = np.eye(2)
        assert np.array_equal(matmul(i2, i2), i2)

    def test_involution(self):
        assert np.allclose(matmul(PAULI_X, PAULI_X), np.eye(2), atol=0)

    def test_unitarity_product(self):
        assert np.max(np.abs(matmul(HADAMARD, HADAMARD.conj().T) - np.eye(2))) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul(np.eye(2), np.eye(3))


class TestEigHermitian:
    def test_diagonal(self):
        w, v = eig_hermitian(np.diag([3.0, 1.0]))
        assert np.allclose(w, [1.0, 3.0], atol=0)
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-14)

    def test_pauli_x_spectrum(self):
        w, _ = eig_hermitian(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 33, 48])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        h = random_hermitian(n, rng)
        w, v = eig_hermitian(h)
        scale = 1 + np.max(np.abs(h))
        assert np.max(np.abs(h - (v * w) @ v.conj().T)) <= 1e-10 * scale
        assert np.max(np.abs(w - np.linalg.eigvalsh(h))) < 1e-10 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_solver_failure_is_convergence_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(ConvergenceError):
            eig_hermitian(np.eye(2))


class TestExpm:
    def test_time_zero(self):
        h = random_hermitian(4, np.random.default_rng(0))
        assert np.max(np.abs(expm_hermitian_scaled(h, 0.0) - np.eye(4))) < 1e-12

    def test_diagonal_case(self):
        u = expm_hermitian_scaled(np.diag([0.0, np.pi]), 1.0)
        assert np.max(np.abs(u - np.diag([1.0, -1.0]))) < 1e-12

    def test_semigroup(self):
        h = random_hermitian(5, np.random.default_rng(2))
        u1 = expm_hermitian_scaled(h, 0.7)
        u2 = expm_hermitian_scaled(h, 1.9)
        u12 = expm_hermitian_scaled(h, 2.6)
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9

    def test_output_unitary(self):
        h = random_hermitian(6, np.random.default_rng(3))
        assert is_unitary(expm_hermitian_scaled(h, 1.3), 1e-9)

    def test_phase_recovery_mod_2pi(self):
        # eigenphases(expm(H, t)) must reproduce {e^{-i E_k t}} as a multiset
        rng = np.random.default_rng(4)
        h = random_hermitian(5, rng)
        t = 1.7
        w, _ = eig_hermitian(h)
        u = expm_hermitian_scaled(h, t)
        expected = np.sort(np.angle(np.exp(-1j * w * t)))
        got = np.sort(np.angle(np.exp(-1j * eigenphases(u).phases)))
        assert np.max(np.abs(expected - got)) < 1e-8

    def test_trace_cap_equality_iff_uniform_phase(self):
        n = 5
        u = expm_hermitian_scaled(1.3 * np.eye(n), 2.0)
        assert abs(trace_abs(u) - n) < 1e-12
        h = random_hermitian(n, np.random.default_rng(6))
        assert trace_abs(expm_hermitian_scaled(h, 1.0)) < n


class TestRandomUnitary:
    def test_scalar_case(self):
        u = random_unitary(1, seed=0)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    def test_unitarity(self, n):
        assert is_unitary(random_unitary(n, seed=n), 1e-10)

    def test_deterministic(self):
        assert np.array_equal(random_unitary(6, seed=9), random_unitary(6, seed=9))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            random_unitary(0, seed=1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_haar_trace_second_moment(self, n):
        # E |tr U|^2 = 1 for Haar; 2000 samples put the mean within 0.1
        rng = np.random.default_rng(1000 + n)
        acc = 0.0
        samples = 2000
        for _ in range(samples):
            acc += trace_abs(random_unitary(n, int(rng.integers(2**63)))) ** 2
        assert abs(acc / samples - 1.0) < 0.1


class TestTraceAbs:
    def test_identity(self):
        assert trace_abs(np.eye(3)) == 3.0

    def test_hadamard_traceless(self):
        assert trace_abs(HADAMARD) < 1e-15

    def test_fourier4_gauss_value(self):
        assert abs(trace_abs(fourier4()) - np.sqrt(2.0)) < 1e-12

    def test_bounded_by_dimension(self):
        for seed in range(5):
            u = random_unitary(6, seed)
            assert trace_abs(u) <= 6.0 + 1e-12


def test_tolerances_exposed():
    assert TOL.structural == 1e-10
    assert TOL.reconstruction == 1e-9
