"""Construction, gate building and sampling primitives."""

import numpy as np
import pytest

from gateqsl import catalog
from gateqsl.harness import _gates
from gateqsl.linalg import (
    _modulus,
    random_unitaries,
    square_matrix,
    trace_deficit,
    unitarity_error,
)
from gateqsl.minimal_time import EIGENPHASE_UNITARY_TOL, dominance, eigenphases

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def random_hamiltonian(n, rng):
    """Levels and a Haar eigenbasis of a random Hamiltonian."""
    return rng.standard_normal(n), random_unitaries(n, [int(rng.integers(2**63))])[0]


def expm(levels, basis, t):
    """``exp(-i H t)`` for ``H = basis diag(levels) basis†``, built as the
    campaign builds its gates."""
    return _gates(basis[None], np.exp(-1j * np.asarray(levels) * t)[None])[0]


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
        assert unitarity_error(HADAMARD) <= 1e-10
        assert not unitarity_error(2 * HADAMARD) <= 1e-10


class TestExpm:
    def test_time_zero(self):
        levels, basis = random_hamiltonian(4, np.random.default_rng(0))
        assert np.max(np.abs(expm(levels, basis, 0.0) - np.eye(4))) < 1e-12

    def test_diagonal_case(self):
        u = expm([0.0, np.pi], np.eye(2), 1.0)
        assert np.max(np.abs(u - np.diag([1.0, -1.0]))) < 1e-12

    def test_semigroup(self):
        levels, basis = random_hamiltonian(5, np.random.default_rng(2))
        u1 = expm(levels, basis, 0.7)
        u2 = expm(levels, basis, 1.9)
        u12 = expm(levels, basis, 2.6)
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9

    def test_output_unitary(self):
        levels, basis = random_hamiltonian(6, np.random.default_rng(3))
        assert unitarity_error(expm(levels, basis, 1.3)) <= 1e-9

    def test_phase_recovery_mod_2pi(self):
        # eigenphases(exp(-i H t)) must reproduce {e^{-i E_k t}} as a multiset
        levels, basis = random_hamiltonian(5, np.random.default_rng(4))
        t = 1.7
        u = expm(levels, basis, t)
        expected = np.sort(np.angle(np.exp(-1j * levels * t)))
        got = np.sort(np.angle(np.exp(-1j * eigenphases(u))))
        assert np.max(np.abs(expected - got)) < 1e-8

    def test_trace_cap_equality_iff_uniform_phase(self):
        n = 5
        u = expm(np.full(n, 1.3), np.eye(n), 2.0)
        assert abs(abs(np.trace(u)) - n) < 1e-12
        levels, basis = random_hamiltonian(n, np.random.default_rng(6))
        assert abs(np.trace(expm(levels, basis, 1.0))) < n


class TestRandomUnitary:
    def test_scalar_case(self):
        u = random_unitaries(1, [0])[0]
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    def test_unitarity(self, n):
        assert unitarity_error(random_unitaries(n, [n])[0]) <= 1e-10

    def test_deterministic(self):
        assert np.array_equal(random_unitaries(6, [9])[0], random_unitaries(6, [9])[0])

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            random_unitaries(0, [1])

    @pytest.mark.parametrize("dims", [[2, 5, 1, 8, 3, 8], [17, 128, 64, 127]])
    def test_one_dimension_per_seed_pads_each_unitary(self, dims):
        # each unitary fills the trailing block of diag(I, U), bitwise the
        # unitary its seed gives alone
        seeds = [(4, n, i) for i, n in enumerate(dims)]
        stack = random_unitaries(dims, seeds)
        w = max(dims)
        assert stack.shape == (len(dims), w, w)
        for u, n, seed in zip(stack, dims, seeds):
            pads = w - n
            assert u[pads:, pads:].tobytes() == random_unitaries(n, [seed])[0].tobytes()
            assert np.array_equal(u[:pads, :pads], np.eye(pads))
            assert not u[:pads, pads:].any() and not u[pads:, :pads].any()

    def test_one_dimension_per_seed_checks_each(self):
        with pytest.raises(ValueError):
            random_unitaries([3, 0], [1, 2])
        with pytest.raises(ValueError):
            random_unitaries([3, 4], [1])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_haar_trace_second_moment(self, n):
        # E |tr U|^2 = 1 for Haar; 2000 samples put the mean within 0.1
        rng = np.random.default_rng(1000 + n)
        acc = 0.0
        samples = 2000
        for _ in range(samples):
            acc += abs(np.trace(random_unitaries(n, [int(rng.integers(2**63))])[0])) ** 2
        assert abs(acc / samples - 1.0) < 0.1


class TestTraceAbs:
    """The ``|tr U|`` that :func:`trace_deficit` returns."""

    def test_identity(self):
        assert trace_deficit(np.eye(3))[0] == 3.0

    def test_hadamard_traceless(self):
        assert trace_deficit(HADAMARD)[0] < 1e-15

    def test_fourier4_gauss_value(self):
        assert abs(trace_deficit(fourier4())[0] - np.sqrt(2.0)) < 1e-12

    def test_bounded_by_dimension(self):
        for seed in range(5):
            u = random_unitaries(6, [seed])[0]
            assert trace_deficit(u)[0] <= 6.0 + 1e-12


def _agrees_with_dominance(u):
    """sqrt of the entry deficit is the MT product dominance(u) takes from
    the eigenphases, to 1e-12 relative or a few ulps of 1."""
    mt = float(dominance(u).mt)
    return abs(np.sqrt(trace_deficit(u)[1]) - mt) <= 1e-12 * mt + 1e-14


class TestTraceDeficit:
    def test_closed_forms(self):
        assert trace_deficit(np.eye(3))[1] == 0.0
        assert trace_deficit(HADAMARD)[1] == pytest.approx(1.0, abs=1e-15)
        # r = sqrt(2)/4, so 1 - r^2 = 7/8
        assert trace_deficit(fourier4())[1] == pytest.approx(7.0 / 8.0, rel=1e-14)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    @pytest.mark.parametrize("phase", [0.0, 0.3, 2.0])
    def test_near_identity_without_cancellation(self, eps, phase):
        # e^{i phase} diag(e^{i eps}, e^{-i eps}) has r = cos(eps), so
        # 1 - r^2 = sin^2(eps), which 1 - r^2 from the rounded trace loses
        u = np.exp(1j * phase) * np.diag([np.exp(1j * eps), np.exp(-1j * eps)])
        want = np.sin(eps) ** 2
        assert abs(trace_deficit(u)[1] - want) <= 10.0 * np.finfo(float).eps / eps * want

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 64, 256])
    def test_matches_dominance_on_haar_gates(self, n):
        for u in random_unitaries(n, range(8 if n < 64 else 2)):
            assert _agrees_with_dominance(u)

    def test_matches_dominance_on_catalog_gates(self):
        gates = ([catalog.fourier(n) for n in range(1, 33)]
                 + [catalog.grover(n, n // 2) for n in range(2, 33)]
                 + [catalog.hadamard_power(q) for q in range(1, 7)]
                 + [catalog.permutation(p) for p in ([0, 1, 2], [1, 2, 0], [1, 0, 2, 3])]
                 + [catalog.qubit_unitary(catalog.QubitParams(0.4, 1e-6, 0.2, 0.0)),
                    catalog.qutrit_mub(catalog.QutritMubParams(catalog.MubFamily.TWO, 0.5, 1.0))])
        for u in gates:
            assert _agrees_with_dominance(u)

    @pytest.mark.parametrize("t", [1e-3, 1e-5, 1e-7, 1e-8])
    def test_matches_dominance_near_identity(self, t):
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 8, 16):
            levels, basis = random_hamiltonian(n, rng)
            u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * expm(levels, basis, t)
            assert _agrees_with_dominance(u)


def test_modulus_rounds_as_scalar_abs():
    # numpy's np.abs of complex128 rounds about a third of these moduli an
    # ulp away from scalar abs() where it takes an AVX-512 loop
    rng = np.random.default_rng(0)
    z = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    assert _modulus(z).tobytes() == np.array([abs(v) for v in z.tolist()]).tobytes()


def test_tolerances_exposed():
    assert EIGENPHASE_UNITARY_TOL == 1e-9
