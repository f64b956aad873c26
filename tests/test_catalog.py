"""Gate constructors and their closed-form traces."""

import math

import numpy as np
import pytest

from gateqsl.catalog import (
    MubFamily,
    PhaseReduction,
    QubitParams,
    QutritMubParams,
    fourier,
    gauss_trace,
    grover,
    hadamard_power,
    mub_trace_cap,
    permutation,
    prior_mub_bound,
    qubit_exact_time,
    qubit_unitary,
    qutrit_mub,
    qutrit_phase_reduce,
)
from gateqsl.linalg import is_unitary, trace_abs

OMEGA3 = np.exp(2j * np.pi / 3.0)


class TestFourier:
    def test_n2_is_hadamard(self):
        want = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.max(np.abs(fourier(2) - want)) < 1e-15

    def test_gauss_values(self):
        assert abs(trace_abs(fourier(4)) - math.sqrt(2.0)) < 1e-12
        assert trace_abs(fourier(6)) <= 1e-10
        assert abs(trace_abs(fourier(5)) - 1.0) < 1e-12

    def test_closed_form_matches_numeric(self):
        for n in range(1, 65):
            assert abs(trace_abs(fourier(n)) - gauss_trace(n)) < 1e-9

    def test_table_matches_exponential_form(self):
        # entries looked up at (k l) mod n; the exponential form at k l
        for n in (1, 2, 3, 7, 64, 1024):
            k = np.arange(n)
            want = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
            assert np.max(np.abs(fourier(n) - want)) <= 1e-13

    def test_large_trace_accuracy(self):
        # the exponential form is off by 7.4e-14 here: its exponents
        # reach (n - 1)^2 turns of 2 pi / n
        assert abs(trace_abs(fourier(1024)) - gauss_trace(1024)) <= 1e-14

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fourier(0)


class TestGrover:
    def test_trace_n4(self):
        assert abs(trace_abs(grover(4, 2)) - 1.0) < 1e-12

    def test_trace_n2_vanishes(self):
        # closed form N - 4 + 4/N is 0 at N = 2; cross-check on the matrix
        assert trace_abs(grover(2, 0)) < 1e-12

    def test_trace_target_independent(self):
        values = {round(trace_abs(grover(7, t)), 12) for t in range(7)}
        assert len(values) == 1

    def test_closed_form_sample(self):
        for n in (2, 3, 5, 16, 33, 64):
            want = abs(n - 4.0 + 4.0 / n)
            for t in (0, n // 2, n - 1):
                assert abs(trace_abs(grover(n, t)) - want) < 1e-9

    def test_target_range(self):
        with pytest.raises(ValueError):
            grover(4, 4)
        with pytest.raises(ValueError):
            grover(4, -1)

    def test_matches_reflection_product(self):
        for n, t in ((2, 1), (5, 0), (16, 9), (64, 63)):
            s = np.full(n, 1.0 / math.sqrt(n))
            reflect_t = np.eye(n)
            reflect_t[t, t] = -1.0
            assert np.array_equal(grover(n, t), (2.0 * np.outer(s, s) - np.eye(n)) @ reflect_t)


class TestPermutation:
    def test_identity_trace(self):
        assert trace_abs(permutation([0, 1, 2])) == 3.0

    def test_full_cycle(self):
        assert trace_abs(permutation([1, 2, 0])) == 0.0

    def test_transposition_fixed_points(self):
        assert trace_abs(permutation([1, 0, 2])) == 1.0

    def test_maps_basis_states(self):
        p = permutation([2, 0, 1])
        e0 = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(p @ e0, [0.0, 0.0, 1.0])

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permutation([0, 0, 2])


class TestHadamardPower:
    def test_single_qubit_traceless(self):
        assert trace_abs(hadamard_power(1)) < 1e-15

    def test_two_qubits(self):
        h2 = hadamard_power(2)
        assert h2.shape == (4, 4)
        assert trace_abs(h2) < 1e-14

    def test_unbiased_entries(self):
        for q in (1, 2, 3):
            h = hadamard_power(q)
            # every overlap with the standard basis has squared modulus 1/2^q
            assert np.max(np.abs(np.abs(h) ** 2 - 2.0**-q)) < 1e-12

    def test_bitwise_the_kronecker_power(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        kron = h
        for q in range(1, 11):
            got = hadamard_power(q)
            assert got.dtype == np.float64
            assert got.shape == kron.shape
            assert got.tobytes() == kron.tobytes()
            kron = np.kron(kron, h)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            hadamard_power(11)
        with pytest.raises(ValueError):
            hadamard_power(0)


class TestQubitUnitary:
    def test_identity_angles(self):
        p = QubitParams(phi=0.0, alpha=0.0, beta=0.0, theta=0.0)
        assert np.max(np.abs(qubit_unitary(p) - np.eye(2))) < 1e-15

    def test_mub_angle_trace(self):
        p = QubitParams(phi=0.3, alpha=0.0, beta=1.1, theta=math.pi / 4.0)
        assert abs(trace_abs(qubit_unitary(p)) - math.sqrt(2.0)) < 1e-12

    def test_off_diagonal_traceless(self):
        for alpha in (0.0, 0.4, 2.0):
            p = QubitParams(phi=0.1, alpha=alpha, beta=0.2, theta=math.pi / 2.0)
            assert trace_abs(qubit_unitary(p)) < 1e-12

    def test_trace_formula_ignores_phi_beta(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            phi, alpha, beta, theta = rng.uniform(-np.pi, np.pi, 4)
            got = trace_abs(qubit_unitary(QubitParams(phi, alpha, beta, theta)))
            assert abs(got - 2.0 * abs(math.cos(theta) * math.cos(alpha))) < 1e-12

    def test_unitary_tight_tolerance(self):
        p = QubitParams(phi=0.7, alpha=-1.2, beta=2.4, theta=0.9)
        assert is_unitary(qubit_unitary(p), 1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            QubitParams(phi=np.nan, alpha=0.0, beta=0.0, theta=0.0)


class TestQubitExactTime:
    def test_traceless_gate(self):
        assert qubit_exact_time(QubitParams(0.0, 0.0, 0.0, math.pi / 2)) == math.pi / 2

    def test_identity_gate(self):
        assert qubit_exact_time(QubitParams(0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_mub_angle(self):
        got = qubit_exact_time(QubitParams(0.0, 0.0, 0.0, math.pi / 4))
        assert abs(got - math.pi / 4.0) < 1e-15


class TestQutritMub:
    def test_unitary_and_unbiased(self):
        for family in MubFamily:
            for x, y in ((0.0, 0.0), (0.7, -2.2), (3.9, 1.0)):
                u = qutrit_mub(QutritMubParams(family, x, y))
                assert is_unitary(u, 1e-10)
                assert np.max(np.abs(np.abs(u) ** 2 - 1.0 / 3.0)) < 1e-12

    def test_trace_at_origin(self):
        u = qutrit_mub(QutritMubParams(MubFamily.ONE, 0.0, 0.0))
        assert abs(trace_abs(u) - 1.0) < 1e-12

    def test_conjugate_family_traces(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x, y = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            t1 = trace_abs(qutrit_mub(QutritMubParams(MubFamily.ONE, x, y)))
            t2 = trace_abs(qutrit_mub(QutritMubParams(MubFamily.TWO, -x, -y)))
            assert abs(t1 - t2) < 1e-12

    def test_diagonal_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x, y = rng.uniform(-4, 4, 2)
            tr = np.trace(qutrit_mub(QutritMubParams(MubFamily.ONE, x, y)))
            want = (1.0 + np.conj(OMEGA3) * (np.exp(1j * x) + np.exp(1j * y))) / np.sqrt(3.0)
            assert abs(tr - want) < 1e-14


def full_qutrit_matrix(phis, alpha, beta, family):
    # five-parameter family member built directly, as the reduction oracle
    p1, p2, p3 = phis
    w = OMEGA3 if family is MubFamily.ONE else np.conj(OMEGA3)
    rows = []
    for pk, (wa, wb) in zip((p1, p2, p3), ((1, 1), (np.conj(w), w), (w, np.conj(w)))):
        rows.append(
            [
                np.exp(1j * pk),
                wa * np.exp(1j * (pk - alpha)),
                wb * np.exp(1j * (pk - beta)),
            ]
        )
    return np.array(rows) / np.sqrt(3.0)


class TestQutritPhaseReduce:
    def test_zero_phases(self):
        red = qutrit_phase_reduce((0.0, 0.0, 0.0), 0.4, -1.0, MubFamily.ONE)
        assert isinstance(red, PhaseReduction)
        assert red.global_phase == 0.0
        assert np.max(np.abs(red.conjugator - np.eye(3))) < 1e-15
        assert red.params.x == -0.4
        assert red.params.y == 1.0

    def test_uniform_phases(self):
        c = 0.9
        red = qutrit_phase_reduce((c, c, c), 0.0, 0.0, MubFamily.TWO)
        assert red.global_phase == c
        assert np.max(np.abs(red.conjugator - np.eye(3))) < 1e-15

    @pytest.mark.parametrize("family", list(MubFamily))
    def test_reconstruction(self, family):
        rng = np.random.default_rng(3)
        for _ in range(25):
            phis = rng.uniform(-np.pi, np.pi, 3)
            alpha, beta = rng.uniform(-np.pi, np.pi, 2)
            red = qutrit_phase_reduce(phis, alpha, beta, family)
            rebuilt = (
                np.exp(1j * red.global_phase)
                * red.conjugator.conj().T
                @ qutrit_mub(red.params)
                @ red.conjugator
            )
            want = full_qutrit_matrix(phis, alpha, beta, family)
            assert np.max(np.abs(rebuilt - want)) < 1e-12


class TestMubTraceCap:
    def test_value(self):
        assert mub_trace_cap(4) == 2.0

    def test_fourier_respects_cap(self):
        for n in range(2, 65):
            assert trace_abs(fourier(n)) <= mub_trace_cap(n) + 1e-9

    def test_hadamard_respects_cap(self):
        for q in (1, 2, 3):
            assert trace_abs(hadamard_power(q)) <= mub_trace_cap(2**q)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            mub_trace_cap(1)


class TestPriorMubBound:
    def test_qutrit_value(self):
        assert abs(prior_mub_bound(3) - 2.0 * math.pi / 9.0) < 1e-15

    def test_n4_value(self):
        assert abs(prior_mub_bound(4) - 3.0 * math.pi / 16.0) < 1e-15

    def test_large_n_limit(self):
        assert abs(prior_mub_bound(10**6) - math.pi / 4.0) < 1e-6

    def test_rejects_below_three(self):
        with pytest.raises(ValueError):
            prior_mub_bound(2)


def test_real_families_are_float64():
    for u in (grover(5, 3), permutation([3, 1, 0, 2]), hadamard_power(3)):
        assert u.dtype == np.float64
    for u in (fourier(5), qubit_unitary(QubitParams(0.2, 0.5, -0.8, 1.1)),
              qutrit_mub(QutritMubParams(MubFamily.ONE, 0.3, 5.5))):
        assert u.dtype == np.complex128


def test_all_catalog_outputs_unitary():
    gates = [
        fourier(7),
        grover(5, 3),
        permutation([3, 1, 0, 2]),
        hadamard_power(3),
        qubit_unitary(QubitParams(0.2, 0.5, -0.8, 1.1)),
        qutrit_mub(QutritMubParams(MubFamily.TWO, 0.3, 5.5)),
    ]
    for u in gates:
        assert is_unitary(u, 1e-9)
