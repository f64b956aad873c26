"""Branch enumeration: canonical rotations, their products, dominance."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gateqsl.bounds import BOUND_NAMES, bounds_from_products
from gateqsl.catalog import (
    MubFamily,
    QubitParams,
    QutritMubParams,
    fourier,
    grover,
    hadamard_power,
    permutation,
    qubit_unitary,
    qutrit_mub,
)
from gateqsl.linalg import _modulus, random_unitaries, trace_deficit
from gateqsl.minimal_time import (
    DOMINANCE_TOL,
    TWO_PI,
    VerificationRecord,
    _list_distance,
    _phase_products,
    _ragged_layout,
    _stack_products,
    _window_products,
    dominance,
    dominance_from_phases,
    eigenphases,
    phases_from_levels,
    verify_dominance,
)
from gateqsl.spectrum import level_stats


def brute_force_minima(phases, offsets=(0, 1, 2)):
    """Independent oracle: scan every integer branch assignment."""
    best_e = best_var = best_width = math.inf
    for assignment in itertools.product(offsets, repeat=len(phases)):
        theta = np.asarray(phases) + TWO_PI * np.asarray(assignment)
        best_e = min(best_e, theta.mean() - theta.min())
        best_var = min(best_var, theta.std())
        best_width = min(best_width, theta.max() - theta.min())
    return best_e, best_var, best_width


def distinct_starts(ph):
    """Of each window of sorted ``ph``, whether its first phase differs
    from the one before it: the windows of the distinct rotations."""
    return np.r_[True, ph[1:] != ph[:-1]]


def rotations(phases):
    """Products ``(4, m)`` of the m distinct cyclic windows of ``phases``, in
    the order e_t, var_t, width_t, dual_t."""
    ph = np.sort(np.asarray(phases, dtype=np.float64))
    products = _window_products(ph, _ragged_layout(((len(ph), 1),)))
    return products[:, distinct_starts(ph)]


def exact_minima(phases):
    """Least e_t, var_t and width_t over the distinct windows of ``phases``."""
    ph = np.sort(np.asarray(phases, dtype=np.float64))
    e_t, var_t, width_t, _ = _stack_products(ph, np.exp(-1j * ph).sum())[0]
    return e_t, var_t, width_t


class TestDominanceFromPhases:
    def test_one_trace_for_a_stack(self):
        ph = np.sort(np.random.default_rng(0).uniform(0.0, TWO_PI, (2, 3, 4)), axis=-1)
        d = dominance_from_phases(ph, 1.5)
        assert d.margins.shape == (5, 2, 3)
        for i, j in itertools.product(range(2), range(3)):
            row = dominance_from_phases(ph[i, j], 1.5).margins
            assert d.margins[:, i, j].tolist() == row.tolist()

    @pytest.mark.parametrize("phases", [[0.0, TWO_PI], [-0.1], [0.0, np.nan], [0.0, np.inf],
                                        [-np.inf, 0.0]], ids=["2pi", "-0.1", "nan", "inf", "-inf"])
    def test_rejects_out_of_window(self, phases):
        ph = np.array([phases])
        with pytest.raises(ValueError, match=r"\[0, 2\*pi\)"):
            dominance_from_phases(ph, np.ones(1))

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 0)])
    def test_rejects_lists_of_no_phases(self, shape):
        with pytest.raises(ValueError, match="^a phase list needs at least one phase$"):
            dominance_from_phases(np.zeros(shape), 0.0)

    @pytest.mark.parametrize("ph", [np.float64(1.0), np.array(1.0), 1.0],
                             ids=["float64", "0-d", "float"])
    def test_rejects_a_lone_number(self, ph):
        with pytest.raises(ValueError, match="^a phase list needs at least one phase$"):
            dominance_from_phases(ph, 1.0)

    @pytest.mark.parametrize("ph, modulus", [
        (np.array([0.5 + 1.0j, 1.0]), 1.0), (np.array([0.5, 1.0], dtype=np.complex128), 1.0),
        ([0.5 + 0.0j, 1.0], 1.0), (np.array([0.5, 1.0]), 1.0 + 0.0j),
        (np.array([0.5, 1.0]), np.array([1.0 + 1.0j])),
    ], ids=["imaginary", "complex128", "list", "modulus", "modulus-array"])
    def test_rejects_complex_input(self, ph, modulus):
        # numpy orders complex values, so a complex phase passes a range test
        with pytest.raises(ValueError, match=r"^phases and \|tr U\| must be real$"):
            dominance_from_phases(ph, modulus)

    @pytest.mark.parametrize("ph, modulus, error", [
        (np.array([0.5, 1.0], dtype=object), 1.0, False),
        (np.array([[1, 0.5], [np.float64(3.0), 2.5]], dtype=object), np.array([1.5, 0.5]), False),
        (np.array([0.5, 1.0]), np.array(1.0, dtype=object), False),
        (np.array([0.5, 1.0 + 0.0j], dtype=object), 1.0, True),
        (np.array([0.5, "1.0"], dtype=object), 1.0, True),
        (np.array([0.5, 1.0]), np.array("1.0", dtype=object), True),
    ], ids=["floats", "mixed", "modulus", "complex", "string", "string-modulus"])
    def test_object_arrays_of_real_numbers(self, ph, modulus, error):
        if error:
            with pytest.raises(ValueError, match=r"^phases and \|tr U\| must be real$"):
                dominance_from_phases(ph, modulus)
            return
        got = dominance_from_phases(ph, modulus)
        want = dominance_from_phases(ph.astype(np.float64), np.asarray(modulus, dtype=np.float64))
        assert np.asarray(got.margins).tobytes() == np.asarray(want.margins).tobytes()
        assert np.asarray(got.products).tobytes() == np.asarray(want.products).tobytes()

    @pytest.mark.parametrize("ph", [[0.1, 0.2], [[3.0, 0.5, 1.0], [6.0, 0.0, 2.5]]])
    def test_list_is_the_array(self, ph):
        want = dominance_from_phases(np.array(ph), 1.0)
        got = dominance_from_phases(ph, 1.0)
        assert np.asarray(got.margins).tobytes() == np.asarray(want.margins).tobytes()
        assert np.asarray(got.products).tobytes() == np.asarray(want.products).tobytes()

    def test_stack_of_no_lists_is_empty(self):
        d = dominance_from_phases(np.zeros((0, 3)), np.zeros(0))
        assert d.margins.shape == (5, 0) and d.products.shape == (4, 0)

    def test_permuted_list_is_the_sorted_list(self):
        # a phase list is a multiset: unsorted, [3.0, 0.5, 1.0] read as
        # given gives an ml margin of -2.45; sorted, it gives +0.05
        def fields(d):
            return [np.asarray(x).tobytes() for x in d]

        want = dominance_from_phases(np.array([0.5, 1.0, 3.0]), 1.0)
        assert want.margins[0] > 0.0
        for ph in itertools.permutations([0.5, 1.0, 3.0]):
            assert fields(dominance_from_phases(np.array(ph), 1.0)) == fields(want)
        rng = np.random.default_rng(4)
        stack = np.sort(rng.uniform(0.0, TWO_PI, (3, 5)), axis=-1)
        shuffled = rng.permuted(stack, axis=-1)
        kept = shuffled.copy()
        assert not np.array_equal(shuffled, stack)
        assert fields(dominance_from_phases(shuffled, 2.0)) == fields(
            dominance_from_phases(stack, 2.0))
        # the caller's array is left as it was
        assert np.array_equal(shuffled, kept)


class TestCyclicDistance:
    def test_shifted_multiset_is_at_distance_zero(self):
        # the top phase of one computation comes out as the bottom of the other
        a, b = np.array([0.1, 0.2, 6.2]), np.array([6.2, 0.1, 0.2])
        assert _list_distance(a, b, _ragged_layout(((3, 1),)), 0) == 0.0


class TestEigenphases:
    def test_identity(self):
        ph = eigenphases(np.eye(4))
        assert np.max(np.abs(ph)) < 1e-12

    def test_diag_signs(self):
        ph = eigenphases(np.diag([1.0, -1.0]).astype(complex))
        assert np.max(np.abs(ph - [0.0, np.pi])) < 1e-12

    def test_diagonal_phase_recovery(self):
        want = np.array([0.3, 2.0, 5.0])
        u = np.diag(np.exp(-1j * want))
        ph = eigenphases(u)
        assert np.max(np.abs(ph - want)) < 1e-10

    def test_fourier4_determinant(self):
        # independent oracle: the product of the eigenvalues is det(F)
        f = fourier(4)
        ph = eigenphases(f)
        assert abs(np.prod(np.exp(-1j * ph)) - np.linalg.det(f)) < 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            eigenphases(np.ones((2, 2)))

    def test_matches_eigenvalue_multiset(self):
        u = random_unitaries(6, [3])[0]
        ph = eigenphases(u)
        got = np.sort(np.angle(np.exp(-1j * ph)))
        want = np.sort(np.angle(np.linalg.eigvals(u)))
        assert np.max(np.abs(got - want)) < 1e-8


class TestEnumerateRotations:
    """The distinct cyclic windows (canonical rotations) of a phase list."""

    def test_two_opposite_phases(self):
        e_t, _, _, _ = rots = rotations([0.0, np.pi])
        assert rots.shape[1] == 2
        for value in e_t:
            assert abs(value - np.pi / 2.0) < 1e-15
        assert abs(exact_minima([0.0, np.pi])[0] - np.pi / 2.0) < 1e-15

    def test_all_zero(self):
        rots = rotations([0.0, 0.0, 0.0])
        assert rots.shape == (4, 1)
        assert rots[:, 0].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_symmetric_qutrit_phases(self):
        third = TWO_PI / 3.0
        e_t, var_t, _, _ = rotations([0.0, third, 2 * third])
        for e, var in zip(e_t, var_t):
            assert abs(e - third) < 1e-14
            # population std of {0, t, 2t} is t sqrt(2/3)
            assert abs(var - third * 0.81649658092772603) < 1e-14
        assert abs(exact_minima([0.0, third, 2 * third])[0] - third) < 1e-14

    def test_window_strictly_inside_two_pi(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            for e_t, _, width_t, dual_t in rotations(rng.uniform(0, TWO_PI, n)).T:
                assert width_t < TWO_PI
                assert abs((e_t + dual_t) - width_t) <= 1e-12 * (1 + width_t)

    def test_duplicate_phases_deduplicated(self):
        _, _, width_t, _ = rotations([1.0, 1.0, 4.0])
        assert len(width_t) == 2
        for value in width_t:
            assert value < TWO_PI

    def test_minima_match_record_minima(self):
        phases = [0.1, 2.0, 2.7, 5.5]
        e_t, var_t, width_t, _ = rotations(phases)
        assert exact_minima(phases) == (min(e_t), min(var_t), min(width_t))


class TestBranchBruteForce:
    """No integer branch assignment beats the canonical rotations."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_phase_sets(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(40):
            phases = np.sort(rng.uniform(0.0, TWO_PI, n))
            min_e, min_var, min_width = exact_minima(phases)
            brute_e, brute_var, brute_width = brute_force_minima(phases)
            assert brute_e >= min_e - 1e-12
            assert brute_var >= min_var - 1e-12
            assert brute_width >= min_width - 1e-12

    def test_structured_phase_sets(self):
        cases = [
            [0.0, np.pi],
            [0.0, 0.1, TWO_PI - 0.1],
            [1.0, 1.0, 4.0],
            [0.0, TWO_PI / 3, 2 * TWO_PI / 3],
        ]
        for phases in cases:
            min_e, min_var, min_width = exact_minima(phases)
            brute_e, brute_var, brute_width = brute_force_minima(phases)
            assert brute_e >= min_e - 1e-12
            assert brute_var >= min_var - 1e-12
            assert brute_width >= min_width - 1e-12


# the high part TWO_PI and the low part of 2 pi as a double-double
TWO_PI_LOW = 2.4492935982947064e-16


def phase_families(rng):
    """Sorted phase lists in [0, 2 pi) of the kernel's hard families:
    uniform, near-identity about centres 0 (straddling 0 / 2 pi), 1, 3 and
    5.5 with gaps 1e-3 to 1e-12, two-level, one-excited and roots of unity."""
    for n in (1, 2, 3, 5, 8, 13):
        yield np.sort(rng.uniform(0.0, TWO_PI, n))
        for gap in 10.0 ** -np.arange(3, 13):
            for centre in (0.0, 1.0, 3.0, 5.5):
                offsets = np.cumsum(rng.uniform(0.5, 1.5, n))
                x = centre + gap * (offsets - offsets.mean())
                yield np.sort(np.where(x < 0.0, x + TWO_PI, x))
        if n > 1:
            x = rng.uniform(0.1, TWO_PI - 0.1)
            yield np.sort(np.where(np.arange(n) < rng.integers(1, n), 0.0, x))
            yield np.append(np.zeros(n - 1), x)
        yield TWO_PI * np.arange(n) / n


def lone_products(ph):
    """Least products and deficit of one phase list, as the only list of its call."""
    return _phase_products(ph, ((len(ph), 1),), np.exp(-1j * ph).sum(keepdims=True))


def branch_products(ph):
    """Every assignment ``(2^n, n)`` of 0 or 2 pi to each phase of ``ph``,
    as lift flags, and its products ``(4, 2^n)``: e_t, var_t, width_t and
    dual_t."""
    lift = np.array(list(itertools.product((0, 1), repeat=len(ph))), dtype=bool)
    theta = ph + TWO_PI * lift
    return lift, np.array([theta.mean(axis=-1) - theta.min(axis=-1), theta.std(axis=-1),
                           np.ptp(theta, axis=-1), theta.max(axis=-1) - theta.mean(axis=-1)])


def sine_deficit(ph):
    """The n-by-n form of the deficit: 2 sum_{j,k} sin^2((phi_j - phi_k) / 2) / n^2."""
    s = np.sin(0.5 * (ph[:, None] - ph[None, :]))
    return 2.0 * np.square(s).sum() / len(ph) ** 2


class TestRaggedKernel:
    """One kernel call over phase lists of several dimensions laid back to back."""

    def test_runs_give_each_list_its_lone_products(self):
        rng = np.random.default_rng(17)
        pool = list(phase_families(rng))
        five = [ph for ph in pool if len(ph) == 5]
        # an empty stack, one list, one run of several lists, lists of n = 1
        cases = [[], [five[0]], five[:7], [np.zeros(1), np.array([2.5]), five[3]]]
        for _ in range(60):
            cases.append([pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 12))])
        for case, lists in enumerate(cases):
            # consecutive lists of one n share a run, or in the random cases
            # may start runs of their own
            runs = []
            for ph in lists:
                if runs and runs[-1][0] == len(ph) and (case < 4 or rng.random() < 0.7):
                    runs[-1][1] += 1
                else:
                    runs.append([len(ph), 1])
            # a run of no lists adds nothing
            runs = tuple(map(tuple, runs)) + ((4, 0),) * int(case >= 4 and rng.integers(2))
            flat = np.concatenate([np.empty(0), *lists])
            trace = np.array([np.exp(-1j * ph).sum() for ph in lists], dtype=complex)
            products, deficit = _phase_products(flat, runs, trace)
            assert products.shape == (4, len(lists)) and deficit.shape == (len(lists),)
            for i, ph in enumerate(lists):
                lone, lone_deficit = lone_products(ph)
                assert products[:, i].tobytes() == lone[:, 0].tobytes()
                assert deficit[i].tobytes() == lone_deficit[0].tobytes()

    def test_window_products_are_their_branch_assignments(self):
        rng = np.random.default_rng(18)
        for ph in phase_families(rng):
            n = len(ph)
            products = _window_products(ph, _ragged_layout(((n, 1),)))
            start = distinct_starts(ph)
            # window j is the assignment that lifts the phases in slots before j
            lift, brute = branch_products(ph)
            for j in np.flatnonzero(start):
                window = int(np.flatnonzero((lift == (np.arange(n) < j)).all(axis=-1))[0])
                assert np.abs(products[:, j] - brute[:, window]).max() <= 1e-12
            least = lone_products(ph)[0][:, 0]
            assert np.abs(least - brute.min(axis=-1)).max() <= 1e-12
            # the least over every window is the least over the distinct ones
            assert least.tobytes() == products[:, start].min(axis=-1).tobytes()

    def test_least_over_all_windows_is_the_least_over_distinct_ones(self):
        # degenerate lists, where windows start inside runs of equal phases
        rng = np.random.default_rng(24)
        below = np.nextafter(TWO_PI, 0.0)
        lists = []
        for n in range(2, 11):
            # runs at 0 and just below 2 pi around distinct phases
            for zeros in range(n + 1):
                tops = int(rng.integers(0, n - zeros + 1))
                middle = rng.uniform(0.0, TWO_PI, n - zeros - tops)
                lists.append(np.sort(np.r_[np.zeros(zeros), middle, np.full(tops, below)]))
            lists += [np.full(n, c) for c in (0.0, 1.0, np.pi, below)]
            # m copies of the lowest phase a, with a = mean - pi (1 - 1/n):
            # lifting one copy leaves var_t unchanged, and only concavity
            # in the number lifted keeps the split windows above k = m
            a = 0.05
            for m in range(2, n // 2 + 1):
                offset = math.pi * (n - 1) / (n - m)
                dev = rng.uniform(-1.0, 1.0, n - m)
                dev -= dev.mean()
                dev *= 0.9 * min(offset, TWO_PI - a - offset) / np.abs(dev).max()
                ph = np.sort(np.r_[np.full(m, a), a + offset + dev])
                var_t = _window_products(ph, _ragged_layout(((n, 1),)))[1]
                assert abs(var_t[1] - var_t[0]) <= 1e-12
                lists.append(ph)
        # gate spectra, as computed and snapped onto their exact roots of unity
        gates = [(fourier(n), 4) for n in range(2, 11)]
        gates += [(hadamard_power(q), 2) for q in (1, 2, 3)]
        gates += [(permutation(rng.permutation(n)), 2520) for n in range(2, 11) for _ in range(2)]
        for u, roots in gates:
            ph = eigenphases(u)
            lists.append(ph)
            lists.append(np.sort(np.round(ph * (roots / TWO_PI)) % roots * (TWO_PI / roots)))
        for ph in lists:
            products = _window_products(ph, _ragged_layout(((len(ph), 1),)))
            least = lone_products(ph)[0][:, 0]
            assert least.tobytes() == products[:, distinct_starts(ph)].min(axis=-1).tobytes()
            assert np.abs(least - branch_products(ph)[1].min(axis=-1)).max() <= 1e-12

    @pytest.mark.parametrize("a", 10.0 ** -np.arange(1, 13))
    def test_deficit_of_a_pair_is_sin_of_half_its_gap(self, a):
        # n = 2: 1 - r^2 = sin^2(a / 2)
        want = abs(math.sin(a / 2.0))
        assert abs(math.sqrt(lone_products(np.array([0.0, a]))[1][0]) - want) <= 4 * np.spacing(want)

    @pytest.mark.parametrize("a", 10.0 ** -np.arange(1, 13))
    def test_deficit_of_a_straddling_pair(self, a):
        # TWO_PI - a is exact, and sits a + TWO_PI_LOW below 2 pi; its last
        # bits near 2 pi bound the error at one ulp of TWO_PI
        for b in (0.0, a / 3.0, a, 2.0 * a):
            got = math.sqrt(lone_products(np.array([b, TWO_PI - a]))[1][0])
            want = math.sin(0.5 * (a + b + TWO_PI_LOW))
            assert abs(got - want) <= np.spacing(TWO_PI)

    def test_deficit_matches_the_sine_form(self):
        rng = np.random.default_rng(19)
        for ph in phase_families(rng):
            got = math.sqrt(max(0.0, lone_products(ph)[1][0]))
            assert abs(got - math.sqrt(sine_deficit(ph))) <= 1e-14

    def test_runs_give_each_list_its_lone_distance(self):
        rng = np.random.default_rng(20)
        for case in range(40):
            a, b, moved = [], [], []
            for n in rng.choice([*range(2, 14), 64], size=rng.integers(1, 10)):
                ph = np.sort(rng.uniform(0.0, TWO_PI, n))
                kind = (case + len(a)) % 3
                if kind == 0:
                    # the top phase, just below 2 pi, comes out just above 0
                    ph[-1] = TWO_PI - 3e-10
                    other = np.sort((ph + 5e-10) % TWO_PI)
                    assert other[0] < 1e-9
                elif kind == 1:
                    # one phase off by 1e-6, which the unshifted list finds
                    other = ph.copy()
                    k = rng.integers(n)
                    other[k] += 1e-6
                    moved.append((len(a), other[k] - ph[k]))
                else:
                    other = np.sort((ph + rng.uniform(0.0, 1e-9, n)) % TWO_PI)
                a.append(ph)
                b.append(other)
            # lists before the compared ones, as a pass's spectral lists
            # come before its gate lists; a run may hold several lists
            before = [np.sort(rng.uniform(0.0, TWO_PI, n))
                      for n in rng.integers(1, 6, size=case % 3)]
            runs = []
            for ph in before + a:
                if runs and runs[-1][0] == len(ph) and rng.random() < 0.7:
                    runs[-1][1] += 1
                else:
                    runs.append([len(ph), 1])
            layout = _ragged_layout(tuple(map(tuple, runs)))
            got = _list_distance(np.concatenate([*before, *a]), np.concatenate(b), layout,
                                 len(before))
            assert got.shape == (len(a),)
            for i, (ph, other) in enumerate(zip(a, b)):
                # every cyclic shift of ph against other, one at a time
                gaps = np.abs([np.roll(ph, -j) - other for j in range(len(ph))])
                assert got[i] == np.minimum(gaps, TWO_PI - gaps).max(axis=-1).min()
                assert got[i] < 1.1e-6
            for i, gap in moved:
                assert got[i] == gap


class TestVerifyDominance:
    def test_margin_fields_follow_bound_names(self):
        margins = [f.name for f in dataclasses.fields(VerificationRecord)
                   if f.name.endswith("_margin")]
        assert margins == [f"{name}_margin" for name in BOUND_NAMES]

    def test_equality_at_diag_signs(self):
        rec = verify_dominance(np.diag([1.0, -1.0]).astype(complex))
        assert rec.passed
        assert abs(rec.ml_margin) < 1e-9
        assert abs(rec.width_ml_margin) < 1e-9

    def test_identity_zero_margins(self):
        rec = verify_dominance(np.eye(3))
        assert rec.passed
        assert abs(rec.ml_margin) < 1e-9
        assert abs(rec.mt_margin) < 1e-9

    def test_fourier3(self):
        rec = verify_dominance(fourier(3))
        assert rec.passed
        assert rec.trace_ratio == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rec.worst >= -1e-9

    def test_haar_random_bulk(self):
        # the dominance property, sampled over sizes 2..16
        rng = np.random.default_rng(77)
        seeds = {}
        for _ in range(10_000):
            n = int(rng.integers(2, 17))
            seeds.setdefault(n, []).append(int(rng.integers(2**63)))
        worst = math.inf
        for n, stack in seeds.items():
            # the verdict of each gate, as verify_dominance passes it
            margins = dominance(random_unitaries(n, stack)).margins
            assert (margins.min(axis=0) >= -DOMINANCE_TOL).all()
            worst = min(worst, margins.min())
        assert worst >= -1e-9

    def test_stack_matches_batch_of_one(self):
        # repeated phases (Fourier, Hadamard, permutations) exercise the
        # masking of windows that start on a repeated phase; the all-real
        # stack stays float64 and goes through the real eigensolver
        real = np.stack([hadamard_power(2), permutation([1, 0, 3, 2]), permutation([0, 1, 2, 3]),
                         grover(4, 1)])
        mixed = np.stack([fourier(4), hadamard_power(2), permutation([1, 0, 3, 2]),
                          permutation([0, 1, 2, 3]), random_unitaries(4, [8])[0]])
        assert real.dtype == np.float64
        for gates in (mixed, real):
            d = dominance(gates)
            for u, ratio, margins in zip(gates, d.ratio, d.margins.T):
                rec = verify_dominance(u)
                assert rec.trace_ratio == ratio
                assert [rec.ml_margin, rec.mt_margin, rec.dual_ml_margin, rec.width_ml_margin,
                        rec.width_mt_margin] == margins.tolist()


def catalog_gate(family, n):
    """The gate of one catalog family at dimension n."""
    if family == "fourier":
        return fourier(n)
    if family == "grover":
        return grover(n, 3 if n == 1024 else n // 2)
    if family == "permutation":
        return permutation(np.random.default_rng(n).permutation(n))
    if family == "identity":
        return permutation(range(n))
    if family == "hadamard":
        return hadamard_power(n.bit_length() - 1)
    if family == "qubit":
        return qubit_unitary(QubitParams(0.4, 1.1, -0.3, 0.9))
    return qutrit_mub(QutritMubParams(MubFamily(int(family[-1])), 0.7, 2.9))


def catalog_families(n):
    """The catalog families that have a gate of dimension n."""
    families = ["fourier", "grover", "permutation", "identity"]
    if n & (n - 1) == 0:
        families.append("hadamard")
    if n == 2:
        families.append("qubit")
    if n == 3:
        families += ["qutrit1", "qutrit2"]
    return families


CATALOG_CASES = [(family, n) for n in (*range(2, 9), 16, 32, 64)
                 for family in catalog_families(n)] + [("hadamard", 1024), ("grover", 1024)]


class TestRealGates:
    @pytest.mark.parametrize("family, n", CATALOG_CASES)
    def test_real_and_complex_verdicts_agree(self, family, n):
        u = catalog_gate(family, n)
        real, cplx = verify_dominance(u), verify_dominance(u.astype(complex))
        assert real.n == cplx.n == n
        assert real.passed == cplx.passed
        assert real.trace_ratio == cplx.trace_ratio
        for name in ("ml", "mt", "dual_ml", "width_ml", "width_mt"):
            assert abs(getattr(real, name + "_margin") - getattr(cplx, name + "_margin")) <= 1e-12

    @pytest.mark.parametrize("check", [verify_dominance, dominance, eigenphases])
    @pytest.mark.parametrize("bad", [np.eye(3)[:2], np.diag([1.0, np.nan]),
                                     np.diag([1.0, np.inf]), np.diag([1.0, -np.inf]),
                                     2.0 * hadamard_power(1)],
                             ids=["non-square", "nan", "inf", "-inf", "not-unitary"])
    def test_bad_real_matrix_raises(self, check, bad):
        with pytest.raises(ValueError):
            check(bad)

    def test_real_matrix_is_not_upcast(self, monkeypatch):
        seen = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(a.dtype) or eigvals(a))
        verify_dominance(grover(5, 2))
        dominance(np.stack([hadamard_power(2), permutation([1, 2, 3, 0])]))
        eigenphases(permutation([2, 0, 1]))
        assert seen == [np.float64] * 3


def test_stacked_trace_rounds_as_trace_abs():
    # np.abs of the stacked traces rounds some of these an ulp away from
    # the scalar modulus, the one ``gateqsl bounds`` prints, where it takes
    # an AVX-512 loop
    u = random_unitaries(4, range(200))
    assert (4.0 * dominance(u).ratio).tolist() == [trace_deficit(g)[0] for g in u]


@settings(max_examples=200, deadline=None)
@given(
    e0=st.floats(min_value=0.0, max_value=10.0),
    gap=st.floats(min_value=1e-7, max_value=1e-3),
    t=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    basis_seed=st.integers(min_value=0, max_value=2**63 - 2),
)
# Draws of the former per-draw campaign streams, by value, with the basis
# seeds they were built on.  Draw (seed 1, n 2, index 570) was a false FAIL
# at -4.42e-9 when 1 - r^2 was taken from the rounded trace, and the draw of
# `verify --dims 2 --samples 1 --seed 119294153` one at -2.07e-8.
@example(e0=7.836222152965291, gap=0.00038122545140772957, t=0.3306931847501886,
         basis_seed=50127387383993703)
@example(e0=3.990042406598824, gap=0.00029509199826582844, t=0.939852246685136,
         basis_seed=2558479038625146849)
# acceptance criterion 1's worst draw, (seed 20240, n 2, index 27): r = 1 - 7e-11
# at T = 2.7e-4, with a trace-based margin of -1.970e-10
@example(e0=2.7225220261634284, gap=0.08625402240583213, t=2.740844940984921e-4,
         basis_seed=4495955697287347687)
def test_near_identity_qubit_dominance(e0, gap, t, basis_seed):
    levels = np.array([e0, e0 + gap])
    basis = random_unitaries(2, [basis_seed])[0]
    u = (basis * np.exp(-1j * levels * t)) @ basis.conj().T
    d = dominance(u)
    assert d.margins.min() >= -DOMINANCE_TOL
    # A float gate carries its phases only to about eps * (1 + E*T), and
    # that error over dE is a floor under any time margin: time margins
    # are judged where the floor is a tenth of the tolerance.
    stats = level_stats(levels)
    if np.finfo(float).eps * (1.0 + levels[1] * t) / stats.variance_sqrt <= DOMINANCE_TOL / 10:
        bs = bounds_from_products(d.ml, d.mt, stats)
        # the largest of the five bounds
        assert t - bs.max() >= -DOMINANCE_TOL


@settings(max_examples=200, deadline=None)
@given(
    e0=st.floats(min_value=0.0, max_value=10.0),
    gap=st.floats(min_value=1e-7, max_value=1e-3),
    t=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
)
# built as a gate, this pair had an MT time margin of -1.1e-9: the gate
# carries its phases only to about eps * (1 + E*T)
@example(e0=0.0, gap=1e-7, t=5e-324)
# the three former campaign draws of test_near_identity_qubit_dominance
@example(e0=7.836222152965291, gap=0.00038122545140772957, t=0.3306931847501886)
@example(e0=3.990042406598824, gap=0.00029509199826582844, t=0.939852246685136)
@example(e0=2.7225220261634284, gap=0.08625402240583213, t=2.740844940984921e-4)
def test_near_identity_spectral_dominance(e0, gap, t):
    # the campaign's verdict from the drawn phases: no gate is built, so
    # time margins have no build floor and are judged everywhere
    levels = np.array([[e0, e0 + gap]])
    ph = phases_from_levels(levels, np.array([t]))
    d = dominance_from_phases(ph, _modulus(np.exp(-1j * ph).sum(axis=-1)))
    assert d.margins.min() >= -DOMINANCE_TOL
    bs = bounds_from_products(d.ml, d.mt, level_stats(levels))
    # the largest of the five bounds
    assert t - bs.max() >= -DOMINANCE_TOL


@pytest.mark.parametrize("levels, t", [
    (np.array([[0.0, 1.0 + 1.0j]]), np.array([1.0])),
    (np.array([[0.0, 1.0]], dtype=np.complex128), np.array([1.0])),
    (np.array([[0.0, 1.0]]), np.array([1.0 + 0.0j])),
], ids=["imaginary", "complex128", "time"])
def test_phases_from_levels_rejects_complex_input(levels, t):
    with pytest.raises(ValueError, match=r"^energy levels and times must be real$"):
        phases_from_levels(levels, t)


class TestRoundTrip:
    def test_narrow_spectrum_recovery(self):
        # levels*T confined to one 2 pi window: some rotation must match the
        # spectrum statistics scaled by T
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            t = float(rng.uniform(0.4, 2.0))
            levels = np.sort(rng.uniform(0.0, 0.95 * TWO_PI / t, n))
            basis = random_unitaries(n, [int(rng.integers(2**63))])[0]
            u = (basis * np.exp(-1j * levels * t)) @ basis.conj().T
            stats = level_stats(levels)
            hits = [
                r
                for r in rotations(eigenphases(u)).T
                if abs(r[0] - stats.e_above_ground * t) < 1e-8
                and abs(r[1] - stats.variance_sqrt * t) < 1e-8
                and abs(r[2] - stats.width * t) < 1e-8
            ]
            assert hits

    def test_global_phase_invariant_minima(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            u = random_unitaries(5, [int(rng.integers(2**63))])[0]
            phi = rng.uniform(0, TWO_PI)
            _, a_var, a_width = exact_minima(eigenphases(u))
            _, b_var, b_width = exact_minima(eigenphases(np.exp(1j * phi) * u))
            assert abs(a_var - b_var) < 1e-9
            assert abs(a_width - b_width) < 1e-9

