"""Campaign behavior and figure-data invariants."""

import math

import numpy as np
import pytest

from gateqsl import harness
from gateqsl.bounds import TraceInput, bound_set
from gateqsl.catalog import MubFamily
from gateqsl.harness import (
    CHUNK_ENTRIES,
    CROSS_CHECK_EVERY,
    CROSS_CHECK_PHASE_TOL,
    DEFAULT_QUTRIT_X,
    CrossCheckError,
    CurvePoint,
    _draws,
    figure_qubit,
    figure_qubit_mub,
    figure_qutrit,
    run_random_campaign,
    sample_spectrum_gate,
)
from gateqsl.linalg import is_unitary, trace_abs
from gateqsl.minimal_time import (
    DOMINANCE_TOL,
    cyclic_distance,
    eigenphases,
    phases_from_levels,
    verify_dominance,
)
from gateqsl.spectrum import EnergySpectrum, compute_stats

HALF_PI = math.pi / 2.0


class TestCampaign:
    def test_small_campaign_passes(self):
        report = run_random_campaign([2, 3, 4], samples_per_dim=60, seed=11)
        assert report.samples == 180
        assert report.failures == 0
        assert report.worst_margin >= -1e-9
        assert report.dims == (2, 3, 4)

    def test_deterministic_reports(self):
        a = run_random_campaign([2, 5], samples_per_dim=10, seed=4)
        b = run_random_campaign([2, 5], samples_per_dim=10, seed=4)
        assert a.as_json_dict() == b.as_json_dict()

    def test_json_payload_shape(self):
        report = run_random_campaign([3], samples_per_dim=5, seed=0)
        payload = report.as_json_dict()
        assert sorted(payload) == ["cross_checked", "dims", "failures", "samples", "seed",
                                   "worst_margin"]
        assert report.elapsed > 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_random_campaign([], 5, 0)
        with pytest.raises(ValueError):
            run_random_campaign([1], 5, 0)
        with pytest.raises(ValueError):
            run_random_campaign([2], 0, 0)
        with pytest.raises(ValueError):
            run_random_campaign([2], 5, -3)

    def test_degenerate_spectrum_sample_passes_trivially(self):
        # all bounds vanish for an identity-like gate from a flat spectrum
        bs = bound_set(TraceInput(2, 2.0), compute_stats(EnergySpectrum([0.0, 0.0])))
        assert (bs.ml, bs.mt, bs.dual_ml, bs.width_ml, bs.width_mt) == (0.0,) * 5

    def test_sample_generator_contract(self):
        spectrum, t, u = sample_spectrum_gate(4, seed=3, index=17)
        assert spectrum.n == 4
        assert 0.0 < t <= 2.0
        assert is_unitary(u, 1e-9)
        # the gate carries exactly the phases E_k*T mod 2 pi
        want = np.sort((spectrum.levels * t) % (2.0 * math.pi))
        assert np.max(np.abs(eigenphases(u) - want)) < 1e-10
        again = sample_spectrum_gate(4, seed=3, index=17)
        assert np.array_equal(spectrum.levels, again[0].levels)
        assert t == again[1]
        assert np.array_equal(u, again[2])

    def test_popoviciu_on_sampled_spectra(self):
        for index in range(200):
            spectrum, _, _ = sample_spectrum_gate(5, seed=21, index=index)
            stats = compute_stats(spectrum)
            assert 2.0 * stats.variance_sqrt <= stats.width + 1e-12


def reference_campaign(dims, samples_per_dim, seed):
    """(failures, worst_margin) of the campaign, one draw at a time through
    the public scalar functions."""
    failures = 0
    worst = math.inf
    for n in dims:
        for index in range(samples_per_dim):
            spectrum, t, u = sample_spectrum_gate(n, seed, index)
            bs = bound_set(TraceInput(n, trace_abs(u)), compute_stats(spectrum))
            margin = min(t - bs.ml, t - bs.mt, t - bs.dual_ml, t - bs.width_ml,
                         t - bs.width_mt, verify_dominance(u).worst)
            worst = min(worst, margin)
            failures += margin < -DOMINANCE_TOL
    return failures, worst


class TestBatchedEngine:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_draw_reference(self, seed):
        report = run_random_campaign(range(2, 9), 40, seed)
        failures, worst = reference_campaign(range(2, 9), 40, seed)
        assert report.failures == failures
        assert abs(report.worst_margin - worst) <= 1e-12

    def test_chunked_dimension_matches_reference(self):
        # n = 64 holds 16 draws per chunk, so 40 draws span three chunks
        assert 2 * (CHUNK_ENTRIES // 64**2) < 40
        report = run_random_campaign([64], 40, 5)
        failures, worst = reference_campaign([64], 40, 5)
        assert report.failures == failures
        assert abs(report.worst_margin - worst) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_stacked_draw_is_bitwise_the_single_draw(self, n):
        levels, t, u = _draws(n, 9, range(12))
        for index in range(12):
            spectrum, t1, u1 = sample_spectrum_gate(n, 9, index)
            assert np.array_equal(levels[index], spectrum.levels)
            assert t[index] == t1
            assert np.array_equal(u[index], u1)

    def test_pinned_near_identity_draw_passes(self):
        # draw (seed 1, n 2, index 570) has r = 1 - 1e-8; taking 1 - r^2
        # from its rounded trace made it a false FAIL at -4.42e-9
        report = run_random_campaign([2], 571, 1)
        assert report.failures == 0
        assert report.worst_margin >= -DOMINANCE_TOL


def judged_by_pass(dims, samples, seed):
    """Per-draw margins and cross-checked count of the campaign's passes."""
    judged = [harness._judge(seed, pieces) for pieces in harness._passes(dims, samples)]
    return np.concatenate([m for m, _ in judged]), sum(c for _, c in judged)


def judged_by_dimension(dims, samples, seed):
    """The same, judging one dimension's stack of at most ``CHUNK_ENTRIES``
    matrix entries at a time, as campaigns ran before passes."""
    judged = []
    for n in dims:
        chunk = max(1, CHUNK_ENTRIES // (n * n))
        judged += [harness._judge(seed, [(n, range(first, min(first + chunk, samples)))])
                   for first in range(0, samples, chunk)]
    return np.concatenate([m for m, _ in judged]), sum(c for _, c in judged)


def pass_entries(pieces):
    return sum(len(indices) * n * n for n, indices in pieces)


class TestPasses:
    @pytest.mark.parametrize("dims, samples", [(range(2, 9), 40), ((2, 16, 64), 70),
                                               ((64, 3), 20)])
    @pytest.mark.parametrize("seed", range(10))
    def test_margins_bitwise_the_per_dimension_judge(self, dims, samples, seed):
        margins, checked = judged_by_pass(dims, samples, seed)
        reference, ref_checked = judged_by_dimension(dims, samples, seed)
        assert margins.shape == (len(dims) * samples,)
        assert margins.tobytes() == reference.tobytes()
        assert checked == ref_checked

    def test_pieces_pack_across_dimensions(self):
        # campaign-small and the default verify each run as one pass
        assert len(list(harness._passes(range(3, 9), 3))) == 1
        assert len(list(harness._passes(range(2, 9), 200))) == 1
        # n = 64 splits 16 + 4, and the short piece packs with n = 3
        assert list(harness._passes((64, 3), 20)) == [
            [(64, range(0, 16))], [(64, range(16, 20)), (3, range(0, 20))]]

    @pytest.mark.parametrize("dims, samples", [(range(2, 9), 200), ((2, 16, 64), 70),
                                               ((64, 3), 20), ((256, 2, 255), 3),
                                               ((300, 2), 2), ((5,) * 4, 1000)])
    def test_no_pass_exceeds_chunk_entries(self, dims, samples):
        passes = list(harness._passes(dims, samples))
        for pieces in passes:
            # a draw larger than a chunk is a pass of its own
            entries = pass_entries(pieces)
            assert entries <= CHUNK_ENTRIES or entries == pieces[0][0] ** 2
        # every draw once, in campaign order
        draws = [(n, i) for pieces in passes for n, indices in pieces for i in indices]
        assert draws == [(n, i) for n in dims for i in range(samples)]

    def test_mismatch_in_second_dimension_names_its_draw(self, monkeypatch):
        # draw 64 of n = 5 is cross-checked, in the second piece of one pass
        assert len(list(harness._passes((2, 5), 130))) == 1
        exact = harness.phases_from_levels

        def perturbed(levels, t):
            ph = exact(levels, t)
            if levels.shape[-1] == 5:
                ph[64, -1] += 1e-6
            return ph

        monkeypatch.setattr(harness, "phases_from_levels", perturbed)
        with pytest.raises(CrossCheckError, match=r"seed 7, n 5, index 64\)") as exc:
            run_random_campaign((2, 5), 130, 7)
        assert "differ from the spectral phases by 1e-06" in str(exc.value)


def perturb_last_draw(monkeypatch, offset=1e-6):
    """Make the spectral phases of every stack's last draw wrong by ``offset``."""
    exact = harness.phases_from_levels

    def perturbed(levels, t):
        ph = exact(levels, t)
        ph[-1, -1] += offset
        return ph

    monkeypatch.setattr(harness, "phases_from_levels", perturbed)


class TestSpectralVerdict:
    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_phases_match_the_gate_eigenphases(self, n):
        levels, t, _ = _draws(n, 4, range(40))
        ph = phases_from_levels(levels, t)
        for index in range(40):
            spectrum, t1, u = sample_spectrum_gate(n, 4, index)
            # the gate carries the global phase E_0 T on top of the drawn phases
            gate_ph = eigenphases(u) - spectrum.levels[0] * t1
            tol = CROSS_CHECK_PHASE_TOL * (1.0 + (spectrum.levels[-1] - spectrum.levels[0]) * t1)
            assert cyclic_distance(ph[index], gate_ph) <= tol

    def test_cross_checked_count(self):
        # n = 64 holds 16 draws per chunk: draws 64 and 128 open chunks,
        # draw 192 sits in the short last one
        assert CROSS_CHECK_EVERY == 64 and CHUNK_ENTRIES // 64**2 == 16
        assert run_random_campaign([64], 200, 2).cross_checked == 4
        report = run_random_campaign([2, 3, 64], 129, 2)
        assert report.cross_checked == 3 * math.ceil(129 / CROSS_CHECK_EVERY)
        assert report.as_json_dict()["cross_checked"] == 9

    def test_cross_check_mismatch_raises(self, monkeypatch):
        perturb_last_draw(monkeypatch)
        with pytest.raises(CrossCheckError, match=r"seed 7, n 3, index 0\)") as exc:
            run_random_campaign([3], 1, 7)
        assert "differ from the spectral phases by 1e-06" in str(exc.value)

    def test_margin_mismatch_raises(self, monkeypatch):
        # a 1e-10 phase error is within the phase tolerance, but moves the
        # product margins by more than CROSS_CHECK_MARGIN_TOL
        perturb_last_draw(monkeypatch, offset=1e-10)
        with pytest.raises(CrossCheckError, match=r"seed 7, n 3, index 0\)") as exc:
            run_random_campaign([3], 1, 7)
        assert ("by 1e-10 (tolerance 4.99e-09) and product margins by 8.07e-11 (tolerance 1e-12)"
                in str(exc.value))

    def test_unchecked_draws_are_judged_spectrally(self, monkeypatch):
        # draw 4 is not cross-checked, so its wrong phases go into the
        # verdict unseen
        perturb_last_draw(monkeypatch, offset=1e-3)
        assert run_random_campaign([3], 5, 7).cross_checked == 1


class TestFigureQubit:
    def test_endpoints_and_equality(self):
        pts = figure_qubit(201)
        assert len(pts) == 201
        first, last = pts[0], pts[-1]
        assert first.abscissa == 0.0
        assert first.exact == HALF_PI
        assert first.ml == HALF_PI
        assert first.mt == 1.0
        assert last.abscissa == 2.0
        assert (last.exact, last.ml, last.mt) == (0.0, 0.0, 0.0)

    def test_exact_dominates_everywhere(self):
        for p in figure_qubit(400):
            assert p.exact >= max(p.ml, p.mt) - 1e-9

    def test_sqrt2_point(self):
        # the emitted columns are these closed forms; frozen at |tr| = sqrt(2):
        # exact pi/4 and ml = (pi/2)(1 - k/sqrt(2))
        from gateqsl.bounds import ml_product

        assert abs(math.acos(math.sqrt(2.0) / 2.0) - math.pi / 4.0) < 1e-15
        assert abs(ml_product(math.sqrt(2.0) / 2.0) - 0.25409569637955053) < 1e-15
        grid = figure_qubit(1001)
        target = min(grid, key=lambda p: abs(p.abscissa - math.sqrt(2.0)))
        assert abs(target.exact - math.pi / 4.0) < 2e-3
        assert abs(target.ml - 0.25409569637955053) < 2e-3

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            figure_qubit(1)


class TestFigureQubitMub:
    def test_extremes(self):
        pts = figure_qubit_mub(5)
        assert abs(pts[0].exact - math.pi / 4.0) < 1e-15
        assert abs(pts[2].exact - HALF_PI) < 1e-15
        assert abs(pts[-1].exact - math.pi / 4.0) < 1e-15

    def test_symmetry_about_midpoint(self):
        pts = figure_qubit_mub(41)
        for a, b in zip(pts, reversed(pts)):
            assert abs(a.exact - b.exact) < 1e-12
            assert abs(a.ml - b.ml) < 1e-12

    def test_range(self):
        for p in figure_qubit_mub(101):
            assert math.pi / 4.0 - 1e-12 <= p.exact <= HALF_PI + 1e-12
            assert p.exact >= max(p.ml, p.mt) - 1e-9


class TestFigureQutrit:
    def test_block_structure_and_dominance(self):
        xs = (0.0, math.pi / 2.0)
        pts = figure_qutrit(MubFamily.ONE, x_values=xs, y_points=12)
        assert len(pts) == 24
        assert pts[0].abscissa == 0.0
        assert abs(pts[11].abscissa - 2 * math.pi) < 1e-12
        for p in pts:
            assert p.mt is None
            assert p.exact >= p.ml - 1e-9

    def test_origin_ml_value(self):
        pts = figure_qutrit(MubFamily.ONE, x_values=(0.0,), y_points=2)
        # frozen: (pi/2)(1 - k/3) at |tr| = 1
        assert abs(pts[0].ml - 0.95009769708870108) < 1e-12

    def test_conjugate_families_share_ml_column(self):
        xs = (0.4,)
        one = figure_qutrit(MubFamily.ONE, x_values=xs, y_points=9)
        two = figure_qutrit(MubFamily.TWO, x_values=(-0.4,), y_points=9)
        # U2(-x, -y) is the entrywise conjugate of U1(x, y): same |tr|
        for a, b in zip(one, reversed(two)):
            assert abs(a.ml - b.ml) < 1e-9

    def test_default_x_grid(self):
        assert DEFAULT_QUTRIT_X == (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            figure_qutrit(MubFamily.ONE, y_points=1)


def test_curve_point_is_plain_record():
    p = CurvePoint(abscissa=0.0, exact=1.0, ml=0.5, mt=None)
    assert p.mt is None
