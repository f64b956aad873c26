"""Campaign behavior and figure-data invariants."""

import itertools
import json
import math

import numpy as np
import pytest

from gateqsl import bounds, harness, minimal_time
from gateqsl.bounds import TraceInput, bound_set, bounds_from_products, ml_product
from gateqsl.catalog import MubFamily, QutritMubParams, qutrit_mub
from gateqsl.harness import (
    CHUNK_ENTRIES,
    CROSS_CHECK_EVERY,
    CROSS_CHECK_PHASE_TOL,
    DEFAULT_QUTRIT_X,
    CampaignInputError,
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
    _ragged_layout,
    _stack_products,
    cyclic_distance,
    dominance,
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

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_random_campaign([], 5, 0)
        with pytest.raises(ValueError):
            run_random_campaign([1], 5, 0)
        with pytest.raises(ValueError):
            run_random_campaign([2], 0, 0)
        with pytest.raises(ValueError):
            run_random_campaign([2], 5, -3)

    @pytest.mark.parametrize("dims, samples, seed, message", [
        ([2.9], 2, 0, "dims must be a nonempty list of integers >= 2"),
        (["3"], 2, 0, "dims must be a nonempty list of integers >= 2"),
        ([2], 2.5, 0, "need at least one sample per dimension"),
        ([2], 2, 1.5, "seed must be nonnegative"),
        ([2], 2, "1", "seed must be nonnegative"),
    ])
    def test_non_integer_inputs_rejected(self, dims, samples, seed, message):
        with pytest.raises(CampaignInputError) as exc:
            run_random_campaign(dims, samples, seed)
        assert str(exc.value) == message

    def test_numpy_integers_are_stored_as_int(self):
        report = run_random_campaign(np.array([2, 3]), np.int64(4), np.int64(5))
        assert report == run_random_campaign([2, 3], 4, 5)
        assert all(type(v) is int for v in (report.samples, report.seed, *report.dims))
        payload = json.loads(json.dumps(report.as_json_dict()))
        assert (payload["seed"], payload["dims"], payload["samples"]) == (5, [2, 3], 8)

    def test_repeated_dimension_rejected(self):
        # a repeat would judge the same draws twice
        with pytest.raises(ValueError, match="distinct"):
            run_random_campaign([2, 3, 2], 2, 0)

    def test_degenerate_spectrum_sample_passes_trivially(self):
        # all bounds vanish for an identity-like gate from a flat spectrum
        bs = bound_set(TraceInput(2, 2.0), compute_stats(EnergySpectrum([0.0, 0.0])))
        assert (bs.ml, bs.mt, bs.dual_ml, bs.width_ml, bs.width_mt) == (0.0,) * 5

    def test_sample_generator_contract(self):
        spectrum, t, u = sample_spectrum_gate(4, seed=3, index=17)
        assert spectrum.n == 4
        assert 0.0 < t <= 2.0
        assert is_unitary(u, 1e-9)
        # the gate carries exactly the phases (E_k - E_0) T mod 2 pi
        want = np.sort(((spectrum.levels - spectrum.levels[0]) * t) % (2.0 * math.pi))
        assert np.max(np.abs(eigenphases(u) - want)) < 1e-10
        again = sample_spectrum_gate(4, seed=3, index=17)
        assert np.array_equal(spectrum.levels, again[0].levels)
        assert t == again[1]
        assert np.array_equal(u, again[2])

    @pytest.mark.parametrize("n, seed, index, message", [
        (1, 0, 0, "dims must be a nonempty list of integers >= 2"),
        (2.0, 0, 0, "dims must be a nonempty list of integers >= 2"),
        (3, -1, 0, "seed must be nonnegative"),
        (3, 0, -1, "index must be nonnegative"),
        (3, 0, 2.5, "index must be nonnegative"),
    ])
    def test_replay_takes_the_campaign_input_rules(self, n, seed, index, message):
        with pytest.raises(CampaignInputError) as exc:
            sample_spectrum_gate(n, seed, index)
        assert str(exc.value) == message
        if index == 0:
            # the campaign refuses the same n or seed with the same message
            with pytest.raises(CampaignInputError) as exc:
                run_random_campaign([n], 1, seed)
            assert str(exc.value) == message

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
            # the deficit 1 - r^2 from the gate's eigenphases, not its rounded trace
            d = dominance(u)
            bs = bounds_from_products(d.ml, d.mt, compute_stats(spectrum))
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

    # n + 1 fills whole 4-word blocks at n = 3 and 7, and leaves spare
    # words at n = 2, 4, 8 and 64
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 64])
    def test_stacked_draw_is_bitwise_the_single_draw(self, n):
        for first in (0, 40):
            levels, t, u = _draws(n, 9, range(first, first + 12))
            for i in range(12):
                spectrum, t1, u1 = sample_spectrum_gate(n, 9, first + i)
                assert np.array_equal(levels[i], spectrum.levels)
                assert t[i] == t1
                assert np.array_equal(u[i], u1)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8])
    def test_draw_reads_its_words_of_the_stream(self, n):
        # draw i takes words [i s, (i + 1) s) of the (seed, n) Philox
        # stream, s being n + 1 rounded up to a multiple of 4: its levels,
        # then its time
        stride = -(-(n + 1) // 4) * 4
        words = np.random.Generator(np.random.Philox((9, n))).random((20, stride))
        levels, t = harness._spectra(n, 9, range(5, 20))
        assert np.array_equal(levels, np.sort(harness.SPECTRUM_HIGH * words[5:, :n], axis=-1))
        assert np.array_equal(t, harness.TIME_HIGH * (1.0 - words[5:, n]))

    def test_pinned_near_identity_draw_passes(self):
        # draw (seed 236, n 2, index 15) has r = 1 - 2.9e-10; taking 1 - r^2
        # from its rounded trace makes it a false FAIL at -5.7e-8
        spectrum, t, _ = sample_spectrum_gate(2, 236, 15)
        assert spectrum.levels.tolist() == [1.9478560316781401, 1.9478901544668548]
        assert t == 1.4167153081748352
        report = run_random_campaign([2], 16, 236)
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
                                               ((300, 2), 2), ((5,) * 4, 1000),
                                               ((2, 148), 5000)])
    def test_no_pass_exceeds_chunk_entries(self, dims, samples):
        passes = list(harness._passes(dims, samples))
        for pieces in passes:
            # a draw larger than a chunk is a pass of its own
            entries = pass_entries(pieces)
            assert entries <= CHUNK_ENTRIES or entries == pieces[0][0] ** 2
            # so is the window gather, n values per phase of every draw
            runs = tuple((n, len(indices)) for n, indices in pieces)
            gather = harness._ragged_layout(runs).gather
            assert len(gather) <= CHUNK_ENTRIES or runs == ((pieces[0][0], 1),)
        # every draw once, in campaign order
        draws = [(n, i) for pieces in passes for n, indices in pieces for i in indices]
        assert draws == [(n, i) for n in dims for i in range(samples)]

    @pytest.mark.parametrize("n", [3, 8])
    def test_stream_reads_on_where_the_last_stack_stopped(self, n):
        streams = {}
        harness._spectra(n, 9, range(0, 5), streams)
        for indices in (range(5, 20), range(20, 21), range(30, 33), range(2, 4)):
            kept = harness._spectra(n, 9, indices, streams)
            fresh = harness._spectra(n, 9, indices)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, fresh))

    def test_streams_kept_across_passes_change_no_margin(self):
        passes = list(harness._passes((64, 3), 40))
        assert len(passes) == 3
        streams = {}
        kept = np.concatenate([harness._judge(5, pieces, streams)[0] for pieces in passes])
        fresh = np.concatenate([harness._judge(5, pieces)[0] for pieces in passes])
        assert kept.tobytes() == fresh.tobytes()

    def test_mixed_widths_share_a_pass(self):
        # 5000 draws at n = 2 and two at n = 148 fit in CHUNK_ENTRIES
        # entries: no draw is padded, so they share a pass
        assert 5000 * 2**2 + 2 * 148**2 <= CHUNK_ENTRIES
        assert list(harness._passes((2, 148), 5000))[:2] == [
            [(2, range(0, 5000)), (148, range(0, 2))], [(148, range(2, 4))]]

    def test_lone_draw_pass_is_bitwise_the_stacked_draw(self):
        # n = 200 holds one draw per chunk: draw 0 is a pass of its own, a
        # lone column, which numpy alone would sum pairwise; draw 1 shares
        # a pass with n = 3
        assert list(harness._passes((200, 3), 2)) == [
            [(200, range(0, 1))], [(200, range(1, 2)), (3, range(0, 2))]]
        margins, checked = judged_by_pass((200, 3), 2, 4)
        reference, ref_checked = judged_by_dimension((200, 3), 2, 4)
        assert margins.tobytes() == reference.tobytes()
        assert checked == ref_checked == 2
        swapped = harness._judge(4, [(200, range(0, 1)), (3, range(0, 2))])[0]
        assert swapped.tobytes() == np.concatenate([margins[:1], margins[2:]]).tobytes()

    def test_one_layout_per_pass(self):
        # the judge and the kernel share each pass's layout, and passes of
        # one shape share theirs: 87 passes need 11 layouts
        dims = tuple(range(2, 9)) + (16, 32, 64)
        passes = list(harness._passes(dims, 1000))
        _ragged_layout.cache_clear()
        run_random_campaign(dims, 1000, 0)
        info = _ragged_layout.cache_info()
        assert info.hits + info.misses == 2 * len(passes) == 174
        assert info.misses == 11

    def test_pass_phases_are_each_draws_phases(self):
        # three pieces back to back, then a gate run the phase step skips
        pieces = [(5, range(0, 40)), (2, range(3, 50)), (64, range(0, 2))]
        drawn = [harness._spectra(n, 3, indices) for n, indices in pieces]
        runs = tuple((n, len(indices)) for n, indices in pieces)
        levels = np.concatenate([lv.reshape(-1) for lv, _ in drawn])
        t = np.concatenate([tn for _, tn in drawn])
        ph = harness._spectral_phases(levels, t, runs, _ragged_layout(runs + ((5, 1),)))
        want = [phases_from_levels(lv, tn).reshape(-1) for lv, tn in drawn]
        assert ph.tobytes() == np.concatenate(want).tobytes()

    def test_per_dimension_steps_run_once_per_dimension(self, monkeypatch):
        # one pass over dims 3..8: only the draws and the gate products run
        # per dimension; the rest, the window kernel, the phases and the
        # cross-check's Haar QR, eigvals and distances included, once per pass
        pieces = list(harness._passes(range(3, 9), 3))
        assert len(pieces) == 1
        calls = {}

        def counting(module, name):
            step = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return step(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        once = ("_spectral_phases", "_modulus", "_level_moments", "_list_distance",
                "random_unitaries", "_phases", "_phase_products", "_gate_phases")
        lapack = ("qr", "eigvals")
        per_dimension = ("_spectra", "_draw_gates")
        for name in once + per_dimension:
            counting(harness, name)
        for name in lapack:
            counting(np.linalg, name)
        assert run_random_campaign(range(3, 9), 3, 1).cross_checked == 6
        assert calls == {**dict.fromkeys(once + lapack, 1), **dict.fromkeys(per_dimension, 6)}

    def test_mismatch_in_second_dimension_names_its_draw(self, monkeypatch):
        # draw 64 of n = 5 is cross-checked, in the second piece of one pass
        assert len(list(harness._passes((2, 5), 130))) == 1
        exact = harness._spectral_phases

        def perturbed(*args):
            # one call for the whole pass, each draw's phases back to back:
            # n = 2's 130 draws, then n = 5's; this is draw 64's last
            ph = exact(*args)
            ph[2 * 130 + 5 * 64 + 4] += 1e-6
            return ph

        monkeypatch.setattr(harness, "_spectral_phases", perturbed)
        with pytest.raises(CrossCheckError, match=r"seed 7, n 5, index 64\)") as exc:
            run_random_campaign((2, 5), 130, 7)
        assert "differ from the spectral phases by 1e-06" in str(exc.value)


def perturb_last_draw(monkeypatch, offset=1e-6):
    """Make the spectral phases of every pass's last draw wrong by ``offset``."""
    exact = harness._spectral_phases

    def perturbed(*args):
        ph = exact(*args)
        ph[-1] += offset
        return ph

    monkeypatch.setattr(harness, "_spectral_phases", perturbed)


def assert_stacks_hold_replayed_gates(monkeypatch, dims, samples, shapes):
    """Run a campaign and check each stack ``_phases`` gets: its shape, and
    each draw, in order of n, as ``diag(I, U)`` with the identity exact,
    exact zeros beside it and U bitwise ``sample_spectrum_gate``'s gate."""
    seen = []
    phases = harness._phases

    def recording(u):
        seen.append(u.copy())
        return phases(u)

    monkeypatch.setattr(harness, "_phases", recording)
    run_random_campaign(dims, samples, 5)
    assert [u.shape for u in seen] == shapes
    gates = [u for stack in seen for u in stack]
    want = sorted((n, index) for n in dims for index in range(0, samples, CROSS_CHECK_EVERY))
    assert len(gates) == len(want)
    for got, (n, index) in zip(gates, want):
        pads = got.shape[-1] - n
        assert got[pads:, pads:].tobytes() == sample_spectrum_gate(n, 5, index)[2].tobytes()
        assert np.array_equal(got[:pads, :pads], np.eye(pads))
        assert not got[:pads, pads:].any() and not got[pads:, :pads].any()


class TestSpectralVerdict:
    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_phases_match_the_gate_eigenphases(self, n):
        levels, t, _ = _draws(n, 4, range(40))
        ph = phases_from_levels(levels, t)
        for index in range(40):
            spectrum, t1, u = sample_spectrum_gate(n, 4, index)
            gate_ph = eigenphases(u)
            tol = CROSS_CHECK_PHASE_TOL * (1.0 + (spectrum.levels[-1] - spectrum.levels[0]) * t1)
            assert cyclic_distance(ph[index], gate_ph) <= tol

    def test_cross_check_gate_is_the_replayed_gate(self, monkeypatch):
        # each padded stack the cross-check diagonalises holds a draw as
        # diag(I, U): the identity exactly, exact zeros beside it, and U
        # bitwise the gate sample_spectrum_gate replays for that draw
        assert_stacks_hold_replayed_gates(monkeypatch, (3, 8), 130, [(6, 8, 8)])

    def test_pass_out_of_order_stacks_replayed_gates_by_n(self, monkeypatch):
        # one pass of five dims, out of order, in two stacks: 4 * 127^2
        # entries, then 128^2 alone
        assert_stacks_hold_replayed_gates(monkeypatch, (8, 3, 128, 64, 127), 1,
                                          [(4, 127, 127), (1, 128, 128)])

    @pytest.mark.parametrize("dims", [(3, 8), (8, 3)])
    def test_mismatch_in_a_padded_gate_names_its_draw(self, dims, monkeypatch):
        # the n = 3 draw sits in an 8-wide stack beside the n = 8 draw;
        # its gate phases fill the last 3 slots of its row
        phases = harness._phases

        def perturbed(u):
            ph = phases(u)
            assert u.shape == (2, 8, 8)
            three = [i for i, g in enumerate(u) if np.array_equal(g[:5, :5], np.eye(5))]
            assert len(three) == 1
            ph[three[0], -1] += 1e-6
            return ph

        monkeypatch.setattr(harness, "_phases", perturbed)
        with pytest.raises(CrossCheckError, match=r"seed 7, n 3, index 0\)") as exc:
            run_random_campaign(dims, 1, 7)
        assert "differ from the spectral phases by 1e-06" in str(exc.value)

    def test_gate_stacks_stay_within_chunk_entries(self, monkeypatch):
        # every dimension's draw 0 is checked; the n = 250 draw fills a
        # stack by itself, the smaller ones pack
        shapes = []
        phases = harness._phases

        def recording(u):
            shapes.append(u.shape)
            return phases(u)

        monkeypatch.setattr(harness, "_phases", recording)
        dims = tuple(range(2, 128)) + (250,)
        assert run_random_campaign(dims, 1, 3).cross_checked == len(dims)
        assert sum(k for k, _, _ in shapes) == len(dims)
        assert max(k for k, _, _ in shapes) > 1
        for k, w, _ in shapes:
            assert k * w * w <= max(CHUNK_ENTRIES, w * w)
        # a draw above CHUNK_ENTRIES entries is a stack of its own
        assert list(harness._gate_stacks([2, 3, 256, 300, 300])) == [
            slice(0, 2), slice(2, 3), slice(3, 4), slice(4, 5)]

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
        assert ("by 1e-10 (tolerance 2.42e-09) and product margins by 3.26e-11 (tolerance 1e-12)"
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

    @pytest.mark.parametrize("family", list(MubFamily))
    @pytest.mark.parametrize("xs", [DEFAULT_QUTRIT_X, (0.3, -1.2, 2.5, 7.0)])
    def test_rows_bitwise_the_per_gate_computation(self, family, xs):
        ys = np.linspace(0.0, 2.0 * math.pi, 17)
        rows = figure_qutrit(family, x_values=xs, y_points=len(ys))
        assert len(rows) == len(xs) * len(ys)
        for row, (x, y) in zip(rows, itertools.product(xs, ys)):
            u = qutrit_mub(QutritMubParams(family=family, x=x, y=float(y)))
            assert row.abscissa == y
            assert row.exact == _stack_products(eigenphases(u), np.trace(u))[0][0]
            assert row.ml == ml_product(min(1.0, trace_abs(u) / 3.0))
            assert row.mt is None


class TestFigureCheck:
    """A figure whose exact column falls below its bound raises, naming the
    first abscissa where it does."""

    def test_qubit_names_first_failing_abscissa(self, monkeypatch):
        ml = bounds.ml_product
        # ratios 0, 0.25, 0.5, 0.75, 1: the bound breaks from |tr U| = 1 on
        monkeypatch.setattr(bounds, "ml_product", lambda r: ml(r) + np.where(r >= 0.5, 2.0, 0.0))
        with pytest.raises(RuntimeError, match=r"^dominance violated at abscissa 1\.0: exact "):
            figure_qubit(5)

    def test_qubit_mub_checks_the_mt_column(self, monkeypatch):
        mt = bounds.mt_product
        monkeypatch.setattr(bounds, "mt_product", lambda r: mt(r) + 2.0)
        with pytest.raises(RuntimeError, match=r"abscissa 0\.0: "):
            figure_qubit_mub(3)

    def test_qutrit_names_first_failing_abscissa(self, monkeypatch):
        ml = minimal_time.ml_product
        # rows 0-4 are the block x = 0; row 6 is y = pi/2 of the block x = 1
        monkeypatch.setattr(minimal_time, "ml_product",
                            lambda r: ml(r) + np.where(np.arange(r.size) >= 6, 10.0, 0.0))
        with pytest.raises(RuntimeError, match=rf"abscissa {math.pi / 2}: exact "):
            figure_qutrit(MubFamily.ONE, x_values=(0.0, 1.0), y_points=5)

    def test_bound_within_tolerance_passes(self, monkeypatch):
        ml = bounds.ml_product
        # the exact column at |tr U| = 2 is 0; a bound DOMINANCE_TOL above it passes
        monkeypatch.setattr(bounds, "ml_product", lambda r: ml(r) + DOMINANCE_TOL)
        assert figure_qubit(3)[-1].exact == 0.0


def test_curve_point_is_plain_record():
    p = CurvePoint(abscissa=0.0, exact=1.0, ml=0.5, mt=None)
    assert p.mt is None
