"""Bound formulas, their degenerate cases, and the proof-identity suite."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateqsl.bounds import (
    BOUND_NAMES,
    ML_TRACE_FACTOR,
    UndefinedBoundError,
    _clamped_trace,
    bounds_from_products,
    ml_product,
    mt_from_deficit,
)
from gateqsl.catalog import prior_mub_bound
from gateqsl.cli import main
from gateqsl.linalg import random_unitaries, trace_deficit
from gateqsl.minimal_time import dominance
from gateqsl.spectrum import level_stats

HALF_PI = 0.5 * math.pi


def bounds_at(n, trace_abs, stats):
    """The five bounds of an n-dimensional gate with ``|tr U| = trace_abs``,
    each row of :func:`bounds_from_products` by its name."""
    r = _clamped_trace(n, trace_abs) / n
    rows = bounds_from_products(ml_product(r), mt_from_deficit(1.0 - r * r), stats)
    return types.SimpleNamespace(**dict(zip(BOUND_NAMES, rows)))


class TestTraceInput:
    """The trace the bounds take: ``_clamped_trace``, from a gate of dimension
    at least 1."""

    def test_ratio(self):
        assert _clamped_trace(4, 2.0) / 4 == 0.5

    def test_clamps_tiny_overshoot(self):
        assert _clamped_trace(3, 3.0 + 1e-12) == 3.0
        assert _clamped_trace(3, -1e-12) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            _clamped_trace(2, 2.5)
        with pytest.raises(ValueError):
            trace_deficit(np.zeros((0, 0)))

    def test_per_row_dimension(self):
        n = np.array([2, 3, 64])
        trace = _clamped_trace(n, np.array([2.0 + 1e-10, 1.5, -1e-12]))
        assert trace.tolist() == [2.0, 1.5, 0.0]
        assert (trace / n).tolist() == [1.0, 0.5, 0.0]
        with pytest.raises(ValueError, match=r"\|tr U\| = 2.5 outside \[0, 2\]"):
            _clamped_trace(np.array([3, 2]), np.array([2.5, 2.5]))
        with pytest.raises(ValueError):
            dominance(np.zeros((2, 0, 0)))


class TestMlBound:
    def test_vanishing_trace(self):
        # half-pi over E at zero trace
        assert abs(bounds_at(2, 0.0, level_stats([0.0, 2.0])).ml - HALF_PI) < 1e-15

    def test_full_trace_clamps_to_zero(self):
        assert bounds_at(2, 2.0, level_stats([0.0, 1.0])).ml == 0.0

    def test_mub_case_n4(self):
        # frozen high-precision value of (pi/2)(1 - k/2), k = sqrt(1+4/pi^2)
        got = bounds_at(4, 2.0, level_stats([0.0, 4.0 / 3, 4.0 / 3, 4.0 / 3])).ml
        assert abs(got - 0.63974838223560331) < 1e-14

    def test_degenerate_spectrum_identity_gate(self):
        assert bounds_at(2, 2.0, level_stats([1.0, 1.0])).ml == 0.0

    def test_degenerate_spectrum_trace_deficit_undefined(self):
        with pytest.raises(UndefinedBoundError):
            bounds_at(2, 0.0, level_stats([1.0, 1.0]))


class TestMtBound:
    def test_plug_in(self):
        assert bounds_at(2, 0.0, level_stats([0.0, 1.0])).mt == 2.0

    def test_full_trace(self):
        assert bounds_at(3, 3.0, level_stats([0.0, 1.0, 2.0])).mt == 0.0

    def test_fourier3_value(self):
        # sqrt(1 - 1/9) = sqrt(8)/3 at unit std; {-c, 0, c} with c = sqrt(3/2) has std 1
        c = math.sqrt(1.5)
        got = bounds_at(3, 1.0, level_stats([-c, 0.0, c])).mt
        assert abs(got - 0.94280904158206337) < 1e-12

    def test_degenerate_undefined(self):
        with pytest.raises(UndefinedBoundError):
            bounds_at(2, 1.0, level_stats([3.0, 3.0]))


class TestDualMlBound:
    def test_symmetric_two_level_matches_ml(self):
        stats = level_stats([0.0, 2.0])
        for tr in (0.0, 0.7, 1.9):
            bs = bounds_at(2, tr, stats)
            assert bs.dual_ml == bs.ml

    def test_full_trace(self):
        assert bounds_at(2, 2.0, level_stats([0.0, 1.0])).dual_ml == 0.0

    def test_skewed_spectrum_evaluation(self):
        stats = level_stats([0.0, 1.0, 2.0, 9.0])
        assert abs(stats.e_below_top - 6.0) < 1e-12
        got = bounds_at(4, 0.0, stats).dual_ml
        assert abs(got - HALF_PI / 6.0) < 1e-14

    def test_pi_over_four(self):
        # two-level spectrum with E_max - mean = 2 gives pi/4 at zero trace
        stats = level_stats([-2.0, 2.0])
        assert stats.e_below_top == 2.0
        assert abs(bounds_at(2, 0.0, stats).dual_ml - math.pi / 4.0) < 1e-15


class TestWidthBounds:
    def test_plug_in(self):
        bs = bounds_at(2, 0.0, level_stats([0.0, 2.0]))
        assert abs(bs.width_ml - HALF_PI) < 1e-15
        assert bs.width_mt == 1.0

    def test_full_trace(self):
        bs = bounds_at(2, 2.0, level_stats([0.0, 5.0]))
        assert (bs.width_ml, bs.width_mt) == (0.0, 0.0)

    def test_fourier4_width_mt(self):
        # 2 sqrt(1 - 2/16) = 2 sqrt(7/8) at unit width
        w_mt = bounds_at(4, math.sqrt(2.0), level_stats([0.0, 0.3, 0.8, 1.0])).width_mt
        assert abs(w_mt - 1.87082869338697069) < 1e-14

    def test_zero_width_undefined(self):
        with pytest.raises(UndefinedBoundError):
            bounds_at(2, 0.0, level_stats([1.0, 1.0]))


class TestBoundSet:
    """The five bounds as one float64 array, a row per bound."""

    def test_two_level_composition(self):
        bs = bounds_at(2, 0.0, level_stats([0.0, 1.0]))
        assert abs(bs.ml - math.pi) < 1e-15
        assert bs.mt == 2.0

    def test_full_trace_all_zero(self):
        bs = bounds_at(3, 3.0, level_stats([0.0, 1.0, 2.0]))
        assert (bs.ml, bs.mt, bs.dual_ml, bs.width_ml, bs.width_mt) == (0,) * 5

    def test_combined_contract(self, capsys):
        # the combined row of ``gateqsl bounds`` is the larger of its ml and mt rows
        rng = np.random.default_rng(3)
        for _ in range(50):
            angles = ",".join(map(str, rng.uniform(-3.0, 3.0, 4)))
            levels = ",".join(map(str, rng.uniform(0.0, 10.0, 2)))
            assert main(["bounds", f"--qubit={angles}", f"--spectrum={levels}"]) == 0
            rows = {line[:11].strip(): float(line[11:].split()[0])
                    for line in capsys.readouterr().out.splitlines()}
            assert rows["combined"] == max(rows["ml"], rows["mt"])

    def test_fields_follow_bound_names(self):
        # rows ml, mt, dual_ml, width_ml, width_mt: each bound form at unit statistics
        assert BOUND_NAMES == ("ml", "mt", "dual_ml", "width_ml", "width_mt")
        rows = bounds_from_products(np.array([0.25, 1.0]), np.array([0.5, 0.0]))
        assert rows.dtype == np.float64
        assert rows.tolist() == [[0.25, 1.0], [0.5, 0.0], [0.25, 1.0], [0.5, 2.0], [1.0, 0.0]]

    @pytest.mark.parametrize("trace, statistic", [(0.0, "mean energy above ground"),
                                                  (1.9, "energy spread (std)")])
    def test_undefined_names_first_zero_statistic(self, trace, statistic):
        # a flat spectrum zeroes all four statistics; at |tr U| = 1.9 the ML
        # product clamps to 0, so the MT bound is the first undefined one
        with pytest.raises(UndefinedBoundError) as exc:
            bounds_at(2, trace, level_stats([1.0, 1.0]))
        assert str(exc.value) == (f"{statistic} is zero but the gate has a trace deficit; "
                                  "no finite bound exists")


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    data=st.data(),
)
def test_monotone_in_trace(n, data):
    t1 = data.draw(st.floats(min_value=0.0, max_value=float(n)))
    t2 = data.draw(st.floats(min_value=0.0, max_value=float(n)))
    lo, hi = sorted((t1, t2))
    stats = level_stats([0.0, 1.0] + [0.5] * (n - 2))
    a = bounds_at(n, lo, stats)
    b = bounds_at(n, hi, stats)
    for name in ("ml", "mt", "dual_ml", "width_ml", "width_mt"):
        assert getattr(a, name) >= getattr(b, name) - 1e-12


def test_phase_and_basis_invariance():
    # |tr| of e^{i phi} U and V U V† equals |tr U|, so all bounds agree
    rng = np.random.default_rng(12)
    stats = level_stats([0.0, 0.5, 2.0, 3.5])
    for _ in range(25):
        u = random_unitaries(4, [int(rng.integers(2**63))])[0]
        v = random_unitaries(4, [int(rng.integers(2**63))])[0]
        phi = rng.uniform(0, 2 * np.pi)
        base = bounds_at(4, abs(np.trace(u)), stats)
        phased = bounds_at(4, abs(np.trace(np.exp(1j * phi) * u)), stats)
        conjugated = bounds_at(4, abs(np.trace(v @ u @ v.conj().T)), stats)
        for other in (phased, conjugated):
            assert abs(base.ml - other.ml) < 1e-12
            assert abs(base.mt - other.mt) < 1e-12
            assert abs(base.dual_ml - other.dual_ml) < 1e-12
            assert abs(base.width_ml - other.width_ml) < 1e-12
            assert abs(base.width_mt - other.width_mt) < 1e-12


class TestProofIdentities:
    def test_ml_identity_grid(self):
        x = np.linspace(0.0, 50.0, 20_001)
        assert np.all(x >= HALF_PI * (1 - np.cos(x)) - np.sin(x) - 1e-12)

    def test_ml_identity_random(self):
        x = np.random.default_rng(1).uniform(0.0, 50.0, 100_000)
        assert np.all(x >= HALF_PI * (1 - np.cos(x)) - np.sin(x) - 1e-12)

    def test_quadratic_identity_grid(self):
        x = np.linspace(-50.0, 50.0, 20_001)
        assert np.all(x * x >= 2.0 * (1.0 - np.cos(x)) - 1e-12)

    def test_quadratic_identity_random(self):
        x = np.random.default_rng(2).uniform(-50.0, 50.0, 100_000)
        assert np.all(x * x >= 2.0 * (1.0 - np.cos(x)) - 1e-12)


def test_width_mt_below_mt_on_random_spectra():
    # Popoviciu (2 std <= width) makes the width MT form the weaker one
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(2, 33))
        stats = level_stats(rng.uniform(-4, 7, n))
        trace = float(rng.uniform(0, n))
        if stats.variance_sqrt == 0.0:
            continue
        bs = bounds_at(n, trace, stats)
        assert bs.width_mt <= bs.mt + 1e-12


def test_mub_ml_beats_prior_bound():
    for n in range(4, 257):
        ours = ml_product(1.0 / math.sqrt(n))
        assert ours > prior_mub_bound(n)


def test_ml_trace_factor_value():
    assert abs(ML_TRACE_FACTOR - 1.18544706105728361) < 1e-15
