"""Spectrum statistics: definitions, shift invariance, Popoviciu."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateqsl.spectrum import (
    EnergySpectrum,
    EnergyStats,
    _level_moments,
    compute_stats,
    level_stats,
)

levels_strategy = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=32,
)


def test_two_level_symmetry():
    stats = compute_stats(EnergySpectrum([0.0, 1.0]))
    assert stats.e_above_ground == 0.5
    assert stats.variance_sqrt == 0.5
    assert stats.width == 1.0
    assert stats.e_below_top == 0.5


def test_degenerate_spectrum():
    stats = compute_stats(EnergySpectrum([2.5] * 6))
    assert stats.e_above_ground == 0.0
    assert stats.variance_sqrt == 0.0
    assert stats.width == 0.0


def test_three_level_direct_summation():
    # direct oracle: mean 1, E 1, std sqrt(2/3), width 2
    stats = compute_stats(EnergySpectrum([0.0, 1.0, 2.0]))
    assert stats.mean == 1.0
    assert stats.e_above_ground == 1.0
    assert abs(stats.variance_sqrt - 0.81649658092772603) < 1e-15
    assert stats.width == 2.0


def test_constructor_sorts_and_freezes():
    s = EnergySpectrum([3.0, 1.0, 2.0])
    assert np.array_equal(s.levels, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.levels[0] = 7.0


def test_permutation_invariance():
    rng = np.random.default_rng(0)
    levels = rng.uniform(-5, 5, 12)
    a = compute_stats(EnergySpectrum(levels))
    b = compute_stats(EnergySpectrum(rng.permutation(levels)))
    assert a == b


def test_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        EnergySpectrum([])
    with pytest.raises(ValueError):
        EnergySpectrum([0.0, np.inf])


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_level_stats_rejects_rows_of_no_levels(shape):
    with pytest.raises(ValueError, match=r"^a spectrum needs at least one level$"):
        level_stats(np.zeros(shape))


LONE_NUMBERS = pytest.mark.parametrize("levels", [np.float64(1.0), np.array(1.0), 1.0, 3],
                                       ids=["float64", "0-d", "float", "int"])


@LONE_NUMBERS
def test_level_stats_rejects_a_lone_number(levels):
    with pytest.raises(ValueError, match=r"^a spectrum needs at least one level$"):
        level_stats(levels)


@LONE_NUMBERS
def test_spectrum_rejects_a_lone_number(levels):
    with pytest.raises(ValueError, match=r"^a spectrum needs at least one level$"):
        EnergySpectrum(levels)


def test_shift_examples():
    s = EnergySpectrum([0.0, 1.0])
    shifted = EnergySpectrum(s.levels + 5.0)
    assert np.array_equal(shifted.levels, [5.0, 6.0])
    assert compute_stats(shifted).variance_sqrt == compute_stats(s).variance_sqrt
    assert EnergySpectrum(s.levels + 0.0) == s
    moved = EnergySpectrum(np.array([0.0, 1.0, 2.0]) - 1.0)
    assert np.array_equal(moved.levels, [-1.0, 0.0, 1.0])
    assert abs(compute_stats(moved).variance_sqrt - 0.81649658092772603) < 1e-15


@settings(max_examples=150, deadline=None)
@given(levels=levels_strategy, c=st.floats(min_value=-1e3, max_value=1e3))
def test_shift_invariance_property(levels, c):
    base = compute_stats(EnergySpectrum(levels))
    moved = compute_stats(EnergySpectrum(np.asarray(levels) + c))
    scale = 1.0 + abs(base.mean) + abs(c) + base.width
    assert abs(moved.e_above_ground - base.e_above_ground) <= 1e-12 * scale
    assert abs(moved.variance_sqrt - base.variance_sqrt) <= 1e-12 * scale
    assert abs(moved.width - base.width) <= 1e-12 * scale
    assert abs(moved.e_below_top - base.e_below_top) <= 1e-12 * scale
    assert abs(moved.mean - (base.mean + c)) <= 1e-12 * scale


def test_popoviciu_bulk():
    # 10^4 random spectra, n in [2, 64]
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        n = int(rng.integers(2, 65))
        stats = compute_stats(EnergySpectrum(rng.uniform(-10, 10, n)))
        assert 2.0 * stats.variance_sqrt <= stats.width + 1e-12


@settings(max_examples=200, deadline=None)
@given(levels=levels_strategy)
def test_popoviciu_property(levels):
    stats = compute_stats(EnergySpectrum(levels))
    assert 2.0 * stats.variance_sqrt <= stats.width + 1e-9 * (1 + stats.width)


def test_stats_validation_rejects_inconsistency():
    with pytest.raises(ValueError):
        EnergyStats(mean=0.0, e_above_ground=1.0, variance_sqrt=0.1, width=3.0, e_below_top=1.0)
    with pytest.raises(ValueError):
        EnergyStats(mean=0.0, e_above_ground=-1.0, variance_sqrt=0.1, width=0.0, e_below_top=1.0)
    with pytest.raises(ValueError):
        # 2*std beyond the width breaks Popoviciu
        EnergyStats(mean=0.0, e_above_ground=0.5, variance_sqrt=2.0, width=1.0, e_below_top=0.5)


@pytest.mark.parametrize("levels", [[1.5e308, -1.5e308], [1e308, -1e308], [-1e308, 0.0, 9e307]])
def test_overflowing_statistics_rejected(levels, recwarn):
    # only the width can overflow: the mean lies between the extremes,
    # and the spread and both gaps are at most the width
    with pytest.raises(ValueError, match="overflow"):
        compute_stats(EnergySpectrum(levels))
    assert not recwarn.list


@pytest.mark.parametrize("levels, mean, gap, width", [
    ([0.0, 2e154], 1e154, 1e154, 2e154),
    ([0.0, 1e200], 5e199, 5e199, 1e200),
    ([1e308, 1.5e308], 1.25e308, 2.5e307, 5e307),
    ([0.0, 1.7e308], 8.5e307, 8.5e307, 1.7e308),
    ([-1e300, 1e300], 0.0, 1e300, 2e300),
])
def test_wide_statistics_fit_float64(levels, mean, gap, width, recwarn):
    # squaring these deviations overflows, and for the last so does the
    # rounding slack of the EnergyStats checks; the statistics fit
    stats = compute_stats(EnergySpectrum(levels))
    assert stats.mean == mean
    assert stats.e_above_ground == stats.variance_sqrt == stats.e_below_top == gap
    assert stats.width == width
    assert not recwarn.list


def test_narrow_spread_does_not_underflow():
    # the squared deviations, 2.5e-601, underflow unless scaled first
    assert compute_stats(EnergySpectrum([0.0, 1e-300])).variance_sqrt == 5e-301


@pytest.mark.parametrize("power", [-1000, -600, -1, 1, 600, 1000])
def test_power_of_two_scaling_is_exact(power):
    rng = np.random.default_rng(power + 2000)
    for n in (1, 2, 3, 8, 64):
        levels = rng.uniform(-10.0, 10.0, n)
        base = compute_stats(EnergySpectrum(levels))
        scaled = compute_stats(EnergySpectrum(np.ldexp(levels, power)))
        for name in ("mean", "e_above_ground", "variance_sqrt", "width", "e_below_top"):
            assert getattr(scaled, name) == np.ldexp(getattr(base, name), power)


STATS_FIELDS = ("mean", "e_above_ground", "variance_sqrt", "width", "e_below_top")


def level_families(rng, n):
    """Sorted levels of n: uniform on [-10, 10], and near 1e300, -1e300 and
    1e-300, where the power-of-two scaling keeps the squares in range."""
    yield np.sort(rng.uniform(-10.0, 10.0, n))
    yield np.sort(rng.uniform(1e300, 1.5e300, n))
    yield np.sort(rng.uniform(-1.5e300, -1e300, n))
    yield np.sort(rng.uniform(1e-300, 3e-300, n))


def test_ragged_moments_are_each_lists_lone_moments():
    rng = np.random.default_rng(9)
    lists = [lv for n in (1, 2, 3, 8, 9, 64, 200) for lv in level_families(rng, n)]
    lists = [lists[i] for i in rng.permutation(len(lists))]
    n = np.array([len(lv) for lv in lists])
    owner = np.repeat(np.arange(len(lists)), n)
    moments = _level_moments(np.concatenate(lists), np.cumsum(n) - n, n, owner)
    assert moments.shape == (5, len(lists))
    for i, lv in enumerate(lists):
        lone = _level_moments(lv, np.zeros(1, dtype=np.intp), len(lv),
                              np.zeros(len(lv), dtype=np.intp))
        assert moments[:, i].tobytes() == lone[:, 0].tobytes()


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 200])
def test_level_stats_rows_are_bitwise_compute_stats(n):
    rng = np.random.default_rng(n)
    stack = np.array([lv for _ in range(3) for lv in level_families(rng, n)])
    stats = level_stats(stack.reshape(2, 6, n))
    for name in STATS_FIELDS:
        assert getattr(stats, name).shape == (2, 6)
    for i, levels in enumerate(stack):
        lone = compute_stats(EnergySpectrum(levels))
        for name in STATS_FIELDS:
            assert getattr(stats, name).reshape(-1)[i].tobytes() == getattr(lone, name).tobytes()
