"""Spectrum statistics: definitions, shift invariance, Popoviciu."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateqsl.spectrum import EnergySpectrum, EnergyStats, compute_stats

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


@pytest.mark.parametrize("levels", [[0.0, 1e200], [1e308, -1e308], [1e308, 1.5e308]])
def test_overflowing_statistics_rejected(levels, recwarn):
    # the spread, the width and the mean overflow float64 in turn
    with pytest.raises(ValueError, match="overflow"):
        compute_stats(EnergySpectrum(levels))
    assert not recwarn.list
