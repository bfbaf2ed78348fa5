"""Tests for the coarsening grid hierarchy."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.refactor.grid import coarse_indices, detail_indices, plan_levels


def test_coarse_indices_odd():
    assert coarse_indices(9).tolist() == [0, 2, 4, 6, 8]


def test_coarse_indices_even():
    assert coarse_indices(6).tolist() == [0, 2, 4, 5]


def test_coarse_indices_minimal():
    assert coarse_indices(2).tolist() == [0, 1]
    assert coarse_indices(3).tolist() == [0, 2]


def test_coarse_indices_too_short():
    with pytest.raises(ValueError):
        coarse_indices(1)


@given(st.integers(min_value=2, max_value=500))
def test_partition_property(n):
    """Coarse and detail indices partition the axis."""
    ci = coarse_indices(n)
    di = detail_indices(n)
    assert ci[0] == 0 and ci[-1] == n - 1
    merged = np.sort(np.concatenate([ci, di]))
    assert merged.tolist() == list(range(n))


@given(st.integers(min_value=2, max_value=500))
def test_detail_nodes_have_coarse_neighbours(n):
    ci = set(coarse_indices(n).tolist())
    for d in detail_indices(n):
        assert d - 1 in ci and d + 1 in ci


def test_plan_levels_3d():
    plans = plan_levels((17, 17, 17), 3)
    assert len(plans) == 3
    assert plans[0].fine_shape == (17, 17, 17)
    assert plans[0].coarse_shape == (9, 9, 9)
    assert plans[1].coarse_shape == (5, 5, 5)
    assert plans[2].coarse_shape == (3, 3, 3)


def test_plan_levels_stops_at_min_axis():
    plans = plan_levels((5, 5), 10)
    # 5 -> 3 -> 2; 2 < MIN_AXIS stops further coarsening.
    assert plans[-1].coarse_shape == (2, 2)
    assert len(plans) == 2


def test_plan_levels_mixed_axes():
    plans = plan_levels((33, 4), 2)
    assert plans[0].coarse_shape == (17, 3)
    assert plans[1].coarse_shape == (9, 2)
    assert plans[0].coarsened_axes == (0, 1)
    # second step still coarsens both (3 >= MIN_AXIS)
    assert plans[1].coarsened_axes == (0, 1)


def test_plan_levels_short_axis_passthrough():
    plans = plan_levels((9, 2), 2)
    assert all(p.coarsened_axes == (0,) for p in plans)
    assert plans[0].coarse_shape == (5, 2)


def test_plan_levels_rejects_tiny():
    with pytest.raises(ValueError):
        plan_levels((1, 8), 2)
    with pytest.raises(ValueError):
        plan_levels((2, 2), 2)  # nothing coarsenable

