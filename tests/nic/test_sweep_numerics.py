"""The batch sweep's reductions replay the scalar solver's float order.

``repro.nic.batch`` computes every sum of a fixed-point sweep over
whole ``(rows, ...)`` arrays, and each must give the scalar solver's
bits: the occupancy water-fill's hungry-pressure total is NumPy's
pairwise ``np.sum`` over the hungry actors (``_hungry_totals``), the
other sums are left folds (``_left_fold``, ``_drain``). These tests pin
each helper to the scalar reduction it replaces, so a NumPy release
that changes its summation order fails here first.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nic.batch import _drain, _hungry_totals, _left_fold
from repro.numeric import left_sum

#: Pressure-like values: exact zeros and positives over 18 decades.
_VALUES = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 1e12, allow_nan=False, allow_infinity=False),
)


@st.composite
def _pressures(draw):
    """A ``(rows, actors)`` pressure matrix and a hungry mask whose rows
    have any number of hungry actors, 0 to all."""
    actors = draw(st.integers(1, 24))
    rows = draw(st.integers(1, 6))
    pressure = np.array(
        draw(
            st.lists(
                st.lists(_VALUES, min_size=actors, max_size=actors),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=np.float64,
    ).reshape(rows, actors)
    hungry = np.zeros((rows, actors), dtype=bool)
    for row in range(rows):
        k = draw(st.integers(0, actors))
        order = draw(st.permutations(range(actors)))
        hungry[row, list(order[:k])] = True
    return pressure, hungry


def _boundary_case() -> tuple[np.ndarray, np.ndarray]:
    """24 actors; rows with 7, 8, 9, 15, 16 and 17 hungry actors, spread
    over the columns so packing matters, at magnitudes whose sum
    depends on the order."""
    rng = np.random.default_rng(7)
    pressure = rng.uniform(0.0, 1.0, (6, 24)) * 10.0 ** rng.uniform(
        -6, 12, (6, 24)
    )
    hungry = np.zeros((6, 24), dtype=bool)
    for row, k in enumerate((7, 8, 9, 15, 16, 17)):
        hungry[row, rng.permutation(24)[:k]] = True
    return pressure, hungry


def _assert_bits_equal(actual: float, expected: float, label) -> None:
    assert np.float64(actual).tobytes() == np.float64(expected).tobytes(), (
        label, actual, expected)


def _assert_totals_match(pressure: np.ndarray, hungry: np.ndarray) -> None:
    totals = _hungry_totals(pressure, hungry)
    for row in range(len(pressure)):
        _assert_bits_equal(totals[row], np.sum(pressure[row][hungry[row]]), row)


class TestHungryTotals:
    @given(case=_pressures())
    @example(case=_boundary_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_np_sum_over_hungry_actors(self, case):
        _assert_totals_match(*case)

    def test_boundary_counts_reach_the_lane_path(self):
        pressure, hungry = _boundary_case()
        assert sorted(hungry.sum(axis=1)) == [7, 8, 9, 15, 16, 17]
        # The replay is not a plain left fold on these rows.
        folds = [left_sum(p[h].tolist()) for p, h in zip(pressure, hungry)]
        sums = [np.sum(p[h]) for p, h in zip(pressure, hungry)]
        assert folds != sums
        _assert_totals_match(pressure, hungry)

    def test_rows_above_one_pairwise_block(self):
        """Past 128 terms NumPy recurses on halves; such rows take
        ``np.sum`` of their packed terms."""
        rng = np.random.default_rng(3)
        pressure = rng.uniform(0.0, 1e9, (4, 300))
        hungry = rng.random((4, 300)) < np.array([[0.2], [0.5], [0.9], [1.0]])
        assert hungry.sum(axis=1).max() > 128
        _assert_totals_match(pressure, hungry)


class TestLeftFolds:
    @given(case=_pressures())
    @settings(max_examples=200, deadline=None)
    def test_left_fold_is_left_sum(self, case):
        terms, _ = case
        folded = _left_fold(terms)
        for row in range(len(terms)):
            _assert_bits_equal(folded[row], left_sum(terms[row].tolist()), row)
        # Folds run along the last axis of any shape.
        stacked = _left_fold(terms.reshape(1, *terms.shape))
        assert stacked.tobytes() == folded.reshape(1, -1).tobytes()

    def test_empty_axis_folds_to_zero(self):
        assert _left_fold(np.empty((3, 2, 0))).tolist() == [[0.0] * 2] * 3

    @given(case=_pressures(), start=_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_drain_subtracts_in_column_order(self, case, start):
        taken, hungry = case
        taken = np.where(hungry, taken, 0.0)
        remaining = np.full(len(taken), start)
        drained = _drain(remaining, taken)
        for row in range(len(taken)):
            expected = start
            for need in taken[row][hungry[row]].tolist():
                expected -= need
            _assert_bits_equal(drained[row], expected, row)
