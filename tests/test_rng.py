"""Unit tests for deterministic RNG utilities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.rng import (
    _PASS_BYTES,
    DEFAULT_SEED,
    derive_seed,
    derive_seeds,
    make_rng,
    spawn,
)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_different_seeds_differ(self):
        assert make_rng(5).random() != make_rng(6).random()

    def test_none_uses_default_seed(self):
        assert make_rng(None).random() == make_rng(DEFAULT_SEED).random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert make_rng(rng) is rng


class TestSpawn:
    def test_children_are_independent(self):
        children = spawn(make_rng(3), 3)
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_is_deterministic(self):
        a = [c.random() for c in spawn(make_rng(3), 2)]
        b = [c.random() for c in spawn(make_rng(3), 2)]
        assert a == b


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "x", 2.0) == derive_seed(1, "x", 2.0)

    def test_sensitive_to_components(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_result_in_valid_range(self):
        seed = derive_seed(123, "anything", 4.5, (1, 2))
        assert 0 <= seed < 2**63

    def test_accepts_the_whole_unsigned_64_bit_range(self):
        assert 0 <= derive_seed(2**64 - 1, "x") < 2**63
        assert derive_seed(np.uint64(7), "x") == derive_seed(7, "x")

    @pytest.mark.parametrize("base", [-1, 2**64])
    def test_base_outside_unsigned_64_bits_is_rejected(self, base):
        with pytest.raises(ConfigurationError, match=r"outside \[0, 2\*\*64\)"):
            derive_seed(base, "x")

    @pytest.mark.parametrize("base", [-1, 2**64])
    def test_bulk_base_check_matches_the_scalar_one(self, base):
        with pytest.raises(ConfigurationError) as scalar:
            derive_seed(base, "x")
        with pytest.raises(ConfigurationError) as bulk:
            derive_seeds(base, [("x",)])
        assert str(bulk.value) == str(scalar.value)

    def test_non_integer_base_is_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            derive_seeds(1.5, [])


#: Bases at the edges of the seed domain, plus arbitrary ones.
BASES = st.one_of(
    st.sampled_from([0, 1, 2**63 - 1, 2**64 - 1]),
    st.integers(min_value=0, max_value=2**64 - 1),
)
#: What callers hash: text (non-ASCII included), numbers, tuples of text.
COMPONENTS = st.one_of(
    st.text(max_size=24),
    st.integers(),
    st.floats(),
    st.lists(st.text(max_size=8), max_size=4).map(tuple),
)
#: Rows of 0-12 components; empty rows and odd lengths come up often.
ROWS = st.lists(
    st.lists(COMPONENTS, max_size=12).map(tuple), max_size=16
)


class TestDeriveSeeds:
    """``derive_seeds`` is ``derive_seed`` over many rows, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(base=BASES, rows=ROWS)
    @example(base=0, rows=[])
    @example(base=2**64 - 1, rows=[(), ("a",), (), ()])
    @example(base=1, rows=[("é∑",) * 3, ("x" * 5,), (1.5, -3)])
    def test_matches_the_scalar_function(self, base, rows):
        assert derive_seeds(base, rows) == [
            derive_seed(base, *row) for row in rows
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        base=BASES,
        rows=ROWS,
        offset=st.integers(min_value=-70, max_value=70),
        oversized=st.booleans(),
    )
    def test_matches_across_pass_boundaries(self, base, rows, offset, oversized):
        # A filler row ending near the pass cap makes the rows after it
        # straddle a pass boundary (repr adds two quote bytes).
        filler = ("f" * (_PASS_BYTES - 2 + offset),)
        rows = [filler, *rows]
        if oversized:
            rows.insert(len(rows) // 2, ("g" * (_PASS_BYTES + 100),))
        assert derive_seeds(base, rows) == [
            derive_seed(base, *row) for row in rows
        ]

    def test_rows_may_be_a_generator_sharing_components(self):
        shared = ("k" * 300, "é" * 50)
        rows = [(f"w{i}", shared) for i in range(9)]
        assert derive_seeds(3, (row for row in rows)) == [
            derive_seed(3, *row) for row in rows
        ]
