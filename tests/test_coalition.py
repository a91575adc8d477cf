"""Unit tests for repro.core.coalition (bitmask sets, Shapley weights)."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.coalition import (
    Coalition,
    iter_members,
    iter_proper_subsets,
    iter_subsets,
    popcount,
    scaled_shapley_weights,
    shapley_weight,
    subsets_by_size,
)


class TestCoalition:
    def test_from_iterable_and_mask_agree(self):
        assert Coalition([0, 2, 5]) == Coalition(0b100101)

    def test_membership(self):
        c = Coalition([1, 3])
        assert 1 in c and 3 in c
        assert 0 not in c and 2 not in c

    def test_len_iter(self):
        c = Coalition([4, 1, 2])
        assert len(c) == 3
        assert sorted(c) == [1, 2, 4]

    def test_grand(self):
        assert sorted(Coalition.grand(4)) == [0, 1, 2, 3]
        assert len(Coalition.grand(0)) == 0

    def test_add_remove(self):
        c = Coalition([0])
        assert sorted(c.add(2)) == [0, 2]
        assert sorted(c.add(2).remove(0)) == [2]
        with pytest.raises(KeyError):
            c.remove(5)

    def test_union_intersection_subset(self):
        a, b = Coalition([0, 1]), Coalition([1, 2])
        assert sorted(a.union(b)) == [0, 1, 2]
        assert sorted(a.intersection(b)) == [1]
        assert Coalition([1]).issubset(a)
        assert not a.issubset(b)

    def test_equality_with_set(self):
        assert Coalition([0, 2]) == {0, 2}

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Coalition([0]).mask = 3

    def test_truth_and_hash(self):
        assert not Coalition(0) and Coalition([0])
        assert hash(Coalition([0, 2])) == hash(Coalition(0b101))
        assert len({Coalition([0, 2]), Coalition(0b101), Coalition([1])}) == 2

    def test_subsets_iterator(self):
        subs = {tuple(sorted(s)) for s in Coalition([0, 2]).subsets()}
        assert subs == {(), (0,), (2,), (0, 2)}
        proper = {
            tuple(sorted(s)) for s in Coalition([0, 2]).subsets(proper=True)
        }
        assert proper == {(), (0,), (2,)}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Coalition(-1)
        with pytest.raises(ValueError):
            Coalition([-2])


class TestBitmaskHelpers:
    @given(st.integers(0, 2**12 - 1))
    def test_iter_subsets_counts(self, mask):
        subs = list(iter_subsets(mask))
        assert len(subs) == 2 ** popcount(mask)
        assert len(set(subs)) == len(subs)
        assert all(s & ~mask == 0 for s in subs)

    @given(st.integers(0, 2**10 - 1))
    def test_proper_subsets_exclude_self(self, mask):
        subs = list(iter_proper_subsets(mask))
        assert mask not in subs or mask == 0 and subs == []
        assert len(subs) == 2 ** popcount(mask) - 1

    @given(st.integers(0, 2**16 - 1))
    def test_iter_members_matches_bits(self, mask):
        assert sum(1 << u for u in iter_members(mask)) == mask

    def test_subsets_by_size_groups(self):
        groups = subsets_by_size(0b1011)
        assert [len(g) for g in groups] == [comb(3, s) for s in range(4)]
        for size, group in enumerate(groups):
            assert all(popcount(m) == size for m in group)


class TestShapleyWeights:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_weights_sum_to_one(self, k):
        """sum over subsets containing a fixed player of w(|S|) == 1."""
        total = sum(
            comb(k - 1, s - 1) * shapley_weight(s, k) for s in range(1, k + 1)
        )
        assert total == 1

    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_scaled_matches_fraction(self, k):
        scaled = scaled_shapley_weights(k)
        for s in range(1, k + 1):
            assert Fraction(scaled[s], factorial(k)) == shapley_weight(s, k)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            shapley_weight(0, 3)
        with pytest.raises(ValueError):
            shapley_weight(4, 3)
        with pytest.raises(ValueError):
            scaled_shapley_weights(0)
