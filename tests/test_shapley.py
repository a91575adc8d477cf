"""Tests for exact Shapley computation, its axioms, and sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalition import iter_subsets
from repro.shapley.exact import (
    check_additivity,
    check_dummy,
    check_efficiency,
    check_symmetry,
    shapley_by_permutations,
    shapley_exact,
    shapley_exact_scaled,
)
from repro.shapley.sampling import (
    SampledPrefixes,
    hoeffding_samples,
    sample_orderings,
    shapley_sample,
)


def random_game(k: int, rng: np.random.Generator) -> dict[int, int]:
    grand = (1 << k) - 1
    return {m: int(rng.integers(0, 100)) if m else 0 for m in iter_subsets(grand)}


# ----------------------------------------------------------------------
# exact computation
# ----------------------------------------------------------------------
class TestExact:
    def test_known_glove_game(self):
        """Classic 3-player glove game: v=1 iff the coalition contains
        player 0 (left glove) and at least one of players 1,2 (right)."""
        def v(mask):
            left = mask & 1
            right = mask & 0b110
            return 1 if (left and right) else 0

        phi = shapley_exact(v, 3)
        assert phi == [Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)]

    def test_additive_game(self):
        """For an additive game phi_u = v({u})."""
        weights = [3, 5, 7]
        def v(mask):
            return sum(w for i, w in enumerate(weights) if mask >> i & 1)
        assert shapley_exact(v, 3) == weights

    def test_restricted_grand_coalition(self):
        def v(mask):
            return mask.bit_count() ** 2
        phi = shapley_exact(v, 3, grand=0b101)
        assert phi[1] == 0  # outsiders get nothing
        assert sum(phi) == v(0b101)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.integers(1, 5))
    def test_subset_equals_permutation_formula(self, seed, k):
        game = random_game(k, np.random.default_rng(seed))
        assert shapley_exact(game, k) == shapley_by_permutations(game, k)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.integers(1, 5))
    def test_scaled_matches_fractions(self, seed, k):
        game = random_game(k, np.random.default_rng(seed))
        phi = shapley_exact(game, k)
        scaled, denom = shapley_exact_scaled(game, k)
        assert denom == math.factorial(k)
        assert [Fraction(s, denom) for s in scaled] == phi

    @pytest.mark.parametrize("fraction", [False, True], ids=["int", "Fraction"])
    @pytest.mark.parametrize("k", [6, 7])  # both sides of the cache cap
    def test_scaled_is_permutations_times_factorial(self, k, fraction):
        game = random_game(k, np.random.default_rng(k))
        if fraction:
            game = {m: Fraction(v, 7) for m, v in game.items()}
        phi, denom = shapley_exact_scaled(game, k)
        assert denom == math.factorial(k)
        assert phi == [p * denom for p in shapley_by_permutations(game, k)]

    @pytest.mark.parametrize("fraction", [False, True], ids=["int", "Fraction"])
    def test_strict_submask_grand(self, fraction):
        grand = 0b10110  # players 0 and 3 are outside it
        full = random_game(5, np.random.default_rng(5))
        # only grand's submasks are in the table: nothing else is read
        game = {
            m: Fraction(full[m], 3) if fraction else full[m]
            for m in iter_subsets(grand)
        }
        phi, denom = shapley_exact_scaled(game, 5, grand=grand)
        assert denom == 6 and phi[0] == phi[3] == 0
        assert phi == [
            p * 6 for p in shapley_by_permutations(game, 5, grand=grand)
        ]

    @pytest.mark.parametrize("grand", [0b100, -1])
    def test_grand_outside_the_players_is_refused(self, grand):
        for shapley in (shapley_exact, shapley_exact_scaled):
            with pytest.raises(ValueError, match=f"grand={grand} "):
                shapley(lambda mask: mask, 2, grand=grand)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.integers(1, 5))
    def test_efficiency_axiom(self, seed, k):
        game = random_game(k, np.random.default_rng(seed))
        phi = shapley_exact(game, k)
        assert check_efficiency(game, phi, (1 << k) - 1)

    def test_symmetry_axiom(self):
        # players 0 and 1 symmetric by construction: v counts members
        def v(mask):
            return mask.bit_count()
        phi = shapley_exact(v, 3)
        assert check_symmetry(v, phi, 0b111, 0, 1)
        assert phi[0] == phi[1] == phi[2] == 1

    def test_dummy_axiom(self):
        # player 2 never adds value
        def v(mask):
            return (mask & 0b011).bit_count() * 10
        phi = shapley_exact(v, 3)
        assert check_dummy(v, phi, 0b111, 2)
        assert phi[2] == 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500), k=st.integers(1, 4))
    def test_additivity_axiom(self, seed, k):
        rng = np.random.default_rng(seed)
        assert check_additivity(
            random_game(k, rng), random_game(k, rng), k, (1 << k) - 1
        )


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
class TestSampling:
    def test_hoeffding_formula(self):
        n = hoeffding_samples(5, 0.1, 0.9)
        assert n == math.ceil(25 / 0.01 * math.log(5 / 0.1))

    @pytest.mark.parametrize(
        "k,eps,lam",
        [(0, 0.1, 0.5), (3, 0, 0.5), (3, 0.1, 0), (3, 0.1, 1)],
    )
    def test_hoeffding_rejects_bad_params(self, k, eps, lam):
        with pytest.raises(ValueError):
            hoeffding_samples(k, eps, lam)

    def test_sample_orderings_shape(self):
        rng = np.random.default_rng(0)
        arr = sample_orderings(4, 10, rng)
        assert arr.shape == (10, 4)
        for row in arr:
            assert sorted(row) == [0, 1, 2, 3]

    def test_sampled_prefixes_structure(self):
        orderings = np.array([[1, 0, 2], [2, 1, 0]])
        sp = SampledPrefixes(3, orderings)
        assert sp.n == 2
        # player 1's prefix pairs: ({}, {1}) and ({2}, {1,2})
        assert sp.pairs[1] == ((0, 0b010), (0b100, 0b110))
        assert 0 in sp.masks and 0b111 in sp.masks

    def test_estimate_exact_for_additive_game(self):
        """On an additive game every ordering gives the same marginal, so
        the estimate is exact for any sample."""
        weights = [2, 4, 8]
        def v(mask):
            return sum(w for i, w in enumerate(weights) if mask >> i & 1)
        rng = np.random.default_rng(3)
        sp = SampledPrefixes(3, sample_orderings(3, 5, rng))
        values = {m: v(m) for m in sp.masks}
        assert sp.estimate(values) == weights

    def test_shapley_sample_converges(self):
        def v(mask):
            left = mask & 1
            right = mask & 0b110
            return 1 if (left and right) else 0
        rng = np.random.default_rng(0)
        est = shapley_sample(v, 3, 4000, rng)
        exact = [2 / 3, 1 / 6, 1 / 6]
        assert max(abs(a - b) for a, b in zip(est, exact)) < 0.05

    def test_estimate_is_unbiased_across_seeds(self):
        def v(mask):
            return mask.bit_count() ** 2
        exact = shapley_exact(v, 4)
        means = np.zeros(4)
        n_runs = 200
        for seed in range(n_runs):
            rng = np.random.default_rng(seed)
            means += np.array(shapley_sample(v, 4, 4, rng))
        means /= n_runs
        assert np.allclose(means, [float(e) for e in exact], atol=0.3)
