"""Cooperative-game machinery (paper Section 3): exact Shapley values,
Monte-Carlo estimation with Hoeffding bounds (Theorem 5.6), and the
scheduling game whose coalition values are schedule utilities.
"""

from .exact import (
    check_additivity,
    check_dummy,
    check_efficiency,
    check_symmetry,
    shapley_by_permutations,
    shapley_exact,
    shapley_exact_scaled,
)
from .games import (
    SchedulingGame,
    TableGame,
    unit_coalition_value,
)
from .confidence import (
    empirical_bernstein_halfwidth,
    hoeffding_halfwidth,
    interval_halfwidth,
    separates_argmax,
)
from .sampling import (
    ORDERING_SAMPLERS,
    SampledPrefixes,
    antithetic_orderings,
    hoeffding_samples,
    sample_member_orderings,
    sample_orderings,
    shapley_sample,
    stratified_orderings,
)
from .vectorized import ScaledShapleySolver

__all__ = [
    "ORDERING_SAMPLERS",
    "SampledPrefixes",
    "ScaledShapleySolver",
    "SchedulingGame",
    "TableGame",
    "antithetic_orderings",
    "check_additivity",
    "check_dummy",
    "check_efficiency",
    "check_symmetry",
    "empirical_bernstein_halfwidth",
    "hoeffding_halfwidth",
    "hoeffding_samples",
    "interval_halfwidth",
    "sample_member_orderings",
    "sample_orderings",
    "separates_argmax",
    "stratified_orderings",
    "shapley_by_permutations",
    "shapley_exact",
    "shapley_exact_scaled",
    "shapley_sample",
    "unit_coalition_value",
]
