"""``ref_stratified``: RAND on variance-reduced joining orders.

Same Fig. 6 estimator, same exact integer key comparisons -- only the
``Prepare`` draw changes.  Position stratification emits every cyclic
rotation of each drawn permutation, so within one block of ``k``
orderings each member occupies each join position exactly once (the
position-marginal is derandomized); antithetic pairing follows each
ordering with its reverse, cancelling odd symmetric variance components.
Both transforms map uniform permutations to uniform permutations, so the
estimator stays unbiased and Theorem 5.6's Hoeffding budget still
applies -- the variance reduction is pure profit
(``tests/test_approx.py::TestApproxGate`` floors the realized ratio).
"""

from __future__ import annotations

from ..algorithms.rand import RandScheduler

__all__ = ["StratifiedScheduler"]


class StratifiedScheduler(RandScheduler):
    """RAND with position-stratified (and optionally antithetic) draws.

    Parameters mirror :class:`~repro.algorithms.rand.RandScheduler`
    (including the ``epsilon``/``delta``/``n_samples`` budget controls);
    ``antithetic=True`` (the default) pairs every rotation with its
    reverse, ``antithetic=False`` keeps plain rotation blocks.
    """

    def __init__(
        self,
        n_orderings: int = 15,
        seed=0,
        horizon: "int | None" = None,
        *,
        epsilon: float = 0.0,
        delta: float = 0.05,
        n_samples: int = 0,
        antithetic: bool = True,
    ):
        sampler = "stratified_antithetic" if antithetic else "stratified"
        super().__init__(
            n_orderings,
            seed,
            horizon,
            epsilon=epsilon,
            delta=delta,
            n_samples=n_samples,
            sampler=sampler,
        )
        self.antithetic = bool(antithetic)
        if self.n_samples:
            self.name = f"RefStrat(N={self.n_samples})"
        elif self.epsilon:
            self.name = f"RefStrat(eps={self.epsilon:g},delta={self.delta:g})"
        else:
            self.name = f"RefStrat(N={n_orderings})"
