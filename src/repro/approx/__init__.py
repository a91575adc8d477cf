"""Certified approximation ladder: past the exact k<=10 ceiling (DESIGN.md §12).

Exact REF keeps one simulation per nonempty subcoalition -- 2^k engines --
so every exact path in the repo is hard-capped at ``max_orgs=10``.  This
package is the escape hatch the paper's own Theorems 5.6-5.7 point to,
packaged as three registered policies:

* ``ref_stratified`` (:class:`StratifiedScheduler`) -- RAND's fixed-N
  estimator on variance-reduced joining orders: position-stratified
  cyclic-rotation blocks, antithetic reverse pairing, or both
  (:data:`repro.shapley.sampling.ORDERING_SAMPLERS`);
* ``ref_adaptive`` (:class:`AdaptiveScheduler`) -- adaptive-N with
  decision certification: the sample grows in pre-drawn waves until
  Hoeffding / empirical-Bernstein confidence intervals *separate the
  argmax* of the Fig. 3 fair-select decision, emitting a
  :class:`DecisionCertificate` per job start (budget spent, CI width,
  certified/uncertified);
* ``ref_hier`` (:class:`HierScheduler`) -- hierarchical block mode:
  exact Shapley inside <=10-org blocks, exact or sampled Shapley across
  blocks, lifting the ceiling to k = 50-200.

Online, ``ref_stratified`` and ``ref_adaptive`` are served like
``rand``: one service adapter steps the run their scheduler's
``make_run`` returns, the same call its batch ``run()`` makes.

:mod:`repro.approx.validate` holds the exact-oracle comparator the
agreement tests (and ``repro gap --policy``) score these policies with.
"""

from .adaptive import (
    AdaptiveRun,
    AdaptiveScheduler,
    CertificateSummary,
    DecisionCertificate,
    summarize_certificates,
)
from .hier import HierRun, HierScheduler, org_blocks
from .stratified import StratifiedScheduler
from .validate import agreement_report

__all__ = [
    "AdaptiveRun",
    "AdaptiveScheduler",
    "CertificateSummary",
    "DecisionCertificate",
    "HierRun",
    "HierScheduler",
    "StratifiedScheduler",
    "agreement_report",
    "org_blocks",
    "summarize_certificates",
]
