"""repro — marginal release under local differential privacy.

A production-quality reproduction of Cormode, Kulkarni and Srivastava,
"Marginal Release Under Local Differential Privacy" (SIGMOD 2018).

The public API re-exports the pieces a typical user needs:

* the domain/marginal substrate (:class:`Domain`, :class:`MarginalTable`),
* the privacy budget (:class:`PrivacyBudget`),
* the six protocols (``InpRR``, ``InpPS``, ``InpHT``, ``MargRR``, ``MargPS``,
  ``MargHT``) plus the baselines (``InpEM``, ``InpOLH``, ``InpHTCMS``),
* synthetic datasets standing in for the paper's evaluation data, and
* the downstream analyses (chi-squared association tests, Chow–Liu trees and
  tree-structured Bayesian models).

Quickstart::

    import numpy as np
    from repro import InpHT, PrivacyBudget, make_taxi_dataset

    rng = np.random.default_rng(7)
    data = make_taxi_dataset(100_000, rng=rng)
    protocol = InpHT(PrivacyBudget(np.log(3)), max_width=2)
    estimator = protocol.run(data, rng=rng)
    print(estimator.query(["CC", "Tip"]))
"""

from .analysis import (
    AssociationComparison,
    ChowLiuTree,
    TreeBayesianModel,
    chi_squared_statistic,
    compare_association_tests,
    correlation_matrix,
    fit_chow_liu_tree,
    fit_tree_model,
    mutual_information,
    pairwise_mutual_information,
    private_pairwise_mutual_information,
    test_independence,
)
from .core import (
    Domain,
    MarginalTable,
    MarginalWorkload,
    PrivacyBudget,
    ReproError,
    ensure_rng,
    marginal_from_indices,
    marginal_operator,
    total_variation_distance,
)
from .datasets import (
    BinaryDataset,
    MovieLensDataGenerator,
    TaxiDataGenerator,
    make_movielens_dataset,
    make_taxi_dataset,
    skewed_dataset,
    uniform_dataset,
)
from .protocols import (
    Accumulator,
    BASELINE_PROTOCOL_NAMES,
    CORE_PROTOCOL_NAMES,
    InpEM,
    InpHT,
    InpHTCMS,
    InpOLH,
    InpPS,
    InpRR,
    MargHT,
    MargPS,
    MargRR,
    MarginalEstimator,
    MarginalReleaseProtocol,
    available_protocols,
    make_protocol,
)
from .execution import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    available_executors,
    make_executor,
)
from .extensions import InpES
from .heavyhitters import (
    DiscoveryResult,
    HeavyHitter,
    HeavyHitterEstimator,
    HeavyHitters,
    exact_top_k,
    precision_recall,
)
from .service import (
    AggregationSession,
    ProtocolSpec,
    decode_reports,
    encode_reports,
    iter_report_frames,
)
from .postprocess import (
    SimplexProjectedEstimator,
    clip_and_normalize,
    project_to_simplex,
)
from .theory import table2_summary

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Domain",
    "PrivacyBudget",
    "MarginalTable",
    "MarginalWorkload",
    "marginal_operator",
    "marginal_from_indices",
    "total_variation_distance",
    "ensure_rng",
    "ReproError",
    # datasets
    "BinaryDataset",
    "make_taxi_dataset",
    "TaxiDataGenerator",
    "make_movielens_dataset",
    "MovieLensDataGenerator",
    "uniform_dataset",
    "skewed_dataset",
    # protocols
    "MarginalReleaseProtocol",
    "Accumulator",
    "MarginalEstimator",
    "InpRR",
    "InpPS",
    "InpHT",
    "MargRR",
    "MargPS",
    "MargHT",
    "InpEM",
    "InpOLH",
    "InpHTCMS",
    "make_protocol",
    "available_protocols",
    "CORE_PROTOCOL_NAMES",
    "BASELINE_PROTOCOL_NAMES",
    # analysis
    "chi_squared_statistic",
    "test_independence",
    "compare_association_tests",
    "AssociationComparison",
    "correlation_matrix",
    "mutual_information",
    "pairwise_mutual_information",
    "private_pairwise_mutual_information",
    "ChowLiuTree",
    "fit_chow_liu_tree",
    "TreeBayesianModel",
    "fit_tree_model",
    # collection service
    "ProtocolSpec",
    "AggregationSession",
    "encode_reports",
    "decode_reports",
    "iter_report_frames",
    # execution backends
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "available_executors",
    # extensions and post-processing
    "InpES",
    "SimplexProjectedEstimator",
    "project_to_simplex",
    "clip_and_normalize",
    # heavy-hitter discovery
    "HeavyHitters",
    "HeavyHitterEstimator",
    "HeavyHitter",
    "DiscoveryResult",
    "exact_top_k",
    "precision_recall",
    # theory
    "table2_summary",
]
