"""Borrow completed-trial aggregate data into a target-trial analysis.

The pipeline has four stages: (1) a random-effects meta-regression on
arm-level summaries, (2) reconstruction of subject-level rows that match
each arm's reported moments, (3) importance weights from a
target-membership logistic model, (4) a weighted regression of the
treatment contrast with sandwich standard errors.  A Monte-Carlo harness
and a bundled renal-trial example exercise the whole chain.
"""

from .data import (Dataset, Summaries, dataset_from_arms, read_subjects, read_summaries,
                   write_subjects, write_summaries)
from .errors import ConfigError, DataError, MetaborrowError, NumericalError
from .estimate import (MEAT_KINDS, Contrast, WeightedFit, build_outcome_design,
                       estimate_univariate, fit_ols, fit_weighted_regression)
from .meta import MetaFit, fit_dl, meta_se
from .pipeline import Borrowed, PipelineConfig, borrow, run_pipeline
from .reconstruct import BORROW_MODES, ClampWarning, ReconstructionConfig, reconstruct_all
from .simulate import (ALLOCATIONS, COVARIATE_DISTS, MODEL_SPECS, CellResult,
                       EstimatorSummary, ReplicationResult, ScenarioConfig,
                       aggregate, generate_meta_trials, generate_target_trial,
                       run_cell, run_replication, write_cell_csv)
from .weights import (FeatureMap, LogisticFit, default_feature_map, fit_membership,
                      parse_feature_spec)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Summaries", "dataset_from_arms", "read_subjects", "read_summaries",
    "write_subjects", "write_summaries",
    "ConfigError", "DataError", "MetaborrowError", "NumericalError",
    "MEAT_KINDS", "Contrast", "WeightedFit", "build_outcome_design",
    "estimate_univariate", "fit_ols", "fit_weighted_regression",
    "MetaFit", "fit_dl", "meta_se",
    "Borrowed", "PipelineConfig", "borrow", "run_pipeline",
    "BORROW_MODES", "ClampWarning", "ReconstructionConfig", "reconstruct_all",
    "ALLOCATIONS", "COVARIATE_DISTS", "MODEL_SPECS", "CellResult",
    "EstimatorSummary", "ReplicationResult", "ScenarioConfig", "aggregate",
    "generate_meta_trials", "generate_target_trial", "run_cell",
    "run_replication", "write_cell_csv",
    "FeatureMap", "LogisticFit", "default_feature_map", "fit_membership", "parse_feature_spec",
    "__version__",
]
