"""Instance space analysis for algorithm portfolios.

Given a table of instances (feature vectors plus per-algorithm GOOD/BAD
outcomes), this package selects the most discriminating features, projects
instances to a 2D plane, computes per-algorithm footprints, and trains SVM
selectors that rank algorithms for new instances.
"""

from .model import (
    Coordinates2D,
    FeatureSubset,
    InstanceTable,
    Outcome,
    Violation,
    validate_table,
)
from .ingest import (
    ColumnSchema,
    MinMaxParams,
    ScalingParams,
    aggregate_rows,
    minmax_normalize,
    parse_instance_table,
    standardize,
)
from .project import PcaModel, explained_variance, fit_pca, fit_projection, transform
from .footprint import (
    ConvexPolygon,
    Footprint,
    compute_footprint,
    convex_hull,
    convex_intersection,
    footprint_overlap,
    polygon_area,
)
from .classify import (
    ClassifierMetrics,
    SvmConfig,
    SvmModel,
    cross_validate,
    predict,
    select_aprt,
    train_svm,
)
from .selection import (
    FitnessValue,
    GaConfig,
    SelectionResult,
    evaluate_subset,
    run_ga,
    tie_break,
)
from .report import AnalysisReport, PlotSpec, write_report

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ClassifierMetrics",
    "ColumnSchema",
    "ConvexPolygon",
    "Coordinates2D",
    "FeatureSubset",
    "FitnessValue",
    "Footprint",
    "GaConfig",
    "InstanceTable",
    "MinMaxParams",
    "Outcome",
    "PcaModel",
    "PlotSpec",
    "ScalingParams",
    "SelectionResult",
    "SvmConfig",
    "SvmModel",
    "Violation",
    "aggregate_rows",
    "compute_footprint",
    "convex_hull",
    "convex_intersection",
    "cross_validate",
    "evaluate_subset",
    "explained_variance",
    "fit_pca",
    "fit_projection",
    "footprint_overlap",
    "minmax_normalize",
    "parse_instance_table",
    "polygon_area",
    "predict",
    "run_ga",
    "select_aprt",
    "standardize",
    "tie_break",
    "train_svm",
    "transform",
    "validate_table",
    "write_report",
]
