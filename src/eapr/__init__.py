"""Instance space analysis for algorithm portfolios.

Given a table of instances (feature vectors plus per-algorithm GOOD/BAD
outcomes), this package selects the most discriminating features, projects
instances to a 2D plane, computes per-algorithm footprints, and trains SVM
selectors that rank algorithms for new instances.
"""
from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it. ``from eapr import name``
# imports that submodule on first use (PEP 562), so importing the package, or
# ``eapr.cli`` for ``eapr select``, loads no module the caller does not run.
_EXPORTS = {
    **dict.fromkeys(
        ["Coordinates2D", "FeatureSubset", "InstanceTable", "Outcome", "Violation",
         "validate_table"], "model"),
    **dict.fromkeys(
        ["aggregate_rows", "minmax_normalize", "parse_instance_table"], "ingest"),
    **dict.fromkeys(
        ["PcaModel", "ScalingParams", "explained_variance", "fit_pca", "fit_projection",
         "standardize", "transform"], "project"),
    **dict.fromkeys(
        ["ConvexPolygon", "Footprint", "compute_footprint", "convex_hull",
         "convex_intersection", "footprint_overlap", "polygon_area"], "footprint"),
    **dict.fromkeys(
        ["ClassifierMetrics", "SvmModel", "cross_validate", "select_aprt", "train_svm"],
        "classify"),
    "SvmConfig": "ranker",
    **dict.fromkeys(
        ["FitnessValue", "GaConfig", "SelectionResult", "evaluate_subset", "run_ga"],
        "selection"),
    **dict.fromkeys(["PlotSpec", "write_report"], "report"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Nothing is cached in this module's globals: each name keeps its one
    # binding in its submodule, so a wrapper or patch put there shows here too.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
