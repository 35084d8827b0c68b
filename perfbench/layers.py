"""Per-layer metrics derived from one traced run's spans.

A layer is a module of ``src/eapr``. Pipeline numbers come from the subtree
of the ``cli.cmd_pipeline`` span; select-path numbers from the
``cli.rank_for_vector`` spans made after it. A span's self time is its
duration minus the durations of its direct children, so the per-module self
times of the pipeline subtree add up to the ``cli.cmd_pipeline`` span.
"""
from __future__ import annotations

import statistics

STAGES = ("ingest", "select-features", "project", "footprint", "classify", "plot")
MODULES = (
    "cli", "ingest", "model", "selection", "classify", "project", "footprint", "report", "seeds",
)
RENDER = ("report.render_footprint_svg", "report.render_feature_svg", "report.render_dataset_svg")

# Metrics that must repeat exactly across runs of one seed.
COUNTS = (
    "selection.evaluations",
    "selection.cache_hit_ratio",
    "classify.fitness_svm_calls",
    "classify.fitness_train_n",
    "classify.fitness_converged_ratio",
    "classify.selector_svm_calls",
    "classify.selector_converged_ratio",
    "ingest.rows_in",
    "ingest.rows_out",
    "project.symmetric_eig_calls",
    "footprint.convex_hull_calls",
    "footprint.convex_intersection_calls",
    "report.svg_bytes",
)


def stage_span(stage: str) -> str:
    return "cli.stage_" + stage.replace("-", "_")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], ga_budget: int) -> dict[str, float]:
    """``ga_budget`` is population x (generations + 1) x repeats: the
    evaluations ``run_ga`` would make without its fitness cache."""
    n = len(spans)
    root = next(i for i, s in enumerate(spans) if s[0] == "cli.cmd_pipeline")
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    in_pipe = [False] * n
    fitness = [False] * n  # inside selection.evaluate_subset
    in_ga = [False] * n  # inside selection.run_ga
    # A span is appended when its call starts, so parents precede children.
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_pipe[i] = in_pipe[parent]
            fitness[i] = fitness[parent] or spans[parent][0] == "selection.evaluate_subset"
            in_ga[i] = in_ga[parent] or spans[parent][0] == "selection.run_ga"
        in_pipe[i] = in_pipe[i] or i == root

    by_name: dict[str, list[int]] = {}
    for i in range(n):
        if in_pipe[i]:
            by_name.setdefault(spans[i][0], []).append(i)

    def total(name: str, keep=lambda i: True) -> float:
        return sum(dur[i] for i in by_name.get(name, ()) if keep(i))

    def calls(name: str, keep=lambda i: True) -> list[int]:
        return [i for i in by_name.get(name, ()) if keep(i)]

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"cli.stage.{stage}_s"] = total(stage_span(stage))
    self_time = {mod: 0.0 for mod in MODULES}
    for i in range(n):
        if in_pipe[i]:
            mod = spans[i][0].split(".", 1)[0]
            self_time[mod] = self_time.get(mod, 0.0) + dur[i] - child[i]
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_time[mod]
    m["trace.stage_sum_s"] = sum(m[f"cli.stage.{s}_s"] for s in STAGES)
    m["trace.cmd_pipeline_s"] = dur[root]

    evals = calls("selection.evaluate_subset")
    m["selection.run_ga_s"] = total("selection.run_ga")
    m["selection.evaluations"] = len(evals)
    m["selection.evaluate_subset_ms"] = (
        1000.0 * statistics.median(dur[i] for i in evals) if evals else 0.0
    )
    ga_evals = sum(1 for i in evals if in_ga[i])
    m["selection.cache_hit_ratio"] = 1.0 - _ratio(ga_evals, ga_budget)

    for use, keep in (("fitness", lambda i: fitness[i]), ("selector", lambda i: not fitness[i])):
        svms = calls("classify.train_svm", keep)
        m[f"classify.{use}_svm_s"] = sum(dur[i] for i in svms)
        m[f"classify.{use}_svm_calls"] = len(svms)
        m[f"classify.{use}_converged_ratio"] = _ratio(
            sum(spans[i][4]["converged"] for i in svms), len(svms)
        )
        if use == "fitness":
            m["classify.fitness_train_n"] = _ratio(sum(spans[i][4]["n"] for i in svms), len(svms))
    m["classify.cross_validate_s"] = total("classify.cross_validate")
    m["classify.decision_values_s"] = total("classify.decision_values", lambda i: not fitness[i])

    m["ingest.parse_s"] = total("ingest.parse_instance_table")
    m["ingest.aggregate_s"] = total("ingest.aggregate_rows")
    m["ingest.rows_in"] = sum(spans[i][4]["rows"] for i in calls("ingest.parse_instance_table"))
    m["ingest.rows_out"] = sum(spans[i][4]["rows"] for i in calls("ingest.aggregate_rows"))
    m["model.validate_s"] = total("model.validate_table")

    m["project.fit_pca_s"] = total("project.fit_pca")
    m["project.symmetric_eig_s"] = total("project.symmetric_eig")
    m["project.symmetric_eig_calls"] = len(calls("project.symmetric_eig"))

    m["footprint.compute_footprint_s"] = total("footprint.compute_footprint")
    m["footprint.convex_hull_s"] = total("footprint.convex_hull")
    m["footprint.convex_hull_calls"] = len(calls("footprint.convex_hull"))
    m["footprint.convex_intersection_s"] = total("footprint.convex_intersection")
    m["footprint.convex_intersection_calls"] = len(calls("footprint.convex_intersection"))
    m["footprint.overlap_s"] = total("footprint.footprint_overlap")

    m["report.render_svg_s"] = sum(total(name) for name in RENDER)
    m["report.svg_bytes"] = sum(spans[i][4]["bytes"] for name in RENDER for i in calls(name))
    m["report.write_report_s"] = total("report.write_report")

    # Select path: each rank_for_vector span holds one select_aprt child.
    aprt = {spans[j][3]: dur[j] for j in range(n) if spans[j][0] == "classify.select_aprt"}
    load_ms, aprt_ms = [], []
    for i in range(n):
        if spans[i][0] == "cli.rank_for_vector" and not in_pipe[i]:
            load_ms.append(1000.0 * (dur[i] - aprt.get(i, 0.0)))
            aprt_ms.append(1000.0 * aprt.get(i, 0.0))
    m["cli.model_load_ms"] = statistics.median(load_ms) if load_ms else 0.0
    m["classify.select_aprt_ms"] = statistics.median(aprt_ms) if aprt_ms else 0.0
    return m
