"""Command-line pipeline: ingest -> select-features -> project -> footprint
-> classify -> plot, runnable end to end or one stage at a time.

Each stage reads its predecessor's serialized artifacts from the output
directory, so a staged run and a monolithic `pipeline` run produce identical
bytes. All randomness derives from one global seed (config `seed`, overridden
by the EAPR_SEED environment variable, overridden by --seed).

The stage-only modules are imported inside the stages, so `eapr select`
loads only this module, `model`, `project` and `classify`.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import click
import numpy as np

from . import classify, project
from .model import OUTCOME_CODES, FeatureSubset, InstanceTable, json_text, validate_table

if TYPE_CHECKING:
    from . import footprint as fp, report as rpt, selection

# Artifact -> the stage that writes it.
_ARTIFACTS = {
    "table.json": "ingest",
    "selection.json": "select-features",
    "pca_model.json": "project",
    "coordinates.json": "project",
    "footprints.json": "footprint",
    "models.json": "classify",
    "metrics.json": "classify",
}


class CliFailure(Exception):
    """Carries a machine-parsable error code; printed as `CODE detail`."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code} {detail}".strip())
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class PipelineConfig:
    input_path: Path
    output_dir: Path
    ga: selection.GaConfig
    svm: classify.SvmConfig
    plot: rpt.PlotSpec
    repeats: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def _word_or(word: str, meaning, cast):
    """Parser for a value that is either the keyword `word` or a `cast` literal."""
    return lambda text: meaning if text == word else cast(text)


# Config key -> (PipelineConfig section or None for a top-level field, field,
# parser). A key left unset keeps the default of its dataclass.
_CONFIG_KEYS = {
    "input": (None, "input_path", str),
    "output": (None, "output_dir", str),
    "seed": (None, "seed", int),
    "repeats": (None, "repeats", int),
    "ga.population": ("ga", "population_size", int),
    "ga.generations": ("ga", "generations", int),
    "ga.crossover": ("ga", "crossover_rate", float),
    "ga.mutation": ("ga", "mutation_rate", _word_or("auto", None, float)),
    "ga.tournament": ("ga", "tournament_size", int),
    "ga.min_k": ("ga", "min_k", int),
    "ga.max_k": ("ga", "max_k", int),
    "ga.cv_folds": ("ga", "cv_folds", int),
    "svm.kernel": ("svm", "kernel", str),
    "svm.c": ("svm", "C", float),
    "svm.gamma": ("svm", "gamma", _word_or("median", "median-heuristic", float)),
    "svm.tolerance": ("svm", "tolerance", float),
    "svm.max_passes": ("svm", "max_passes", int),
    "plot.width": ("plot", "width", int),
    "plot.height": ("plot", "height", int),
    "plot.margin": ("plot", "margin", int),
    "plot.point_radius": ("plot", "point_radius", float),
    "plot.palette": ("plot", "palette", str),
}


def parse_config_file(path: Path) -> dict[str, str]:
    """Flat `key=value` lines with dotted keys; `#` starts a comment."""
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliFailure("E_IO", f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliFailure("E_PARSE", f"config is not UTF-8: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliFailure("E_PARSE", f"config line {line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise CliFailure("E_PARSE", f"config line {line_no}: unknown key {key!r}")
        values[key] = value
    return values


def build_config(
    file_values: dict[str, str],
    input_path: str | None = None,
    output_dir: str | None = None,
    seed: int | None = None,
    repeats: int | None = None,
    env_seed: str | None = None,
) -> PipelineConfig:
    """Merge config sources: CLI flag > EAPR_SEED env > config file > default."""
    from . import report as rpt, selection

    texts = [(key, text, f"config key {key}") for key, text in file_values.items()]
    if env_seed is not None:
        texts.append(("seed", env_seed, "EAPR_SEED"))
    sections: dict[str | None, dict] = {None: {}, "ga": {}, "svm": {}, "plot": {}}
    for key, text, origin in texts:
        section, field, parse = _CONFIG_KEYS[key]
        try:
            sections[section][field] = parse(text)
        except ValueError:
            raise CliFailure("E_PARSE", f"{origin}: bad value {text!r}") from None

    top = sections[None]
    flags = {"input_path": input_path, "output_dir": output_dir, "seed": seed, "repeats": repeats}
    top.update((field, flag) for field, flag in flags.items() if flag not in (None, ""))
    for field, key in (("input_path", "input"), ("output_dir", "output")):
        if not top.get(field):
            raise CliFailure("E_PARSE", f"no {key} path given (flag --{key} or config `{key}`)")
        top[field] = Path(top[field])
    try:
        return PipelineConfig(
            ga=selection.GaConfig(**sections["ga"]),
            svm=classify.SvmConfig(**sections["svm"]),
            plot=rpt.PlotSpec(**sections["plot"]),
            **top,
        )
    except ValueError as exc:
        raise CliFailure("E_PARSE", str(exc)) from exc


def _config_echo(cfg: PipelineConfig) -> dict:
    """The run's settings for report provenance: every key but paths and plot."""
    echo = {}
    for key, (section, field, _) in _CONFIG_KEYS.items():
        if section != "plot" and key not in ("input", "output"):
            value = getattr(getattr(cfg, section) if section else cfg, field)
            echo[key] = "auto" if value is None else value
    return echo


# ---------------------------------------------------------------------------
# Artifact helpers


def _write_json(path: Path, data: dict) -> bytes:
    """Write one artifact and return its bytes."""
    raw = (json_text(data) + "\n").encode("utf-8")
    path.write_bytes(raw)
    return raw


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _parse_json(raw: bytes):
    return json.loads(raw.decode("utf-8"), parse_constant=_no_constant)


def _read_json(out_dir: Path, name: str, decode=lambda data: data, parse=_parse_json):
    """Load one artifact: parse its bytes, then decode the result. A missing,
    unreadable, malformed (NaN or Infinity included) or stale file fails as
    `E_STAGE <stage that writes it>`."""
    try:
        return decode(parse((out_dir / name).read_bytes()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliFailure("E_STAGE", _ARTIFACTS[name]) from exc


# Outcome code <-> its table.json text, "GOOD", "BAD" or "MISSING".
_OUTCOME_TEXT = {code: outcome.value for outcome, code in OUTCOME_CODES.items()}
_OUTCOME_CODE = {text: code for code, text in _OUTCOME_TEXT.items()}


def _table_to_dict(table: InstanceTable, digest: str) -> dict:
    algorithms = table.algorithm_names
    return {
        "input_digest": digest,
        "feature_names": list(table.feature_names),
        "algorithm_names": list(algorithms),
        "rows": [
            {
                "id": row_id,
                "dataset": tag,
                "features": features,
                "outcomes": {a: _OUTCOME_TEXT[c] for a, c in zip(algorithms, codes)},
            }
            for row_id, tag, features, codes in zip(
                table.instance_ids,
                table.dataset_tags,
                table.features.tolist(),
                table.outcomes.tolist(),
            )
        ],
    }


def _table_from_dict(data: dict) -> tuple[InstanceTable, str]:
    rows = data["rows"]
    algorithms = data["algorithm_names"]
    table = InstanceTable(
        data["feature_names"],
        algorithms,
        [r["id"] for r in rows],
        [r["dataset"] for r in rows],
        [r["features"] for r in rows],
        [[_OUTCOME_CODE[r["outcomes"][a]] for a in algorithms] for r in rows],
    )
    return table, data["input_digest"]


# The last table.json this process wrote or decoded: [sha256 of its bytes,
# (table, input digest)]. Mutated in place, so no module binding ever changes.
_TABLE_MEMO: list = [None, None]


def _load_table(out_dir: Path) -> tuple[InstanceTable, str]:
    """Read table.json; decode it unless its sha256 is the memo's."""
    import hashlib

    def parse(raw: bytes) -> tuple[InstanceTable, str]:
        key = hashlib.sha256(raw).digest()
        if _TABLE_MEMO[0] != key:
            _TABLE_MEMO[:] = key, _table_from_dict(_parse_json(raw))
        return _TABLE_MEMO[1]

    return _read_json(out_dir, "table.json", parse=parse)


def _load_coords(out_dir: Path, table: InstanceTable) -> np.ndarray:
    """The projected points; coordinates of another table's rows are stale."""

    def decode(data: dict) -> np.ndarray:
        if data["ids"] != list(table.instance_ids):
            raise ValueError("coordinates belong to another table")
        return np.array(data["coords"], dtype=float).reshape(-1, 2)

    return _read_json(out_dir, "coordinates.json", decode)


# ---------------------------------------------------------------------------
# Stages


def stage_ingest(cfg: PipelineConfig, pool) -> None:
    """Parse and aggregate the input CSV into table.json."""
    import hashlib

    from . import ingest

    try:
        raw = cfg.input_path.read_bytes()
    except OSError as exc:
        raise CliFailure("E_IO", str(exc)) from exc
    digest = hashlib.sha256(raw).hexdigest()

    try:
        table = ingest.parse_instance_table(raw)
        table = ingest.aggregate_rows(table)
    except ingest.IngestError as exc:
        raise CliFailure("E_PARSE", str(exc)) from exc

    violations = validate_table(table)
    bad_rows = {v.row for v in violations if v.rule == "non-finite feature"}
    if bad_rows:
        click.echo(
            f"warning: dropping {len(bad_rows)} row(s) with non-finite features: "
            + ", ".join(sorted(bad_rows)),
            err=True,
        )
        table = table.take(
            i for i, row_id in enumerate(table.instance_ids) if row_id not in bad_rows
        )
        violations = validate_table(table)
    if violations:
        first = violations[0]
        degenerate = first.rule in ("too few rows", "too few features")
        code = "E_DEGENERATE" if degenerate else "E_PARSE"
        raise CliFailure(code, f"{len(violations)} violation(s), first: {first}")

    written = _write_json(cfg.output_dir / "table.json", _table_to_dict(table, digest))
    _TABLE_MEMO[:] = hashlib.sha256(written).digest(), (table, digest)


def _final_subset(
    winners: list[tuple[FeatureSubset, selection.FitnessValue]],
    table: InstanceTable,
    ga: selection.GaConfig,
) -> tuple[tuple[str, ...], dict[str, float]]:
    """Frequency vote over repeat winners: keep features chosen in > half the
    repeats, clamped to [min_k, max_k] by frequency rank (ties by name)."""
    counts: dict[str, int] = {name: 0 for name in table.feature_names}
    for subset, _ in winners:
        for name in subset.selected:
            counts[name] += 1
    frequencies = {n: counts[n] / len(winners) for n in table.feature_names if counts[n]}
    ranked = sorted(frequencies, key=lambda n: (-frequencies[n], n))
    max_k = min(ga.max_k, len(table.feature_names))
    chosen = [n for n in ranked if frequencies[n] > 0.5][:max_k]
    for name in ranked:
        if len(chosen) >= ga.min_k:
            break
        if name not in chosen:
            chosen.append(name)
    return tuple(sorted(chosen)), frequencies


def stage_select_features(cfg: PipelineConfig, pool) -> None:
    """Run the GA feature search over table.json."""
    from . import selection
    from .seeds import derive_seed

    table, _ = _load_table(cfg.output_dir)
    stage_seed = derive_seed(cfg.seed, "select-features")

    winners: list[tuple[FeatureSubset, selection.FitnessValue]] = []
    repeats_out = []
    try:
        for r in range(cfg.repeats):
            ga = replace(cfg.ga, seed=derive_seed(stage_seed, f"repeat:{r}"))
            result = selection.run_ga(table, ga, pool)
            winners.append((result.best, result.best_fitness))
            repeats_out.append(
                {
                    "features": list(result.best.sorted_names),
                    "accuracy": result.best_fitness.mean_cv_accuracy,
                    "size": result.best_fitness.subset_size,
                    "history": [h.mean_cv_accuracy for h in result.history],
                }
            )
        final, frequencies = _final_subset(winners, table, cfg.ga)
        fitness = selection.evaluate_subset(
            table, FeatureSubset.of(final), cfg.ga, derive_seed(stage_seed, "final"), pool
        )
    except (selection.DegenerateLabels, ValueError) as exc:
        raise CliFailure("E_DEGENERATE", str(exc)) from exc

    _write_json(
        cfg.output_dir / "selection.json",
        {
            "selected": list(final),
            "fitness": asdict(fitness),
            "frequencies": frequencies,
            "repeats": repeats_out,
        },
    )


def stage_project(cfg: PipelineConfig, pool) -> None:
    """Fit the 2D PCA model for the selected features."""
    table, _ = _load_table(cfg.output_dir)
    selected = _read_json(cfg.output_dir, "selection.json", lambda sel: sel["selected"])
    try:
        model, coords = project.fit_projection(table, FeatureSubset.of(selected))
    except (project.NonFiniteInput, ValueError) as exc:
        raise CliFailure("E_DEGENERATE", str(exc)) from exc

    _write_json(cfg.output_dir / "pca_model.json", project.model_to_dict(model))
    _write_json(
        cfg.output_dir / "coordinates.json",
        {
            "ids": list(table.instance_ids),
            "coords": [[float(a), float(b)] for a, b in coords],
        },
    )


# The footprints.json block fields holding hull vertices; the other fields,
# but "algorithm", are the metrics report.json carries.
_HULLS = ("good_hull", "bad_hull", "contradiction")


def _poly_points(poly: fp.ConvexPolygon) -> list[list[float]]:
    return [[float(x), float(y)] for x, y in poly.vertices]


def stage_footprint(cfg: PipelineConfig, pool) -> None:
    """Compute per-algorithm footprint geometry."""
    from . import footprint as fp

    table, _ = _load_table(cfg.output_dir)
    coords = _load_coords(cfg.output_dir, table)

    all_hull_area = fp.polygon_area(fp.convex_hull([(p[0], p[1]) for p in coords]))
    algorithms = sorted(table.algorithm_names)
    prints: dict[str, fp.Footprint] = {}
    blocks: dict[str, dict] = {}
    for algorithm in algorithms:
        labels = table.outcome_labels(algorithm)
        print_ = fp.compute_footprint(coords, labels, algorithm)
        prints[algorithm] = print_
        norm = all_hull_area if all_hull_area > 0.0 else 1.0
        blocks[algorithm] = {
            "algorithm": algorithm,
            "area_good": print_.area_good,
            "area_net": print_.area_net,
            "purity": print_.purity,
            "density": print_.density,
            "area_good_norm": print_.area_good / norm,
            "area_net_norm": print_.area_net / norm,
            "degenerate": print_.is_degenerate,
            "good_hull": _poly_points(print_.good_hull),
            "bad_hull": _poly_points(print_.bad_hull),
            "contradiction": _poly_points(print_.contradiction),
        }

    overlap = []
    for a in algorithms:
        row = []
        for b in algorithms:
            if prints[a].is_degenerate or prints[b].is_degenerate:
                row.append(0.0)
            else:
                row.append(fp.footprint_overlap(prints[a], prints[b]))
        overlap.append(row)

    _write_json(
        cfg.output_dir / "footprints.json",
        {
            "algorithms": algorithms,
            "footprints": blocks,
            "overlap": overlap,
            "total_hull_area": all_hull_area,
        },
    )


def stage_classify(cfg: PipelineConfig, pool) -> None:
    """Train per-algorithm SVMs and selector metrics."""
    from .seeds import derive_seed

    table, _ = _load_table(cfg.output_dir)
    coords = _load_coords(cfg.output_dir, table)
    stage_seed = derive_seed(cfg.seed, "classify")

    # Every algorithm's final fit and CV fold fits run as one batch of jobs.
    plan = []  # (algorithm, labels, CV held-out labels); no labels when degenerate
    jobs = []
    for algorithm in sorted(table.algorithm_names):
        idx, y = table.labeled_indices(algorithm)
        if min(int(np.sum(y == 1.0)), int(np.sum(y == -1.0))) < 2:
            plan.append((algorithm, None, None))
            continue
        pts = coords[idx]
        svm_config = replace(cfg.svm, seed=derive_seed(stage_seed, f"svm:{algorithm}"))
        cv_config = replace(cfg.svm, seed=derive_seed(stage_seed, f"cv:{algorithm}"))
        held_out, cv_jobs = classify._cv_jobs(pts, y, cfg.ga.cv_folds, cv_config)
        plan.append((algorithm, y, held_out))
        jobs += [(pts, y, pts, svm_config), *cv_jobs]
    results = iter(pool(classify._fit_fold, jobs))

    models: dict[str, dict] = {}
    cv_metrics: dict[str, dict] = {}
    train_metrics: dict[str, dict] = {}
    for algorithm, y, held_out in plan:
        if y is None:
            click.echo(f"warning: skipping degenerate labels for {algorithm}", err=True)
            empty = dict.fromkeys(f.name for f in fields(classify.ClassifierMetrics))
            cv_metrics[algorithm] = train_metrics[algorithm] = empty
            continue
        model, predicted = next(results)
        if not model.converged:
            click.echo(f"warning: selector SVM for {algorithm} did not converge in "
                       f"{cfg.svm.max_passes}*n pair updates (n = {len(y)})", err=True)
        models[algorithm] = classify.model_to_dict(model)
        train_metrics[algorithm] = asdict(classify.compute_metrics(y, predicted))
        cv_results = [next(results) for _ in held_out]
        cv_metrics[algorithm] = asdict(classify._pooled_metrics(held_out, cv_results))

    if not models:
        raise CliFailure("E_DEGENERATE", "no algorithm has trainable labels")

    def _aggregate(block: dict[str, dict]) -> dict:
        defined = [m for m in block.values() if m["accuracy"] is not None]
        precs = [m["precision"] for m in defined if m["precision"] is not None]
        return {
            "per_algorithm": block,
            "accuracy": float(np.mean([m["accuracy"] for m in defined])),
            "precision": float(np.mean(precs)) if precs else None,
        }

    _write_json(cfg.output_dir / "models.json", {"models": models})
    _write_json(
        cfg.output_dir / "metrics.json",
        {"cv": _aggregate(cv_metrics), "training": _aggregate(train_metrics)},
    )


def stage_plot(cfg: PipelineConfig, pool) -> None:
    """Render SVGs and assemble report.json."""
    from . import footprint as fp, ingest, report as rpt

    out = cfg.output_dir
    table, digest = _load_table(out)
    sel = _read_json(out, "selection.json")
    pca = _read_json(out, "pca_model.json", project.model_from_dict)
    coords = _load_coords(out, table)
    foot = _read_json(out, "footprints.json")
    metrics = _read_json(out, "metrics.json")

    footprint_metrics = {}
    for algorithm in foot["algorithms"]:
        block = foot["footprints"][algorithm]
        args = {f.name: block[f.name] for f in fields(fp.Footprint)}
        args.update((h, fp.ConvexPolygon(tuple(map(tuple, block[h])))) for h in _HULLS)
        print_ = fp.Footprint(**args)
        footprint_metrics[algorithm] = {
            k: v for k, v in block.items() if k not in _HULLS and k != "algorithm"
        }
        svg = rpt.render_footprint_svg(
            coords, table.outcome_labels(algorithm), print_, cfg.plot
        )
        (out / f"footprint_{rpt.file_stem(algorithm)}.svg").write_text(svg, encoding="utf-8")

    for name in sel["selected"]:
        raw = table.feature_matrix([name])[:, 0]
        svg = rpt.render_feature_svg(
            coords,
            ingest.minmax_normalize(raw),
            cfg.plot,
            name=name,
            vmin=float(raw.min()),
            vmax=float(raw.max()),
        )
        (out / f"feature_{rpt.file_stem(name)}.svg").write_text(svg, encoding="utf-8")

    (out / "datasets.svg").write_text(
        rpt.render_dataset_svg(coords, table.dataset_tags, cfg.plot), encoding="utf-8"
    )

    ratios = project.explained_variance(pca)
    dataset_counts: dict[str, int] = {}
    for tag in table.dataset_tags:
        dataset_counts[tag] = dataset_counts.get(tag, 0) + 1
    analysis = rpt.AnalysisReport(
        provenance={"input_digest": digest, "config": _config_echo(cfg)},
        selected_features=tuple(pca.feature_names),
        loadings=tuple((float(a), float(b)) for a, b in pca.loadings),
        eigenvalues=tuple(float(v) for v in pca.eigenvalues),
        explained_variance_2d=pca.explained_variance_2d,
        explained_variance_ratios=tuple(float(r) for r in ratios),
        selection=sel,
        algorithm_names=tuple(foot["algorithms"]),
        footprints=footprint_metrics,
        overlap=tuple(tuple(row) for row in foot["overlap"]),
        selector=metrics,
        instances={"count": len(table), "datasets": dataset_counts},
    )
    rpt.write_report(analysis, out / "report.json")


# Stage -> its function. Each takes the config and the run's pool of fold
# fits (``classify.fold_pool``); only select-features and classify fit SVMs.
_STAGE_FNS = {
    "ingest": stage_ingest,
    "select-features": stage_select_features,
    "project": stage_project,
    "footprint": stage_footprint,
    "classify": stage_classify,
    "plot": stage_plot,
}


def cmd_stage(stage: str, cfg: PipelineConfig) -> None:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    with classify.fold_pool() as pool:
        _STAGE_FNS[stage](cfg, pool)


def cmd_pipeline(cfg: PipelineConfig) -> None:
    if not cfg.input_path.exists():
        raise CliFailure("E_IO", f"input not found: {cfg.input_path}")
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    with classify.fold_pool() as pool:
        for stage_fn in _STAGE_FNS.values():
            stage_fn(cfg, pool)


# ---------------------------------------------------------------------------
# Selection of the best algorithm for a new feature vector


def rank_for_vector(model_dir: Path, vector: dict[str, float]) -> list[tuple[str, float]]:
    """Standardize, project and score one feature vector against saved models."""
    try:
        pca = _read_json(model_dir, "pca_model.json", project.model_from_dict)
        models = _read_json(
            model_dir,
            "models.json",
            lambda data: {a: classify.model_from_dict(d) for a, d in data["models"].items()},
        )
    except CliFailure as failure:
        raise CliFailure(
            "E_MODEL", f"missing or corrupt model files in {model_dir}: {failure.__cause__}"
        ) from failure
    if not models:
        raise CliFailure("E_MODEL", "no algorithm models present")

    known = set(pca.feature_names) | set(pca.scaling.dropped_features)
    unknown = set(vector) - known
    if unknown:
        raise CliFailure("E_MODEL", f"unknown features: {sorted(unknown)}")
    missing = set(pca.feature_names) - set(vector)
    if missing:
        raise CliFailure("E_MODEL", f"missing features: {sorted(missing)}")

    raw = np.array([vector[n] for n in pca.feature_names], dtype=float)
    with np.errstate(all="ignore"):  # a huge value may overflow; rejected below
        point = project.project_features(pca, raw)
        ranked = classify.select_aprt(models, point)
    if not (np.isfinite(point).all() and all(math.isfinite(v) for _, v in ranked)):
        raise CliFailure("E_MODEL", "feature vector gives a non-finite projection or score")
    return ranked


def _parse_vector(text: str) -> dict[str, float]:
    vector: dict[str, float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        sep = "," if "," in line else "="
        if sep not in line:
            raise CliFailure("E_MODEL", f"stdin line {line_no}: expected name,value")
        name, value = (part.strip() for part in line.split(sep, 1))
        if name in vector:
            raise CliFailure("E_MODEL", f"stdin line {line_no}: duplicate feature {name!r}")
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise CliFailure("E_MODEL", f"stdin line {line_no}: bad value {value!r}")
        vector[name] = number
    if not vector:
        raise CliFailure("E_MODEL", "empty feature vector on stdin")
    return vector


def cmd_select(model_dir: Path, stdin_text: str) -> str:
    ranked = rank_for_vector(model_dir, _parse_vector(stdin_text))
    return "".join(
        f"{rank},{algorithm},{value:.6g}\n"
        for rank, (algorithm, value) in enumerate(ranked, start=1)
    )


# ---------------------------------------------------------------------------
# Click wiring


def _shared_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="Flat key=value config file.")(fn)
    fn = click.option("--input", "input_path", type=click.Path(), default=None,
                      help="Input CSV (overrides config).")(fn)
    fn = click.option("--output", "output_dir", type=click.Path(), default=None,
                      help="Output directory (overrides config).")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Global seed (overrides EAPR_SEED and config).")(fn)
    fn = click.option("--repeats", type=int, default=None,
                      help="Feature-learning repetitions (overrides config).")(fn)
    return fn


def _make_config(config_path, input_path, output_dir, seed, repeats) -> PipelineConfig:
    file_values = parse_config_file(Path(config_path)) if config_path else {}
    return build_config(
        file_values,
        input_path=input_path,
        output_dir=output_dir,
        seed=seed,
        repeats=repeats,
        env_seed=os.environ.get("EAPR_SEED"),
    )


def _guarded(fn):
    try:
        fn()
    except OSError as exc:  # reads map their own OSError: this is a failed mkdir or write
        click.echo(f"E_IO {exc.filename}: {exc.strerror}", err=True)
        sys.exit(1)
    except CliFailure as failure:
        click.echo(str(failure), err=True)
        sys.exit(1)


@click.group()
def main():
    """Map algorithm effectiveness across a 2D instance space and train a
    per-algorithm selector."""


@main.command()
@_shared_options
def pipeline(config_path, input_path, output_dir, seed, repeats):
    """Run every stage end to end."""
    def run():
        cfg = _make_config(config_path, input_path, output_dir, seed, repeats)
        cmd_pipeline(cfg)
        click.echo(f"report written to {cfg.output_dir / 'report.json'}")
    _guarded(run)


def _stage_command(stage_name: str, help_text: str):
    @main.command(name=stage_name, help=help_text)
    @_shared_options
    def _cmd(config_path, input_path, output_dir, seed, repeats):
        def run():
            cfg = _make_config(config_path, input_path, output_dir, seed, repeats)
            cmd_stage(stage_name, cfg)
        _guarded(run)
    return _cmd


for _name, _fn in _STAGE_FNS.items():
    _stage_command(_name, _fn.__doc__)


@main.command()
@click.option("--models", "model_dir", type=click.Path(), required=True,
              help="Directory holding pca_model.json and models.json.")
def select(model_dir):
    """Rank algorithms for a feature vector given as name,value lines on stdin."""
    def run():
        text = click.get_text_stream("stdin").read()
        click.echo(cmd_select(Path(model_dir), text), nl=False)
    _guarded(run)


if __name__ == "__main__":
    main()
