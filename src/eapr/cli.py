"""Command-line pipeline: ingest -> select-features -> project -> footprint
-> classify -> plot, runnable end to end or one stage at a time.

Each stage reads its predecessor's serialized artifacts from the output
directory, so a staged run and a monolithic `pipeline` run produce identical
bytes. All randomness derives from one global seed (config `seed`, overridden
by the EAPR_SEED environment variable, overridden by --seed).

How each artifact is written and read is `artifacts`' business. Every
module that imports numpy is imported inside the stages that run it, so
`eapr select` loads only this module, `artifacts` and `ranker`, and no numpy.
"""
from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import artifacts, ranker
from .artifacts import CliFailure

if TYPE_CHECKING:
    from . import classify, report as rpt, selection
    from .model import FeatureSubset, InstanceTable


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
    from . import classify, report as rpt, selection

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
# Stages


def stage_ingest(cfg: PipelineConfig, pool) -> None:
    """Parse and aggregate the input CSV into table.json."""
    import hashlib

    from . import ingest
    from .model import validate_table

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

    artifacts.write_table(cfg.output_dir, table, digest)


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
    from .model import FeatureSubset
    from .seeds import derive_seed

    table, _ = artifacts.read_table(cfg.output_dir)
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

    artifacts.write(
        cfg.output_dir,
        "selection.json",
        {
            "selected": list(final),
            "fitness": asdict(fitness),
            "frequencies": frequencies,
            "repeats": repeats_out,
        },
    )


def stage_project(cfg: PipelineConfig, pool) -> None:
    """Fit the 2D PCA model for the selected features."""
    from . import project
    from .model import FeatureSubset

    table, _ = artifacts.read_table(cfg.output_dir)
    selected = artifacts.read_selection(cfg.output_dir, table)["selected"]
    try:
        model, coords = project.fit_projection(table, FeatureSubset.of(selected))
    except (project.NonFiniteInput, ValueError) as exc:
        raise CliFailure("E_DEGENERATE", str(exc)) from exc

    artifacts.write(cfg.output_dir, "pca_model.json", artifacts.pca_to_dict(model))
    artifacts.write_coords(cfg.output_dir, table, coords)


def stage_footprint(cfg: PipelineConfig, pool) -> None:
    """Compute per-algorithm footprint geometry."""
    from . import footprint as fp

    table, _ = artifacts.read_table(cfg.output_dir)
    coords = artifacts.read_coords(cfg.output_dir, table)

    all_hull_area = fp.polygon_area(fp.convex_hull(coords.tolist()))
    norm = all_hull_area if all_hull_area > 0.0 else 1.0
    prints = {
        algorithm: fp.compute_footprint(coords, table.outcome_codes(algorithm), algorithm)
        for algorithm in sorted(table.algorithm_names)
    }
    overlap = [
        [0.0 if a.is_degenerate or b.is_degenerate else fp.footprint_overlap(a, b)
         for b in prints.values()]
        for a in prints.values()
    ]
    artifacts.write(
        cfg.output_dir,
        "footprints.json",
        {
            "algorithms": list(prints),
            "footprints": {a: artifacts.footprint_block(p, norm) for a, p in prints.items()},
            "overlap": overlap,
            "total_hull_area": all_hull_area,
        },
    )


def stage_classify(cfg: PipelineConfig, pool) -> None:
    """Train per-algorithm SVMs and selector metrics."""
    import numpy as np

    from . import classify
    from .seeds import derive_seed

    table, _ = artifacts.read_table(cfg.output_dir)
    coords = artifacts.read_coords(cfg.output_dir, table)
    stage_seed = derive_seed(cfg.seed, "classify")

    # Every algorithm's final fit, a one-split task over all its rows, and its
    # CV run as one batch. The fold models are never written, so the CV reuses
    # the final fit's config; its split seed is cv:<algorithm>.
    plan = []  # (algorithm, labels); no labels when degenerate
    tasks = []
    for algorithm in sorted(table.algorithm_names):
        idx, y = table.labeled_indices(algorithm)
        splits = classify.cv_splits(
            y, cfg.ga.cv_folds, derive_seed(stage_seed, f"cv:{algorithm}"))
        plan.append((algorithm, None if splits is None else y))
        if splits is not None:
            pts = coords[idx]
            config = replace(cfg.svm, seed=derive_seed(stage_seed, f"svm:{algorithm}"))
            every_row = [(np.arange(len(y)), np.ones(len(y), dtype=bool))]
            tasks += [(pts, y, every_row, config), (pts, y, splits, config)]
    results = iter(classify.cross_val_predict(tasks, pool))

    models: dict[str, dict] = {}
    cv_metrics: dict[str, dict] = {}
    train_metrics: dict[str, dict] = {}
    for algorithm, y in plan:
        if y is None:
            click.echo(f"warning: skipping degenerate labels for {algorithm}", err=True)
            empty = dict.fromkeys(f.name for f in fields(classify.ClassifierMetrics))
            cv_metrics[algorithm] = train_metrics[algorithm] = empty
            continue
        ([model], predicted), (_, held_out) = next(results), next(results)
        if not model.converged:
            click.echo(f"warning: selector SVM for {algorithm} did not converge in "
                       f"{cfg.svm.max_passes}*n pair updates (n = {len(y)})", err=True)
        models[algorithm] = artifacts.svm_to_dict(model)
        train_metrics[algorithm] = asdict(classify.compute_metrics(y, predicted))
        cv_metrics[algorithm] = asdict(classify.compute_metrics(y, held_out))

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

    artifacts.write(cfg.output_dir, "models.json", {"models": models})
    artifacts.write(
        cfg.output_dir,
        "metrics.json",
        {"cv": _aggregate(cv_metrics), "training": _aggregate(train_metrics)},
    )


def stage_plot(cfg: PipelineConfig, pool) -> None:
    """Render SVGs and assemble report.json."""
    from . import ingest, project, report as rpt

    out = cfg.output_dir
    table, digest = artifacts.read_table(out)
    sel = artifacts.read_selection(out, table)
    pca = artifacts.read_pca(out, sel["selected"])
    coords = artifacts.read_coords(out, table)
    foot, prints, footprint_metrics = artifacts.read_footprints(out, table)
    metrics = artifacts.read_metrics(out, table)

    for algorithm, print_ in prints.items():
        svg = rpt.render_footprint_svg(coords, table.outcome_codes(algorithm), print_, cfg.plot)
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

    report = {
        "provenance": {"input_digest": digest, "config": _config_echo(cfg)},
        "features": {
            "selected": pca.feature_names,
            "loadings": pca.loadings,
            "eigenvalues": pca.eigenvalues,
            "explained_variance_2d": pca.explained_variance_2d,
            "explained_variance_ratios": project.explained_variance(pca),
        },
        "selection": sel,
        "algorithms": foot["algorithms"],
        "footprints": footprint_metrics,
        "overlap": foot["overlap"],
        "selector": metrics,
        "instances": {"count": len(table), "datasets": Counter(table.dataset_tags)},
    }
    rpt.write_report(report, out / "report.json")


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


def cmd_pipeline(cfg: PipelineConfig, stages: tuple[str, ...] = tuple(_STAGE_FNS)) -> None:
    """Run the named stages in order, on one pool of fold fits."""
    from . import classify

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    with classify.fold_pool() as pool:
        for stage in stages:
            _STAGE_FNS[stage](cfg, pool)


# ---------------------------------------------------------------------------
# Selection of the best algorithm for a new feature vector


def rank_for_vector(model_dir: Path, vector: dict[str, float]) -> list[tuple[str, float]]:
    """Standardize, project and score one feature vector against saved models."""
    try:
        pca = artifacts.read(model_dir, "pca_model.json", artifacts.projection_from_dict)
        models = artifacts.read(model_dir, "models.json", artifacts.scorers_from_dict)
    except CliFailure as failure:
        raise CliFailure(
            "E_MODEL", f"missing or corrupt model files in {model_dir}: {failure.__cause__}"
        ) from failure
    if not models:
        raise CliFailure("E_MODEL", "no algorithm models present")

    known = set(pca.features) | set(pca.dropped)
    unknown = set(vector) - known
    if unknown:
        raise CliFailure("E_MODEL", f"unknown features: {sorted(unknown)}")
    missing = set(pca.features) - set(vector)
    if missing:
        raise CliFailure("E_MODEL", f"missing features: {sorted(missing)}")

    try:
        point = ranker.project(pca, [vector[n] for n in pca.features])
        ranked = ranker.rank(models, point)
        finite = all(map(math.isfinite, point)) and all(math.isfinite(v) for _, v in ranked)
    except ArithmeticError:  # a zero std, or an overflow that floats raise on
        finite = False
    if not finite:
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


def _run_command(name: str, help_text: str, stages: tuple[str, ...]) -> None:
    """Register command ``name``, which runs ``stages`` by ``cmd_pipeline``."""
    @main.command(name=name, help=help_text)
    @_shared_options
    def _cmd(config_path, input_path, output_dir, seed, repeats):
        def run():
            cfg = _make_config(config_path, input_path, output_dir, seed, repeats)
            cmd_pipeline(cfg, stages)
            if "plot" in stages:
                click.echo(f"report written to {cfg.output_dir / 'report.json'}")
        _guarded(run)


_run_command("pipeline", "Run every stage end to end.", tuple(_STAGE_FNS))
for _name, _fn in _STAGE_FNS.items():
    _run_command(_name, _fn.__doc__, (_name,))


@main.command()
@click.option("--models", "model_dir", type=click.Path(), required=True,
              help="Directory holding pca_model.json and models.json.")
def select(model_dir):
    """Rank algorithms for a feature vector given as name,value lines on stdin."""
    def run():
        try:
            text = click.get_binary_stream("stdin").read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CliFailure("E_MODEL", f"stdin is not UTF-8: {exc}") from exc
        click.echo(cmd_select(Path(model_dir), text), nl=False)
    _guarded(run)


if __name__ == "__main__":
    main()
