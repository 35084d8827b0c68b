"""Command-line pipeline: ingest -> select-features -> project -> footprint
-> classify -> plot, runnable end to end or one stage at a time.

Each stage reads its predecessor's serialized artifacts from the output
directory, so a staged run and a monolithic `pipeline` run produce identical
bytes. All randomness derives from one global seed (config `seed`, overridden
by the EAPR_SEED environment variable, overridden by --seed).

How each artifact is written and read is `artifacts`' business. Every
module that imports numpy is imported inside the stages that run it:
`PipelineConfig` is a `ranker.Checked` NamedTuple, like every record with an
invariant. The `select` command is `query`'s, which `eapr select` runs
without this module; `main` hands it a parsed `select` too.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import artifacts, query, ranker
from .codec import CliFailure
from .query import cmd_select, rank_for_vector  # bound here too: `cli.cmd_select` is query's

if TYPE_CHECKING:
    from . import classify, report as rpt, selection
    from .model import FeatureSubset, InstanceTable


class _PipelineConfigFields(NamedTuple):
    input_path: Path
    output_dir: Path
    ga: selection.GaConfig
    svm: classify.SvmConfig
    plot: rpt.PlotSpec
    repeats: int = 1
    seed: int = 0


class PipelineConfig(ranker.Checked, _PipelineConfigFields):
    __slots__ = ()

    def _check(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def _word_or(word: str, meaning, cast):
    """Parser for a value that is either the keyword `word` or a `cast` literal."""
    return lambda text: meaning if text == word else cast(text)


# Config key -> (PipelineConfig section or None for a top-level field, field,
# parser). A key left unset keeps the default of its record.
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
    """Merge config sources: CLI flag > EAPR_SEED env > config file > default.
    The EAPR_SEED text is parsed only when no seed flag is given."""
    from . import classify, report as rpt, selection

    texts = [(key, text, f"config key {key}") for key, text in file_values.items()]
    if env_seed is not None and seed is None:
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


def stage_ingest(cfg: PipelineConfig) -> None:
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
        print(
            f"warning: dropping {len(bad_rows)} row(s) with non-finite features: "
            + ", ".join(sorted(bad_rows)),
            file=sys.stderr,
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


def stage_select_features(cfg: PipelineConfig) -> None:
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
            ga = cfg.ga._replace(seed=derive_seed(stage_seed, f"repeat:{r}"))
            result = selection.run_ga(table, ga)
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
            table, FeatureSubset.of(final), cfg.ga, derive_seed(stage_seed, "final")
        )
    except (selection.DegenerateLabels, ValueError) as exc:
        raise CliFailure("E_DEGENERATE", str(exc)) from exc

    artifacts.write(
        cfg.output_dir,
        "selection.json",
        {
            "selected": list(final),
            "fitness": fitness._asdict(),
            "frequencies": frequencies,
            "repeats": repeats_out,
        },
    )


def stage_project(cfg: PipelineConfig) -> None:
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


def stage_footprint(cfg: PipelineConfig) -> None:
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


def stage_classify(cfg: PipelineConfig) -> None:
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
            config = cfg.svm._replace(seed=derive_seed(stage_seed, f"svm:{algorithm}"))
            every_row = [(np.arange(len(y)), np.ones(len(y), dtype=bool))]
            tasks += [(pts, y, every_row, config), (pts, y, splits, config)]
    results = iter(classify.cross_val_predict(tasks))

    models: dict[str, dict] = {}
    cv_metrics: dict[str, dict] = {}
    train_metrics: dict[str, dict] = {}
    for algorithm, y in plan:
        if y is None:
            print(f"warning: skipping degenerate labels for {algorithm}", file=sys.stderr)
            empty = dict.fromkeys(classify.ClassifierMetrics._fields)
            cv_metrics[algorithm] = train_metrics[algorithm] = empty
            continue
        ([model], predicted), (_, held_out) = next(results), next(results)
        if not model.converged:
            print(f"warning: selector SVM for {algorithm} did not converge in "
                  f"{cfg.svm.max_passes}*n pair updates (n = {len(y)})", file=sys.stderr)
        models[algorithm] = artifacts.svm_to_dict(model)
        train_metrics[algorithm] = classify.compute_metrics(y, predicted)._asdict()
        cv_metrics[algorithm] = classify.compute_metrics(y, held_out)._asdict()

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


def stage_plot(cfg: PipelineConfig) -> None:
    """Render SVGs and assemble report.json."""
    from . import classify, ingest, project, report as rpt

    out = cfg.output_dir
    table, digest = artifacts.read_table(out)
    sel = artifacts.read_selection(out, table)
    pca = artifacts.read_pca(out, sel["selected"])
    coords = artifacts.read_coords(out, table)
    prints, footprint_metrics, overlap = artifacts.read_footprints(out, table)
    metrics = artifacts.read_metrics(out, table)

    # Every SVG draws the same points; the batch's children inherit them.
    layer = rpt.point_layer(coords, cfg.plot)

    def feature_svg(name: str) -> str:
        raw = table.feature_matrix([name])[:, 0]
        return rpt.render_feature_svg(
            layer,
            ingest.minmax_normalize(raw),
            name=name,
            vmin=float(raw.min()),
            vmax=float(raw.max()),
        )

    # (file name, its render) of every SVG; they render as one batch and are
    # written in this order.
    renders = [
        (f"footprint_{rpt.file_stem(algorithm)}.svg",
         partial(rpt.render_footprint_svg, layer, table.outcome_codes(algorithm), print_))
        for algorithm, print_ in prints.items()
    ]
    renders += [(f"feature_{rpt.file_stem(name)}.svg", partial(feature_svg, name))
                for name in sel["selected"]]
    renders.append(("datasets.svg",
                    partial(rpt.render_dataset_svg, layer, table.dataset_tags)))
    svgs = classify.map_jobs(lambda render: render[1](), renders)
    for (file_name, _), svg in zip(renders, svgs):
        (out / file_name).write_text(svg, encoding="utf-8")

    report = {
        "provenance": {"input_digest": digest, "config": _config_echo(cfg)},
        "features": {
            "selected": pca.features,
            "loadings": pca.loadings,
            "eigenvalues": pca.eigenvalues,
            "explained_variance_2d": pca.explained_variance_2d,
            "explained_variance_ratios": project.explained_variance(pca),
        },
        "selection": sel,
        "algorithms": list(prints),
        "footprints": footprint_metrics,
        "overlap": overlap,
        "selector": metrics,
        "instances": {"count": len(table), "datasets": Counter(table.dataset_tags)},
    }
    rpt.write_report(report, out / "report.json")


# Stage -> its function, which takes the run's config.
_STAGE_FNS = {
    "ingest": stage_ingest,
    "select-features": stage_select_features,
    "project": stage_project,
    "footprint": stage_footprint,
    "classify": stage_classify,
    "plot": stage_plot,
}


def cmd_pipeline(cfg: PipelineConfig, stages: tuple[str, ...] = tuple(_STAGE_FNS)) -> None:
    """Run the named stages in order."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    for stage in stages:
        _STAGE_FNS[stage](cfg)


# ---------------------------------------------------------------------------
# Command line


def _run(args: argparse.Namespace) -> None:
    """`pipeline` or one stage command, as the parsed ``args`` name it."""
    cfg = build_config(parse_config_file(Path(args.config)) if args.config else {},
                       args.input, args.output, args.seed, args.repeats,
                       os.environ.get("EAPR_SEED"))
    stages = tuple(_STAGE_FNS) if args.command == "pipeline" else (args.command,)
    cmd_pipeline(cfg, stages)
    if "plot" in stages:
        print(f"report written to {cfg.output_dir / 'report.json'}")


def _add_commands(commands) -> None:
    """`pipeline`, one command per stage, and `select`."""
    runs = {"pipeline": "Run every stage end to end."}
    runs.update((name, fn.__doc__) for name, fn in _STAGE_FNS.items())
    for name, help_text in runs.items():
        run = query.add_command(commands, name, help_text)
        run.add_argument("--config", help="Flat key=value config file.")
        run.add_argument("--input", help="Input CSV (overrides config).")
        run.add_argument("--output", help="Output directory (overrides config).")
        run.add_argument("--seed", type=int, help="Global seed (overrides EAPR_SEED and config).")
        run.add_argument("--repeats", type=int,
                         help="Feature-learning repetitions (overrides config).")
    query.add_select(commands)


# Built once: a parser is a web of reference cycles, and `eapr` runs without
# the cyclic collector (eapr.__main__).
_PARSER = query.parser(_add_commands)


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` (default: the process's arguments) names and
    return its exit code: 0, or 1 after one `E_*` line on stderr. A usage
    error exits 2 from the parser."""
    args = _PARSER.parse_args(argv)
    return query.run(query.select if args.command == "select" else _run, args)


if __name__ == "__main__":
    sys.exit(main())
