"""Acceptance gate: one test per release criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s`).

Criterion 7 needs a real experiment export and only runs when EAPR_RTA_EXPORT
points at it; everything else is self-contained and seeded.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest

from eapr.classify import SvmConfig, cross_validate, decision_values, train_svm
from eapr.cli import PipelineConfig, cmd_pipeline, rank_for_vector
from eapr.footprint import convex_hull, convex_intersection, polygon_area
from eapr.model import FeatureSubset, Outcome
from eapr.project import symmetric_eig
from eapr.report import PlotSpec
from eapr.selection import GaConfig, evaluate_subset, run_ga

from conftest import invoke, planted_table, two_region_table
from oracles import (
    brute_force_hull,
    charpoly_roots,
    kernel_sum_decision,
    mc_intersection_area,
    mc_polygon_area,
)
from test_classify import blobs, check_kkt, xor_clusters


def announce(criterion, detail=""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_1_geometry_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    for _ in range(500):
        pts = [tuple(p) for p in rng.uniform(-5, 5, (30, 2))]
        assert set(convex_hull(pts).vertices) == brute_force_hull(pts)

    worst_area = 0.0
    for _ in range(50):
        hull = convex_hull([tuple(p) for p in rng.normal(0, 2, (30, 2))])
        area = polygon_area(hull)
        estimate = mc_polygon_area(hull.vertices, 1_000_000, rng)
        worst_area = max(worst_area, abs(area - estimate) / area)
    assert worst_area < 0.01

    worst_inter = 0.0
    for _ in range(20):
        a = convex_hull([tuple(p) for p in rng.normal(0, 2, (30, 2))])
        b = convex_hull([tuple(p) for p in rng.normal(1.0, 2, (30, 2))])
        area = polygon_area(convex_intersection(a, b))
        estimate = mc_intersection_area(a.vertices, b.vertices, 1_000_000, rng)
        worst_inter = max(worst_inter, abs(area - estimate) / area)
    assert worst_inter < 0.01

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(
        1,
        f"(500 hulls exact; MC rel err area {worst_area:.4f}, "
        f"intersection {worst_inter:.4f}; {elapsed:.1f}s)",
    )


def test_criterion_2_pca_oracles():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        m = 2 + trial % 5
        lam = np.sort(rng.uniform(0.1, 2.0, m))
        while m > 1 and np.diff(lam).min() < 0.15:
            lam = np.sort(rng.uniform(0.1, 2.0, m))
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        cov = q @ np.diag(lam) @ q.T
        cov = 0.5 * (cov + cov.T)
        values, vectors = symmetric_eig(cov)
        worst = max(worst, float(np.abs(values - charpoly_roots(cov)).max()))
        assert np.abs(values.sum() - np.trace(cov)) < 1e-9
        assert np.abs(vectors.T @ vectors - np.eye(m)).max() < 1e-9
    assert worst < 1e-8

    from eapr.project import fit_pca

    pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0], [5.0, 5.0]])
    standardized = (pts - pts.mean(axis=0)) / pts.std(axis=0, ddof=1)
    _, _, explained = fit_pca(standardized)
    assert explained == 1.0

    announce(2, f"(100 covariances, worst eigenvalue err {worst:.2e})")


def test_criterion_3_feature_selection_recovery():
    start = time.perf_counter()
    table = planted_table(200, n_noise=18, seed=7)
    config = GaConfig(
        population_size=20, generations=10, min_k=2, max_k=3, cv_folds=3, seed=0
    )

    hits = 0
    for seed in range(10):
        result = run_ga(table, config._replace(seed=seed))
        if {"f1", "f2"} <= set(result.best.selected):
            hits += 1
    assert hits >= 8

    names = table.feature_names
    scores = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            subset = FeatureSubset.of([names[i], names[j]])
            scores[subset.sorted_names] = evaluate_subset(
                table, subset, config, seed=1234
            ).mean_cv_accuracy
    ranked = sorted(scores.items(), key=lambda kv: -kv[1])
    assert ranked[0][0] == ("f1", "f2")
    assert ranked[0][1] > ranked[1][1]

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    announce(
        3,
        f"({hits}/10 seeds recover the pair; exhaustive optimum ("
        f"{ranked[0][1]:.3f}) vs runner-up ({ranked[1][1]:.3f}); {elapsed:.0f}s)",
    )


def test_criterion_4_svm_correctness():
    trained = []

    pts, y = blobs(seed=40)
    model = train_svm(pts, y, SvmConfig(kernel="linear", seed=40))
    assert np.all(np.sign(decision_values(model, pts)) == y)
    trained.append((model, pts, y))

    pts, y = xor_clusters(seed=41)
    model = train_svm(pts, y, SvmConfig(kernel="rbf", C=10.0, gamma=2.0, seed=41))
    assert np.mean(np.sign(decision_values(model, pts)) == y) >= 0.95
    trained.append((model, pts, y))

    pts, y = blobs(seed=42, spread=1.5)
    trained.append((train_svm(pts, y, SvmConfig(kernel="rbf", seed=42)), pts, y))

    rng = np.random.default_rng(43)
    pts = rng.uniform(-1, 1, (120, 2))
    y = np.where(rng.random(120) < 0.5, 1.0, -1.0)
    trained.append((train_svm(pts, y, SvmConfig(kernel="rbf", seed=43)), pts, y))

    worst_dev = 0.0
    for model, pts, y in trained:
        assert model.converged
        check_kkt(model, pts, y)
        assert abs(float(np.sum(model.alphas * model.labels))) < 1e-8
        for point in rng.uniform(-2, 2, (40, 2)):
            value = decision_values(model, point)[0]
            expected = kernel_sum_decision(
                model.support_vectors, model.alphas, model.labels,
                model.bias, model.config.kernel, model.gamma, point,
            )
            worst_dev = max(worst_dev, abs(value - expected))
    assert worst_dev < 1e-8
    announce(4, f"({len(trained)} models KKT-clean; decision dev {worst_dev:.2e})")


@pytest.fixture(scope="module")
def two_region_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("two_region")
    table = two_region_table(240, seed=11)
    lines = ["instance_id,dataset,f1,f2,aprt:A,aprt:B"]
    columns = zip(
        table.instance_ids,
        table.dataset_tags,
        table.features.tolist(),
        table.outcome_labels("A"),
        table.outcome_labels("B"),
    )
    for row_id, tag, (f1, f2), label_a, label_b in columns:
        a = 1 if label_a is Outcome.GOOD else 0
        b = 1 if label_b is Outcome.GOOD else 0
        lines.append(f"{row_id},{tag},{f1:.6f},{f2:.6f},{a},{b}")
    csv = tmp / "two_region.csv"
    csv.write_text("\n".join(lines) + "\n")
    out = tmp / "out"
    cfg = PipelineConfig(
        input_path=csv,
        output_dir=out,
        ga=GaConfig(population_size=4, generations=1, min_k=2, max_k=2, cv_folds=3, seed=0),
        svm=SvmConfig(),
        plot=PlotSpec(),
        repeats=1,
        seed=5,
    )
    cmd_pipeline(cfg)
    return out


def test_criterion_5_selector_end_to_end(two_region_run):
    grid = np.linspace(-1.0, 1.0, 20)
    correct = 0
    for gx in grid:
        for gy in grid:
            ranked = rank_for_vector(two_region_run, {"f1": float(gx), "f2": float(gy)})
            truth = "A" if gx < 0 else "B"
            correct += ranked[0][0] == truth
    rate = correct / 400
    assert rate >= 0.9

    # same answer through the CLI surface
    result = invoke(["select", "--models", str(two_region_run)], input="f1,-0.8\nf2,0.2\n")
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0].startswith("1,A,")
    announce(5, f"(grid accuracy {rate:.3f})")


def test_criterion_6_determinism(tmp_path, synthetic60_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            f"input={synthetic60_path}\noutput={out}\nseed=7\nrepeats=2\n"
            "ga.population=8\nga.generations=3\nga.min_k=2\nga.max_k=3\nga.cv_folds=3\n"
        )
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 0, result.stderr
        outputs.append(out)

    first, second = outputs
    compared = []
    for path in sorted(first.iterdir()):
        if path.suffix in (".json", ".svg"):
            assert path.read_bytes() == (second / path.name).read_bytes(), path.name
            compared.append(path.name)
    assert "report.json" in compared
    assert any(name.endswith(".svg") for name in compared)
    announce(6, f"({len(compared)} artifacts byte-identical)")


RTA_ENV = "EAPR_RTA_EXPORT"


@pytest.mark.skipif(
    RTA_ENV not in os.environ,
    reason=f"full-scale check needs {RTA_ENV} pointing at the experiment export CSV",
)
def test_criterion_7_benchmark_separation_on_user_export(tmp_path):
    """With a real experiment export, IntroClassJava must be linearly separable
    from Defects4J in the learned 2D space (linear SVM accuracy >= 0.95)."""
    from eapr.ingest import aggregate_rows, parse_instance_table
    from eapr.project import fit_pca, standardize

    source = Path(os.environ[RTA_ENV]).read_bytes()
    table = aggregate_rows(parse_instance_table(source))

    config = GaConfig(population_size=24, generations=15, cv_folds=3, seed=0)
    selected = run_ga(table, config).best
    matrix, *_ = standardize(table, selected)
    _, loadings, _ = fit_pca(matrix)
    coords = matrix @ loadings

    tags = np.array(table.dataset_tags)
    keep = np.isin(tags, ("IntroClassJava", "Defects4J"))
    assert keep.sum() >= 10, "export lacks IntroClassJava/Defects4J rows"
    labels = np.where(tags[keep] == "IntroClassJava", 1.0, -1.0)
    metrics = cross_validate(coords[keep], labels, 5, SvmConfig(kernel="linear", seed=1))
    assert metrics.accuracy >= 0.95
    announce(7, f"(tag separation accuracy {metrics.accuracy:.3f})")
