"""The float ranker that `eapr select` runs, against the numpy formulas of
``project.project_features`` and ``classify.decision_values``."""
import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from eapr import artifacts, ranker
from eapr.classify import SvmModel, decision_values, select_aprt
from eapr.cli import main
from eapr.project import PcaModel, ScalingParams, project_features
from eapr.ranker import SvmConfig

# Sums that cancel have no relative accuracy, so both sides are compared
# relative to the magnitude of the terms they sum.
REL = 1e-9


def small(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def pca_model(means, stds, loadings):
    names = tuple(f"x{i}" for i in range(len(means)))
    return PcaModel(
        scaling=ScalingParams(names, tuple(means), tuple(stds), ()),
        loadings=np.array(loadings, dtype=float).reshape(-1, 2),
        eigenvalues=np.array([2.0, 1.0]),
        explained_variance_2d=1.0,
    )


def svm_model(kernel, gamma, support_vectors, alphas, labels, bias):
    return SvmModel(
        support_vectors=np.array(support_vectors, dtype=float).reshape(-1, 2),
        alphas=np.array(alphas, dtype=float),
        labels=np.array(labels, dtype=float),
        bias=bias,
        gamma=gamma,
        config=SvmConfig(kernel=kernel, gamma=gamma),
        converged=True,
    )


@st.composite
def projections(draw):
    m = draw(st.integers(1, 6))
    means = draw(st.lists(small(-100.0, 100.0), min_size=m, max_size=m))
    stds = draw(st.lists(small(0.1, 100.0), min_size=m, max_size=m))
    loadings = draw(st.lists(st.tuples(small(-1.0, 1.0), small(-1.0, 1.0)), min_size=m, max_size=m))
    raw = draw(st.lists(small(-100.0, 100.0), min_size=m, max_size=m))
    return pca_model(means, stds, loadings), raw


@st.composite
def selectors(draw):
    k = draw(st.integers(0, 8))
    return svm_model(
        draw(st.sampled_from(["linear", "rbf"])),
        draw(small(1e-3, 10.0)),
        draw(st.lists(st.tuples(small(-10.0, 10.0), small(-10.0, 10.0)), min_size=k, max_size=k)),
        draw(st.lists(small(0.0, 10.0), min_size=k, max_size=k)),
        draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=k, max_size=k)),
        draw(small(-10.0, 10.0)),
    )


def decode(data):
    """A codec's input as `eapr select` reads it: through JSON text."""
    return json.loads(json.dumps(data))


@settings(max_examples=300, deadline=None)
@given(
    pca_raw=projections(),
    models=st.dictionaries(st.sampled_from("ABCDEF"), selectors(), min_size=1, max_size=5),
)
def test_float_ranker_matches_the_numpy_formulas(pca_raw, models):
    pca, raw = pca_raw
    projection = artifacts.projection_from_dict(decode(artifacts.pca_to_dict(pca)))
    scorers = {a: artifacts.scorer_from_dict(decode(artifacts.svm_to_dict(m)))
               for a, m in models.items()}

    point = project_features(pca, np.array(raw))
    z = ranker.project(projection, raw)
    standardized = [(x - mu) / s for x, mu, s in zip(raw, pca.scaling.means, pca.scaling.stds)]
    reach = [sum(abs(s * row[c]) for s, row in zip(standardized, pca.loadings.tolist()))
             for c in (0, 1)]
    for c in (0, 1):
        assert abs(z[c] - point[c]) <= REL * reach[c]

    # a kernel value's terms: |z1 x1| + |z2 x2| for linear, at most 1 for rbf
    expected, tol = {}, {}
    for name, model in models.items():
        expected[name] = float(decision_values(model, point)[0])
        if model.config.kernel == "linear":
            kernel = sum(reach) * np.abs(model.support_vectors).sum(axis=1)
        else:
            kernel = np.ones(len(model.alphas))
        tol[name] = REL * (abs(model.bias) + float(np.sum(model.alphas * kernel)))
    ranked = ranker.rank(scorers, z)
    for name, value in ranked:
        assert abs(value - expected[name]) <= tol[name]
    for name, value in select_aprt(models, point):
        assert abs(value - expected[name]) <= tol[name]

    # the same order as the numpy values, but among values that tie within
    # the tolerances
    order = sorted(expected, key=lambda name: (-expected[name], name))
    for got, want in zip((name for name, _ in ranked), order, strict=True):
        if got != want:
            assert abs(expected[got] - expected[want]) <= tol[got] + tol[want]


def write_models(out, kernel, stds=(0.5, 2.0)):
    pca = pca_model([0.0, 1.0], list(stds), [[0.6, 0.8], [0.8, -0.6]])
    models = {a: svm_model(kernel, 0.5, [[0.5, -0.25], [-1.0, 2.0]], [1.0, 1.0], [1.0, -1.0], b)
              for a, b in (("A", 0.25), ("B", -0.5))}
    out.mkdir()
    artifacts.write(out, "pca_model.json", artifacts.pca_to_dict(pca))
    artifacts.write(out, "models.json",
                    {"models": {a: artifacts.svm_to_dict(m) for a, m in models.items()}})
    return out


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
@pytest.mark.parametrize("vector, stds", [
    ("x0,1e308\nx1,0\n", (0.5, 2.0)),  # 1e308 / 0.5 overflows the projection
    ("x0,0.1\nx1,0.2\n", (0.0, 2.0)),  # a zero std: floats raise ZeroDivisionError
])
def test_overflow_gives_the_non_finite_line(tmp_path, kernel, vector, stds):
    out = write_models(tmp_path / "models", kernel, stds)
    result = CliRunner().invoke(main, ["select", "--models", str(out)], input=vector)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == "E_MODEL feature vector gives a non-finite projection or score\n"


PCA_DICT = artifacts.pca_to_dict(pca_model([0.0, 1.0], [0.5, 2.0], [[0.6, 0.8], [0.8, -0.6]]))
SVM_DICT = artifacts.svm_to_dict(
    svm_model("rbf", 0.5, [[0.5, -0.25], [-1.0, 2.0]], [1.0, 1.0], [1.0, -1.0], 0.25))


@pytest.mark.parametrize("key, value, error", [
    ("means", [0.0], "1 means for 2 features"),
    ("stds", [0.5, 2.0, 1.0], "3 stds for 2 features"),
    ("loadings", [[0.6, 0.8]], "1 loadings for 2 features"),
    ("loadings", [[0.6, 0.8], [0.8]], "a loadings row is not a pair"),
    ("means", [0.0, "1.0"], "expected a list of numbers"),
    ("stds", [0.5, True], "expected a list of numbers"),
    ("features", ["x0", 1], "expected a list of names"),
    ("eigenvalues", None, "expected a list of numbers"),
])
def test_projection_reader_checks_every_list(key, value, error):
    data = {**decode(PCA_DICT), key: value}
    with pytest.raises((ValueError, TypeError), match=f"^{error}$"):
        artifacts.projection_from_dict(data)


@pytest.mark.parametrize("key, value, error", [
    ("alphas", [1.0], "1 alphas and 2 labels for 2 support vectors"),
    ("labels", [1.0, -1.0, 1.0], "2 alphas and 3 labels for 2 support vectors"),
    ("support_vectors", [[0.5, -0.25], [-1.0]], "a support vector is not a pair"),
    ("bias", True, "expected a number, not bool"),
    ("kernel", "poly", "unknown kernel 'poly'"),
    ("gamma", -1.0, "gamma must be positive and finite"),
])
def test_scorer_reader_checks_every_list_and_setting(key, value, error):
    data = {**decode(SVM_DICT), key: value}
    with pytest.raises((ValueError, TypeError), match=f"^{error}$"):
        artifacts.scorer_from_dict(data)


def test_the_numpy_pca_reader_builds_on_the_float_reader():
    pca = artifacts.pca_from_dict(decode(PCA_DICT))
    assert pca.loadings.tolist() == PCA_DICT["loadings"]
    with pytest.raises(ValueError, match="^1 loadings for 2 features$"):
        artifacts.pca_from_dict({**decode(PCA_DICT), "loadings": [[0.6, 0.8]]})


def test_models_that_are_not_an_object_are_corrupt():
    # a list has no .items(): an AttributeError traceback before
    with pytest.raises(TypeError, match="^expected an object of models$"):
        artifacts.scorers_from_dict({"models": []})
