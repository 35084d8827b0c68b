import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eapr
import eapr.artifacts as artifacts
import eapr.classify as classify
import eapr.cli as cli
from eapr.cli import build_config, parse_config_file

from conftest import DATA_DIR, invoke

FAST_GA = """\
repeats=1
ga.population=8
ga.generations=3
ga.min_k=2
ga.max_k=3
ga.cv_folds=3
"""

SINGLE_ALG_CSV = "\n".join(
    ["instance_id,f1,f2,aprt:X"]
    + [
        f"p{i:02d},{v:.2f},{(i % 5) * 0.3 - 0.6:.2f},{1 if v > 0 else 0}"
        for i, v in enumerate(
            [-1.4, -1.1, -0.8, -0.55, -0.3, 0.3, 0.5, 0.75, 0.9, 1.2, 1.4, -1.7]
        )
    ]
) + "\n"


def write_config(tmp_path, input_path, output_dir, seed=7, extra=""):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(
        f"input={input_path}\noutput={output_dir}\nseed={seed}\n{FAST_GA}{extra}"
    )
    return cfg


def eapr_in_a_process(*args, text=None, flags=()):
    """`python FLAGS -m eapr ARGS` in a fresh process, ``text`` on stdin."""
    env = dict(os.environ, PYTHONPATH=str(Path(eapr.__file__).parents[1]))
    argv = [sys.executable, *flags, "-m", "eapr", *args]
    return subprocess.run(argv, input=text, env=env, capture_output=True, text=True)


def select_in_a_process(model_dir, text, *flags):
    """`python FLAGS -m eapr select --models MODEL_DIR` with ``text`` on stdin."""
    return eapr_in_a_process("select", "--models", str(model_dir), text=text, flags=flags)


def selected_vector(model_dir, value=0.1):
    """``name,value`` lines on stdin for every feature ``model_dir``'s run selected."""
    selected = json.loads((model_dir / "selection.json").read_text())["selected"]
    return "".join(f"{n},{value}\n" for n in selected)


@pytest.fixture(scope="module")
def synthetic60_models(tmp_path_factory):
    """Kernel -> the output directory of a synthetic60 pipeline (seed 7) whose
    selectors use that kernel."""
    root = tmp_path_factory.mktemp("models")
    dirs = {}
    for kernel in ("linear", "rbf"):
        dirs[kernel] = root / kernel
        cfg = write_config(root, DATA_DIR / "synthetic60.csv", dirs[kernel],
                           extra=f"svm.kernel={kernel}\n")
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 0, result.stderr
    return dirs


def without_column(csv_path, column, dest):
    """Write ``csv_path`` without ``column`` to ``dest``; return ``dest``."""
    rows = [line.split(",") for line in Path(csv_path).read_text().splitlines()]
    drop = rows[0].index(column)
    dest.write_text("".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows))
    return dest


def run_pipeline(tmp_path, synthetic60_path, name, seed=7, args=(), env=None):
    out = tmp_path / name
    cfg = write_config(tmp_path, synthetic60_path, out, seed=seed)
    result = invoke(["pipeline", "--config", str(cfg), *args], env=env)
    return result, out


class TestPipeline:
    def test_smoke_artifacts(self, tmp_path, synthetic60_path):
        result, out = run_pipeline(tmp_path, synthetic60_path, "out")
        assert result.exit_code == 0, result.stderr
        assert (out / "report.json").exists()
        for alg in ("A", "B", "C"):
            assert (out / f"footprint_{alg}.svg").exists()
        assert (out / "datasets.svg").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["algorithms"] == ["A", "B", "C"]
        for name in report["selection"]["selected"]:
            assert (out / f"feature_{name}.svg").exists()

    def test_missing_input_is_io_error(self, tmp_path):
        result = invoke(
            ["pipeline", "--input", "/no/such/file.csv", "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_IO"

    @pytest.mark.parametrize(
        "output, reason",
        [("file/out", "Not a directory"), ("file", "File exists")],
        ids=["under-a-file", "a-file"],
    )
    def test_unmakeable_output_dir_is_io_error(self, tmp_path, output, reason):
        (tmp_path / "file").write_text("")
        out = tmp_path / output
        result = invoke(
            ["pipeline", "--input", str(DATA_DIR / "synthetic60.csv"), "--output", str(out)]
        )
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [f"E_IO {out}: {reason}"]

    def test_byte_determinism(self, tmp_path, synthetic60_path):
        r1, out1 = run_pipeline(tmp_path, synthetic60_path, "d1")
        r2, out2 = run_pipeline(tmp_path, synthetic60_path, "d2")
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        for svg in sorted(p.name for p in out1.glob("*.svg")):
            assert (out1 / svg).read_bytes() == (out2 / svg).read_bytes()

    def test_different_seed_changes_provenance(self, tmp_path, synthetic60_path):
        _, out1 = run_pipeline(tmp_path, synthetic60_path, "s1", seed=7)
        _, out2 = run_pipeline(tmp_path, synthetic60_path, "s2", seed=8)
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["provenance"]["config"]["seed"] == 7
        assert r2["provenance"]["config"]["seed"] == 8


# Name -> (artifact, the keys to one of its values, what that value becomes).
# Each edit gave a traceback in report._AxisMap.pixels, or exit 0 with the
# value in report.json.
MISTYPED_READS = {
    "vertex-not-a-pair": (
        "footprints.json", ("footprints", "A", "good_hull"), [[0.0], [1.0, 2.0], [3.0, 4.0]]
    ),
    "vertex-of-strings": ("footprints.json", ("footprints", "A", "good_hull"), [["x", "y"]] * 3),
    "purity-str": ("footprints.json", ("footprints", "A", "purity"), "oops"),
    "area-bool": ("footprints.json", ("footprints", "B", "area_net"), True),
    "norm-null": ("footprints.json", ("footprints", "C", "area_good_norm"), None),
    "degenerate-str": ("footprints.json", ("footprints", "A", "degenerate"), "no"),
    "degenerate-misflagged": ("footprints.json", ("footprints", "A", "degenerate"), True),
    "algorithm-of-another-key": ("footprints.json", ("footprints", "A", "algorithm"), "B"),
    "overlap-str": ("footprints.json", ("overlap", 0, 1), "x"),
    "overlap-short-row": ("footprints.json", ("overlap", 2), [1.0, 0.5]),
    "accuracy-str": ("metrics.json", ("cv", "per_algorithm", "A", "accuracy"), "high"),
    "recall-list": ("metrics.json", ("training", "per_algorithm", "C", "recall"), [1.0]),
    "aggregate-precision-str": ("metrics.json", ("cv", "precision"), "1.0"),
    "aggregate-accuracy-object": ("metrics.json", ("training", "accuracy"), {}),
}


# Name -> an edit of a valid selection.json. Each exited 0 with the edited
# value copied into report.json.
SELECTION_EDITS = {
    "fitness-str": lambda data: data.update(fitness="oops"),
    "accuracy-str": lambda data: data["fitness"].update(mean_cv_accuracy="high"),
    "frequency-str": lambda data: data["frequencies"].update(
        {data["selected"][0]: "0.5"}),
    "history-of-strs": lambda data: data["repeats"][0].update(history=["a"]),
    "repeats-int": lambda data: data.update(repeats=5),
    "fitness-missing": lambda data: data.pop("fitness"),
    "extra-key": lambda data: data.update(extra=1),
}


class TestStages:
    def test_staged_equals_pipeline(self, tmp_path, synthetic60_path):
        # each stage in its own process, so each one decodes table.json
        _, mono = run_pipeline(tmp_path, synthetic60_path, "mono")
        staged = tmp_path / "staged"
        cfg = write_config(tmp_path, synthetic60_path, staged)
        for stage in cli._STAGE_FNS:
            result = eapr_in_a_process(stage, "--config", str(cfg))
            assert result.returncode == 0, f"{stage}: {result.stderr}"
        files = sorted(p.name for p in mono.iterdir())
        assert files == sorted(p.name for p in staged.iterdir())
        assert "report.json" in files
        for name in files:
            assert (mono / name).read_bytes() == (staged / name).read_bytes(), name

    def test_unconverged_selector_warns(self, tmp_path, synthetic60_path):
        out = tmp_path / "unconverged"
        # at gamma = 100 every training row becomes a support vector, and the
        # solve needs more than one pair update per row
        extra = "svm.max_passes=1\nsvm.c=100\nsvm.gamma=100\n"
        cfg = write_config(tmp_path, synthetic60_path, out, extra=extra)
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 0, result.stderr
        models = json.loads((out / "models.json").read_text())["models"]
        labeled = {"A": 60, "B": 60, "C": 57}
        assert sorted(models) == sorted(labeled)
        for algorithm, model in models.items():
            assert model["converged"] is False
            assert (
                f"warning: selector SVM for {algorithm} did not converge in "
                f"1*n pair updates (n = {labeled[algorithm]})"
                in result.stderr.splitlines()
            )

    def test_classify_same_on_one_cpu_and_on_a_pool(
        self, tmp_path, synthetic60_path, monkeypatch
    ):
        out = tmp_path / "staged"
        cfg = write_config(tmp_path, synthetic60_path, out)
        for stage in ("ingest", "select-features", "project"):
            assert invoke([stage, "--config", str(cfg)]).exit_code == 0
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(classify, "_usable_cpus", lambda: cpus)
            result = invoke(["classify", "--config", str(cfg)])
            assert result.exit_code == 0, result.stderr
            artifacts = [(out / name).read_bytes() for name in ("models.json", "metrics.json")]
            runs.append((artifacts, result.stderr))
        assert runs[0] == runs[1]

    def test_pipeline_same_on_one_cpu_and_on_a_pool(
        self, tmp_path, synthetic60_path, monkeypatch
    ):
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(classify, "_usable_cpus", lambda: cpus)
            result, out = run_pipeline(tmp_path, synthetic60_path, f"cpus{cpus}")
            assert result.exit_code == 0, result.stderr
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((files, result.stderr))
        assert runs[0] == runs[1]

    def test_one_executor_per_pipeline(self, tmp_path, synthetic60_path):
        # a pipeline forks its job processes at each batch, without an executor,
        # and leaves none of them behind
        cfg = write_config(tmp_path, synthetic60_path, tmp_path / "out")
        code = (
            "import os, sys\n"
            "import eapr.classify, eapr.cli\n"
            "eapr.classify._usable_cpus = lambda: 2\n"
            "try:\n"
            f"    sys.exit(eapr.cli.main(['pipeline', '--config', {str(cfg)!r}]))\n"
            "except SystemExit as done:\n"
            "    assert done.code == 0, done.code\n"
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(eapr.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == ["[]", "no child left"]

    def test_fits_run_in_one_worker_per_cpu(
        self, tmp_path, synthetic60_path, monkeypatch
    ):
        # each job leaves a file named after its batch, its index in the batch
        # and the pid of the process it ran in
        ran = tmp_path / "ran"
        ran.mkdir()
        map_jobs, sizes = classify.map_jobs, []

        def recording_map_jobs(fn, jobs):
            batch = len(sizes)
            sizes.append(len(jobs))

            def run(indexed):
                (ran / f"{batch}-{indexed[0]}-{os.getpid()}").touch()
                return fn(indexed[1])

            return map_jobs(run, list(enumerate(jobs)))

        monkeypatch.setattr(classify, "map_jobs", recording_map_jobs)
        result, _ = run_pipeline(tmp_path, synthetic60_path, "pids")
        assert result.exit_code == 0, result.stderr
        runs = [tuple(map(int, p.name.split("-"))) for p in ran.iterdir()]
        assert sorted(run[:2] for run in runs) == [
            (batch, k) for batch, size in enumerate(sizes) for k in range(size)
        ]
        assert len(sizes) >= 3  # GA generations, the final fitness, classify, plot
        for batch, size in enumerate(sizes):
            pid_of = {k: pid for b, k, pid in runs if b == batch}
            workers = min(classify._usable_cpus(), size)
            # job k runs in process k mod W, and process 0 is the parent
            assert all(pid_of[k] == pid_of[k % workers] for k in pid_of)
            assert pid_of.get(0, os.getpid()) == os.getpid()
            assert len(set(pid_of.values())) == workers

    def test_plot_same_on_one_two_and_three_cpus(
        self, tmp_path, synthetic60_path, monkeypatch
    ):
        result, out = run_pipeline(tmp_path, synthetic60_path, "plotted")
        assert result.exit_code == 0, result.stderr
        cfg = tmp_path / "pipeline.cfg"
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(classify, "_usable_cpus", lambda: cpus)
            for svg in out.glob("*.svg"):
                svg.unlink()
            result = invoke(["plot", "--config", str(cfg)])
            assert result.exit_code == 0, result.stderr
            runs.append(({p.name: p.read_bytes() for p in sorted(out.iterdir())}, result.output))
        assert len([name for name in runs[0][0] if name.endswith(".svg")]) >= 5
        assert runs[0] == runs[1] == runs[2]

    def test_footprint_before_project(self, tmp_path, synthetic60_path):
        out = tmp_path / "partial"
        cfg = write_config(tmp_path, synthetic60_path, out)
        assert invoke(["ingest", "--config", str(cfg)]).exit_code == 0
        result = invoke(["footprint", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.strip() == "E_STAGE project"

    def test_stage_on_empty_dir_names_ingest(self, tmp_path, synthetic60_path):
        cfg = write_config(tmp_path, synthetic60_path, tmp_path / "empty")
        result = invoke(["project", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.strip() == "E_STAGE ingest"

    # "tag" and "feature" hold a lone surrogate, which a JSON escape can give:
    # UTF-8 cannot encode it into datasets.svg or a feature_<name>.svg name.
    # numpy reads "1e0" as 1.0: a "string" feature must fail the read, as
    # must a feature column ("ragged"), an outcome column or the ids one short.
    @pytest.mark.parametrize("corrupt", ["truncate", "outcome", "ragged", "tag", "feature",
                                         "string", "short-outcomes", "short-ids"])
    def test_corrupt_table_names_ingest(self, tmp_path, synthetic60_path, corrupt):
        out = tmp_path / "corrupt"
        cfg = write_config(tmp_path, synthetic60_path, out)
        assert invoke(["ingest", "--config", str(cfg)]).exit_code == 0
        path = out / "table.json"
        if corrupt == "truncate":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            table = json.loads(path.read_text())
            if corrupt == "outcome":
                table["outcomes"][table["algorithm_names"].index("A")][1] = "MAYBE"
            elif corrupt == "ragged":
                table["features"][-1].pop(1)
            elif corrupt == "tag":
                table["datasets"][1] = "\ud800x"
            elif corrupt == "string":
                table["features"][0][3] = "1e0"
            elif corrupt == "short-outcomes":
                table["outcomes"][0].pop()
            elif corrupt == "short-ids":
                table["ids"].pop()
            else:
                table["feature_names"][0] = "f1\ud800"
            path.write_text(json.dumps(table))
        result = invoke(["select-features", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.strip() == "E_STAGE ingest"

    # plot copied any input_digest into report.json's provenance; ingest
    # writes only a sha256 in lowercase hex
    @pytest.mark.parametrize("digest", [[1, {"x": True}], "AB" * 32, "ab" * 31, None])
    def test_malformed_input_digest_names_ingest(self, tmp_path, synthetic60_path, digest):
        result, out = run_pipeline(tmp_path, synthetic60_path, "digest")
        assert result.exit_code == 0, result.stderr
        path = out / "table.json"
        table = json.loads(path.read_text())
        table["input_digest"] = digest
        path.write_text(json.dumps(table))
        cfg = write_config(tmp_path, synthetic60_path, out)
        result = invoke(["plot", "--config", str(cfg)])
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", "E_STAGE ingest\n")

    # json.loads raises RecursionError, not ValueError, on deep nesting
    @pytest.mark.parametrize("artifact, writer", [
        ("table.json", "ingest"), ("coordinates.json", "project"),
    ])
    def test_deeply_nested_artifact_names_its_writer(
        self, tmp_path, synthetic60_path, artifact, writer
    ):
        result, out = run_pipeline(tmp_path, synthetic60_path, "nested")
        assert result.exit_code == 0, result.stderr
        (out / artifact).write_text("[" * 200_000)
        cfg = write_config(tmp_path, synthetic60_path, out)
        result = invoke(["footprint", "--config", str(cfg)])
        assert (result.exit_code, result.stderr) == (1, f"E_STAGE {writer}\n")

    def test_nan_feature_in_table_names_ingest(self, tmp_path, synthetic60_path):
        # ingest leaves its table in the memo; the edited file is decoded anew
        out = tmp_path / "nan_table"
        cfg = write_config(tmp_path, synthetic60_path, out)
        assert invoke(["ingest", "--config", str(cfg)]).exit_code == 0
        path = out / "table.json"
        table = json.loads(path.read_text())
        table["features"][0][3] = math.nan
        path.write_text(json.dumps(table))
        for stage in ("select-features", "project", "footprint", "classify", "plot"):
            result = invoke([stage, "--config", str(cfg)])
            assert result.exit_code == 1, stage
            assert result.stderr.strip() == "E_STAGE ingest", stage

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coordinate_names_project(
        self, tmp_path, synthetic60_path, literal
    ):
        result, out = run_pipeline(tmp_path, synthetic60_path, "nan_coords")
        assert result.exit_code == 0, result.stderr
        path = out / "coordinates.json"
        coords = json.loads(path.read_text())
        coords["z1"][5] = literal
        path.write_text(json.dumps(coords).replace(f'"{literal}"', literal))
        cfg = write_config(tmp_path, synthetic60_path, out)
        for stage in ("footprint", "classify", "plot"):
            result = invoke([stage, "--config", str(cfg)])
            assert result.exit_code == 1, stage
            assert result.stderr.strip() == "E_STAGE project", stage
        assert "nan" not in (out / "datasets.svg").read_text()

    # numpy takes "0.5" and true for floats, and z1 and z2 both one short for
    # the points of n - 1 rows
    @pytest.mark.parametrize("edit", ["string", "bool", "short", "both-short"])
    def test_coordinate_column_of_another_type_or_length_names_project(
        self, tmp_path, synthetic60_path, edit
    ):
        result, out = run_pipeline(tmp_path, synthetic60_path, "odd_coords")
        assert result.exit_code == 0, result.stderr
        path = out / "coordinates.json"
        coords = json.loads(path.read_text())
        if edit == "string":
            coords["z1"][5] = "0.5"
        elif edit == "bool":
            coords["z2"][5] = True
        elif edit == "short":
            coords["z2"].pop()
        else:
            coords["z1"].pop()
            coords["z2"].pop()
        path.write_text(json.dumps(coords))
        cfg = write_config(tmp_path, synthetic60_path, out)
        for stage in ("footprint", "classify", "plot"):
            result = invoke([stage, "--config", str(cfg)])
            assert (result.exit_code, result.stderr) == (1, "E_STAGE project\n"), stage

    # 1e999 parses as inf: report.json's check raised ReportInvariantError
    @pytest.mark.parametrize("key", ["explained_variance_2d", "eigenvalues"])
    def test_overflowing_number_in_pca_model_names_project(
        self, tmp_path, synthetic60_path, key
    ):
        result, out = run_pipeline(tmp_path, synthetic60_path, "huge_pca")
        assert result.exit_code == 0, result.stderr
        path = out / "pca_model.json"
        model = json.loads(path.read_text())
        if key == "eigenvalues":
            model[key][0] = "HUGE"
        else:
            model[key] = "HUGE"
        path.write_text(json.dumps(model).replace('"HUGE"', "1e999"))
        cfg = write_config(tmp_path, synthetic60_path, out)
        result = invoke(["plot", "--config", str(cfg)])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert (result.exit_code, result.stderr) == (1, "E_STAGE project\n")

    @pytest.mark.parametrize("artifact, keys, value", MISTYPED_READS.values(), ids=MISTYPED_READS)
    def test_footprint_or_metric_of_another_type_or_shape_names_its_stage(
        self, tmp_path, synthetic60_path, synthetic60_models, artifact, keys, value
    ):
        out = tmp_path / "edited"
        shutil.copytree(synthetic60_models["rbf"], out)
        path = out / artifact
        data = json.loads(path.read_text())
        parent = data
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path.write_text(json.dumps(data))
        cfg = write_config(tmp_path, synthetic60_path, out)
        result = eapr_in_a_process("plot", "--config", str(cfg))
        stage = artifacts.WRITTEN_BY[artifact]
        assert (result.returncode, result.stdout, result.stderr) == (1, "", f"E_STAGE {stage}\n")

    @pytest.mark.parametrize("edit", SELECTION_EDITS.values(), ids=SELECTION_EDITS)
    def test_selection_of_another_type_or_shape_names_select_features(
        self, tmp_path, synthetic60_path, synthetic60_models, edit
    ):
        out = tmp_path / "edited"
        shutil.copytree(synthetic60_models["rbf"], out)
        path = out / "selection.json"
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        cfg = write_config(tmp_path, synthetic60_path, out)
        result = eapr_in_a_process("plot", "--config", str(cfg))
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", "E_STAGE select-features\n")

    def test_truncated_coordinates_names_project(self, tmp_path, synthetic60_path):
        result, out = run_pipeline(tmp_path, synthetic60_path, "trunc")
        assert result.exit_code == 0, result.stderr
        coords = out / "coordinates.json"
        coords.write_bytes(coords.read_bytes()[: coords.stat().st_size // 2])
        cfg = write_config(tmp_path, synthetic60_path, out)
        result = invoke(["footprint", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.strip() == "E_STAGE project"

    def test_reingest_makes_coordinates_stale(self, tmp_path, synthetic60_path):
        result, out = run_pipeline(tmp_path, synthetic60_path, "stale")
        assert result.exit_code == 0, result.stderr
        lines = Path(synthetic60_path).read_text().splitlines(keepends=True)
        sliced = tmp_path / "slice.csv"
        sliced.write_text("".join(lines[:31]))
        cfg = write_config(tmp_path, sliced, out)
        assert invoke(["ingest", "--config", str(cfg)]).exit_code == 0
        for stage in ("footprint", "classify", "plot"):
            result = invoke([stage, "--config", str(cfg)])
            assert result.exit_code == 1, stage
            assert result.stderr.strip() == "E_STAGE project", stage

    @pytest.mark.parametrize("rerun, stale", [("footprint", "classify"), ("classify", "footprint")])
    def test_dropped_algorithm_makes_plot_name_the_stale_stage(
        self, tmp_path, synthetic60_path, rerun, stale
    ):
        # after a re-ingest without aprt:C, plot reads one artifact that still
        # covers A, B and C: the one of the stage not run again
        out = tmp_path / "dropped"
        cfg = write_config(tmp_path, synthetic60_path, out)
        dropped = without_column(synthetic60_path, "aprt:C", tmp_path / "dropped.csv")
        runs = [("pipeline",), ("ingest", "--input", str(dropped)), ("select-features",),
                ("project",), (rerun,)]
        for stage, *args in runs:
            result = eapr_in_a_process(stage, "--config", str(cfg), *args)
            assert result.returncode == 0, f"{stage}: {result.stderr}"
        result = eapr_in_a_process("plot", "--config", str(cfg))
        assert (result.returncode, result.stdout, result.stderr) == (1, "", f"E_STAGE {stale}\n")

    # seed 7 selects f1; after a re-ingest without it, the selection is stale,
    # and once select-features runs again, so is the projection
    @pytest.mark.parametrize("rerun, stages, stale", [
        ((), ("project", "plot"), "select-features"),
        (("select-features",), ("plot",), "project"),
    ])
    def test_dropped_feature_makes_a_stage_name_the_stale_stage(
        self, tmp_path, synthetic60_path, rerun, stages, stale
    ):
        out = tmp_path / "nof1"
        cfg = write_config(tmp_path, synthetic60_path, out)
        dropped = without_column(synthetic60_path, "f1", tmp_path / "nof1.csv")
        assert eapr_in_a_process("pipeline", "--config", str(cfg)).returncode == 0
        assert "f1" in json.loads((out / "selection.json").read_text())["selected"]
        for stage, *args in [("ingest", "--input", str(dropped)), *((s,) for s in rerun)]:
            result = eapr_in_a_process(stage, "--config", str(cfg), *args)
            assert result.returncode == 0, f"{stage}: {result.stderr}"
        for stage in stages:
            result = eapr_in_a_process(stage, "--config", str(cfg))
            assert (result.returncode, result.stdout, result.stderr) == (1, "", f"E_STAGE {stale}\n")

    def test_project_after_selection_writes_model(self, tmp_path, synthetic60_path):
        out = tmp_path / "upto"
        cfg = write_config(tmp_path, synthetic60_path, out)
        for stage in ("ingest", "select-features", "project"):
            assert invoke([stage, "--config", str(cfg)]).exit_code == 0
        assert (out / "pca_model.json").exists()
        assert (out / "coordinates.json").exists()


def module_bindings():
    """Every eapr module attribute, and every item of a module-level dict, by key."""
    bindings = {}
    for name, module in sys.modules.items():
        if name == "eapr" or name.startswith("eapr."):
            for attr, value in vars(module).items():
                bindings[(name, attr, None)] = value
                if isinstance(value, dict):
                    bindings.update(((name, attr, repr(k)), v) for k, v in value.items())
    return bindings


class TestTableMemo:
    def test_pipeline_decodes_no_table(self, tmp_path, synthetic60_path, monkeypatch):
        calls = []
        decode = artifacts.table_from_dict

        def spy(data):
            calls.append(data)
            return decode(data)

        monkeypatch.setattr(artifacts, "table_from_dict", spy)
        result, _ = run_pipeline(tmp_path, synthetic60_path, "memo")
        assert result.exit_code == 0, result.stderr
        assert calls == []

    @pytest.mark.parametrize("where", ["in-process", "in-a-process"])
    def test_reingest_is_seen_by_the_next_stage(
        self, tmp_path, synthetic60_path, where
    ):
        result, out = run_pipeline(tmp_path, synthetic60_path, "reingest")
        assert result.exit_code == 0, result.stderr
        lines = Path(synthetic60_path).read_text().splitlines(keepends=True)
        sliced = tmp_path / "slice.csv"
        sliced.write_text("".join(lines[:31]))
        cfg = write_config(tmp_path, sliced, out)
        if where == "in-process":
            assert invoke(["ingest", "--config", str(cfg)]).exit_code == 0
        else:
            assert eapr_in_a_process("ingest", "--config", str(cfg)).returncode == 0
        result = invoke(["project", "--config", str(cfg)])
        assert result.exit_code == 0, result.stderr
        assert len(json.loads((out / "coordinates.json").read_text())["ids"]) == 30

    def test_pipeline_decodes_only_the_coordinates_it_writes(
        self, tmp_path, synthetic60_path, monkeypatch
    ):
        calls = []
        decode = artifacts.coords_from_dict

        def spy(data):
            calls.append(data)
            return decode(data)

        monkeypatch.setattr(artifacts, "coords_from_dict", spy)
        result, out = run_pipeline(tmp_path, synthetic60_path, "coords_memo")
        assert result.exit_code == 0, result.stderr
        # project checks the columns it writes; footprint, classify and plot
        # decode nothing
        assert len(calls) == 1
        assert calls[0] == json.loads((out / "coordinates.json").read_text())

    # With the memo filled by the pipeline, every read still checks the file:
    # an edited value or id, or a table of other ids, gives E_STAGE project.
    @pytest.mark.parametrize("edit", ["string", "coordinate-ids", "table-ids"])
    def test_coordinates_memo_keeps_every_check(self, tmp_path, synthetic60_path, edit):
        result, out = run_pipeline(tmp_path, synthetic60_path, "coords_edit")
        assert result.exit_code == 0, result.stderr
        path = out / "coordinates.json"
        assert artifacts._COORDS_MEMO[0] == hashlib.sha256(path.read_bytes()).digest()
        if edit == "table-ids":
            path = out / "table.json"
        data = json.loads(path.read_text())
        if edit == "string":
            data["z1"][5] = "0.5"
        else:
            data["ids"][0], data["ids"][1] = data["ids"][1], data["ids"][0]
        path.write_text(json.dumps(data))
        cfg = write_config(tmp_path, synthetic60_path, out)
        for stage in ("footprint", "classify", "plot"):
            result = invoke([stage, "--config", str(cfg)])
            assert (result.exit_code, result.stderr) == (1, "E_STAGE project\n"), stage

    def test_plot_maps_the_points_once(self, tmp_path, synthetic60_path, monkeypatch):
        from eapr import report

        layers = []
        build = report.point_layer

        def spy(coords, spec):
            layers.append(build(coords, spec))
            return layers[-1]

        monkeypatch.setattr(report, "point_layer", spy)
        result, out = run_pipeline(tmp_path, synthetic60_path, "layer")
        assert result.exit_code == 0, result.stderr
        assert len(layers) == 1
        ids = json.loads((out / "coordinates.json").read_text())["ids"]
        assert len(layers[0].circles) == len(ids)
        assert len(list(out.glob("*.svg"))) > 1

    def test_pipeline_adds_no_module_binding(self, tmp_path, synthetic60_path):
        run_pipeline(tmp_path, synthetic60_path, "warm")  # imports every stage module
        before = module_bindings()
        result, _ = run_pipeline(tmp_path, synthetic60_path, "bindings", seed=8)
        assert result.exit_code == 0, result.stderr
        after = module_bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())


class TestSeeds:
    def test_env_seed_matches_flag_seed(self, tmp_path, synthetic60_path):
        _, out_flag = run_pipeline(tmp_path, synthetic60_path, "flag", args=["--seed", "9"])
        _, out_env = run_pipeline(
            tmp_path, synthetic60_path, "env", env={"EAPR_SEED": "9"}
        )
        assert (out_flag / "report.json").read_bytes() == (out_env / "report.json").read_bytes()

    def test_flag_overrides_env(self, tmp_path, synthetic60_path):
        # the flag wins over a valid EAPR_SEED and over one that does not parse
        for env_seed in ("4", "pi"):
            result, out = run_pipeline(
                tmp_path, synthetic60_path, f"both-{env_seed}",
                args=["--seed", "3"], env={"EAPR_SEED": env_seed},
            )
            assert result.exit_code == 0, result.stderr
            report = json.loads((out / "report.json").read_text())
            assert report["provenance"]["config"]["seed"] == 3

    def test_bad_env_seed(self, tmp_path, synthetic60_path):
        result, _ = run_pipeline(
            tmp_path, synthetic60_path, "bad", env={"EAPR_SEED": "pi"}
        )
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_PARSE"


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path, synthetic60_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"input={synthetic60_path}\noutput={tmp_path/'o'}\nga.popsize=3\n")
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_PARSE"

    def test_bad_value_rejected(self, tmp_path, synthetic60_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"input={synthetic60_path}\noutput={tmp_path/'o'}\nga.population=lots\n")
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_PARSE"

    def test_comments_and_blanks_allowed(self, tmp_path, synthetic60_path):
        out = tmp_path / "o"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"# pipeline settings\n\ninput={synthetic60_path}  # data\n"
            f"output={out}\nseed=7\n{FAST_GA}"
        )
        assert invoke(["pipeline", "--config", str(cfg)]).exit_code == 0

    def test_non_positive_gamma_rejected(self, tmp_path, synthetic60_path):
        cfg = write_config(tmp_path, synthetic60_path, tmp_path / "o", extra="svm.gamma=-3\n")
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_PARSE"

    def test_every_key_reaches_its_field_and_the_report(self, tmp_path, synthetic60_path):
        # Every value differs from its default.
        fields = {
            "seed": (None, "seed", 11),
            "repeats": (None, "repeats", 2),
            "ga.population": ("ga", "population_size", 6),
            "ga.generations": ("ga", "generations", 2),
            "ga.crossover": ("ga", "crossover_rate", 0.7),
            "ga.mutation": ("ga", "mutation_rate", 0.25),
            "ga.tournament": ("ga", "tournament_size", 3),
            "ga.min_k": ("ga", "min_k", 2),
            "ga.max_k": ("ga", "max_k", 3),
            "ga.cv_folds": ("ga", "cv_folds", 3),
            "svm.kernel": ("svm", "kernel", "linear"),
            "svm.c": ("svm", "C", 2.5),
            "svm.gamma": ("svm", "gamma", 0.75),
            "svm.tolerance": ("svm", "tolerance", 0.01),
            "svm.max_passes": ("svm", "max_passes", 50),
            "plot.width": ("plot", "width", 500),
            "plot.height": ("plot", "height", 400),
            "plot.margin": ("plot", "margin", 40),
            "plot.point_radius": ("plot", "point_radius", 2.5),
        }
        out = tmp_path / "every"
        path = tmp_path / "every.cfg"
        path.write_text(
            f"input={synthetic60_path}\noutput={out}\n"
            + "".join(f"{key}={value}\n" for key, (_, _, value) in fields.items())
        )
        cfg = build_config(parse_config_file(path))
        assert (cfg.input_path, cfg.output_dir) == (Path(synthetic60_path), out)
        for key, (section, field, value) in fields.items():
            assert getattr(getattr(cfg, section) if section else cfg, field) == value, key

        result = invoke(["pipeline", "--config", str(path)])
        assert result.exit_code == 0, result.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["config"] == {
            key: value for key, (section, _, value) in fields.items() if section != "plot"
        }
        assert 'width="500" height="400"' in (out / "datasets.svg").read_text()

    def test_readme_table_lists_every_key(self):
        lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | default | meaning |") + 2
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
        keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert sorted(keys) == sorted(cli._CONFIG_KEYS)

    def test_non_utf8_config_rejected(self, tmp_path, synthetic60_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(
            f"input={synthetic60_path}\noutput={tmp_path / 'o'}\n".encode() + b"# caf\xe9\n"
        )
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.startswith("E_PARSE ")

    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-3"])
    def test_bad_point_radius_rejected(self, tmp_path, synthetic60_path, radius):
        cfg = write_config(
            tmp_path, synthetic60_path, tmp_path / "o", extra=f"plot.point_radius={radius}\n"
        )
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_PARSE"

    def test_missing_input_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"output={tmp_path/'o'}\n")
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_PARSE"

    def test_unknown_command_is_usage_error(self):
        assert invoke(["no-such-command"]).exit_code == 2

    @pytest.mark.parametrize("args", [
        ["pipeline", "--conf", "CFG"],  # an abbreviation of --config
        ["pipeline", "--config", "CFG", "--seed", "seven"],
        ["select"],  # no --models
    ])
    def test_usage_error_exits_2_and_writes_nothing(self, tmp_path, synthetic60_path, args):
        cfg = write_config(tmp_path, synthetic60_path, tmp_path / "out")
        result = invoke([str(cfg) if arg == "CFG" else arg for arg in args])
        assert (result.exit_code, result.stdout) == (2, "")
        assert list(tmp_path.iterdir()) == [cfg]


class TestSelect:
    @pytest.fixture
    def single_model_dir(self, tmp_path):
        csv = tmp_path / "single.csv"
        csv.write_text(SINGLE_ALG_CSV)
        out = tmp_path / "single_out"
        cfg = write_config(tmp_path, csv, out, extra="ga.max_k=2\n")
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 0, result.stderr
        return out

    def test_singleton_ranking(self, single_model_dir):
        result = invoke(
            ["select", "--models", str(single_model_dir)], input="f1,1.1\nf2,0.0\n"
        )
        assert result.exit_code == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 1
        rank, alg, value = lines[0].split(",")
        assert (rank, alg) == ("1", "X")
        assert float(value) > 0

    def test_unknown_feature_rejected(self, single_model_dir):
        result = invoke(
            ["select", "--models", str(single_model_dir)], input="f1,1.0\nwmc,2.0\n"
        )
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_MODEL"

    def test_missing_feature_rejected(self, single_model_dir):
        result = invoke(
            ["select", "--models", str(single_model_dir)], input="f1,1.0\n"
        )
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_MODEL"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, single_model_dir, value):
        result = invoke(
            ["select", "--models", str(single_model_dir)], input=f"f1,{value}\nf2,0.0\n"
        )
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_MODEL"

    def test_missing_models_dir(self, tmp_path):
        result = invoke(
            ["select", "--models", str(tmp_path / "nothing")], input="f1,0.0\n"
        )
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_MODEL"

    def test_non_utf8_stdin_is_model_error(self, synthetic60_models):
        env = dict(os.environ, PYTHONPATH=str(Path(eapr.__file__).parents[1]))
        argv = [sys.executable, "-m", "eapr", "select", "--models", str(synthetic60_models["rbf"])]
        result = subprocess.run(argv, input=b"\xff,1\n", env=env, capture_output=True)
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.decode() == (
            "E_MODEL stdin is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )

    def test_duplicate_feature_rejected(self, single_model_dir):
        result = invoke(
            ["select", "--models", str(single_model_dir)], input="f1,0.3\nf2,0.2\nf1,9\n"
        )
        assert result.exit_code == 1
        assert result.stderr == "E_MODEL stdin line 3: duplicate feature 'f1'\n"

    # 1e308 projects to a finite point; the linear scores overflow, the rbf
    # kernel underflows to 0. The largest float overflows the projection.
    @pytest.mark.parametrize("kernel, value, fails", [
        ("linear", "1e308", True),
        ("rbf", "1e308", False),
        ("rbf", "1.7976931348623157e308", True),
    ])
    def test_overflowing_vector(self, synthetic60_models, kernel, value, fails):
        model_dir = synthetic60_models[kernel]
        selected = json.loads((model_dir / "selection.json").read_text())["selected"]
        result = select_in_a_process(model_dir, "".join(f"{n},{value}\n" for n in selected))
        if fails:
            assert result.returncode == 1
            assert result.stdout == ""
            assert result.stderr == (
                "E_MODEL feature vector gives a non-finite projection or score\n"
            )
        else:
            assert result.returncode == 0
            assert result.stderr == ""
            scores = [float(line.split(",")[2]) for line in result.stdout.splitlines()]
            assert len(scores) == 3 and all(math.isfinite(v) for v in scores)

    # numpy's broadcast and matmul raised on these: a ValueError traceback
    @pytest.mark.parametrize("artifact", ["models.json", "pca_model.json"])
    def test_inconsistent_model_file_is_model_error(self, tmp_path, synthetic60_models, artifact):
        model_dir = shutil.copytree(synthetic60_models["rbf"], tmp_path / "models")
        data = json.loads((model_dir / artifact).read_text())
        if artifact == "models.json":
            block = data["models"]["A"]
            block["alphas"].pop()
            k = len(block["support_vectors"])
            detail = f"{k - 1} alphas and {k} labels for {k} support vectors"
        else:
            data["loadings"].pop()
            detail = f"{len(data['loadings'])} loadings for {len(data['features'])} features"
        (model_dir / artifact).write_text(json.dumps(data))
        selected = json.loads((model_dir / "selection.json").read_text())["selected"]
        result = select_in_a_process(model_dir, "".join(f"{n},0.1\n" for n in selected))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"E_MODEL missing or corrupt model files in {model_dir}: {detail}\n"

    # 1e999 parses as inf: it ranked, or gave the non-finite vector's line
    @pytest.mark.parametrize("key, detail", [
        ("explained_variance_2d", "expected a finite number"),
        ("means", "expected finite numbers"),
    ])
    def test_overflowing_number_in_pca_model_is_model_error(
        self, tmp_path, synthetic60_models, key, detail
    ):
        model_dir = shutil.copytree(synthetic60_models["rbf"], tmp_path / "models")
        data = json.loads((model_dir / "pca_model.json").read_text())
        if key == "means":
            data[key][0] = "HUGE"
        else:
            data[key] = "HUGE"
        (model_dir / "pca_model.json").write_text(json.dumps(data).replace('"HUGE"', "1e999"))
        selected = json.loads((model_dir / "selection.json").read_text())["selected"]
        result = select_in_a_process(model_dir, "".join(f"{n},0.1\n" for n in selected))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"E_MODEL missing or corrupt model files in {model_dir}: {detail}\n"

    def test_name_utf8_cannot_encode_is_model_error(self, tmp_path, synthetic60_models):
        # a JSON escape gives a lone surrogate, which stdout could not print
        model_dir = shutil.copytree(synthetic60_models["rbf"], tmp_path / "models")
        data = json.loads((model_dir / "models.json").read_text())
        data["models"]["\ud800A"] = data["models"].pop("A")
        (model_dir / "models.json").write_text(json.dumps(data))
        result = select_in_a_process(model_dir, selected_vector(model_dir))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            f"E_MODEL missing or corrupt model files in {model_dir}: 'utf-8' codec can't encode "
            "character '\\ud800' in position 0: surrogates not allowed\n"
        )

    def test_deeply_nested_model_file_is_model_error(self, tmp_path, synthetic60_models):
        model_dir = shutil.copytree(synthetic60_models["rbf"], tmp_path / "models")
        (model_dir / "models.json").write_text("[" * 200_000)
        result = select_in_a_process(model_dir, selected_vector(model_dir))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith(f"E_MODEL missing or corrupt model files in {model_dir}: ")
        assert len(result.stderr.splitlines()) == 1

    # each ranked, with the value as read: `"gamma": true` as gamma = 1
    @pytest.mark.parametrize("key, value, detail", [
        ("gamma", True, "expected a number, not bool"),
        ("C", True, "expected a number, not bool"),
        ("tolerance", True, "expected a number, not bool"),
        ("max_passes", 2.5, "expected int, not float"),
        ("max_passes", True, "expected int, not bool"),
        ("seed", "x", "expected int, not str"),
        ("seed", None, "expected int, not NoneType"),
        ("seed", [1], "expected int, not list"),
        ("converged", "maybe", "expected bool, not str"),
    ])
    def test_setting_of_the_wrong_json_type_is_model_error(
        self, tmp_path, synthetic60_models, key, value, detail
    ):
        model_dir = shutil.copytree(synthetic60_models["rbf"], tmp_path / "models")
        data = json.loads((model_dir / "models.json").read_text())
        for block in data["models"].values():
            block[key] = value
        (model_dir / "models.json").write_text(json.dumps(data))
        result = invoke(["select", "--models", str(model_dir)], input=selected_vector(model_dir))
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == f"E_MODEL missing or corrupt model files in {model_dir}: {detail}\n"

    def test_name_equals_value_form(self, single_model_dir):
        result = invoke(
            ["select", "--models", str(single_model_dir)], input="f1=-1.2\nf2=0.1\n"
        )
        assert result.exit_code == 0
        assert result.stdout.startswith("1,X,")


def test_cli_import_loads_no_process_pool():
    # no module of the program, eapr.cli and what it imports included, loads these
    code = (
        "import sys, eapr.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(eapr.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_select_loads_only_the_modules_it_runs(synthetic60_models):
    model_dir = synthetic60_models["rbf"]
    selected = json.loads((model_dir / "selection.json").read_text())["selected"]
    result = select_in_a_process(
        model_dir, "".join(f"{n},0.1\n" for n in selected), "-X", "importtime"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("1,")
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    # runpy runs eapr.__main__ itself, so only the package and what it imports show
    modules = {m for m in loaded if m.startswith("eapr")}
    assert modules == {"eapr", "eapr.query", "eapr.codec", "eapr.ranker"}
    # each process compiles these and eapr.__main__ from source when no bytecode is cached
    package = Path(eapr.__file__).parent
    compiled = [package / f"{m.partition('.')[2] or '__init__'}.py" for m in modules]
    lines = sum(len(path.read_text().splitlines()) for path in [*compiled, package / "__main__.py"])
    assert lines <= 500
    assert not loaded & {"numpy", "click", "dataclasses", "inspect"}
    stage_only = {"eapr.model", "eapr.project", "eapr.classify", "eapr.selection",
                  "eapr.report", "eapr.footprint", "eapr.ingest", "eapr.seeds", "hashlib",
                  "csv", "multiprocessing"}
    assert not loaded & stage_only


# Name -> (the arguments after `select`, stdin, the exit code). MODELS is a
# model directory, EMPTY an empty directory, VECTOR a valid vector.
SELECT_ARGVS = {
    "valid": (["--models", "MODELS"], "VECTOR", 0),
    "help": (["-h"], "VECTOR", 0),
    "no-models": ([], "VECTOR", 2),
    "models-without-value": (["--models"], "VECTOR", 2),
    "abbreviated-option": (["--mod", "MODELS"], "VECTOR", 2),
    "unknown-option": (["--models", "MODELS", "--bogus"], "VECTOR", 2),
    "extra-positional": (["--models", "MODELS", "extra"], "VECTOR", 2),
    "non-utf8-stdin": (["--models", "MODELS"], b"\xff,1\n", 1),
    "unknown-feature": (["--models", "MODELS"], b"f1,0.1\nnosuch,1\n", 1),
    "empty-model-dir": (["--models", "EMPTY"], "VECTOR", 1),
}


@pytest.mark.parametrize("args, stdin, code", SELECT_ARGVS.values(), ids=SELECT_ARGVS)
def test_select_without_cli_answers_as_the_full_parser(
    tmp_path, synthetic60_models, args, stdin, code
):
    # `python -m eapr select` parses with a parser of select alone; eapr.cli's
    # main parses with every command's
    model_dir = synthetic60_models["rbf"]
    (tmp_path / "empty").mkdir()
    places = {"MODELS": str(model_dir), "EMPTY": str(tmp_path / "empty")}
    args = [places.get(arg, arg) for arg in args]
    if stdin == "VECTOR":
        stdin = selected_vector(model_dir).encode()
    env = dict(os.environ, PYTHONPATH=str(Path(eapr.__file__).parents[1]))
    full = "import sys; from eapr.cli import main; sys.exit(main())"
    runs = [
        subprocess.run([sys.executable, *entry, "select", *args], input=stdin, env=env,
                       capture_output=True)
        for entry in (["-m", "eapr"], ["-c", full])
    ]
    lean, parsed = ((r.returncode, r.stdout, r.stderr) for r in runs)
    assert lean == parsed
    assert lean[0] == code, lean


def test_no_command_loads_dataclasses(tmp_path, synthetic60_path):
    # the program's records are NamedTuples and one __slots__ class; numpy
    # imports inspect itself, so only dataclasses is absent from a pipeline
    cfg = write_config(tmp_path, synthetic60_path, tmp_path / "staged")
    runs = [("pipeline", "--config", str(cfg), "--output", str(tmp_path / "mono"))]
    runs += [(stage, "--config", str(cfg)) for stage in cli._STAGE_FNS]
    for args in runs:
        result = eapr_in_a_process(*args, flags=("-X", "importtime"))
        assert result.returncode == 0, result.stderr
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "numpy" in loaded, args[0]
        assert "dataclasses" not in loaded, args[0]


def test_package_import_loads_no_submodule():
    code = "import sys, eapr; print(sorted(m for m in sys.modules if m.startswith('eapr')))"
    env = dict(os.environ, PYTHONPATH=str(Path(eapr.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "['eapr']\n"


def python_in_a_process(code, *args, text=None):
    """`python -c CODE ARGS` in a fresh process, ``text`` on stdin."""
    env = dict(os.environ, PYTHONPATH=str(Path(eapr.__file__).parents[1]))
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, input=text, env=env, capture_output=True, text=True)


# A fresh process runs a warm-up pipeline, which imports every module the
# stages use, then collects and turns the collector off. Neither kernel's
# pipeline, a stage command nor a select may then leave garbage that only the
# cyclic collector could free.
NO_CYCLES = """
import gc, json, sys
from pathlib import Path
from eapr import cli

csv, root = sys.argv[1:]
def config(name, kernel):
    path = Path(root) / f"{name}.cfg"
    path.write_text(f"input={csv}\\noutput={Path(root) / name}\\nseed=7\\nrepeats=2\\n"
                    f"ga.generations=4\\nga.population=8\\nga.min_k=2\\nga.max_k=3\\n"
                    f"ga.cv_folds=3\\nsvm.kernel={kernel}\\n")
    return str(path)

cli.main(["pipeline", "--config", config("warm", "rbf")])
gc.collect()
gc.disable()
for kernel in ("rbf", "linear"):
    cli.cmd_pipeline(cli.build_config(cli.parse_config_file(Path(config(kernel, kernel)))))
cli.main(["classify", "--config", config("linear", "linear")])
selected = json.loads((Path(root) / "rbf" / "selection.json").read_text())["selected"]
ranked = cli.cmd_select(Path(root) / "rbf", "".join(f"{n},0.1\\n" for n in selected))
print(len(ranked.splitlines()), gc.collect())
"""


def test_a_run_makes_no_reference_cycles(tmp_path):
    # `python -m eapr` runs without the cyclic collector (eapr.__main__): a
    # change that makes cycles fails here rather than leak in the CLI
    result = python_in_a_process(NO_CYCLES, str(DATA_DIR / "synthetic60.csv"), str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "3 0"


# The entry function, run as the `eapr` script and as `python -m eapr` run
# it, on a select: whether the collector was on when argparse, eapr.query and
# models.json were first met, and its state after the run.
ENTRY = """
import gc, json, runpy, sys
seen = {}
def hook(event, args):
    if event == "import" and args[0] in ("argparse", "eapr.query"):
        seen.setdefault(args[0], gc.isenabled())
    elif event == "open" and str(args[0]).endswith("models.json"):
        seen.setdefault("models.json", gc.isenabled())
sys.addaudithook(hook)
from eapr.__main__ import main
seen["imported"] = gc.isenabled()
entry = sys.argv.pop(1)
try:
    main() if entry == "script" else runpy.run_module("eapr", run_name="__main__")
except SystemExit as exit:
    seen["exit"] = exit.code
print(json.dumps({**seen, "after": gc.isenabled(), "frozen": gc.get_freeze_count() > 0}))
"""


@pytest.mark.parametrize("entry", ["script", "module"])
def test_the_entry_runs_without_the_collector_and_freezes_at_exit(synthetic60_models, entry):
    model_dir = synthetic60_models["rbf"]
    vector = selected_vector(model_dir)
    result = python_in_a_process(ENTRY, entry, "select", "--models", str(model_dir), text=vector)
    assert result.returncode == 0, result.stderr
    *ranked, state = result.stdout.splitlines()
    assert ranked == select_in_a_process(model_dir, vector).stdout.splitlines()
    assert json.loads(state) == {
        "imported": True, "argparse": False, "eapr.query": False, "models.json": False,
        "exit": 0, "after": False, "frozen": True,
    }


def test_the_script_enters_through_the_entry_function():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(eapr.__file__).parents[2] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"eapr": "eapr.__main__:main"}


def test_library_use_keeps_the_collector(synthetic60_models):
    code = "import gc, eapr, eapr.__main__, eapr.cli; print(gc.isenabled(), gc.get_freeze_count())"
    assert python_in_a_process(code).stdout == "True 0\n"
    model_dir = synthetic60_models["rbf"]
    result = invoke(["select", "--models", str(model_dir)],
                           input=selected_vector(model_dir))
    assert result.exit_code == 0, result.stderr
    assert (gc.isenabled(), gc.get_freeze_count()) == (True, 0)


class TestPackageApi:
    def test_every_export_is_its_defining_modules_object(self):
        readme = {"FeatureSubset", "GaConfig", "parse_instance_table", "run_ga", "fit_projection",
                  "compute_footprint", "train_svm", "cross_validate"}
        assert readme <= set(eapr.__all__)
        for name in eapr.__all__:
            namespace = {}
            exec(f"from eapr import {name}", namespace)
            module = importlib.import_module(f"eapr.{eapr._EXPORTS[name]}")
            assert namespace[name] is getattr(module, name)
            defined_in = getattr(namespace[name], "__module__", "")
            if defined_in.startswith("eapr"):  # Coordinates2D is numpy's ndarray
                assert defined_in == module.__name__, name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            eapr.no_such_name
        for deleted in ("predict", "tie_break", "AnalysisReport", "select_aprt", "transform",
                        "FeatureMismatch", "PcaModel", "ScalingParams"):
            assert not hasattr(eapr, deleted)
        with pytest.raises(ImportError):
            exec("from eapr import no_such_name", {})

    def test_access_adds_no_binding(self):
        for module in set(eapr._EXPORTS.values()):
            importlib.import_module(f"eapr.{module}")
        before = dict(vars(eapr))
        for name in eapr.__all__:
            getattr(eapr, name)
        assert vars(eapr).keys() == before.keys()
        assert all(vars(eapr)[k] is v for k, v in before.items())
        assert not set(eapr.__all__) & vars(eapr).keys()


def renamed_csv(path, algorithm="A", tag="alpha", feature="f2"):
    """40 rows of synthetic60 with features f1, f2 and algorithms A, B, one
    algorithm, tag and feature renamed."""
    import csv

    with open(DATA_DIR / "synthetic60.csv", newline="") as handle:
        records = list(csv.DictReader(handle))[:40]
    rename = {"aprt:A": f"aprt:{algorithm}", "f2": feature}
    columns = ["instance_id", "dataset", "f1", "f2", "aprt:A", "aprt:B"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([rename.get(c, c) for c in columns])
        for record in records:
            record["dataset"] = tag if record["dataset"] == "alpha" else record["dataset"]
            writer.writerow([record[c] for c in columns])


class TestNamesAreData:
    """Names reach SVG text escaped, and file names percent-encoded inside
    the output directory."""

    def run(self, tmp_path, **names):
        csv = tmp_path / "named.csv"
        renamed_csv(csv, **names)
        out = tmp_path / "a" / "b" / "out"
        cfg = write_config(tmp_path, csv, out)
        result = invoke(["pipeline", "--config", str(cfg)])
        assert result.exit_code == 0, (result.stderr, result.exception)
        svgs = {path.name: minidom.parse(str(path)) for path in out.glob("*.svg")}
        written = {path for path in tmp_path.rglob("*") if path.is_file()}
        assert {p for p in written if out not in p.parents} == {csv, cfg}
        return svgs

    @staticmethod
    def texts(doc, tag):
        return [node.firstChild.data for node in doc.getElementsByTagName(tag)]

    def test_markup_in_an_algorithm_name(self, tmp_path):
        svgs = self.run(tmp_path, algorithm="C&D<x>", feature='w"<&>')
        assert self.texts(svgs["footprint_C%26D%3Cx%3E.svg"], "title") == ["C&D<x>"]
        assert self.texts(svgs["feature_w%22%3C%26%3E.svg"], "title") == ['w"<&>']

    def test_markup_in_a_dataset_tag(self, tmp_path):
        svgs = self.run(tmp_path, tag="t<1>&")
        assert "t<1>&" in self.texts(svgs["datasets.svg"], "text")

    def test_slash_in_an_algorithm_name(self, tmp_path):
        svgs = self.run(tmp_path, algorithm="A/B", feature="f/2")
        assert {"footprint_A%2FB.svg", "feature_f%2F2.svg"} <= svgs.keys()

    def test_parent_path_in_an_algorithm_name(self, tmp_path):
        svgs = self.run(tmp_path, algorithm="../../escaped")
        assert self.texts(svgs["footprint_..%2F..%2Fescaped.svg"], "title") == ["../../escaped"]


@pytest.mark.parametrize(
    "names, error",
    [
        ({"algorithm": "A\x01B"}, "'aprt:A\\x01B' holds '\\x01'"),
        ({"feature": "f\x1f2"}, "'f\\x1f2' holds '\\x1f'"),
        ({"tag": "al\ufffepha"}, "'al\\ufffepha' holds '\\ufffe'"),
    ],
    ids=["algorithm", "feature", "tag"],
)
def test_name_xml_cannot_hold_is_parse_error(tmp_path, names, error):
    csv = tmp_path / "named.csv"
    renamed_csv(csv, **names)
    cfg = write_config(tmp_path, csv, tmp_path / "out")
    result = invoke(["pipeline", "--config", str(cfg)])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"E_PARSE {error}, which XML cannot hold"]


def test_name_too_long_for_a_file_gets_a_hashed_stem(tmp_path):
    name = "\u00e9" * 100  # 600 characters percent-encoded
    csv = tmp_path / "named.csv"
    renamed_csv(csv, algorithm=name)
    out = tmp_path / "out"
    result = invoke(["pipeline", "--config", str(write_config(tmp_path, csv, out))])
    assert result.exit_code == 0, result.stderr
    # 135 characters end on a whole %XX: 45 triples, the 23rd "é" cut in half
    stem = ("%C3%A9" * 23)[:135] + "~" + hashlib.sha256(name.encode()).hexdigest()
    svg = out / f"footprint_{stem}.svg"
    assert minidom.parse(str(svg)).getElementsByTagName("title")[0].firstChild.data == name


def test_unwritable_svg_is_io_error(tmp_path, synthetic60_path):
    out = tmp_path / "out"
    (out / "datasets.svg").mkdir(parents=True)
    cfg = write_config(tmp_path, synthetic60_path, out)
    result = invoke(["pipeline", "--config", str(cfg)])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"E_IO {out / 'datasets.svg'}: Is a directory"]


printable_names = st.text(
    st.characters(blacklist_categories=("C", "Z")) | st.sampled_from("&<>\"'/\\. "),
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(st.fixed_dictionaries(
    {"algorithm": printable_names, "tag": printable_names, "feature": printable_names}
))
def test_printable_names_give_well_formed_svgs_or_one_error(names):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        csv = root / "named.csv"
        renamed_csv(csv, **names)
        out = root / "out"
        cfg = write_config(root, csv, out)
        result = invoke(["pipeline", "--config", str(cfg)])
        written = {path for path in root.rglob("*") if path.is_file()}
        assert {path for path in written if out not in path.parents} == {csv, cfg}
        if result.exit_code == 0:
            for path in out.glob("*.svg"):
                minidom.parse(str(path))
            return
    assert result.exit_code == 1, repr(result.exception)
    errors = [line for line in result.stderr.splitlines() if line.startswith("E_")]
    assert len(errors) == 1 and "Traceback" not in result.stderr, result.stderr


class TestIngestErrors:
    def test_header_only_csv(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("instance_id,f1,aprt:A\n")
        result = invoke(
            ["ingest", "--input", str(csv), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_PARSE"

    def test_nonfinite_rows_dropped_with_warning(self, tmp_path):
        csv = tmp_path / "gappy.csv"
        rows = [f"p{i},{i / 7:.3f},{i % 3},{1 if i % 2 else 0}" for i in range(8)]
        csv.write_text("instance_id,f1,f2,aprt:A\n" + "\n".join(rows) + "\npbad,,0,1\n")
        out = tmp_path / "o"
        result = invoke(
            ["ingest", "--input", str(csv), "--output", str(out)]
        )
        assert result.exit_code == 0
        assert "pbad" in result.stderr
        table = json.loads((out / "table.json").read_text())
        assert len(table["ids"]) == 8

    @pytest.mark.parametrize(
        "data",
        [
            b"instance_id,f1,f2,aprt:A\np\xe9,1.0,2.0,1\n",
            b"instance_id,f1,f2,aprt:A\n" + b"p" * 131_073 + b",1.0,2.0,1\n",
        ],
        ids=["non-utf8", "oversized-field"],
    )
    def test_unreadable_csv_is_parse_error(self, tmp_path, data):
        csv = tmp_path / "unreadable.csv"
        csv.write_bytes(data)
        result = invoke(
            ["ingest", "--input", str(csv), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("E_PARSE ")

    def test_overflowing_mean_is_parse_error(self, tmp_path):
        csv = tmp_path / "huge.csv"
        rows = [f"p{i},{i / 7:.3f},{i % 3},{1 if i % 2 else 0}" for i in range(8)]
        rows += ["big,1e308,0,1", "big,1e308,1,1"]
        csv.write_text("instance_id,f1,f2,aprt:A\n" + "\n".join(rows) + "\n")
        result = invoke(
            ["ingest", "--input", str(csv), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert result.stderr.splitlines() == ["E_PARSE group 'big': feature mean overflows"]

    def test_conflicting_dataset_tags_in_a_group_are_parse_error(self, tmp_path):
        # p1's tag would depend on the row order
        csv = tmp_path / "tags.csv"
        rows = [f"p{i},d1,{i / 7:.3f},{i % 3},{1 if i % 2 else 0}" for i in range(8)]
        rows.append("p1,d2,0.5,1,1")
        csv.write_text("instance_id,dataset,f1,f2,aprt:A\n" + "\n".join(rows) + "\n")
        out = tmp_path / "o"
        result = invoke(["ingest", "--input", str(csv), "--output", str(out)])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "E_PARSE group 'p1': conflicting dataset tags 'd1' and 'd2'"
        ]
        assert not (out / "table.json").exists()

    def test_inf_and_minus_inf_in_a_group_only_drop_it(self, tmp_path):
        csv = tmp_path / "infs.csv"
        rows = [f"p{i},{i / 7:.3f},{i % 3},{1 if i % 2 else 0}" for i in range(4)]
        rows += ["both,inf,0,1", "both,-inf,1,1"]
        csv.write_text("instance_id,f1,f2,aprt:A\n" + "\n".join(rows) + "\n")
        result = eapr_in_a_process("ingest", "--input", str(csv), "--output", str(tmp_path / "o"))
        assert result.returncode == 0
        assert result.stderr == "warning: dropping 1 row(s) with non-finite features: both\n"

    def test_repeated_id_column_is_named(self, tmp_path):
        csv = tmp_path / "twice.csv"
        rows = [f"p{i},z,{i / 7:.3f},{i % 3},{1 if i % 2 else 0}" for i in range(8)]
        csv.write_text("instance_id,instance_id,f1,f2,aprt:A\n" + "\n".join(rows) + "\n")
        result = invoke(
            ["ingest", "--input", str(csv), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert result.stderr.splitlines() == ["E_PARSE duplicate column 'instance_id'"]

    def test_empty_id_names_its_row(self, tmp_path):
        csv = tmp_path / "blank_ids.csv"
        rows = [f"p{i},{i / 7:.3f},{i % 3},{1 if i % 2 else 0}" for i in range(8)]
        rows[3] = rows[5] = ",0.5,1,1"
        csv.write_text("instance_id,f1,f2,aprt:A\n" + "\n".join(rows) + "\n")
        out = tmp_path / "o"
        result = invoke(["ingest", "--input", str(csv), "--output", str(out)])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == ["E_PARSE row 5, column 'instance_id': empty id"]
        assert not (out / "table.json").exists()

    def test_byte_order_mark_ingests_as_without_it(self, tmp_path, synthetic60_path):
        raw = synthetic60_path.read_bytes()
        tables = []
        for name, data in (("plain", raw), ("bom", b"\xef\xbb\xbf" + raw)):
            csv = tmp_path / f"{name}.csv"
            csv.write_bytes(data)
            out = tmp_path / name
            result = invoke(["ingest", "--input", str(csv), "--output", str(out)])
            assert result.exit_code == 0, result.stderr
            table = json.loads((out / "table.json").read_text())
            assert table.pop("input_digest") == hashlib.sha256(data).hexdigest()
            tables.append(table)
        assert tables[0] == tables[1]

    def test_single_feature_table_is_degenerate(self, tmp_path):
        csv = tmp_path / "narrow.csv"
        rows = [f"p{i},{i / 7:.3f},{1 if i % 2 else 0}" for i in range(8)]
        csv.write_text("instance_id,f1,aprt:A\n" + "\n".join(rows) + "\n")
        result = invoke(
            ["ingest", "--input", str(csv), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert result.stderr.split()[0] == "E_DEGENERATE"


# Sub-program rows arrive interleaved (1-3 per id), some outcome cells are
# empty (MISSING), and p5's second row has a NaN feature, so its mean is NaN
# and ingest drops it.
GOLDEN_CSV = """\
instance_id,dataset,wmc,dit,cbo,aprt:Kali,aprt:Arja,aprt:TBar
p1,Defects4J,0.1,3,12.5,1,0,
p2,Bugs.jar,1.7,2,9.25,,1,0
p1,Defects4J,0.2,4,11.0,1,0,
p3,Defects4J,2.9,1,14.75,0,,1
p5,QuixBugs,4.2,2,7.0,0,0,1
p4,QuixBugs,0.35,5,8.5,1,1,
p2,Bugs.jar,1.1,3,10.0,,1,0
p5,QuixBugs,3.9,nan,7.5,0,0,1
p1,Defects4J,0.3,2,13.0,1,0,
p6,Bugs.jar,2.2,6,6.5,1,,0
p3,Defects4J,3.3,1,15.25,0,,1
"""

GOLDEN_TABLE_SHA256 = "833846423f3ad22569028454eeca71e63e2b1f1ce741f75779fb254160be36bd"


class TestTableJson:
    def test_golden_table_bytes(self, tmp_path):
        csv = tmp_path / "golden.csv"
        csv.write_text(GOLDEN_CSV)
        out = tmp_path / "o"
        result = invoke(["ingest", "--input", str(csv), "--output", str(out)])
        assert result.exit_code == 0, result.stderr
        assert result.stderr == "warning: dropping 1 row(s) with non-finite features: p5\n"
        table = (out / "table.json").read_bytes()
        assert hashlib.sha256(table).hexdigest() == GOLDEN_TABLE_SHA256


# The sha256 of every artifact of a synthetic60 pipeline with criterion 6's
# config (tests/test_acceptance.py), so a change to how artifacts are built,
# written or read cannot move a byte unnoticed. Like the other golden hashes,
# they hold for numpy 2.4.6. The selector kernel reaches only models.json,
# metrics.json and report.json; the GA's fitness SVMs are linear either way.
GOLDEN_PIPELINE_SHA256 = {
    "coordinates.json": "5d14db25c80f66ccb52783411ef5f458281479ac2eab4f733082be470505b4d5",
    "datasets.svg": "a2f8529c1575376066b20d174c7dbb805e82d4b198160926d96070be7ae1fc5d",
    "feature_f1.svg": "bb31ed2a6e8cb6c90c1eda8a0e3ea2c205dbf1f148bf1b62e3d57141333a60f0",
    "feature_f2.svg": "ebb883af3ded9a9faf382c460ee520f575150646bbe0d7fb61547c68e89be9b4",
    "footprint_A.svg": "e3ff21b4642b2e76b333c74498e72153b81a546d79db490a9557d0d7a21e707f",
    "footprint_B.svg": "fe908c7ce4d76a0ab6f527f19a0c3ae22458714b2ea82a39ba78e992541bc575",
    "footprint_C.svg": "17eb0bc0a8799ab81f2e5ab824efee9aad1867f7fbc8d811eb2b6dd856cfdd55",
    "footprints.json": "d34f495aed219ade96cabdfb0786efd3c0987ba1fb8da4656758b80606060289",
    "metrics.json": "cb345381db3ed20ffd8b8995e4f95d3dc354fe1755cef69d02090f2ef042653e",
    "models.json": "8091601fb29ab6988e6c142c306c211a46f763dbce72cc1e12233e3ce1d05c3c",
    "pca_model.json": "753444d68e387e5e6613e1abde5f2518770c35bca285ceda3fc84b87c7a0a240",
    "report.json": "0d8331d5da82a3c812d6710c55d5f1efa1beb96a1cffa41ca2a7883ea8f5d732",
    "selection.json": "0735525988d366cf5a28f82cbadb7a464284690c6ad93a8ba640285dcf816b7f",
    "table.json": "f6ddb05dcfceef3edd63da8e29c8517521b810db3c5d099273e14c5985430a14",
}
GOLDEN_LINEAR_PIPELINE_SHA256 = {
    **GOLDEN_PIPELINE_SHA256,
    "metrics.json": "a8bfd546ad3843df1c366b9b40c7f33f18e05026785cb4ba5950dcb830d3abb8",
    "models.json": "0da87c130ebca36143ed413ce3dc613f1805920bf19e3e82f0cb23813ad0883d",
    "report.json": "d293c2bf431ec182423efe8c062d04a2575a1bd0db6de2c57621f9c31fc0b3e7",
}


@pytest.mark.parametrize(
    "kernel, golden",
    [("rbf", GOLDEN_PIPELINE_SHA256), ("linear", GOLDEN_LINEAR_PIPELINE_SHA256)],
    ids=["rbf", "linear"],
)
def test_golden_pipeline_bytes(tmp_path, synthetic60_path, kernel, golden):
    out = tmp_path / "o"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        f"input={synthetic60_path}\noutput={out}\nseed=7\nrepeats=2\n"
        "ga.population=8\nga.generations=3\nga.min_k=2\nga.max_k=3\nga.cv_folds=3\n"
        f"svm.kernel={kernel}\n"
    )
    result = invoke(["pipeline", "--config", str(cfg)])
    assert result.exit_code == 0, result.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == golden
