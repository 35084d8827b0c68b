"""Fuzzed CSV, config and artifact input: every run either succeeds or fails
with exit 1 and exactly one machine-parsable `E_*` line, never a traceback."""
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eapr.cli import _CONFIG_KEYS, CliFailure, build_config, parse_config_file

from conftest import DATA_DIR, invoke

FUZZ = settings(max_examples=150, deadline=None)

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
odd_names = st.sampled_from(["instance_id", "dataset", "f1", "aprt:A", "aprt:", ""]) | text
odd_features = st.sampled_from(["", "nan", "inf", "-inf", "1e308", "-1e308", "-0.0", "x"]) | text
odd_outcomes = st.sampled_from(["2", " 1 ", "GOOD", "-1"]) | text
# Bytes that are not UTF-8 or that upset a CSV reader.
raw_bytes = st.sampled_from([b"\xff", b"\xe9", b"\xc3", b"\x00", b'"', b"\r", b","])


@st.composite
def csv_bytes(draw) -> bytes:
    """A well-formed table of sub-program rows with a few rare defects: odd
    column names, odd cells, a header/cell-count mismatch, dataset tags or
    outcomes that disagree within an id, and bytes spliced into the encoded
    text."""
    rare = lambda n: draw(st.sampled_from([False] * n + [True]))  # p = 1 / (n + 1)
    algorithms = [f"aprt:{a}" for a in "ABC"[: draw(st.integers(0, 3))]]
    features = [f"f{i}" for i in range(draw(st.integers(1, 4)))]
    header = draw(st.permutations(["instance_id", "dataset", *features, *algorithms]))
    if draw(st.booleans()):
        header.remove("dataset")
    if rare(9):
        header[draw(st.integers(0, len(header) - 1))] = draw(odd_names)

    ids = [f"p{i}" for i in range(draw(st.integers(2, 8)))]
    labels = {
        (rid, name): draw(st.sampled_from(["", "0", "1"])) for rid in ids for name in algorithms
    }
    tag = st.sampled_from(["Defects4J", "Bugs.jar", ""])
    tags = {rid: draw(tag) for rid in ids}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 14))):
        rid = draw(st.sampled_from(ids))
        row = []
        for name in header:
            if name == "instance_id":
                cell = rid
            elif name == "dataset":
                cell = draw(tag) if rare(100) else tags[rid]
            elif name.startswith("aprt:"):
                cell = draw(odd_outcomes) if rare(150) else labels.get((rid, name), "")
                cell = draw(st.sampled_from(["", "0", "1"])) if rare(100) else cell
            else:
                cell = draw(odd_features) if rare(150) else repr(
                    draw(st.floats(-1e6, 1e6, allow_subnormal=False))
                )
            row.append(cell)
        if rare(60):
            row = row[:-1] if row and draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if rare(7):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(raw_bytes) + data[at:]
    return data


config_keys = st.sampled_from(sorted(_CONFIG_KEYS)) | text
config_values = st.sampled_from(
    ["", "0", "1", "-3", "2.5", "10", "1e999", "nan", "inf", "auto", "median", "rbf", "linear",
     "default", "x.csv", "9" * 5000]
) | text
config_lines = st.one_of(
    st.tuples(config_keys, config_values).map(lambda kv: f"{kv[0]}={kv[1]}"),
    st.sampled_from(["", "# comment", "no equals sign"]),
    text,
)


@st.composite
def config_bytes(draw) -> bytes:
    data = "\n".join(draw(st.lists(config_lines, max_size=8))).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(raw_bytes) + data[at:]
    return data


def _non_finite(name):
    raise AssertionError(f"{name} in table.json")


@FUZZ
@given(csv_bytes())
def test_fuzzed_csv_ingests_or_fails_with_one_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "in.csv"
        csv.write_bytes(data)
        result = invoke(["ingest", "--input", str(csv), "--output", str(Path(tmp) / "o")])
        assert result.exception is None or isinstance(result.exception, SystemExit), repr(
            result.exception
        )
        if result.exit_code == 0:
            table = json.loads(
                (Path(tmp) / "o" / "table.json").read_text(), parse_constant=_non_finite
            )
            assert len(table["ids"]) >= 3
            return
    assert result.exit_code == 1
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if line.startswith("E_")]
    assert len(errors) == 1, result.stderr
    assert errors[0].split()[0] in ("E_PARSE", "E_DEGENERATE")


@FUZZ
@given(config_bytes())
def test_fuzzed_config_builds_or_fails_with_parse_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_bytes(data)
        try:
            build_config(parse_config_file(path))
        except CliFailure as failure:
            assert failure.code == "E_PARSE", str(failure)


# Artifact -> the commands that read it: the stages after the one that
# writes it, and `select` for the two model files.
READERS = {
    "table.json": ("select-features", "project", "footprint", "classify", "plot"),
    "selection.json": ("project", "plot"),
    "pca_model.json": ("plot", "select"),
    "coordinates.json": ("footprint", "classify", "plot"),
    "footprints.json": ("plot",),
    "models.json": ("select",),
    "metrics.json": ("plot",),
}
OTHER_TYPES = ["x", 7, 0.5, True, None, [], {}]


def _nodes(value, path=()):
    """Every (path, value) of a JSON tree, containers and the root included."""
    yield path, value
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _nodes(item, (*path, key))


def _numbers_stay_numbers(before, after) -> bool:
    """Wherever ``before`` holds a number, ``after`` holds one too, a null (a
    metric may be undefined), or nothing."""
    if type(before) in (int, float):
        return type(after) in (int, float, type(None))
    if isinstance(before, dict):
        return isinstance(after, dict) and all(
            _numbers_stay_numbers(v, after[k]) for k, v in before.items() if k in after)
    if isinstance(before, list):
        return isinstance(after, list) and all(map(_numbers_stay_numbers, before, after))
    return True


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The output directory of a small synthetic60 pipeline, and its config."""
    root = tmp_path_factory.mktemp("artifacts")
    cfg = root / "run.cfg"
    cfg.write_text(f"input={DATA_DIR / 'synthetic60.csv'}\noutput={root / 'out'}\nseed=7\n"
                   "ga.population=8\nga.generations=3\nga.min_k=2\nga.max_k=3\nga.cv_folds=3\n")
    assert invoke(["pipeline", "--config", str(cfg)]).exit_code == 0
    return root / "out", cfg


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_edited_artifact_value_runs_or_names_one_error(run_dir, data):
    # a value of another JSON type, or a list one item longer or shorter
    out, cfg = run_dir
    artifact = data.draw(st.sampled_from(sorted(READERS)))
    original = json.loads((out / artifact).read_text())
    path, value = data.draw(st.sampled_from(list(_nodes(original))))
    edits = [("swap", other) for other in OTHER_TYPES if type(other) is not type(value)]
    if isinstance(value, list):
        edits += [("longer", None)] + ([("shorter", None)] if value else [])
    how, other = data.draw(st.sampled_from(edits))
    command = data.draw(st.sampled_from(READERS[artifact]))

    edited = json.loads((out / artifact).read_text())
    parent = edited
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else edited
    if how == "longer":
        node.append(node[-1] if node else 0.5)
    elif how == "shorter":
        node.pop()
    elif path:
        parent[path[-1]] = other
    else:
        edited = other
    with tempfile.TemporaryDirectory() as tmp:
        work = shutil.copytree(out, Path(tmp) / "out")
        (work / artifact).write_text(json.dumps(edited))
        if command == "select":
            features = json.loads((out / "pca_model.json").read_text())["features"]
            vector = "".join(f"{name},0.1\n" for name in features)
            result = invoke(["select", "--models", str(work)], input=vector)
        else:
            result = invoke([command, "--config", str(cfg), "--output", str(work)])
        assert result.exception is None, repr(result.exception)
        if result.exit_code == 0:
            if command == "plot":
                before = json.loads((out / "report.json").read_text())
                after = json.loads((work / "report.json").read_text())
                assert _numbers_stay_numbers(before, after)
            return
    assert result.exit_code == 1
    errors = [line for line in result.stderr.splitlines() if line.startswith("E_")]
    assert len(errors) == 1, result.stderr
    assert errors[0].split()[0] in ("E_STAGE", "E_DEGENERATE", "E_MODEL"), errors[0]
