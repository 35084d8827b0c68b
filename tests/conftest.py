import io
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from eapr import cli
from eapr.model import InstanceTable, Outcome

DATA_DIR = Path(__file__).parent / "data"

GOOD = Outcome.GOOD
BAD = Outcome.BAD
MISSING = Outcome.MISSING

# The two forms labels come in: Outcome members, or their codes as the table's
# int8 outcome column.
LABEL_FORMS = {"outcomes": tuple, "codes": lambda labels: np.array(labels, dtype=np.int8)}


def make_table(feature_names, algorithm_names, rows):
    """rows: list of (id, dataset, feature tuple, outcome tuple)."""
    return InstanceTable(
        feature_names,
        algorithm_names,
        [rid for rid, _, _, _ in rows],
        [tag for _, tag, _, _ in rows],
        [[float(v) for v in feats] for _, _, feats, _ in rows],
        [list(outs) for _, _, _, outs in rows],
    )


@pytest.fixture
def snapshot_table():
    """Four real program rows: wmc/dit/noc/cbo features, Kali/Arja outcomes."""
    return make_table(
        ["wmc", "dit", "noc", "cbo"],
        ["Kali", "Arja"],
        [
            ("Jackrabbit", "Bugs.jar", (9.37, 0.78, 0.23, 12.51), (GOOD, BAD)),
            ("Accumulo", "Bugs.jar", (11.94, 0.81, 0.22, 13.23), (GOOD, BAD)),
            ("Flink", "Bugs.jar", (8.43, 0.75, 0.31, 10.79), (GOOD, GOOD)),
            ("Wicket", "Bugs.jar", (8.84, 0.58, 0.41, 11.01), (BAD, GOOD)),
        ],
    )


def planted_table(n_instances=200, n_noise=18, seed=7):
    """Labels are noiseless linear rules of f1 and f2; every other feature is
    pure noise. Margins keep the rules separable after any full-rank 2D map."""
    rng = np.random.default_rng(seed)
    feature_names = ["f1", "f2"] + [f"n{i:02d}" for i in range(n_noise)]
    rows = []
    for i in range(n_instances):
        while True:
            f1 = float(rng.uniform(-1.5, 1.5))
            f2 = float(rng.uniform(-1.5, 1.5))
            if abs(f1) > 0.2 and abs(f2) > 0.2 and abs(f1 + f2) > 0.25:
                break
        noise = rng.normal(0.0, 1.0, n_noise)
        outs = (
            GOOD if f1 > 0 else BAD,
            GOOD if f2 > 0 else BAD,
            GOOD if f1 + f2 > 0 else BAD,
        )
        rows.append(
            (f"inst{i:04d}", "synthetic", (f1, f2, *noise), outs)
        )
    return make_table(feature_names, ["A", "B", "C"], rows)


def two_region_table(n_instances=240, seed=11):
    """Two algorithms splitting the plane: A is GOOD left of f1=0, B right."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_instances):
        while True:
            f1 = float(rng.uniform(-1.0, 1.0))
            if abs(f1) > 0.05:
                break
        f2 = float(rng.uniform(-1.0, 1.0))
        outs = (GOOD if f1 < 0 else BAD, GOOD if f1 > 0 else BAD)
        rows.append((f"inst{i:04d}", "synthetic", (f1, f2), outs))
    return make_table(["f1", "f2"], ["A", "B"], rows)


@pytest.fixture(scope="session")
def synthetic60_path():
    return DATA_DIR / "synthetic60.csv"


@dataclass(frozen=True)
class CliResult:
    """What one ``eapr.cli.main`` call did. ``output`` is stdout and stderr
    interleaved as written; ``exception`` is what ``main`` raised, if anything
    (a usage error's SystemExit among them)."""

    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None


class _Tee(io.BytesIO):
    """One stream's bytes, each write also appended to the shared ``both``."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, data):
        self.both.write(data)
        return super().write(data)


def invoke(argv, input=b"", env=None):
    """Run ``eapr.cli.main(argv)`` in this process, ``input`` (bytes, or text
    encoded as UTF-8) on stdin, ``env`` set over os.environ, and stdout and
    stderr captured as UTF-8 text."""
    if isinstance(input, str):
        input = input.encode("utf-8")
    both = io.BytesIO()
    out, err = _Tee(both), _Tee(both)
    streams = (
        io.TextIOWrapper(io.BytesIO(input), encoding="utf-8"),
        io.TextIOWrapper(out, encoding="utf-8", write_through=True),
        io.TextIOWrapper(err, encoding="utf-8", write_through=True),
    )
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = streams
    try:
        with mock.patch.dict(os.environ, env or {}):
            exit_code, exception = cli.main(argv), None
    except SystemExit as exc:
        exit_code, exception = exc.code, exc
    except Exception as exc:
        exit_code, exception = 1, exc
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    texts = (stream.getvalue().decode("utf-8") for stream in (out, err, both))
    return CliResult(exit_code, *texts, exception)
