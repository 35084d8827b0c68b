import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from eapr.model import OUTCOME_CODES, InstanceTable, Outcome

DATA_DIR = Path(__file__).parent / "data"

GOOD = Outcome.GOOD
BAD = Outcome.BAD
MISSING = Outcome.MISSING


def make_table(feature_names, algorithm_names, rows):
    """rows: list of (id, dataset, feature tuple, outcome tuple)."""
    return InstanceTable(
        feature_names,
        algorithm_names,
        [rid for rid, _, _, _ in rows],
        [tag for _, tag, _, _ in rows],
        [[float(v) for v in feats] for _, _, feats, _ in rows],
        [[OUTCOME_CODES[o] for o in outs] for _, _, _, outs in rows],
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
