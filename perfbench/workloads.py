"""Seeded input generators for the benchmark workloads.

Each generator turns a workload seed into the bytes the program receives: one
input CSV and one flat ``key=value`` config. The same seed gives the same
bytes, and different seeds give different bytes; ``sha256`` of both is recorded with every run so two commits can be
shown to have run identical inputs. ``tiny=True`` gives a small variant of the
same shape, used by the smoke test.

The generators import nothing from the program or its tests.
"""
from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Inputs:
    """What one workload feeds the program, plus what the checks expect."""

    csv: bytes
    config: dict[str, str]  # without input, output and seed, which the runner adds
    seed: int  # the workload seed
    feature_names: tuple[str, ...]
    algorithms: tuple[str, ...]
    instances: int  # distinct instance ids, i.e. rows after aggregation
    rows_in: int  # CSV data rows, i.e. rows before aggregation
    pinned: bool  # the GA window admits one subset: every feature is selected
    base: np.ndarray  # (instances, features) per-id feature values, for select vectors

    @property
    def pipeline_seeds(self) -> tuple[int, ...]:
        """The program's own seed (GA, folds, SMO), one per variant. Which
        subsets the GA meets, and so the SVMs' work, moves by ~15% from one
        seed to the next; a run cycles through all variants to average that
        out."""
        return tuple(self.seed * PIPELINE_VARIANTS + v for v in range(PIPELINE_VARIANTS))

    def config_text(self, input_path: str, output_dir: str, variant: int) -> str:
        lines = [f"input={input_path}", f"output={output_dir}"]
        lines += [f"{k}={v}" for k, v in sorted(self.config.items())]
        lines.append(f"seed={self.pipeline_seeds[variant]}")
        return "\n".join(lines) + "\n"

    def digests(self) -> dict[str, str]:
        config = "".join(f"{k}={v}\n" for k, v in sorted(self.config.items()))
        return {
            "csv_sha256": hashlib.sha256(self.csv).hexdigest(),
            "config_sha256": hashlib.sha256(config.encode()).hexdigest(),
            "pipeline_seeds": list(self.pipeline_seeds),
        }


def _csv(feature_names, algorithms, ids, tags, features, outcomes) -> bytes:
    """outcomes: (rows, algorithms) int8 with 1 GOOD, 0 BAD, -1 MISSING."""
    out = io.StringIO()
    header = ["instance_id", "dataset", *feature_names, *(f"aprt:{a}" for a in algorithms)]
    out.write(",".join(header) + "\n")
    cells = {1: "1", 0: "0", -1: ""}
    for rid, tag, feats, outs in zip(ids, tags, features.tolist(), outcomes.tolist()):
        out.write(
            f"{rid},{tag},"
            + ",".join(f"{v:.6f}" for v in feats)
            + ","
            + ",".join(cells[o] for o in outs)
            + "\n"
        )
    return out.getvalue().encode("utf-8")


# The tables' structure (signal, labels, tags, which algorithm was attempted
# where, sub-program row counts) comes from this fixed seed. The workload seed
# jitters every feature value, gives the pipeline seeds and draws the select
# vectors. Fresh labels per seed would change the SVMs' work by 10-20%,
# which would drown the run-to-run comparison the benchmark exists for.
STRUCTURE_SEED = 2002
JITTER = 0.01  # feature noise sd; features themselves have sd ~1
PIPELINE_VARIANTS = 4


def _jitter(seed: int, values: np.ndarray) -> np.ndarray:
    return values + np.random.default_rng(seed).normal(0.0, JITTER, size=values.shape)


def ga_search(seed: int, tiny: bool = False) -> Inputs:
    """The planted shape: f1 and f2 carry three linear rules with margins of
    at least 0.2, every other feature is noise. Default min_k/max_k/cv_folds;
    the GA budget sets the run length."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    n, n_noise = (40, 4) if tiny else (200, 18)
    signal = np.empty((0, 2))
    while len(signal) < n:
        cand = rng.uniform(-1.5, 1.5, size=(2 * n, 2))
        keep = (
            (np.abs(cand[:, 0]) > 0.2)
            & (np.abs(cand[:, 1]) > 0.2)
            & (np.abs(cand[:, 0] + cand[:, 1]) > 0.25)
        )
        signal = np.vstack([signal, cand[keep]])
    signal = signal[:n]
    features = _jitter(seed, np.hstack([signal, rng.normal(0.0, 1.0, size=(n, n_noise))]))
    names = ("f1", "f2", *(f"n{i:02d}" for i in range(n_noise)))
    algorithms = ("A", "B", "C")
    outcomes = np.stack(
        [signal[:, 0] > 0, signal[:, 1] > 0, signal.sum(axis=1) > 0], axis=1
    ).astype(np.int8)
    ids = [f"inst{i:05d}" for i in range(n)]
    config = {
        "ga.population": "3" if tiny else "5",
        "ga.generations": "1",
    }
    return Inputs(
        seed=seed,
        csv=_csv(names, algorithms, ids, ["synthetic"] * n, features, outcomes),
        config=config,
        feature_names=names,
        algorithms=algorithms,
        instances=n,
        rows_in=n,
        pinned=False,
        base=features,
    )


def sparse_portfolio(seed: int, tiny: bool = False) -> Inputs:
    """Many instance ids written as 1-4 sub-program rows each, 8 dataset tags
    and 16 algorithms, each attempted on ~80 instances of one tag and MISSING
    elsewhere. The GA window is pinned to one subset, so the SVMs stay small
    and ingest, table reloads, footprints and SVG rendering carry the run."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    n_ids, m, n_tags, n_algs, attempted = (300, 5, 4, 4, 20) if tiny else (4000, 12, 8, 16, 80)
    names = tuple(f"m{i + 1:02d}" for i in range(m))
    algorithms = tuple(f"T{a:02d}" for a in range(n_algs))
    tag_of = rng.integers(0, n_tags, size=n_ids)
    clean = rng.normal(0.0, 1.0, size=(n_ids, m)) + tag_of[:, None] * 0.3

    outcomes = np.full((n_ids, n_algs), -1, dtype=np.int8)
    for a in range(n_algs):
        members = np.flatnonzero(tag_of == a % n_tags)
        chosen = np.sort(rng.choice(members, size=attempted, replace=False))
        w = rng.normal(0.0, 1.0, size=m)
        score = clean[chosen] @ w + rng.normal(0.0, 0.3, size=attempted)
        good = score > np.median(score)  # balanced, so every class has members
        outcomes[chosen, a] = good.astype(np.int8)

    # 1-4 sub-program rows per id; feature rows average back to the id's values.
    repeats = rng.integers(1, 5, size=n_ids)
    row_id = np.repeat(np.arange(n_ids), repeats)
    spread = rng.normal(0.0, 0.1, size=(len(row_id), m))
    starts = np.concatenate([[0], np.cumsum(repeats)[:-1]])
    spread -= np.repeat(np.add.reduceat(spread, starts, axis=0) / repeats[:, None], repeats, axis=0)
    order = rng.permutation(len(row_id))  # sub-program rows arrive interleaved
    base = _jitter(seed, clean)
    features = (base[row_id] + spread)[order]
    row_id = row_id[order]
    ids = [f"prog{i:05d}" for i in row_id]
    tags = [f"bench{tag_of[i]}" for i in row_id]
    config = {
        "ga.population": "2",
        "ga.generations": "1",
        "ga.min_k": str(m),
        "ga.max_k": str(m),
    }
    return Inputs(
        seed=seed,
        csv=_csv(names, algorithms, ids, tags, features, outcomes[row_id]),
        config=config,
        feature_names=names,
        algorithms=algorithms,
        instances=n_ids,
        rows_in=len(row_id),
        pinned=True,
        base=base,
    )


WORKLOADS: dict[str, Callable[[int, bool], Inputs]] = {
    "ga-search": ga_search,
    "sparse-portfolio": sparse_portfolio,
}


def select_vectors(inputs: Inputs, names: list[str], count: int, seed: int) -> list[str]:
    """``count`` stdin texts of ``name,value`` lines, one vector each: a table
    row, jittered, restricted to the features a model directory expects."""
    rng = np.random.default_rng([seed, 1])
    cols = [inputs.feature_names.index(n) for n in names]
    rows = rng.integers(0, inputs.instances, size=count)
    values = inputs.base[np.ix_(rows, cols)] + rng.normal(0.0, 0.05, size=(count, len(cols)))
    return ["".join(f"{n},{v:.6f}\n" for n, v in zip(names, row)) for row in values.tolist()]
