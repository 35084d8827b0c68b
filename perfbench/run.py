"""The eapr benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (or any checkout holding ``src/eapr``). It
drives the real CLI, ``python -m eapr ...`` with ``src`` on PYTHONPATH, as
child processes, one at a time (a closed loop). Metric names, units and the
workload list live in ``BENCHMARK.json``; ``perfbench/README.md`` says what
each workload and metric is for.

``--trace 0`` times untraced children and prints the end-to-end metrics,
scaled by the host's speed as ``reference.py`` children measure it between
them. ``--trace 1`` alternates untraced pipeline children with traced ones
(``traced.py``, which wraps the program's public functions from outside) and
prints the per-layer metrics, including the tracing overhead.

Every operation is checked: exit status, no ``E_*`` line, a ``report.json``
that ``report.read_report`` accepts and that matches the generated input,
artifacts byte-identical to the first run of this invocation with the same
pipeline seed, and ``select``
output equal to an independent numpy evaluation of the saved models. The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are ``{"info": ...}`` records (run metadata, input and
report digests, sample counts, failure reasons). The exit code is 0 only
when every operation and every check passed.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from layers import COUNTS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

MIN_SELECTS = 20
PIPELINE_SHARE = 0.7  # of the timed run; the rest goes to `eapr select` calls
# Set up at least this many times, and for at least this long in total.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
# The reference child (reference.py) runs at least this often, and the
# end-to-end times are scaled to a host on which it takes REFERENCE_S.
REFERENCE_EVERY_S = 1.0
REFERENCE_S = 0.28
TRACE_MIN_PAIRS = 2
TRACE_VECTORS = 20  # in-process select calls in each traced run
TRACE_SELECT_CHILDREN = 3  # untraced select children compared with them
IMPORT_SAMPLES = 5
# The six stage spans may leave at most this much of cli.cmd_pipeline uncovered.
COVERAGE_SLACK_S = 0.05


@dataclass
class Proc:
    status: int  # exit code, or -signal
    wall: float  # spawn until exit, seconds
    cpu: float  # user + sys, seconds
    rss_mb: float
    stdout: str
    stderr: str
    ok: bool = False  # passed every check


@functools.cache
def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EAPR_SEED", None)  # the config file carries the seed
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], work: Path, limit_s: float, stdin_text: str | None = None) -> Proc:
    """Run one child to completion, timing it from spawn until exit. A
    watchdog kills it after ``limit_s``."""
    in_path = work / "child.in"
    if stdin_text is not None:
        in_path.write_text(stdin_text)
    with open(in_path if stdin_text is not None else os.devnull, "rb") as stdin, open(
        work / "child.out", "wb"
    ) as out, open(work / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=stdin, stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(limit_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        status=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=(work / "child.out").read_text(errors="replace"),
        stderr=(work / "child.err").read_text(errors="replace"),
    )


def process_failure(proc: Proc) -> str | None:
    error_lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("E_")]
    if proc.status != 0 or error_lines:
        detail = error_lines[0] if error_lines else proc.stderr.strip()[-300:]
        return f"exit {proc.status}: {detail}"
    return None


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    return False


class SelectOracle:
    """Ranks a feature vector from ``pca_model.json`` and ``models.json`` with
    the benchmark's own numpy code, to check what ``eapr select`` prints."""

    def __init__(self, model_dir: Path):
        import numpy as np

        self.np = np
        pca = json.loads((model_dir / "pca_model.json").read_text())
        self.names = list(pca["features"])
        self.known = sorted(self.names + list(pca["dropped"]))
        self.means = np.array(pca["means"], dtype=float)
        self.stds = np.array(pca["stds"], dtype=float)
        self.loadings = np.array(pca["loadings"], dtype=float).reshape(-1, 2)
        self.models = {}
        for name, m in json.loads((model_dir / "models.json").read_text())["models"].items():
            sv = np.array(m["support_vectors"], dtype=float).reshape(-1, 2)
            coef = np.array(m["alphas"], dtype=float) * np.array(m["labels"], dtype=float)
            self.models[name] = (m["kernel"], float(m["gamma"]), sv, coef, float(m["bias"]))

    def rank(self, text: str) -> dict[str, float]:
        np = self.np
        vector = dict(line.split(",") for line in text.splitlines())
        raw = np.array([float(vector[n]) for n in self.names])
        point = ((raw - self.means) / self.stds) @ self.loadings
        values = {}
        for name, (kernel, gamma, sv, coef, bias) in self.models.items():
            if kernel == "linear":
                k = sv @ point
            else:
                k = np.exp(-gamma * ((sv - point) ** 2).sum(axis=1))
            values[name] = float(k @ coef) + bias
        return values

    def check(self, output: str, text: str) -> str | None:
        expected = self.rank(text)
        lines = [ln.split(",") for ln in output.splitlines()]
        try:
            values = [float(value) for _, _, value in lines]
        except ValueError:
            return f"select: unparseable output {output!r}"
        if [ln[0] for ln in lines] != [str(r) for r in range(1, len(expected) + 1)]:
            return f"select: ranks {[ln[0] for ln in lines]} for {len(expected)} models"
        if sorted(ln[1] for ln in lines) != sorted(expected):
            return f"select: algorithms {[ln[1] for ln in lines]}, expected {sorted(expected)}"
        if any(b > a for a, b in zip(values, values[1:])):
            return f"select: values not descending: {values}"
        for (_, name, _), value in zip(lines, values):
            if not math.isclose(value, expected[name], rel_tol=1e-5, abs_tol=1e-9):
                return f"select: {name} printed {value}, models give {expected[name]}"
        return None


def src_metadata() -> dict:
    import numpy

    files = sorted((SRC / "eapr").glob("*.py"))
    tree = hashlib.sha256()
    for p in files:
        tree.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in files),
        "src_sha256": tree.hexdigest(),
    }


class Run:
    """One workload at one seed: setup, then a timed or a traced run."""

    def __init__(self, workload: str, seed: int, seconds: float, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.generate = workloads.WORKLOADS[workload]
        self.started = time.perf_counter()
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []  # run-level checks
        self.ref: dict[int, dict[str, str]] = {}  # artifact digests by variant
        self.pipeline: list[Proc] = []  # untraced pipeline children
        self.setup_s: list[float] = []
        self.inputs = None
        # (kind, wall) in the order measured: "reference" for the reference
        # child, "pipeline_s" and "select_ms" for timed program children.
        self.timeline: list[tuple[str, float]] = []
        self.last_reference = -math.inf

    # -- operations -------------------------------------------------------

    def limit(self) -> float:
        """Seconds a child may take before the whole run overruns 150 s."""
        return max(10.0, 150.0 - (time.perf_counter() - self.started))

    def record(self, failure: str | None) -> bool:
        self.attempted += 1
        if failure:
            self.failures.append(failure)
        return failure is None

    def write_config(self, out_dir: Path, variant: int) -> Path:
        path = self.work / f"{out_dir.name}.cfg"
        path.write_text(self.inputs.config_text(str(self.input_path), str(out_dir), variant))
        return path

    def run_pipeline(self, variant: int = 0) -> Proc:
        """One untraced pipeline child with the variant's pipeline seed. The
        first one writes the model directory that select calls use."""
        out_dir = self.work / "out" if self.pipeline else self.models
        shutil.rmtree(out_dir, ignore_errors=True)
        config = self.write_config(out_dir, variant)
        argv = [sys.executable, "-m", "eapr", "pipeline", "--config", str(config)]
        proc = spawn(argv, self.work, self.limit())
        proc.ok = self.record(process_failure(proc) or self.check_artifacts(out_dir, variant))
        self.pipeline.append(proc)
        return proc

    def check_artifacts(self, out_dir: Path, variant: int) -> str | None:
        from eapr import report

        inputs = self.inputs
        config = inputs.config
        min_k = int(config.get("ga.min_k", 4))
        max_k = min(int(config.get("ga.max_k", 12)), len(inputs.feature_names))
        try:
            rep = report.read_report(out_dir / "report.json")
            selected = rep["features"]["selected"]
            problems = [
                rep["provenance"]["input_digest"] != hashlib.sha256(inputs.csv).hexdigest()
                and "input digest",
                rep["algorithms"] != sorted(inputs.algorithms) and "algorithms",
                rep["instances"]["count"] != inputs.instances and "instance count",
                not set(selected) <= set(inputs.feature_names) and "unknown features",
                not min_k <= len(selected) <= max_k and "subset size",
                inputs.pinned and sorted(selected) != sorted(inputs.feature_names)
                and "pinned subset",
                _non_finite(rep) and "non-finite value",
            ]
            svgs = (
                [f"footprint_{a}.svg" for a in inputs.algorithms]
                + [f"feature_{f}.svg" for f in rep["selection"]["selected"]]
                + ["datasets.svg"]
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"report.json rejected: {exc!r}"
        problems += [f"missing {name}" for name in svgs if not (out_dir / name).is_file()]
        problems = [p for p in problems if p]
        if problems:
            return "report.json: " + ", ".join(problems)
        got = digests(out_dir)
        ref = self.ref.setdefault(variant, got)
        if got != ref:
            changed = sorted(k for k in got.keys() | ref.keys() if got.get(k) != ref.get(k))
            return f"artifacts differ from the first run of the same seed: {changed[:5]}"
        return None

    def run_select(self, model_dir: Path, oracle: SelectOracle | None, text: str) -> Proc:
        argv = [sys.executable, "-m", "eapr", "select", "--models", str(model_dir)]
        proc = spawn(argv, self.work, self.limit(), stdin_text=text)
        failure = process_failure(proc)
        if failure is None:
            failure = oracle.check(proc.stdout, text) if oracle else "select: no models to check"
        self.record(failure)
        return proc

    # -- host speed ---------------------------------------------------------

    def reference(self) -> None:
        proc = spawn([sys.executable, str(HERE / "reference.py")], self.work, self.limit())
        if proc.status != 0:
            self.errors.append(f"reference child: {process_failure(proc)}")
        self.timeline.append(("reference", proc.wall))
        self.last_reference = time.perf_counter()

    def reference_if_due(self) -> None:
        if time.perf_counter() - self.last_reference >= REFERENCE_EVERY_S:
            self.reference()

    def host_factor(self) -> float:
        """REFERENCE_S over the mean duration of the run's reference
        children. The host's speed drifts by up to ~1.4x over seconds to
        minutes; the program and the reference slow down together, so a time
        multiplied by this factor holds still."""
        return REFERENCE_S / statistics.fmean(self.samples("reference"))

    def samples(self, kind: str) -> list[float]:
        return [wall for k, wall in self.timeline if k == kind]

    # -- phases -----------------------------------------------------------

    def setup(self) -> None:
        """Generate and write the inputs repeatedly, timing each set-up."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.input_path = self.work / "input.csv"
        self.models = self.work / "out_ref"
        spawn([sys.executable, "-c", "import eapr.cli"], self.work, self.limit())  # warm caches
        self.reference()
        while len(self.setup_s) < SETUP_REPEATS or sum(self.setup_s) < SETUP_MIN_S:
            self.reference_if_due()
            start = time.perf_counter()
            self.inputs = self.generate(self.seed, self.tiny)
            self.input_path.write_bytes(self.inputs.csv)
            self.setup_s.append(time.perf_counter() - start)
        self.reference()

    def oracle(self) -> SelectOracle | None:
        try:
            return SelectOracle(self.models)
        except (OSError, ValueError, KeyError):
            return None

    def vectors(self, oracle: SelectOracle | None, count: int) -> list[str]:
        names = oracle.known if oracle else list(self.inputs.feature_names)
        return workloads.select_vectors(self.inputs, names, count, self.seed)

    def timed(self) -> dict[str, float]:
        """Interleave pipeline and select children so both sample the whole
        run. A pipeline starts only while pipelines hold less than the
        workload's share of the time so far and the last one's duration
        still fits before the end."""
        end = time.perf_counter() + self.seconds
        pipeline_s = select_s = 0.0
        oracle = vectors = None
        selects = 0
        while selects < MIN_SELECTS or time.perf_counter() < end:
            self.reference_if_due()
            if not self.pipeline or (
                pipeline_s * (1.0 - PIPELINE_SHARE) <= select_s * PIPELINE_SHARE
                and time.perf_counter() + self.pipeline[-1].wall <= end
            ):
                wall = self.run_pipeline(len(self.pipeline) % workloads.PIPELINE_VARIANTS).wall
                pipeline_s += wall
                self.timeline.append(("pipeline_s", wall))
                continue
            if vectors is None:
                oracle = self.oracle()
                vectors = self.vectors(oracle, 4096)
            wall = self.run_select(self.models, oracle, vectors[selects % len(vectors)]).wall
            select_s += wall
            selects += 1
            self.timeline.append(("select_ms", 1000.0 * wall))
        self.reference()
        factor = self.host_factor()
        pipelines = self.samples("pipeline_s")
        latencies = self.samples("select_ms")
        self.info["samples"] = {
            "timeline": self.timeline,  # unscaled
            "setup_s": self.setup_s,
            "host_factor": factor,
        }
        ok = [p for p in self.pipeline if p.ok] or self.pipeline
        return {
            # Means, not medians: the host also flips between a fast state and
            # one ~1.4x slower within a few seconds. A run's median then jumps
            # between the two, while its mean moves with the mix.
            "pipeline_s": factor * statistics.fmean(pipelines),
            "peak_rss_mb": statistics.median(p.rss_mb for p in ok),
            "select_mean_ms": factor * statistics.fmean(latencies),
            # The highest quartile with ten samples above it in a 40-sample run.
            "select_p75_ms": factor
            * statistics.quantiles(latencies, n=4, method="inclusive")[2],
            "setup_s": factor * statistics.median(self.setup_s),
        }

    def traced(self) -> dict[str, float]:
        start = time.perf_counter()
        config = self.inputs.config
        ga_budget = (
            int(config.get("ga.population", 50))
            * (int(config.get("ga.generations", 100)) + 1)
            * int(config.get("repeats", 1))
        )
        traced: list[Proc] = []
        layer_runs: list[dict[str, float]] = []
        select_outputs: list[str] = []
        oracle = vectors = None
        spans_path = self.work / "spans.json"
        pair = 0
        pair_s = 0.0
        # Start another pair only if it should end within the run.
        while pair < TRACE_MIN_PAIRS or time.perf_counter() + pair_s < start + self.seconds:
            pair_start = time.perf_counter()
            for kind in ("untraced", "traced") if pair % 2 == 0 else ("traced", "untraced"):
                if kind == "untraced":
                    self.run_pipeline()
                    if oracle is None:
                        oracle = self.oracle()
                        vectors = self.vectors(oracle, TRACE_VECTORS)
                    continue
                out_dir = self.work / "out_traced"
                shutil.rmtree(out_dir, ignore_errors=True)
                (self.work / "vectors.json").write_text(json.dumps(vectors))
                argv = [
                    sys.executable, str(HERE / "traced.py"), str(self.write_config(out_dir, 0)),
                    str(self.work / "vectors.json"), str(spans_path),
                ]
                proc = spawn(argv, self.work, self.limit())
                traced.append(proc)
                failure = process_failure(proc) or self.check_artifacts(out_dir, 0)
                if failure is None:
                    result = json.loads(spans_path.read_text())
                    if not result["restored"]:
                        failure = "tracer left eapr module attributes changed"
                    for text, output in zip(vectors, result["select_outputs"]):
                        failure = failure or (oracle.check(output, text) if oracle else "no models")
                    metrics = layer_metrics(result["spans"], ga_budget)
                    gap = metrics["trace.cmd_pipeline_s"] - metrics["trace.stage_sum_s"]
                    if gap > COVERAGE_SLACK_S:
                        failure = failure or f"stage spans miss {gap:.3f} s of cmd_pipeline"
                    layer_runs.append(metrics)
                    self.spans = result["spans"]
                    select_outputs = result["select_outputs"]
                self.record(failure)
            pair += 1
            pair_s = time.perf_counter() - pair_start

        # The same vectors through untraced `eapr select` children.
        for text, traced_output in zip(vectors, select_outputs[:TRACE_SELECT_CHILDREN]):
            if self.run_select(self.models, oracle, text).stdout != traced_output:
                self.errors.append("traced and untraced select outputs differ")
        imports = []
        for _ in range(IMPORT_SAMPLES):
            proc = spawn([sys.executable, "-c", "import eapr.cli"], self.work, self.limit())
            self.record(process_failure(proc))
            imports.append(1000.0 * proc.wall)

        for name in COUNTS:
            if len({m[name] for m in layer_runs}) > 1:
                self.errors.append(f"{name} differs across runs: {[m[name] for m in layer_runs]}")
        out: dict[str, float] = {}
        if layer_runs:
            out = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
            out.update({k: layer_runs[0][k] for k in COUNTS})
        out["cli.import_ms"] = statistics.median(imports)
        untraced = self.pipeline
        out["cli.cpu_s"] = statistics.median(p.cpu for p in untraced)
        if self.models.is_dir():
            out["cli.artifact_bytes"] = sum(p.stat().st_size for p in self.models.iterdir())
        out["trace.pipeline_s"] = statistics.median(p.wall for p in traced)
        out["trace.overhead_s"] = out["trace.pipeline_s"] - statistics.median(p.wall for p in untraced)
        self.info["samples"] = {"untraced": len(untraced), "traced": len(traced), "import": len(imports)}
        return out

    # -- whole run ----------------------------------------------------------

    def execute(self, trace: bool) -> tuple[dict, dict]:
        """Returns (result line, info record)."""
        self.info: dict = {"workload": self.workload, "seed": self.seed, "trace": int(trace)}
        self.spans = None
        try:
            self.setup()
            values = self.traced() if trace else self.timed()
            self.info["inputs"] = self.inputs.digests()
            report = self.models / "report.json"
            if report.is_file():
                self.info["report_sha256"] = hashlib.sha256(report.read_bytes()).hexdigest()
            if self.spans is not None:
                spans_out = WORK / f"spans-{self.workload}-{self.seed}.json"
                spans_out.write_text(json.dumps(self.spans))
                self.info["spans"] = str(spans_out.relative_to(ROOT))
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        failed = len(self.failures)
        section = bench_spec()["per_layer" if trace else "end_to_end"]
        missing = [m["name"] for m in section if m["name"] not in values]
        if missing and not failed:
            self.errors.append(f"not measured: {missing}")
        self.info["failed_ratio"] = failed / self.attempted
        self.info["failures"] = self.failures[:10]
        self.info["errors"] = self.errors
        self.info.update(src_metadata())
        result = {
            "correct": not self.errors and failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                for m in section
            },
        }
        return result, self.info


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "eapr" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'eapr'}", file=sys.stderr)
        return 2
    spec = bench_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info = Run(args.workload, args.seed, args.seconds).execute(bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


sys.path.insert(0, str(SRC))

if __name__ == "__main__":
    sys.exit(main())
