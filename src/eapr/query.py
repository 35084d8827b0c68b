"""``eapr select``: rank the algorithms for one feature vector against a
pipeline's saved models. A repair bot runs it once per buggy program, so its
start-up is its latency: ``eapr.__main__`` sends it here without importing
``cli``, and it loads only ``codec`` and ``ranker`` besides. ``cli`` builds
its parser through ``parser`` and ``add_select`` too: usage errors match.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import ranker
from .codec import CliFailure, projection_from_dict, read, scorers_from_dict


def rank_for_vector(model_dir: Path, vector: dict[str, float]) -> list[tuple[str, float]]:
    """Standardize, project and score one feature vector against saved models."""
    try:
        pca = read(model_dir, "pca_model.json", projection_from_dict)
        models = read(model_dir, "models.json", scorers_from_dict)
    except CliFailure as failure:
        raise CliFailure(
            "E_MODEL", f"missing or corrupt model files in {model_dir}: {failure.__cause__}"
        ) from failure
    if not models:
        raise CliFailure("E_MODEL", "no algorithm models present")

    unknown = set(vector) - {*pca.features, *pca.dropped}
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


def select(args: argparse.Namespace) -> None:
    """The `select` command: rank the vector on stdin and print the ranking."""
    try:
        text = sys.stdin.buffer.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliFailure("E_MODEL", f"stdin is not UTF-8: {exc}") from exc
    sys.stdout.write(cmd_select(Path(args.models), text))


def run(command, args: argparse.Namespace) -> int:
    """Run ``command(args)``; return 0, or 1 after one `E_*` line on stderr."""
    try:
        command(args)
    except OSError as exc:  # reads map their own OSError: this is a failed mkdir or write
        print(f"E_IO {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except CliFailure as failure:
        print(failure, file=sys.stderr)
        return 1
    return 0


def parser(add_commands) -> argparse.ArgumentParser:
    """`eapr COMMAND [options]`, with the commands ``add_commands`` adds to
    its subparsers action."""
    top = argparse.ArgumentParser(
        prog="eapr", allow_abbrev=False,
        description="Map algorithm effectiveness across a 2D instance space and train a "
                    "per-algorithm selector.")
    add_commands(top.add_subparsers(dest="command", metavar="COMMAND", required=True))
    return top


def add_command(commands, name: str, help_text: str) -> argparse.ArgumentParser:
    return commands.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)


def add_select(commands) -> None:
    command = add_command(
        commands, "select",
        "Rank algorithms for a feature vector given as name,value lines on stdin.")
    command.add_argument("--models", required=True,
                         help="Directory holding pca_model.json and models.json.")


# `eapr`'s parser with one command, built once: a parser is a web of reference
# cycles, and `eapr` runs without the cyclic collector (eapr.__main__).
_PARSER = parser(add_select)


def main(argv: list[str] | None = None) -> int:
    """Run ``eapr select …`` given as ``argv`` (default: the process's arguments)."""
    return run(select, _PARSER.parse_args(argv))
