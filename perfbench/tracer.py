"""In-memory span tracer that wraps the program's public functions from outside.

``Tracer.install()`` replaces every public function defined in an ``eapr``
module with a wrapper that records a span ``[name, start, end, parent,
attrs]`` and then calls the original. A function can be bound in several
places (``selection`` does ``from .classify import train_svm``, the package
re-exports names, ``cli._STAGE_FNS`` holds the stage functions by
reference), so every module attribute and every module-level dict value that
is the original function gets the same wrapper. ``uninstall()`` puts each
original back where it was found. The program's own files are not edited.

Spans stay in memory until the run ends. The program is single-threaded, so
a plain stack gives each span its parent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from types import ModuleType

# Called once per drawn point; a span each would cost more than the call.
_SKIP = {"report.gradient_color"}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _svm(args, kwargs, result):
    labels = args[1] if len(args) > 1 else kwargs["labels"]
    return {"n": len(labels), "converged": bool(result.converged)}


def _svg(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# Facts a layer metric needs from a call's arguments or result.
OBSERVE = {
    "ingest.parse_instance_table": _rows,
    "ingest.aggregate_rows": _rows,
    "classify.train_svm": _svm,
    "report.render_footprint_svg": _svg,
    "report.render_feature_svg": _svg,
    "report.render_dataset_svg": _svg,
}


def eapr_modules() -> list[ModuleType]:
    """The ``eapr`` package and every submodule, all imported."""
    package = importlib.import_module("eapr")
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"eapr.{info.name}"))
    return mods


def binding_snapshot() -> dict[tuple[str, str, str], object]:
    """Every module attribute and module-level dict value of ``eapr``, by
    identity, so a caller can check that wrappers left nothing behind."""
    snap: dict[tuple[str, str, str], object] = {}
    for mod in eapr_modules():
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            snap[(mod.__name__, attr, "")] = value
            if isinstance(value, dict):
                for key, item in value.items():
                    snap[(mod.__name__, attr, repr(key))] = item
    return snap


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        observe = OBSERVE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = eapr_modules()
        wrappers: dict[int, object] = {}
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and f"{short}.{attr}" not in _SKIP
                ):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in wrappers:
                    self._restore.append((mod, attr, value, False))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._restore.append((value, key, item, True))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for target, key, original, is_item in reversed(self._restore):
            if is_item:
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()
