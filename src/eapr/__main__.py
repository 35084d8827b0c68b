"""The command-line entry point of ``python -m eapr`` and the ``eapr`` script.

``main`` sends an argument list that begins with ``select`` to
``eapr.query``, which does not import ``eapr.cli``, and every other to
``eapr.cli``. It turns Python's cyclic garbage collector off before either
is imported and freezes the heap at exit: a run makes no reference cycles (a
test in ``tests/test_cli.py`` keeps it so), and those that imports and the
parser leave live until exit, so neither the run nor interpreter shutdown
walks the heap. Forked ``map_jobs`` children inherit the disabled collector
and leave by ``os._exit``. Importing ``eapr``, this module or ``eapr.cli``
leaves the collector as the interpreter set it.
"""
import gc
import sys


def main() -> None:
    gc.disable()
    try:
        if sys.argv[1:2] == ["select"]:
            from .query import main as run
        else:
            from .cli import main as run

        sys.exit(run())
    finally:
        gc.freeze()


if __name__ == "__main__":
    main()
