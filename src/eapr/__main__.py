"""The command-line entry point of ``python -m eapr`` and the ``eapr`` script.

Python's cyclic garbage collector has nothing to collect in an ``eapr``
process: a pipeline, a stage and ``select`` make no reference cycles (a test
in ``tests/test_cli.py`` keeps it so), and the few that imports and the
argument parser leave live until exit. So the process runs without it.
``main`` turns it off before ``eapr.cli``, argparse and numpy are imported,
and freezes the heap at exit, so neither the run nor interpreter shutdown
walks the heap. Forked ``map_jobs`` children inherit the disabled collector
and leave by ``os._exit``.

Only ``main`` touches the collector: importing ``eapr``, this module or
``eapr.cli`` leaves it as the interpreter set it.
"""
import gc
import sys


def main() -> None:
    gc.disable()
    try:
        from .cli import main as run

        sys.exit(run())
    finally:
        gc.freeze()


if __name__ == "__main__":
    main()
