"""One traced pipeline run, in-process: ``cli.cmd_pipeline`` and then
``cli.cmd_select`` for each given vector, with every public function of the
program wrapped by the tracer.

    PYTHONPATH=src python3 perfbench/traced.py CONFIG VECTORS_JSON OUT_JSON

Writes ``{"spans", "select_outputs", "restored"}`` to OUT_JSON, where
``restored`` says whether uninstalling the wrappers left every module
attribute as it was found. Exits 1 with the program's ``E_*`` line on
stderr when the pipeline fails.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from tracer import Tracer, binding_snapshot


def main(config: str, vectors_path: str, out_path: str) -> int:
    from eapr import cli

    vectors = json.loads(Path(vectors_path).read_text())
    before = binding_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        cfg = cli.build_config(
            cli.parse_config_file(Path(config)), env_seed=os.environ.get("EAPR_SEED")
        )
        cli.cmd_pipeline(cfg)
        outputs = [cli.cmd_select(cfg.output_dir, text) for text in vectors]
    except cli.CliFailure as failure:
        print(failure, file=sys.stderr)
        return 1
    finally:
        tracer.uninstall()
    after = binding_snapshot()
    restored = before.keys() == after.keys() and all(after[k] is v for k, v in before.items())
    Path(out_path).write_text(
        json.dumps({"spans": tracer.spans, "select_outputs": outputs, "restored": restored})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
