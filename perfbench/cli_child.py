"""Run one ``cdconf`` subcommand in this fresh process through ``cdconf.cli.main``.

    python3 perfbench/cli_child.py [--spans FILE [--memory]] -- detect --t1 ... --out DIR

This stands in for the ``cdconf`` console script, so that a traced run can
record spans inside the child.  With ``--spans FILE`` every traced layer
function records spans, and the spans go to FILE as JSON when ``main``
returns; ``--memory`` adds ``tracemalloc`` peaks to them.  The exit code is ``main``'s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    memory = argv[:1] == ["--memory"]
    if memory:
        argv = argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(HERE.parent / "src"))
    import cdconf.cli

    if spans_path is None:
        return cdconf.cli.main(argv)

    import tracemalloc

    from layers import LAYERS, SIZERS
    from tracer import Tracer, instrument, spans_to_json

    tracer = Tracer(memory=memory)
    instrument(tracer, LAYERS, SIZERS)
    if memory:
        tracemalloc.start()
    tracer.enabled = True
    try:
        return cdconf.cli.main(argv)
    finally:
        tracer.enabled = False
        Path(spans_path).write_text(json.dumps(spans_to_json(tracer.spans)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
