"""Run one `l0prune` command line with the tracer installed.

    python3 bench/clitrace.py SPANS.json prune --weights ... --out ...

Behaves like `python3 -m l0prune prune ...` (same exit code), and writes
the process's spans to SPANS.json when the command returns.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import l0prune.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        code = l0prune.cli.main(argv)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
