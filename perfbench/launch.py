"""Run the archmatch CLI with the tracer installed.

    python perfbench/launch.py TRACE_FILE [archmatch arguments...]

Imports `archmatch.cli`, installs the wrappers of `tracer.TARGETS`, then
calls `archmatch.cli.main` with the remaining arguments, so the traced path
is the CLI path.  The spans and counters go to TRACE_FILE as JSON when the
command exits; the exit code is the command's.  archmatch must be importable
(the benchmark puts its `src/` on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import archmatch.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        archmatch.cli.main(args=argv, prog_name="archmatch")
    except SystemExit as exit_:
        code = exit_.code
    finally:
        tracer.uninstall()
        Path(trace_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
