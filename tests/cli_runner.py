"""Run the archmatch command line in process and capture what it prints.

`run(*args, env=None)` calls `archmatch.cli.main` with stdout and stderr
redirected and `env` laid over `os.environ`, and returns the exit code and
the captured text. Exceptions other than `SystemExit` propagate.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from unittest import mock

from archmatch.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in the order they were written

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()

    @property
    def stderr_bytes(self) -> bytes:
        return self.stderr.encode()


class _Capture(io.StringIO):
    """A stream that also copies what it is given to a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


def run(*args: str, env: dict[str, str] | None = None) -> Result:
    output = io.StringIO()
    stdout, stderr = _Capture(output), _Capture(output)
    exit_code = 0
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(stdout), \
            redirect_stderr(stderr):
        try:
            main(list(args), prog_name="archmatch")
        except SystemExit as exit_:
            exit_code = exit_.code or 0
    return Result(exit_code, stdout.getvalue(), stderr.getvalue(), output.getvalue())
