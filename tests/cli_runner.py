"""An in-process runner for the ``hatlab`` command line.

``CliRunner().invoke(main, args)`` calls ``main(args)`` with stdout and stderr
captured, and returns the exit code, each stream, both streams interleaved in
the order they were written (``output``), and the exception that ended the call.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from unittest import mock


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None


class _Stream(io.StringIO):
    """One captured stream, also written into the interleaved ``output``."""

    def __init__(self, output: io.StringIO):
        super().__init__()
        self.output = output

    def write(self, text: str) -> int:
        self.output.write(text)
        return super().write(text)


class CliRunner:
    def invoke(self, cli, args, env=None, catch_exceptions=True) -> Result:
        """``cli(args)`` with ``env`` laid over ``os.environ``, which is restored after.
        A ``SystemExit`` gives the exit code (``None`` is 0). Any other exception is
        raised again, or with ``catch_exceptions`` kept as the result's, with exit code 1."""
        output = io.StringIO()
        stdout, stderr = _Stream(output), _Stream(output)
        code, exception = 0, None
        try:
            with mock.patch.dict(os.environ, env or {}), redirect_stdout(stdout), redirect_stderr(stderr):
                cli(list(args))
        except SystemExit as exc:
            code, exception = exc.code or 0, exc
        except Exception as exc:
            if not catch_exceptions:
                raise
            code, exception = 1, exc
        return Result(code, stdout.getvalue(), stderr.getvalue(), output.getvalue(), exception)
