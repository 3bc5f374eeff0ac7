"""In-process runs of the ``wgames`` command line, for tests.

``CliRunner().invoke(main, args)`` calls ``main(args, prog_name="wgames")``
with stdout and stderr captured and returns a :class:`Result`.  The run's
exception is kept unless it is a ``SystemExit`` with code 0; any other
exception than ``SystemExit`` gives exit code 1.
"""

import io
from contextlib import redirect_stderr, redirect_stdout


class Result:
    def __init__(self, exit_code: int, stdout: str, stderr: str, exception) -> None:
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.exception = exception

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


class CliRunner:
    def invoke(self, main, args) -> Result:
        out, err = io.StringIO(), io.StringIO()
        exception = None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main(list(args), prog_name="wgames")
                exit_code = 0
            except SystemExit as exc:
                code = exc.code
                exit_code = code if isinstance(code, int) else (0 if code is None else 1)
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return Result(exit_code, out.getvalue(), err.getvalue(), exception)
