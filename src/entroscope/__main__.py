"""Process entry for `python -m entroscope` and the `entroscope` script."""

import gc
import os
import signal
import sys

from .errors import _fail


def run() -> int:
    """Run the CLI as its own process and return the exit code.

    A closed stdout ends the process by SIGPIPE, as it ends `cat`, with
    no traceback.  The garbage collector is off while the modules load
    and their objects are then frozen, so neither the import nor the
    collection at exit walks the ~100k objects numpy and entroscope
    create.  cli.main itself changes neither setting.  A failed import,
    numpy's included, ends in one stderr line and exit 2, as a MemoryError
    past the reader does.
    """
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    gc.disable()
    try:
        from .cli import main
    except MemoryError:
        return _fail("error: out of memory", 2)
    except ImportError as exc:
        # numpy's message opens with blank lines; what failed (a shared
        # object that could not be mapped, say) is its __cause__
        cause = exc.__cause__ or exc
        reason = next((line for line in str(cause).splitlines() if line.strip()), type(cause).__name__)
        return _fail(f"error: cannot import {exc.name or 'a module'}: {reason}", 2)
    finally:
        gc.freeze()
        gc.enable()
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:  # reported by main; Python's flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(run())
