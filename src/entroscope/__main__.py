"""Process entry for `python -m entroscope` and the `entroscope` script."""

import gc
import os
import signal
import sys


def run() -> int:
    """Run the CLI as its own process and return the exit code.

    A closed stdout ends the process by SIGPIPE, as it ends `cat`, with
    no traceback.  The garbage collector is off while the modules load
    and their objects are then frozen, so neither the import nor the
    collection at exit walks the ~100k objects numpy and entroscope
    create.  cli.main itself changes neither setting.
    """
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    gc.disable()
    try:
        from .cli import main
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
