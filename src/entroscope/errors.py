"""Exception taxonomy shared across the package, and the one writer of
failure lines.

The CLI maps ValidationError to exit code 2 and NumericalFaultError to
exit code 1; everything else is a bug.
"""

import errno
import os
import sys


class EntroscopeError(Exception):
    """Base class for package errors."""


class ValidationError(EntroscopeError):
    """Bad input: malformed state, angle, partition, file, or config."""


class NumericalFaultError(EntroscopeError):
    """An internal numerical contract broke (non-PSD spectrum, failed
    convergence, violated quantum entropy inequality)."""


def _write(text: str, stream) -> None:
    """Write text to stream and flush it, so a full disk is main's one error
    line, not a traceback at exit.  Python sets a stream to None when its
    descriptor was closed at start; that is a failed write too."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    stream.write(text)
    stream.flush()


def _fail(line: str, code: int) -> int:
    """Print line on stderr and return code.  A line stderr cannot take is
    dropped: it never goes to stdout, and the code stays what it was."""
    try:
        _write(line + "\n", sys.stderr)
    except OSError:
        pass
    return code
