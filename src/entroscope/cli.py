"""Command-line front end.

Exit codes: 0 on success, 2 for anything wrong with the input (bad
flags, malformed files, invalid angles or partitions), out of memory or
output that cannot be written (a closed stdout included), 1 for an
internal numerical fault.  Data goes to stdout, messages to stderr; a
message stderr cannot take is dropped, and the exit code stands.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys

from . import __version__
from .entropy import MAX_PARTIES, DiagramBundle, PartitionSpec
from .errors import NumericalFaultError, ValidationError
from .report import (
    CAT_GROUPINGS,
    SCENARIO_IDS,
    diagram_document,
    load_state,
    render_report_table,
    report_document,
    serialize_document,
)

SEED_ENV_VAR = "ENTROSCOPE_SEED"

ANGLE_ALIASES = {"z": 0.0, "x": math.pi / 2.0}

# The flag of each scenario parameter; giving one to a scenario that does
# not take its parameter is an error, not a no-op.
_PARAM_FLAGS = {
    "theta1": "--theta1",
    "theta2": "--theta2",
    "shots": "--shots",
    "grouping": "--grouping",
    "with_observer": "--observer",
}


def parse_angle(text: str) -> float:
    """Radians, or the aliases z (0) and x (pi/2)."""
    token = text.strip().lower()
    if token in ANGLE_ALIASES:
        return ANGLE_ALIASES[token]
    try:
        angle = float(token)
    except ValueError:
        angle = math.nan  # rejected below along with nan and inf
    if not math.isfinite(angle):
        raise ValidationError(
            f"bad angle {text!r}: expected finite radians or one of {sorted(ANGLE_ALIASES)}"
        )
    return angle


def parse_partition(text: str) -> PartitionSpec:
    """Parse 'Q=0,1;A1=2;A2=3' into a PartitionSpec."""
    parties = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, factors = chunk.partition("=")
        if not eq or not name.strip():
            raise ValidationError(f"bad partition chunk {chunk!r}: expected NAME=i,j,...")
        try:
            fs = frozenset(int(f) for f in factors.split(","))
        except ValueError:
            raise ValidationError(f"bad factor list in {chunk!r}") from None
        parties.append((name.strip(), fs))
    if not parties:
        raise ValidationError(f"empty partition spec {text!r}")
    return PartitionSpec(tuple(parties))


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        seed = int(raw)
    except ValueError:
        seed = -1  # rejected below along with negative seeds
    if seed < 0:
        raise ValidationError(f"{SEED_ENV_VAR}={raw!r} is not a non-negative integer")
    return seed


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as one error line, with no usage dump."""

    def __init__(self, **kwargs):
        # sub-parsers share the class, so every flag has one spelling,
        # which _join_negative_angles knows
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)

    def _print_message(self, message, file=None):
        # argparse's own drops an OSError, and --version then exited 0 with
        # its line lost.  Only --help and --version print here, to
        # sys.stdout, so a None file is a closed stdout, not stderr's cue.
        if message:
            _write(message, file)


def _join_negative_angles(argv) -> list[str]:
    """["--theta1", "-1e-3"] -> ["--theta1=-1e-3"]; argparse would take a
    value starting with one "-" (-1e-3, -inf) for an unknown option."""
    out: list[str] = []
    for token in argv:
        after_angle_flag = out and out[-1] in ("--theta1", "--theta2", "--angles")
        if after_angle_flag and token.startswith("-") and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _check_leading_flags(parser: argparse.ArgumentParser, argv) -> None:
    """Name an unknown flag ahead of the command; argparse would report
    the missing or invalid command instead ("--vers" -> "required: command").
    Reads argparse's private flag table; test_mistyped_top_level_flag_is_named
    fails if a Python release changes it."""
    for token in argv:
        if token in ("-", "--") or not token.startswith("-"):
            return
        if token.partition("=")[0] not in parser._option_string_actions:
            raise ValidationError(f"unrecognized arguments: {token}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="entroscope",
        description="Entropy Venn diagrams and pre-measurement analysis for small quantum systems.",
    )
    ap.add_argument("--version", action="version", version=f"entroscope {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="run a canned analysis")
    sc.add_argument("scenario_id", choices=SCENARIO_IDS)
    sc.add_argument("--theta1", type=parse_angle, help="first device angle (radians, or z|x)")
    sc.add_argument("--theta2", type=parse_angle, help="second device angle (radians, or z|x)")
    sc.add_argument("--shots", type=int, help="sample this many shots (default 0 = exact only)")
    sc.add_argument("--seed", type=int, default=None, help=f"sampling seed (default {SEED_ENV_VAR} or 0)")
    sc.add_argument("--grouping", choices=CAT_GROUPINGS,
                    help="which factors form the atomic party in the cat scenario (default atom_gamma)")
    sc.add_argument("--observer", action="store_true", default=None, dest="with_observer",
                    help="include the observer factor (cat scenario)")

    dg = sub.add_parser("diagram", help="Venn diagram of a state file under a partition")
    dg.add_argument("--state", required=True, help="path to a state JSON file")
    dg.add_argument("--partition", required=True, help="e.g. 'Q=0,1;A1=2;A2=3'")

    ch = sub.add_parser("chsh", help="CHSH correlator sum")
    ch.add_argument("--angles", help="a,a',b,b' in radians (or z|x); default canonical")
    ch.add_argument("--scan", type=int, default=0, metavar="N", help="also scan N random angle sets")
    ch.add_argument("--seed", type=int, default=None, help=f"scan seed (default {SEED_ENV_VAR} or 0)")

    au = sub.add_parser("audit", help="entropy inequality audit of a state file")
    au.add_argument("--state", required=True, help="path to a state JSON file")
    au.add_argument("--partition", default=None, help="defaults to one party per factor")

    for cmd, run in ((sc, _cmd_scenario), (dg, _cmd_state), (ch, _cmd_scenario), (au, _cmd_state)):
        cmd.add_argument("--format", choices=("json", "table"), default="table")
        cmd.set_defaults(run=run)
    return ap


def _write(text: str, stream) -> None:
    """Write text to stream and flush it, so a full disk is main's one error
    line, not a traceback at exit.  Python sets a stream to None when its
    descriptor was closed at start; that is a failed write too."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    stream.write(text)
    stream.flush()


def _emit_doc(doc: dict, fmt: str) -> None:
    _write((serialize_document(doc) if fmt == "json" else render_report_table(doc)) + "\n", sys.stdout)


def _fail(line: str, code: int) -> int:
    """Print line on stderr and return code.  A line stderr cannot take is
    dropped: it never goes to stdout, and the code stays what it was."""
    try:
        _write(line + "\n", sys.stderr)
    except OSError:
        pass
    return code


def _cmd_scenario(args) -> int:
    """scenario and chsh: flags -> run_scenario parameters."""
    # diagram and audit never load the scenario runners and their modules
    from .scenarios import run_scenario, scenario_parameters

    if args.command == "chsh":
        scenario_id, params = "chsh", {"scan_points": args.scan}
        if args.angles is not None:
            tokens = [t for t in args.angles.split(",") if t.strip()]
            if len(tokens) != 4:
                raise ValidationError(f"--angles needs 4 comma-separated values, got {len(tokens)}")
            params["angles"] = tuple(parse_angle(t) for t in tokens)
    else:
        scenario_id = args.scenario_id
        params = {p: getattr(args, p) for p in _PARAM_FLAGS if getattr(args, p) is not None}
    takes = scenario_parameters(scenario_id)
    stray = [_PARAM_FLAGS[p] for p in params if p not in takes]
    if stray:
        raise ValidationError(f"scenario {scenario_id} does not use {', '.join(stray)}")
    seed = args.seed if args.seed is not None else default_seed()
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if "seed" in takes:
        params["seed"] = seed
    report = run_scenario(scenario_id, **params)
    _emit_doc(report_document(report), args.format)
    return 0


def _cmd_state(args) -> int:
    """diagram and audit: one state file, one partition, one diagram."""
    partition = None if args.partition is None else parse_partition(args.partition)
    state = load_state(args.state)
    if partition is None:
        n = len(state.dims)
        if n > MAX_PARTIES:
            raise ValidationError(f"state has {n} factors; pass --partition to group them"
                                  f" into at most {MAX_PARTIES} parties")
        partition = PartitionSpec(
            tuple((f"F{i}", frozenset({i})) for i in range(n))
        )
    _emit_doc(diagram_document(args.state, DiagramBundle.of(state, partition)), args.format)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = _join_negative_angles(sys.argv[1:] if argv is None else argv)
        _check_leading_flags(parser, argv)
        args = parser.parse_args(argv)
        # argparse (seen on 3.11) strips the "--" of "--flag=--" and stores []
        empty = [dest for dest, value in vars(args).items() if value == []]
        if empty:
            raise ValidationError(f"argument --{empty[0]}: expected one argument")
        return args.run(args)
    except SystemExit as exc:  # --help and --version print to stdout and exit 0
        return int(exc.code or 0)
    except ValidationError as exc:
        return _fail(f"error: {exc}", 2)
    except NumericalFaultError as exc:
        return _fail(f"numerical fault: {exc}", 1)
    except MemoryError:
        return _fail("error: out of memory", 2)
    except OSError as exc:  # writing stdout; the reader turns its own into ValidationError
        return _fail(f"error: cannot write output: {exc.strerror or exc}", 2)
