"""entroscope CLI benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it drives real
`python -m entroscope` processes in a closed loop (one client, one call in
flight), over whole passes of the workload's seeded invocation list, and
reports the end-to-end metrics.  With --trace 1 it runs the same list in
process through `entroscope.cli.main`, alternating untraced and traced
passes, and reports the per-layer metrics.  Every output is checked by
the numpy-only oracle in oracle.py.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

from spawn import THREAD_PINS, Spawner, child_env

# Pin BLAS threads before numpy loads, for generation, the oracle and the
# in-process traced run.
os.environ.update(THREAD_PINS)

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, write_spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ".bench_work"
SETUP_REPEATS = 3
MIN_PASSES = 2
# Start no pass that could end past this, so a run exits well within 180 s.
PASS_DEADLINE_S = 120.0
STARTUP_REPEATS = 7


class Checker:
    """Counts failed invocations: a bad exit code, a failed oracle check, or
    stdout that differs from an earlier call with the same arguments."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._want: dict[tuple, dict] = {}
        self._first: dict[tuple, str] = {}

    def check(self, inv: workloads.Invocation, exit_code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        if exit_code != 0:
            errors = [f"exit code {exit_code}: {stderr.strip()[:200]}"]
        else:
            if inv.argv not in self._want:
                self._want[inv.argv] = oracle.expected(inv.spec)
            errors = oracle.check(inv.spec, stdout, self._want[inv.argv])
            first = self._first.setdefault(inv.argv, stdout)
            if stdout != first:
                errors.append("stdout differs from an earlier run with the same arguments")
        if errors:
            self.failed += 1
            self.errors += [f"{' '.join(inv.argv)}: {e}" for e in errors[:3]]


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def timed_run(name: str, seed: int, seconds: float, toy: bool = False):
    """Set up SETUP_REPEATS times, then time whole passes in a closed loop."""
    workdir = f"{WORK}/{name}"
    checker = Checker()
    setup_times = []
    samples = []
    with Spawner(child_env(SRC), ROOT / workdir) as spawner:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl = workloads.build(name, seed, workdir, toy)
            wl.write_inputs()
            warm = [(inv, spawner.cli(inv.argv)) for inv in wl.warmup]
            setup_times.append(time.perf_counter() - start)
            for inv, s in warm:
                checker.check(inv, s.exit_code, s.stdout, s.stderr)

        passes = 0
        begin = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            samples += [(inv, spawner.cli(inv.argv)) for inv in wl.invocations]
            passes += 1
            now = time.perf_counter()
            pass_s, elapsed = now - pass_start, now - begin
            # Stop at the pass boundary nearest the requested run length.
            if passes >= MIN_PASSES and elapsed + pass_s / 2 >= seconds:
                break
            if elapsed + pass_s > PASS_DEADLINE_S:
                break
        batch_s = time.perf_counter() - begin
    for inv, s in samples:
        checker.check(inv, s.exit_code, s.stdout, s.stderr)

    walls = [s.wall_s for _, s in samples]
    p90 = _p90(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "invocations_per_s": len(samples) / batch_s,
        "invocation_p50_s": statistics.median(walls),
        "invocation_p90_s": p90,
        "invocation_cpu_s": statistics.median(s.cpu_s for _, s in samples),
        "peak_rss_mb": max(s.maxrss_kb for _, s in samples) / 1024.0,
        "error_rate": checker.failed / checker.attempted,
    }
    info = dict(wl.sizes, passes=passes, timed_invocations=len(samples), batch_s=batch_s,
                beyond_p90=sum(w > p90 for w in walls), thread_pins=THREAD_PINS)
    return checker, metrics, info


def _startup_s(spawner: Spawner) -> float:
    """Median `import entroscope` start-up minus median bare interpreter start-up."""
    bare, loaded = [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(spawner.run(["-c", "pass"]).wall_s)
        loaded.append(spawner.run(["-c", "import entroscope"]).wall_s)
    return statistics.median(loaded) - statistics.median(bare)


def _inprocess_pass(cli, invocations, tracer=None):
    results = []
    start = time.perf_counter()
    for i, inv in enumerate(invocations):
        if tracer is not None:
            tracer.invocation = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(inv.argv))
        results.append((inv, code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


def traced_run(name: str, seed: int, seconds: float, toy: bool = False):
    """Alternate untraced and traced in-process passes; report per-layer metrics."""
    workdir = f"{WORK}/{name}"
    wl = workloads.build(name, seed, workdir, toy)
    wl.write_inputs()
    checker = Checker()
    with Spawner(child_env(SRC), ROOT / workdir) as spawner:
        startup = _startup_s(spawner)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    tracer = Tracer()
    cli = tracer.modules["cli"]
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"entroscope imported from {cli.__file__}, not from {SRC}")
    expected_eig = sum(inv.eig_subsets for inv in wl.invocations)
    untraced, traced, layers = [], [], []
    begin = time.perf_counter()
    while True:
        wall, results = _inprocess_pass(cli, wl.invocations)
        untraced.append(wall)
        tracer.install()
        try:
            missed = tracer.missed()
            wall, traced_results = _inprocess_pass(cli, wl.invocations, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        spans, metrics = tracer.take()
        layers.append(metrics)
        for inv, code, out, err in results + traced_results:
            checker.check(inv, code, out, err)
        # Each joint entropy and each validate_psd costs exactly one eigensolve.
        want = expected_eig + metrics["linalg.DensityOperator.validate_psd.calls"]
        if missed or metrics["linalg.hermitian_eig.calls"] != want:
            checker.failed += 1
            checker.errors.append(
                f"trace incomplete: unwrapped {missed}; hermitian_eig calls "
                f"{metrics['linalg.hermitian_eig.calls']} != {want} (subsets + validate_psd)"
            )
        elapsed = time.perf_counter() - begin
        if elapsed + (untraced[-1] + traced[-1]) / 2 >= seconds or elapsed > PASS_DEADLINE_S / 2:
            break

    out: dict[str, float] = {}
    for key in layers[-1]:
        values = [m[key] for m in layers]
        if key.endswith(".self_s"):
            out[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                checker.failed += 1
                checker.errors.append(f"{key} differs between traced passes: {values}")
            out[key] = values[-1]
    base = statistics.median(untraced)
    out["cli.startup_s"] = startup
    out["trace.untraced_pass_s"] = base
    out["trace.overhead_s"] = statistics.median(traced) - base
    out["trace.overhead_share"] = out["trace.overhead_s"] / base
    info = dict(wl.sizes, traced_passes=len(traced), untraced_pass_s=untraced,
                traced_pass_s=traced, thread_pins=THREAD_PINS)
    write_spans(ROOT / workdir / "trace.jsonl", {"workload": name, "info": info}, spans)
    return checker, out, info


def _declared_metrics() -> dict[str, dict[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "entroscope" / "__main__.py").is_file():
        print(f"error: no entroscope sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = _declared_metrics()
    os.chdir(ROOT)
    run = traced_run if args.trace else timed_run
    checker, measured, info = run(args.workload, args.seed, args.seconds)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric, unit in wanted.items():
        # A traced function the program no longer has was called 0 times.
        value = measured.get(metric, 0 if args.trace and metric.endswith((".calls", ".self_s")) else None)
        if value is None:
            raise KeyError(f"benchmark does not measure declared metric {metric!r}")
        metrics[metric] = {"value": value, "unit": unit}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("inputs " + json.dumps(info))
    for metric, value in measured.items():
        unit = wanted.get(metric, "share" if metric == "error_rate" else "")
        print(f"  {metric:48s} {value:.6g} {unit}")
    for line in checker.errors[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
