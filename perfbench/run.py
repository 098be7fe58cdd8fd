"""histq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports histq from ``src``
without installing it.  The run makes its inputs from ``--seed``, times the
set-up at least five times, warms up with one untimed round, then attempts
whole rounds of ops, one at a time, until ``--seconds`` have passed.  Times
are rescaled to a reference host speed (``clock.py``).  Every op's output is
checked outside its timed section.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  Spans of a traced run go to ``perfbench/out``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, here and in the cli children: the run is pinned to one
# vCPU (see main), and the ops multiply small matrices.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import clock  # noqa: E402  (imports numpy, after the thread count is set)
import tracing  # noqa: E402
from oracle import CheckError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5          # at least, and more until SETUP_BUDGET_S is spent
SETUP_BUDGET_S = 0.5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("evaluate", "kernel", "consistency", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_histq():
    if not (SRC / "histq" / "__init__.py").is_file():
        sys.exit(f"error: no histq sources at {SRC}; run from a histq checkout")
    sys.path.insert(0, str(SRC))
    import histq
    if Path(histq.__file__).resolve().parent != SRC / "histq":
        sys.exit(f"error: imported histq from {histq.__file__}, not from {SRC}")


def p90(values) -> float:
    """90th percentile, interpolated between order statistics, of at least
    two values."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Loop:
    """Closed loop: one op at a time, whole rounds, timed op by op."""

    def __init__(self, wl):
        self.wl = wl
        self.times: list[float] = []       # completed ops
        self.traced_times: list[float] = []
        self.raw_times: list[float] = []    # completed untraced ops, not rescaled
        self.busy = 0.0                     # all timed sections, failed ops included
        self.attempted = 0
        self.traced_attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.sample = None

    def run_op(self, i: int, tracer=None) -> None:
        """One op on pool input i, traced when a tracer is given."""
        wl = self.wl
        traced = tracer is not None
        self.attempted += 1
        if traced:
            self.traced_attempted += 1
            tracer.op = self.attempted
        try:
            if traced:
                with tracer.span("op"):
                    out, error, raw, elapsed = wl.timed_op(i, tracer)
            else:
                out, error, raw, elapsed = wl.timed_op(i)
        finally:
            if traced:
                tracer.op = -1
        if error is None and not traced:
            self.raw_times.append(raw)
        self.busy += elapsed
        if error is not None:
            self.failed += 1
            if not wl.expected_failure(i):
                print(f"op {i} failed: {type(error).__name__}: {error}", file=sys.stderr)
            return
        (self.traced_times if traced else self.times).append(elapsed)
        if wl.expected_failure(i):
            print(f"op {i} was expected to fail and did not", file=sys.stderr)
        out = wl.read(i, out)
        try:
            wl.check(i, out)
        except CheckError as exc:
            self.errors.append(f"op {i}: {exc}")
        if self.sample is None:
            self.sample = (i, out)

    def run(self, seconds: float, tracer=None) -> None:
        wl = self.wl
        rnd = 0
        start = time.perf_counter()
        while True:
            traced = tracer is not None and rnd % 2 == 1
            if traced:
                tracer.install()
            try:
                for j in range(wl.round_size):
                    self.run_op((rnd * wl.round_size + j) % wl.pool,
                                tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            rnd += 1
            # a traced run alternates untraced and traced rounds; end on a pair
            if time.perf_counter() - start >= seconds and (tracer is None or rnd % 2 == 0):
                break


def time_setup(wl, tracer) -> list[float]:
    """Rescaled times of repeated set-ups: one, traced, in a traced run."""
    times: list[float] = []
    spent = 0.0
    while not times or not tracer and (len(times) < SETUP_REPEATS
                                       or spent < SETUP_BUDGET_S):
        if tracer:
            tracer.install()
        before = clock.calibrate()
        start = time.perf_counter()
        try:
            wl.setup()
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
        spent += elapsed
        times.append(clock.scale(elapsed, before, clock.calibrate()))
    return times


def traced_metrics(loop, tracer, import_ms, cli_labels) -> dict[str, tuple[float, str]]:
    metrics = tracing.layer_metrics(tracer, loop.traced_attempted)
    overhead = 0.0
    if loop.times and loop.traced_times:
        overhead = 1e3 * (statistics.median(loop.traced_times) - statistics.median(loop.times))
    metrics["trace.overhead_ms"] = (overhead, "ms")
    metrics["cli.import_ms"] = (statistics.median(import_ms) if import_ms else 0.0, "ms")
    for label in cli_labels:
        ms = [1e3 * (s[tracing.END] - s[tracing.START]) for s in tracer.spans
              if s[tracing.NAME] == f"cli.{label}"]
        metrics[f"cli.{label}.wall_ms"] = (statistics.median(ms) if ms else 0.0, "ms")
    return metrics


def end_to_end_metrics(loop, setup_times, children: bool) -> dict[str, tuple[float, str]]:
    times = loop.times
    return {
        "ops_per_s": (len(times) / loop.busy if loop.busy else 0.0, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times) if times else 0.0, "ms"),
        "op_p90_ms": (1e3 * p90(times) if len(times) > 1 else 0.0, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(children), "MB"),
    }


def self_test(wl, sample) -> list[str]:
    """Every output nudged by 1e-6 must fail its check."""
    i, out = sample
    missed = []
    for n, bad in enumerate(wl.perturbed(i, out)):
        try:
            wl.check(i, bad)
        except CheckError:
            continue
        missed.append(f"perturbation {n} passed its check")
    return missed


def main(argv=None) -> int:
    args = parse_args(argv)
    # One vCPU for the run and its children, so that each calibration runs
    # where the op it rescales ran.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_histq()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        tracer = tracing.Tracer() if args.trace else None
        setup_times = time_setup(wl, tracer)
        wl.prepare_checks()

        loop = Loop(wl)
        if wl.name == "cli":
            wl.import_ms()      # warms the file cache for the children
        else:
            warm = Loop(wl)
            for j in range(wl.round_size):
                warm.run_op(j)
            loop.sample = warm.sample
            loop.errors += warm.errors

        import_ms = []
        if tracer and wl.name == "cli":
            wl.in_process = True
            import_ms = [wl.import_ms() for _ in range(3)]
        loop.run(args.seconds, tracer)

        errors = list(loop.errors)
        try:
            wl.extra_checks()
        except CheckError as exc:
            errors.append(str(exc))
        if loop.sample is None:
            errors.append("no op completed, so the perturbation self-test could not run")
        else:
            errors += self_test(wl, loop.sample)
        for e in errors[:10]:
            print(f"check failed: {e}", file=sys.stderr)

        if tracer:
            metrics = traced_metrics(loop, tracer, import_ms, workloads.CLI_LABELS)
            tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            if len(loop.raw_times) > 1:
                print(f"raw wall time per op: p50 {1e3 * statistics.median(loop.raw_times):.3f} ms, "
                      f"p90 {1e3 * p90(loop.raw_times):.3f} ms", file=sys.stderr)
            metrics = end_to_end_metrics(loop, setup_times, children=wl.name == "cli")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
