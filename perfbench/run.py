"""Benchmark of ifvkit's public API: one process, one client, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Workloads: classify, mcdm, transport, cli (see workloads.py).  The library is
imported from ``src/`` of the checkout this file sits in; without it the run
exits with code 2 and prints no result.

Phases:

1. Set-up, repeated (see SETUP_REPS) and reported as the median ``setup_s``:
   import ifvkit afresh, generate the inputs from the seed, build the request
   pool (and the request files for ``cli``), and serve WARMUP requests.
2. Timed phase: whole passes over the request pool, in order, one request
   at a time, until ``--seconds`` of wall time have elapsed, with gc left on
   (set-up objects are frozen out of its scans).  Between passes, outside
   the timed passes, each output is compared with the first output of the
   same request, so memory stays bounded.  ``requests_per_s`` is requests
   over the wall time of the passes; the p50 and p99 are over their request
   latencies.  These figures leave out the slowest quarter of the passes
   (see ``summary``).

   Host speed: the host is shared, and its speed for Python code swings by up
   to a factor of two for a minute at a time, longer than a run.  So every
   time is scaled to a host of fixed speed.  The fixed kernel of
   calibration.py is timed right before and right after each pass and each
   set-up.  A pass's times are multiplied by REFERENCE_MS over the median of
   its own gauges and those of its neighbours (see Passes.scales); the
   median set-up time, by REFERENCE_MS over the median of the set-up
   gauges.  The report also prints the unscaled figures and the range of the
   scales.
3. Checks: the first output of every request in the pool is checked against
   the workload's oracle.  A request fails if any of its executions raised
   or differed from its first output, or if that output fails the check.
   ``attempted`` and ``failed`` count requests of the pool, so the same seed
   gives the same counts however many passes the run makes.

With ``--trace 1`` the timed phase is split in two halves: untraced, then
traced.  The traced half records spans around each call into a library layer
(written to ``.bench_out/spans-<workload>-<seed>.jsonl``) and reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.
Counters that wrap library functions come from one more, untimed pass over
the pool.  ``error_rate`` (failed / attempted requests) is printed in the
report; the result line carries it as ``attempted`` and ``failed``.

The last line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts every failed
request.  ``correct`` is false when any failure lies outside the known
tolerance-edge class: checks that fail only on values generated within a few
eps_order of a branch line of the order isomorphism (a tolerance-edge defect
of the library's comparators, which the order-preservation property tests in
``tests/`` reach only on rare examples).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibration
import spans
from workloads import WORKLOADS, Failure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up runs at least SETUP_REPS times and for at least SETUP_SECONDS, so
# that the median of short set-ups rests on more runs.
SETUP_REPS = 5
SETUP_SECONDS = 1.0
WARMUP = 8
# Kernel runs before the first gauge, so that the gauge times warm code.
RUNS_BEFORE_GAUGING = 3
GAUGE_SPAN = 2
KEEP_SHARE = 0.75

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# One span per layer function per request; a span absent from a workload's
# requests reports zero.
SPAN_NAMES = (
    "ifs.from_json",
    "similarity.classify",
    "ops.ifwa.short",
    "ops.ifwa.long",
    "ops.ifwg.short",
    "ops.ifwg.long",
    "qrofn.qrofwa",
    "qrofn.qrofwg",
    "qrofn.qcmp",
    "core.rank",
    "lattice.inf_finite",
    "lattice.sup_finite",
    "lattice.scan",
    "isomorphism.zx_to_xy",
    "isomorphism.xy_to_zx",
    "negation.negate_zx",
    "negation.kleene_check",
    "ifs.zadeh_extend",
    "ifs.decompose_check",
    "qrofn.negate_lw",
    "qrofn.negate_wu",
    "qrofn.transport",
    "cli.main.compare",
    "cli.main.negate",
    "cli.main.transport",
    "cli.main.aggregate",
    "cli.main.lattice",
    "cli.main.classify",
)
SPAN_FIELDS = {"calls": "calls/req", "busy_ms": "ms/req", "self_ms": "ms/req", "share": "ratio"}
COUNTERS = ("similarity.rho_evals", "core.cmp.calls", "cli.rejected.calls")


def per_layer_units() -> dict[str, str]:
    units = {f"{s}.{f}": u for s in SPAN_NAMES for f, u in SPAN_FIELDS.items()}
    units.update({c: "calls/req" for c in COUNTERS})
    units["ops.logspace_share"] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


class SetupError(Exception):
    pass


def load_ifvkit():
    """Import ifvkit from this checkout's src/, dropping any earlier import
    so that every set-up pays the import."""
    init = SRC / "ifvkit" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"ifvkit sources not found at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ifvkit" or m.startswith("ifvkit.")]:
        del sys.modules[name]
    ik = importlib.import_module("ifvkit")
    if Path(ik.__file__).resolve() != init.resolve():
        raise SetupError(f"imported ifvkit from {ik.__file__}, expected {init}")
    return ik


def inputs_digest(raw) -> str:
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


class Raised:
    """Stands in for the output of a request that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"
        self.traceback = traceback.format_exc()


class Outcomes:
    """Per-request bookkeeping: the first output of each pool slot, and the
    first reason any execution of it failed before the oracle ran."""

    def __init__(self, size: int):
        self.ref = [None] * size
        self.broken: list[str | None] = [None] * size
        self.executions = 0
        self.examples: list[str] = []

    def record(self, outputs) -> None:
        """Take the outputs of one pass over the pool."""
        for i, out in enumerate(outputs):
            self.executions += 1
            if isinstance(out, Raised):
                if not any(self.broken):
                    print(out.traceback, file=sys.stderr)
                self.broken[i] = self.broken[i] or f"raised {out.text}"
            elif self.ref[i] is None:
                self.ref[i] = out
            elif out != self.ref[i]:
                self.broken[i] = self.broken[i] or "gave a different output than before"

    def _example(self, text: str) -> None:
        if len(self.examples) < 5:
            self.examples.append(text)

    def check(self, wl, ctx) -> tuple[int, int]:
        """Run the oracle on the first output of every request; return
        (failed requests, failed requests outside the known tolerance-edge
        class)."""
        failed = unexpected = 0
        for i, out in enumerate(self.ref):
            if self.broken[i] is not None:
                failure = Failure(self.broken[i])
            else:
                try:
                    failure = wl.check(ctx, i, out)
                except Exception as exc:  # a check that crashes is a failed request
                    failure = Failure(f"check raised {type(exc).__name__}: {exc}")
            if failure is None:
                continue
            failed += 1
            unexpected += not failure.known
            self._example(f"request {i}: {failure.reason}" + (" [known tolerance edge]" if failure.known else ""))
        return failed, unexpected


def serve(wl, ctx, req, tr, rid: int):
    with tr.request(rid):
        try:
            return wl.run(ctx, req, tr)
        except Exception as exc:  # the closed loop keeps going; the request fails
            return Raised(exc)


def setup(wl, seed: int, workdir: Path):
    """One set-up: import, generate, build, warm up.  Returns its wall time
    and what it built."""
    t0 = time.perf_counter()
    ik = load_ifvkit()
    raw = wl.generate(np.random.default_rng(seed))
    ctx = wl.build(ik, raw, str(workdir))
    for k, req in enumerate(ctx.pool[:WARMUP]):
        serve(wl, ctx, req, spans.NULL, -1 - k)
    return time.perf_counter() - t0, ik, raw, ctx


class Passes:
    """Request latencies and wall time of each timed pass, in ns, and the
    host-speed gauges taken before the first pass and after each pass."""

    def __init__(self, gauge_ms: float) -> None:
        self.latencies: list[list[int]] = []
        self.walls: list[int] = []
        self.gauges = [gauge_ms]

    def add(self, latencies: list[int], wall: int, gauge_ms: float) -> None:
        self.latencies.append(latencies)
        self.walls.append(wall)
        self.gauges.append(gauge_ms)

    def requests(self) -> int:
        return sum(map(len, self.latencies))

    def scales(self) -> list[float]:
        """Factor that scales each pass to the reference host speed.  One
        gauge is short and jittery, so a pass takes the median of the gauges
        of GAUGE_SPAN passes on either side of it besides its own two."""
        g = self.gauges
        return [
            calibration.REFERENCE_MS / statistics.median(g[max(0, i - GAUGE_SPAN):i + 2 + GAUGE_SPAN])
            for i in range(len(self.walls))
        ]


def timed_phase(wl, ctx, seconds: float, tr, outcomes: Outcomes, rid: int = 0):
    """Serve whole passes over the pool until ``seconds`` of timed wall time
    have elapsed, gauging the host's speed between passes.  Returns the
    :class:`Passes` and the next request id."""
    pool = ctx.pool
    budget = int(seconds * 1e9)
    passes = Passes(calibration.gauge_ms())
    clock = time.perf_counter_ns
    while sum(passes.walls) < budget:
        latencies, outputs = [], []
        c0 = clock()
        for req in pool:
            t0 = clock()
            outputs.append(serve(wl, ctx, req, tr, rid))
            latencies.append(clock() - t0)
            rid += 1
        wall = clock() - c0
        passes.add(latencies, wall, calibration.gauge_ms())
        outcomes.record(outputs)
    return passes, rid


def summary(passes: Passes, scaled: bool = True) -> dict:
    """Throughput and latency percentiles over the KEEP_SHARE of the passes
    with the shortest time, scaled to the reference host speed unless
    ``scaled`` is false.  The passes left out are those that other load
    disturbed more than the gauges around them show."""
    scales = passes.scales() if scaled else [1.0] * len(passes.walls)
    times = [w * f for w, f in zip(passes.walls, scales)]
    keep = sorted(range(len(times)), key=times.__getitem__)[:math.ceil(KEEP_SHARE * len(times))]
    latencies = sorted(x * scales[k] for k in keep for x in passes.latencies[k])
    n = len(latencies)
    rank = math.ceil(0.99 * n)
    return {
        "rps": n / (sum(times[k] for k in keep) / 1e9),
        "p50_ms": statistics.median(latencies) / 1e6,
        "p99_ms": latencies[rank - 1] / 1e6,
        "samples": n,
        "beyond_p99": n - rank,
        "passes": len(keep),
    }


@contextlib.contextmanager
def counted_rho(counter: spans.Counter):
    """While active, count every similarity.rho evaluation into ``counter``."""
    mod = importlib.import_module("ifvkit.similarity")
    orig = mod.rho
    mod.rho = counter.counting("similarity.rho_evals", orig)
    try:
        yield
    finally:
        mod.rho = orig


def layer_metrics(tracer: spans.Tracer, requests: int, counter: spans.Counter,
                  pool_size: int, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics: span figures per traced request, counters per
    request of one pass over the pool."""
    table = tracer.layer_table(requests)
    unknown = sorted(set(table) - set(SPAN_NAMES))
    if unknown:
        raise RuntimeError(f"spans missing from SPAN_NAMES: {unknown}")
    out = {}
    for name in SPAN_NAMES:
        row = table.get(name, {})
        for field in SPAN_FIELDS:
            out[f"{name}.{field}"] = row.get(field, 0.0)
    for c in COUNTERS:
        out[c] = counter.counters.get(c, 0) / pool_size
    calls = {length: sum(table.get(f"ops.{op}.{length}", {}).get("calls", 0.0) for op in ("ifwa", "ifwg"))
             for length in ("short", "long")}
    total = calls["short"] + calls["long"]
    out["ops.logspace_share"] = calls["long"] / total if total else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return out


def print_layer_table(metrics: dict[str, float]) -> None:
    print(f"{'span':<24} {'calls/req':>10} {'busy ms/req':>12} {'self ms/req':>12} {'share':>7}")
    for name in SPAN_NAMES:
        if metrics[f"{name}.calls"]:
            print(
                f"{name:<24} {metrics[name + '.calls']:>10.1f} {metrics[name + '.busy_ms']:>12.4f}"
                f" {metrics[name + '.self_ms']:>12.4f} {metrics[name + '.share']:>7.3f}"
            )
    for c in COUNTERS + ("ops.logspace_share", "trace.overhead_pct"):
        print(f"{c:<24} {metrics[c]:>10.3f}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        return bench(wl, args, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(wl, args, workdir: Path) -> int:
    for _ in range(RUNS_BEFORE_GAUGING):
        calibration.kernel()
    durations = []
    gauges = [calibration.gauge_ms()]
    while len(durations) < SETUP_REPS or sum(durations) < SETUP_SECONDS:
        ik = raw = ctx = None
        gc.collect()  # every set-up starts from the same heap
        seconds, ik, raw, ctx = setup(wl, args.seed, workdir)
        durations.append(seconds)
        gauges.append(calibration.gauge_ms())
    setup_s = statistics.median(durations) * calibration.REFERENCE_MS / statistics.median(gauges)
    digest = inputs_digest(raw)
    # Set-up objects live for the whole run; keep them out of the collector's
    # scans so that gc pauses in the timed phase come from request garbage.
    gc.collect()
    gc.freeze()

    outcomes = Outcomes(len(ctx.pool))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs sha256 {digest}  pool {len(ctx.pool)} requests")
    print(f"setup runs (s, unscaled): {' '.join(f'{d:.4f}' for d in durations)}")

    if args.trace:
        half = args.seconds / 2.0
        untraced, rid = timed_phase(wl, ctx, half, spans.NULL, outcomes)
        tracer = spans.Tracer()
        traced, _ = timed_phase(wl, ctx, half, tracer, outcomes, rid)
        untraced_rps, traced_rps = summary(untraced)["rps"], summary(traced)["rps"]
        overhead = 100.0 * (untraced_rps - traced_rps) / untraced_rps
        counter = spans.Counter()
        with counted_rho(counter):
            outcomes.record([serve(wl, ctx, req, counter, -1) for req in ctx.pool])
        metrics = layer_metrics(tracer, traced.requests(), counter, len(ctx.pool), overhead)
        span_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"untraced {untraced_rps:.1f} req/s, traced {traced_rps:.1f} req/s "
              f"(scaled), overhead {overhead:.2f}%")
        print(f"spans written to {span_file.relative_to(ROOT)}")
        print_layer_table(metrics)
        units = per_layer_units()
    else:
        passes, _ = timed_phase(wl, ctx, args.seconds, spans.NULL, outcomes)
        scaled, raw_figures = summary(passes), summary(passes, scaled=False)
        metrics = {
            "requests_per_s": scaled["rps"],
            "latency_p50_ms": scaled["p50_ms"],
            "latency_p99_ms": scaled["p99_ms"],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        if scaled["beyond_p99"] < 10:
            print(f"warning: only {scaled['beyond_p99']} samples beyond p99", file=sys.stderr)
        for name, unit in units.items():
            print(f"{name:<16} {metrics[name]:>12.4f} {unit}")
        print(f"{len(passes.walls)} passes in {sum(passes.walls) / 1e9:.2f} s; the fastest {scaled['passes']} "
              f"hold {scaled['samples']} latency samples, {scaled['beyond_p99']} beyond the p99")
        print(f"unscaled: {raw_figures['rps']:.1f} req/s, p50 {raw_figures['p50_ms']:.4f} ms, "
              f"p99 {raw_figures['p99_ms']:.4f} ms, set-up {statistics.median(durations):.4f} s; "
              f"host speed scale {min(passes.scales()):.3f}-{max(passes.scales()):.3f}")

    failed, unexpected = outcomes.check(wl, ctx)
    attempted = len(ctx.pool)
    print(f"error_rate {failed / attempted:.4f} ratio ({failed} of {attempted} pool requests failed, "
          f"{unexpected} outside the known tolerance-edge class; {outcomes.executions} executions)")
    for line in outcomes.examples:
        print(f"  {line}")
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
