"""kgdialog benchmark.

Run from the root of a kgdialog checkout:

    python3 bench/run.py --workload dialogs-grouped --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures an
untraced half-run, then a traced half-run that wraps the library's public
functions, and reports the per-layer metrics, each layer's self time and
the tracing overhead; the spans go to ``.bench_out/``.  ``--profile 1``
adds one cProfile pass after the measured ones and writes its top 10 by
cumulative time beside the trace.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import os
import pstats
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# One process, one thread: numpy's BLAS would start a worker thread per core,
# which on a small shared host times the scheduler rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("dialogs-grouped", "dialogs-simple", "qa-answer", "embed")
# set-up repeats until it has run SETUP_MIN times and SETUP_SECONDS in total
# (at most SETUP_MAX times); setup_s is the median
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 200, 1.5

def parse_args(argv):
    p = argparse.ArgumentParser(description="kgdialog benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="input size factor (tests use a small one)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kgdialog" / "__init__.py").is_file():
        print(f"error: no kgdialog sources under {SRC}; run from a kgdialog checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    for needed in (workloads.TEMPLATES, ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: missing {needed}", file=sys.stderr)
            return 2
    OUT.mkdir(exist_ok=True)
    try:
        result = run(args)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


def run(args) -> dict:
    import layers
    import workloads
    from spans import Tracer
    from speed import Speed

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, OUT)
    setup_tracer = Tracer()
    layers.register(setup_tracer)
    speed = Speed()
    setup_s: list[float] = []
    while len(setup_s) < SETUP_MAX and (len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_SECONDS):
        speed.pay()
        gc.collect()
        start = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - start)
        speed.owe(setup_s[-1])
    if args.trace:
        with setup_tracer.active():
            wl.setup()

    gc.collect()
    tracer = None
    if args.trace:
        passes = [wl.measure(args.seconds / 2, speed=speed)]
        tracer = Tracer()
        layers.register(tracer)
        gc.collect()
        passes.append(wl.measure(args.seconds / 2, tracer))
    else:
        passes = [wl.measure(args.seconds, speed=speed)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factor = speed.factor()
    timings = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s, "latencies_ms": passes[0].latencies_ms,
               "speed_kernel_ms": speed.calls_ms}
    (OUT / f"timings-{wl.name}-seed{args.seed}.json").write_text(json.dumps(timings), encoding="utf-8")

    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes) + wl.check())
    main_pass = passes[0]
    latencies = main_pass.latencies_ms
    e2e = {
        "setup_s": (statistics.median(setup_s) * factor, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_ms_norm": (statistics.fmean(latencies) * factor, "ms"),
    }
    report = {
        **e2e,
        "setup_s_raw": (statistics.median(setup_s), "s"),
        "op_ms_mean": (statistics.fmean(latencies), "ms"),
        "speed_kernel_ms": (statistics.fmean(speed.calls_ms), "ms"),
        "op_ms_p50": (layers.percentile(latencies, 0.5), "ms"),
        "op_ms_p90": (layers.percentile(latencies, 0.9), "ms"),
        "fail_ratio": (failed / attempted, "ratio"),
        **wl.report(passes),
    }
    lines = [f"workload {wl.name}  seed {args.seed}  operation: one {wl.unit}  "
             f"{len(latencies)} operations, {main_pass.elapsed_s:.3f} s inside them"]
    lines += [f"  {name:<28} {value:>14.6g} {unit}" for name, (value, unit) in report.items()]
    lines += [f"  {name:<28} {value}" for name, value in wl.digests().items()]
    lines += [f"  problem: {p}" for p in wl.problems[:20]]

    if args.trace:
        traced = passes[1]
        per_layer = layers.metrics(tracer, len(traced.latencies_ms), traced.elapsed_s)
        per_layer["kg_store.build_ms"] = layers.metrics(setup_tracer, 1, 1.0)["kg_store.build_ms"]
        base_ms = statistics.median(main_pass.latencies_ms)
        traced_ms = statistics.median(traced.latencies_ms)
        per_layer["trace.overhead_pct"] = (100 * (traced_ms - base_ms) / base_ms, "%")
        path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.dump(path, {"workload": wl.name, "seed": args.seed, "per_layer": per_layer, "end_to_end": report})
        lines.append(f"traced pass: {len(traced.latencies_ms)} operations; spans in {path.relative_to(ROOT)}")
        lines += [f"  {name:<44} {value:>14.6g} {unit}" for name, (value, unit) in per_layer.items()]
        metrics = _declared(declared["per_layer"], per_layer)
    else:
        metrics = _declared(declared["end_to_end"], e2e)

    if args.profile:
        lines.append(profile(wl, args))
    return {
        "lines": lines,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _declared(entries: list[dict], measured: dict) -> dict:
    """The metrics BENCHMARK.json declares, in its order and units."""
    out = {}
    for entry in entries:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} is measured in {unit}, BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = (value, unit)
    return out


class Profiler:
    """Takes a tracer's place in ``measure``: it profiles where a tracer
    would record, inside the timed operations, and records no spans."""

    def __init__(self) -> None:
        self.prof = cProfile.Profile()
        self.spans: list = []

    @contextmanager
    def active(self):
        self.prof.enable()
        try:
            yield self
        finally:
            self.prof.disable()

    @contextmanager
    def operation(self, op: int, name: str = "bench.op"):
        yield


def profile(wl, args) -> str:
    """One extra pass under cProfile, after and apart from the measured ones;
    input preparation and checks between operations are left out."""
    profiler = Profiler()
    wl.measure(max(1.0, args.seconds / 4), profiler)
    buf = io.StringIO()
    pstats.Stats(profiler.prof, stream=buf).sort_stats("cumulative").print_stats(10)
    path = OUT / f"profile-{wl.name}-seed{args.seed}.txt"
    path.write_text(buf.getvalue(), encoding="utf-8")
    return f"cProfile top 10 by cumulative time in {path.relative_to(ROOT)}"


if __name__ == "__main__":
    sys.exit(main())
