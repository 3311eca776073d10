"""Benchmark of d4vgit: a closed loop with one client, in one process and thread.

Run it from the root of a d4vgit checkout; it imports the package from
./src, so nothing needs installing:

    python3 perfbench/run.py --workload suite_all --seed 1 --seconds 20 --trace 0

Each op starts only after the previous one has been checked against its
known answer.  All inputs are made from --seed during set-up, before the
timed phase.  The run measures whole cycles of ops (see workloads.py) until
--seconds have passed.

--trace 0 prints the end-to-end metrics: setup_s, ops_per_s, op_ms.p50 and
peak_rss_mb.  --trace 1 runs the workload untraced for half the time and
traced for the other half, then prints the per-layer metrics (layers.py) and
the tracing overhead.  Either way, the human-readable summary comes first
and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Times are scaled to a reference host speed (see calib.py).

Any failed op makes the exit code 1 and prints the workload, seed, op index
and the op's input as JSON on standard error.  Without ./src/d4vgit the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calib

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("suite_all", "point_stream", "orbit_towers", "toric_fans")
SETUP_RUNS = 3
CALIBRATE_EVERY_S = 0.5
P90_MIN_OPS = 100


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time importing d4vgit and making the inputs, print it, exit")
    return ap.parse_args(argv)


class Sample:
    """One op: its cycle, start and end, and the checks it made."""

    __slots__ = ("cycle", "t0", "t1", "checks", "raw", "seconds")

    def __init__(self, cycle, t0, t1, checks):
        self.cycle, self.t0, self.t1, self.checks = cycle, t0, t1, checks
        self.raw = self.seconds = None

    def settle(self, sampler):
        """Remove calibration pauses (raw) and scale to reference seconds."""
        self.raw = self.t1 - self.t0 - sampler.paused(self.t0, self.t1)
        self.seconds = self.raw * sampler.scale(self.t0, self.t1)


class Phase:
    """The op samples and failures of one timed loop."""

    def __init__(self, samples, failures, cycles):
        self.samples, self.failures, self.cycles = samples, failures, cycles

    def ops_per_s(self, cycles=None, raw=False):
        chosen = [s for s in self.samples if cycles is None or s.cycle < cycles]
        return len(chosen) / sum(s.raw if raw else s.seconds for s in chosen)

    def op_ms(self, raw=False):
        return [1e3 * (s.raw if raw else s.seconds) for s in self.samples]


def measure(workload, seconds, sampler, tracer=None, after_cycle=None):
    """Run whole cycles of ops until `seconds` have passed (with `sampler`
    active)."""
    samples, failures = [], []
    start = time.perf_counter()
    cycle = 0
    while True:
        for op in workload.cycle(cycle):
            index = len(samples)
            error = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    checks = op.run()
                else:
                    checks = tracer.run_op(index, op.label, op.run)
            except Exception:       # a failed op is counted, and the loop goes on
                checks, error = 0, traceback.format_exc(limit=-3)
            samples.append(Sample(cycle, t0, time.perf_counter(), checks))
            if error is not None:
                failures.append({"workload": workload.name, "op": index, "cycle": cycle,
                                 "label": op.label, "error": error,
                                 "input": op.describe()})
        cycle += 1
        if after_cycle is not None:
            after_cycle(cycle)
        if time.perf_counter() - start >= seconds:
            break
    time.sleep(calib.HALO_S)            # let the sampler cover the last op
    for s in samples:
        s.settle(sampler)
    return Phase(samples, failures, cycle)


def measure_setup(args):
    """Median set-up time over fresh processes (see setup_only)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=150,
                              capture_output=True, text=True)
        times = json.loads(done.stdout)
        scaled.append(times["scaled"])
        raw.append(times["raw"])
    return statistics.median(scaled), statistics.median(raw)


def setup_only(args):
    """Import d4vgit and make the inputs, timed with the sampler running;
    prints the times as JSON.  Runs in a fresh process."""
    with calib.Sampler() as sampler:
        t0 = time.perf_counter()
        import workloads
        workloads.WORKLOADS[args.workload](args.seed)
        t1 = time.perf_counter()
    print(json.dumps({"scaled": sampler.reference_seconds(t0, t1),
                      "raw": t1 - t0 - sampler.paused(t0, t1)}))
    return 0


def end_to_end(args, workloads):
    setup_s, setup_raw = measure_setup(args)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    with calib.Sampler() as sampler:
        phase = measure(workload, args.seconds, sampler)
    ms, raw_ms = phase.op_ms(), phase.op_ms(raw=True)
    n = len(ms)
    lines = [
        "setup_s      %.4f s      (raw %.4f s, median of %d fresh processes)"
        % (setup_s, setup_raw, SETUP_RUNS),
        "ops_per_s    %.4f 1/s    (raw %.4f 1/s, %d ops in %d cycles)"
        % (phase.ops_per_s(), phase.ops_per_s(raw=True), n, phase.cycles),
        "op_ms.p50    %.3f ms     (raw %.3f ms, n=%d)"
        % (statistics.median(ms), statistics.median(raw_ms), n),
    ]
    if n >= P90_MIN_OPS:
        lines.append("op_ms.p90    %.3f ms     (raw %.3f ms, n=%d)"
                     % (statistics.quantiles(ms, n=10)[8],
                        statistics.quantiles(raw_ms, n=10)[8], n))
    else:
        lines.append("op_ms.p90    not reported: %d ops, fewer than %d" % (n, P90_MIN_OPS))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append("peak_rss_mb  %.2f MB" % rss_mb)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return phase.samples, phase.failures, metrics, lines


def per_layer(args, workloads):
    import layers
    import tracing
    from d4vgit import gitcore

    workload = workloads.WORKLOADS[args.workload](args.seed)
    inputs = workload.input_scalars()
    tracer = tracing.Tracer()
    calls0 = {}

    def after_cycle(cycle):
        if cycle == 1:
            calls0.update(tracer.layer_calls)
            tracer.counting = False

    with calib.Sampler() as sampler:
        untraced = measure(workload, args.seconds / 2, sampler)
        patches = tracing.install(tracer)
        try:
            tracer.counting = True
            traced = measure(workload, args.seconds / 2, sampler, tracer, after_cycle)
            stats = tracer.take()
            probes = layers.run_probes(tracer, args.seed)
        finally:
            tracing.uninstall(patches)
        kernel = layers.scalar_kernel(inputs, sampler)
    failures = untraced.failures + traced.failures
    values = dict(kernel)
    values.update(layers.layer_shares(stats, calls0))
    spans, probed = layers.span_metrics(tracer.spans, sampler)
    values.update(spans)
    values.update(layers.exact_counts(
        inputs, tracer.counts, len(workload.cycle(0)),
        sum(s.checks for s in traced.samples if s.cycle == 0)))
    try:
        values["cli.cold_start_ms"] = layers.cli_cold_start(ROOT, workload.sample_point())
    except (RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        values["cli.cold_start_ms"] = 0.0
        failures.append({"workload": workload.name, "op": "cli", "cycle": None,
                         "label": "cli.cold_start", "error": str(exc),
                         "input": gitcore.point_to_json(workload.sample_point())})
    base = untraced.ops_per_s(cycles=min(traced.cycles, untraced.cycles))
    values["trace.ops_per_s"] = traced.ops_per_s()
    values["trace.untraced_ops_per_s"] = base
    values["trace.ops_per_s_ratio"] = traced.ops_per_s() / base

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    tracer.write(spans_path)

    metrics, lines = {}, []
    for name, unit in layers.metric_units():
        metrics[name] = (values[name], unit)
        note = "  (probe)" if name in probed else ""
        lines.append("%-32s %14.6g %s%s" % (name, values[name], unit, note))
    lines.append("tracing overhead: traced %.4f ops/s / untraced %.4f ops/s = %.3f "
                 "(untraced base: the first %d cycles)"
                 % (values["trace.ops_per_s"], base, values["trace.ops_per_s_ratio"],
                    min(traced.cycles, untraced.cycles)))
    lines.append("probes run: %s" % (", ".join(probes) or "none"))
    lines.append("spans written to %s" % os.path.relpath(spans_path, ROOT))
    return untraced.samples + traced.samples, failures, metrics, lines


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "d4vgit", "__init__.py")):
        print("perfbench: no d4vgit sources at %s; run from the repository root"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        return setup_only(args)
    import workloads

    run = per_layer if args.trace else end_to_end
    samples, failures, metrics, lines = run(args, workloads)
    attempted = len(samples)
    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("attempted %d ops, failed %d, failed_share %g"
          % (attempted, len(failures), len(failures) / attempted))
    for line in lines:
        print("  " + line)
    for f in failures:
        print("FAILED workload=%s seed=%d op=%s cycle=%s label=%s input=%s\n%s"
              % (f["workload"], args.seed, f["op"], f["cycle"], f["label"],
                 json.dumps(f["input"]), f["error"]), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
