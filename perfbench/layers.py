"""Per-layer metrics of a traced run.

Timing metrics are medians of span durations per call.  They come from the
workload's own ops where the workload calls the function; where it does not,
the traced run calls the function in a probe (a few calls on inputs made from
the same seed at suite heights) and the metric comes from the probe's spans.
The `scalars` timings come from a fixed kernel of public Scalar/Field calls
on operands taken from the workload's inputs.  `cli.cold_start_ms` times a
fresh `d4vgit verify-point` process on one of the workload's points.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

from d4vgit import (
    charts, cyclic_s3, equations, gitcore, mckay, quiver, sampling, scalars,
    stability, suites,
)

import calib
import tracing
from workloads import coefficient_bits

# (metric, unit, span names whose per-call medians are summed, probe)
SPAN_METRICS = (
    ("gitcore.act_us", "us", ("gitcore.act",), "point"),
    ("gitcore.compose_us", "us", ("gitcore.GroupElement.compose",), "point"),
    ("equations.residuals_ms", "ms", ("equations.residuals",), "point"),
    ("equations.in_zo_ms", "ms", ("equations.in_Zo",), "point"),
    ("quiver.build_rep_us", "us", ("quiver.build_rep",), "point"),
    ("quiver.king_stable_us", "us", ("quiver.king_stable",), "point"),
    ("quiver.preprojective_ms", "ms", ("quiver.preprojective_residual",), "point"),
    ("stability.theta_ms", "ms", ("stability.semistable_theta",), "point"),
    ("stability.minus_theta_ms", "ms", ("stability.semistable_minus_theta",), "point"),
    ("charts.normalize_ms", "ms", ("charts.normalize",), "point"),
    ("charts.hat_roundtrip_ms", "ms",
     ("charts.to_quiver_chart", "charts.from_quiver_chart"), "point"),
    ("charts.closure_ms", "ms", ("charts.chart_closure_check",), "closure"),
    ("mckay.base_point_ms", "ms", ("mckay.base_point",), "base_point"),
    ("mckay.stabilizer_ms", "ms", ("mckay.stabilizer",), "stabilizer"),
    ("mckay.stabilizer_relaxed_ms", "ms", ("mckay.stabilizer.relaxed",),
     "stabilizer_relaxed"),
    ("mckay.connect_ms", "ms", ("mckay.connect",), "connect"),
) + tuple(
    ("cyclic_s3.fan_ms.n%d" % n, "ms", ("cyclic_s3.an_quotient_fan.n%d" % n,),
     "fan%d" % n) for n in range(4, 9)
) + (
    ("cyclic_s3.wall_ms", "ms", ("cyclic_s3.an_quotient_fan.wall",), "wall"),
    ("cyclic_s3.s3_stabilizer_ms", "ms", ("cyclic_s3.s3_stabilizer",), "s3"),
) + tuple(
    ("suites.%s_s" % name, "s", ("suites.suite_%s" % name,), "suite_" + name)
    for name in ("equations", "stability", "quiver", "charts", "orbit", "examples")
)
UNIT_FACTOR = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}

SCALAR_METRICS = (
    ("scalars.mul_ns.d0", "ns"), ("scalars.add_ns.d0", "ns"),
    ("scalars.inverse_ns.d0", "ns"), ("scalars.sqrt_us.d0", "us"),
    ("scalars.mul_ns.d2", "ns"), ("scalars.inverse_ns.d2", "ns"),
    ("scalars.sqrt_us.d2", "us"), ("scalars.parse_us", "us"),
)
COUNT_METRICS = (
    ("scalars.coeff_bits.p50", "bits"), ("scalars.coeff_bits.max", "bits"),
    ("scalars.tower_depth.max", "count"), ("stability.unstable_count", "count"),
    ("mckay.connect_depth.max", "count"), ("run.cycle_ops", "count"),
    ("run.cycle_checks", "count"),
)
TRACE_METRICS = (
    ("trace.ops_per_s", "1/s"), ("trace.untraced_ops_per_s", "1/s"),
    ("trace.ops_per_s_ratio", "ratio"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in tracing.LAYERS:
        out.append(("%s.calls" % layer, "count"))
        out.append(("%s.self_share" % layer, "share"))
    out += [(name, unit) for name, unit, _, _ in SPAN_METRICS]
    out += list(SCALAR_METRICS) + list(COUNT_METRICS)
    out.append(("cli.cold_start_ms", "ms"))
    out += list(TRACE_METRICS)
    return out


# -- probes ------------------------------------------------------------------------


def _probe_point(seed):
    """A theta-stable Z point at suite heights, and two group elements."""
    rng = random.Random(seed)
    while True:
        p = sampling.rand_z_point(rng)
        if stability.semistable_theta(p).is_stable:
            return p, sampling.rand_group_element(rng), sampling.rand_group_element(rng)


def _point_probe(seed):
    p, h1, h2 = _probe_point(seed)
    q = gitcore.act(h1, p)
    h1.compose(h2)
    equations.residuals(q)
    equations.in_Zo(q)
    rep = quiver.build_rep(q)
    quiver.king_stable(rep)
    quiver.preprojective_residual(rep)
    verdict = stability.semistable_theta(q)
    stability.semistable_minus_theta(q)
    chart = charts.normalize(q, verdict.witness_index + 1)
    charts.from_quiver_chart(charts.to_quiver_chart(chart))


def _connect_probe(seed):
    rng = random.Random(seed)
    target = gitcore.act(sampling.rand_group_element(rng), sampling.rand_chart_point(rng))
    mckay.connect(mckay.base_point(), target)


def _wall_probe(seed):
    try:
        cyclic_s3.an_quotient_fan(4, (0, 0, 0))
    except cyclic_s3.WallError:
        pass


PROBES = {
    "point": _point_probe,
    "closure": lambda seed: charts.chart_closure_check(),
    "base_point": lambda seed: mckay.base_point(),
    "stabilizer": lambda seed: mckay.stabilizer(mckay.base_point()),
    "stabilizer_relaxed": lambda seed: mckay.stabilizer(mckay.base_point(), fix_beta=False),
    "connect": _connect_probe,
    "wall": _wall_probe,
    "s3": lambda seed: cyclic_s3.s3_stabilizer(cyclic_s3.s3_base_point()),
}
for _n in range(4, 9):
    PROBES["fan%d" % _n] = lambda seed, n=_n: cyclic_s3.an_quotient_fan(n, 1)
for _name in suites.SUITES:
    PROBES["suite_" + _name] = lambda seed, name=_name: suites.SUITES[name](seed)


def run_probes(tracer, seed):
    """Run (traced) the probes for the span metrics the workload's spans
    lack; returns the probes run."""
    present = {span[1] for span in tracer.spans}
    needed = []
    for _, _, spans, probe in SPAN_METRICS:
        if not present.issuperset(spans) and probe not in needed:
            needed.append(probe)
    for probe in needed:
        tracer.run_op("probe." + probe, "probe", lambda: PROBES[probe](seed))
    return needed


# -- the scalar kernel ---------------------------------------------------------------


KERNEL_OPERANDS = 32
KERNEL_REPEATS = 5


def _distinct_nonzero(values):
    seen, out = set(), []
    for x in values:
        key = scalars.format_scalar(x)
        if not x.is_zero() and key not in seen:
            seen.add(key)
            out.append(x)
    return out


def _depth2_operands(d0):
    """Depth-2 elements u + v s2, with u, v = a + b s1, over a tower
    adjoined from the input coefficients (for inputs without towers)."""
    field = scalars.QI
    for d in d0:
        if field.depth == 2:
            break
        candidate, _ = scalars.adjoin_sqrt(field, field.lift(d))
        field = candidate
    k = 2
    while field.depth < 2:                  # the inputs were all squares
        field, _ = scalars.adjoin_sqrt(field, field.scalar(k))
        k += 1
    f1 = field.base
    s1, s2 = f1.generator(), field.generator()
    out = []
    for k in range(KERNEL_OPERANDS):
        a, b, c, d = (d0[(4 * k + j) % len(d0)] for j in range(4))
        u = f1.lift(a) + s1 * f1.lift(b)
        v = f1.lift(c) + s1 * f1.lift(d)
        out.append(field.lift(u) + s2 * field.lift(v))
    return out


def _per_call(fn, args, sampler):
    """Median over repeats of the reference seconds per call of fn."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        times.append(sampler.reference_seconds(t0, time.perf_counter()) / len(args))
    return statistics.median(times)


def scalar_kernel(input_values, sampler):
    """Run while `sampler` is active."""
    values = _distinct_nonzero(input_values)
    d0 = [x for x in values if x.field.is_base]
    while len(d0) < 2:
        d0.append(scalars.QI.scalar(len(d0) + 2, 1))
    d0 = (d0 * KERNEL_OPERANDS)[:KERNEL_OPERANDS]
    d2 = [x for x in values if x.field.depth == 2][:KERNEL_OPERANDS] or _depth2_operands(d0)
    pairs0 = list(zip(d0, d0[1:] + d0[:1]))
    pairs2 = list(zip(d2, d2[1:] + d2[:1]))
    sq0 = [(x * x,) for x in d0]
    sq2 = [(x.field, x * x) for x in d2]
    texts = [(scalars.format_scalar(x),) for x in d0]
    calls = {
        "scalars.mul_ns.d0": (lambda a, b: a * b, pairs0),
        "scalars.add_ns.d0": (lambda a, b: a + b, pairs0),
        "scalars.inverse_ns.d0": (lambda a, b: a.inverse(), pairs0),
        "scalars.sqrt_us.d0": (scalars.QI.sqrt, sq0),
        "scalars.mul_ns.d2": (lambda a, b: a * b, pairs2),
        "scalars.inverse_ns.d2": (lambda a, b: a.inverse(), pairs2),
        "scalars.sqrt_us.d2": (lambda f, x: f.sqrt(x), sq2),
        "scalars.parse_us": (scalars.parse_scalar, texts),
    }
    return {name: _per_call(*calls[name], sampler) * UNIT_FACTOR[unit]
            for name, unit in SCALAR_METRICS}


# -- the CLI ---------------------------------------------------------------------------


COLD_STARTS = 3


def cli_cold_start(root, point):
    """Median scaled wall time of a fresh `d4vgit verify-point` process."""
    workdir = os.path.join(root, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "cold_start_point.json")
    with open(path, "w") as fh:
        json.dump(gitcore.point_to_json(point), fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "d4vgit.cli", "verify-point", "--point", path, "--json"]
    times = []
    try:
        for _ in range(COLD_STARTS):
            before = [calib.sample() for _ in range(3)]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                                  text=True, timeout=120)
            t1 = time.perf_counter()
            after = [calib.sample() for _ in range(3)]
            times.append((t1 - t0) * calib.bracket_scale(before, after))
            if done.returncode != 0 or not json.loads(done.stdout).get("on_Z"):
                raise RuntimeError("verify-point failed: exit %d: %s"
                                   % (done.returncode, done.stderr.strip()[-300:]))
    finally:
        os.remove(path)
    return statistics.median(times) * 1e3


# -- assembling the report ---------------------------------------------------------


def span_metrics(spans, sampler):
    """(metric values, set of metrics taken from probes).  Each span's
    duration loses the calibration pauses inside it and is scaled."""
    ops, probes = {}, {}
    for _, name, t0, t1, _, op in spans:
        source = probes if isinstance(op, str) else ops
        source.setdefault(name, []).append(sampler.reference_seconds(t0, t1))
    out, probed = {}, set()
    for name, unit, names, _ in SPAN_METRICS:
        source = ops
        if not all(s in source for s in names):
            source = probes
            probed.add(name)
        out[name] = sum(statistics.median(source[s]) for s in names) * UNIT_FACTOR[unit]
    return out, probed


def layer_shares(stats, calls0):
    out = {}
    for layer in tracing.LAYERS:
        out["%s.calls" % layer] = calls0.get(layer, 0)
        out["%s.self_share" % layer] = (stats["layer_self"].get(layer, 0.0)
                                        / stats["op_time"])
    return out


def exact_counts(input_values, tracer_counts, cycle_ops, cycle_checks):
    bits = coefficient_bits(input_values)
    return {
        "scalars.coeff_bits.p50": statistics.median_low(bits) if bits else 0,
        "scalars.coeff_bits.max": max(bits, default=0),
        "scalars.tower_depth.max": max((x.field.depth for x in input_values), default=0),
        "stability.unstable_count": tracer_counts.get("stability.unstable_count", 0),
        "mckay.connect_depth.max": tracer_counts.get("mckay.connect_depth.max", 0),
        "run.cycle_ops": cycle_ops,
        "run.cycle_checks": cycle_checks,
    }
