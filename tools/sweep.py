"""Sweep the suites, the point pipeline or the orbit layer over a range of
seeds.

    PYTHONPATH=src python tools/sweep.py suites --seeds 0-99
    PYTHONPATH=src python tools/sweep.py points --seeds 0-99
    PYTHONPATH=src python tools/sweep.py towers --seeds 0-99

suites: run_suite("all", s) passes at every seed s.
points: at each seed, eight translates of Z-points and four translates of
engineered unstable points, all at height 2^8, then the engineered
{p1=p2=p3=0} point (the one whose verdicts move it under both characters)
and a Z-point, each moved by rand_tower_group_element at depths 1 and 2,
all drawn from random.Random("point-sweep/<seed>"), go through point JSON,
both oracles, the King check, the re-verification of every unstable
verdict and the charts.
towers: at each seed, b* moved by rand_tower_group_element at depths 1 and
2 and a height-16 chart point moved by a rational element, drawn from
random.Random("tower-sweep/<seed>"), survive a point-JSON round trip; both
translates of b* have the quaternion stabilizer of order 8, listed first in
a relaxed one of order 16, and one act per listed element proves that the
eight fix the H-part and the other eight send it to (-alpha, -beta, B); and
connect carries b* to each of the three and back.

Prints the failing seeds (or seed/point pairs), "none" when there are none,
and exits 1 when any fail.  A usage error, an empty or reversed --seeds
range included, exits 2 with one line on stderr.  Every mode also runs
under python -O.
"""

import argparse
import json
import random
import sys

from d4vgit.charts import from_quiver_chart, normalize, normalize_rep, to_quiver_chart
from d4vgit.equations import residuals
from d4vgit.gitcore import MINUS_THETA, THETA, PointHV, act, point_from_json, point_to_json
from d4vgit.mckay import base_point, connect, stabilizer
from d4vgit.quiver import build_rep, king_stable
from d4vgit.sampling import (
    engineered_unstable_points, rand_chart_point, rand_group_element, rand_tower_group_element,
    rand_z_point,
)
from d4vgit.stability import semistable_minus_theta, semistable_theta, verify_certificate
from d4vgit.suites import run_suite

HEIGHT = 1 << 8


def sweep_suites(seeds):
    bad = [s for s in seeds if not run_suite("all", s).passed]
    print("failing seeds: %s" % (bad or "none"))
    return bad


def holds(p, engineered):
    """Whether the point pipeline holds at p, read back from point JSON."""
    p = point_from_json(json.loads(json.dumps(point_to_json(p))))
    theta, minus = semistable_theta(p), semistable_minus_theta(p)
    if not residuals(p).is_zero() or theta.is_stable != king_stable(build_rep(p)):
        return False
    for v, chi in ((theta, THETA), (minus, MINUS_THETA)):
        if not v.is_stable and not verify_certificate(p, v.certificate, chi, v.adapting):
            return False
    if engineered:
        return not theta.is_stable and not minus.is_stable
    if not minus.is_stable:
        return False
    if not theta.is_stable:
        return True
    idx = theta.witness_index + 1
    c = normalize(p, idx)
    return (c.validate() and from_quiver_chart(to_quiver_chart(c)) == c
            and normalize_rep(build_rep(p), idx) == to_quiver_chart(c))


def orbit_holds(p, moved_base_point):
    """Whether the orbit layer holds at p, read back from point JSON."""
    back = point_from_json(json.loads(json.dumps(point_to_json(p))))
    if back != p:
        return False
    if moved_base_point:
        group, relaxed = stabilizer(p), stabilizer(p, fix_beta=False)
        if not (group.order() == 8 and group.is_quaternion() and relaxed.order() == 16
                and relaxed.elements[:8] == group.elements):
            return False
        # one act per listed element: the even half fixes the H-part, the
        # odd half sends it to (-alpha, -beta, B)
        flipped = PointHV(tuple(-a for a in p.alpha), -p.beta, p.B, p.x)
        for k, h in enumerate(relaxed.elements):
            if not act(h, p).same_h_part(p if k < 8 else flipped):
                return False
    b = base_point()
    for source, target in ((b, p), (p, b)):
        h = connect(source, target)
        if h is None or not act(h, source).same_h_part(target):
            return False
    return True


def point_sample(rng):
    """(point, engineered) for the points mode."""
    points = [(act(rand_group_element(rng, HEIGHT), rand_z_point(rng, HEIGHT)), False)
              for _ in range(8)]
    engineered = engineered_unstable_points(rng)
    unstable = [p for _, p in engineered if not p.x.is_zero()]
    points += [(act(rand_group_element(rng, HEIGHT), rng.choice(unstable)), True)
               for _ in range(4)]
    both_moved = dict(engineered)["{p1=p2=p3=0}"]
    points += [(act(rand_tower_group_element(rng, depth), both_moved), True)
               for depth in (1, 2)]
    return points + [(act(rand_tower_group_element(rng, depth), rand_z_point(rng, HEIGHT)),
                      False) for depth in (1, 2)]


def tower_sample(rng):
    """(point, moved_base_point) for the towers mode."""
    b = base_point()
    points = [(act(rand_tower_group_element(rng, depth), b), True) for depth in (1, 2)]
    return points + [(act(rand_group_element(rng), rand_chart_point(rng, 16)), False)]


def sweep_each_point(seeds, name, sample, check):
    """check(p, flag) over sample(random.Random("<name>/<seed>")) at each seed."""
    bad = []
    for seed in seeds:
        for k, (p, flag) in enumerate(sample(random.Random("%s/%d" % (name, seed)))):
            try:
                ok = check(p, flag)
            except Exception as err:
                ok = False
                print("seed %d point %d raised %r" % (seed, k, err))
            if not ok:
                bad.append("%d/%d" % (seed, k))
    print("failing seed/point: %s" % (", ".join(bad) or "none"))
    return bad


def sweep_points(seeds):
    return sweep_each_point(seeds, "point-sweep", point_sample, holds)


def sweep_towers(seeds):
    return sweep_each_point(seeds, "tower-sweep", tower_sample, orbit_holds)


def seed_range(text):
    """An inclusive range "first-last", or one seed; an empty (reversed)
    range is a usage error, so a sweep never passes having run nothing."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed range %r" % text)
    return seeds


SWEEPS = {"suites": sweep_suites, "points": sweep_points, "towers": sweep_towers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # a usage error is one line on stderr, exit 2
    parser.error = lambda message: parser.exit(2, "sweep: error: %s\n" % message)
    parser.add_argument("mode", choices=tuple(SWEEPS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-99"),
                        help="inclusive seed range first-last (default 0-99)")
    args = parser.parse_args(argv)
    return 1 if SWEEPS[args.mode](args.seeds) else 0


if __name__ == "__main__":
    sys.exit(main())
