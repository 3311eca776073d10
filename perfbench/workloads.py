"""The four benchmark workloads: inputs made from a seed, ops with known answers.

A workload is built from its seed during set-up (outside the timed phase).
Its ops are grouped into cycles; every cycle has the same composition, so a
run that measures whole cycles always measures the same mix of work.  Each op
calls the public API of d4vgit, checks the result against an answer known in
advance, and returns the number of checks it made.  A wrong answer raises
OpFailure; any other exception is also a failure of that op.
"""

from __future__ import annotations

import json
import random

from d4vgit import (
    charts, cyclic_s3, equations, gitcore, mckay, quiver, sampling, scalars,
    stability, suites,
)
from d4vgit.linalg import Mat2


class OpFailure(Exception):
    """An op returned a result that differs from its known answer."""


def expect(ok, what):
    if not ok:
        raise OpFailure(what)
    return 1


class Op:
    """One closed-loop operation: `run()` performs it and its checks."""

    __slots__ = ("label", "run", "describe")

    def __init__(self, label, run, describe):
        self.label = label
        self.run = run              # () -> number of checks made
        self.describe = describe    # () -> JSON-able description of the input


# -- shared helpers ---------------------------------------------------------------


def base_coefficients(x):
    """The Gaussian-rational leaves of a scalar (descending any tower)."""
    if x.field.is_base:
        return list(x.payload)
    a, b = x.payload
    return base_coefficients(a) + base_coefficients(b)


def coefficient_bits(values):
    """Bit height max(|num|, den) of every nonzero rational coefficient."""
    bits = []
    for x in values:
        for f in base_coefficients(x):
            if f != 0:
                bits.append(max(abs(f.numerator).bit_length(),
                                f.denominator.bit_length()))
    return bits


def point_scalars(p):
    return list(p.coords()) + [p.x.a, p.x.b]


def group_scalars(h):
    return list(h.t) + [h.g.a, h.g.b, h.g.c, h.g.d]


def same_h_part(p, q):
    return p.alpha == q.alpha and p.beta == q.beta and p.B == q.B


# -- suite_all ----------------------------------------------------------------------


SUITE_CHECK_IDS = frozenset("""
ch.closure_24_components ch.closure_all_remainders_zero ch.hat_roundtrip
ch.normalize_invariants ch.quiver_side_composition ch.residual_torus_equivalence
eq.G_invariance_of_Z eq.base_point_on_Z eq.base_point_open_locus
eq.beta_flip_breaks_only_E3 eq.det_identity eq.det_identity_on_orbit
eq.omega_weight eq.open_locus_G_invariant eq.semi_invariant_weight
eq.witness_E1_not_E2 eq.witness_E2_not_E1 eq.witness_semi_invariant_nonzero
eq.zero_point_on_Z ex.an_minimal_semistable ex.an_orbifold_charts
ex.an_resolution_fans ex.s3_base_residual ex.s3_stabilizer_order_6
orb.conjugate_stabilizer orb.connect_roundtrip orb.connect_self_in_stabilizer
orb.quaternion_signature orb.relaxed_order_16 orb.stabilizer_order_8
qv.central_equals_E1_contraction qv.central_trace_free qv.legs_always_zero
qv.preprojective_on_Z qv.witness_stable_but_not_preprojective qv.zero_rep
st.engineered_unstable st.minus_theta_stable_on_open_locus
st.minus_theta_unstable_certified st.pairings st.subset_certificates
st.theta_matches_king st.verdict_G_invariant st.weight_table
""".split())


class SuiteAll:
    """`run_suite("all", s)` for a list of suite seeds derived from the seed."""

    name = "suite_all"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.suite_seeds = [rng.randrange(1 << 31) for _ in range(64)]

    def cycle(self, c):
        s = self.suite_seeds[c % len(self.suite_seeds)]

        def run():
            report = suites.run_suite("all", s)
            ids = {chk.check_id for chk in report.checks}
            failing = [chk.check_id for chk in report.checks if not chk.passed]
            n = expect(not failing, "failing checks: %s" % ",".join(failing))
            n += expect(len(report.checks) == len(SUITE_CHECK_IDS),
                        "%d checks" % len(report.checks))
            n += expect(ids == SUITE_CHECK_IDS, "check ids differ: %s"
                        % sorted(ids ^ SUITE_CHECK_IDS))
            return n + len(report.checks)

        return [Op("suite", run, lambda: {"suite": "all", "seed": s})]

    def _sample_points(self):
        """The orbit points the equations suite of cycle 0 draws first."""
        rng = random.Random(self.suite_seeds[0])
        out = []
        for _ in range(60):
            h = sampling.rand_group_element(rng)
            out.append(gitcore.act(h, sampling.rand_z_point(rng)))
        return out

    def input_scalars(self):
        return [x for p in self._sample_points() for x in point_scalars(p)]

    def sample_point(self):
        return self._sample_points()[0]


# -- point_stream -------------------------------------------------------------------


POINT_HEIGHT = 1 << 8
STREAM_ORBIT_POINTS = 40
STREAM_UNSTABLE_POINTS = 8


class PointStream:
    """Exact points as point JSON: about one in six an engineered unstable
    point, the rest random Z points, all translated at height 2^8."""

    name = "point_stream"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.points = []            # (is_engineered, family, point JSON text)
        for _ in range(STREAM_ORBIT_POINTS):
            p = sampling.rand_z_point(rng, POINT_HEIGHT)
            q = gitcore.act(sampling.rand_group_element(rng, POINT_HEIGHT), p)
            self.points.append((False, "Z", json.dumps(gitcore.point_to_json(q))))
        families = [(d, p) for d, p in sampling.engineered_unstable_points(rng)
                    if not p.x.is_zero()]
        for k in range(STREAM_UNSTABLE_POINTS):
            desc, p = families[rng.randrange(len(families))]
            q = gitcore.act(sampling.rand_group_element(rng, POINT_HEIGHT), p)
            self.points.append((True, desc, json.dumps(gitcore.point_to_json(q))))
        # interleave the engineered points through the stream
        rng.shuffle(self.points)

    def cycle(self, c):
        return [Op("unstable" if eng else "stable", _point_op(eng, text),
                   lambda family=family, text=text: {"family": family,
                                                     "point": json.loads(text)})
                for eng, family, text in self.points]

    def input_scalars(self):
        return [x for _, _, text in self.points
                for x in point_scalars(gitcore.point_from_json(json.loads(text)))]

    def sample_point(self):
        return gitcore.point_from_json(json.loads(self.points[0][2]))


def _point_op(engineered, text):
    def run():
        p = gitcore.point_from_json(json.loads(text))
        n = expect(equations.residuals(p).is_zero(), "residuals nonzero")
        theta = stability.semistable_theta(p)
        minus = stability.semistable_minus_theta(p)
        king = quiver.king_stable(quiver.build_rep(p))
        n += expect(theta.is_stable == king, "theta verdict differs from King")
        if engineered:
            n += expect(not theta.is_stable, "engineered point theta-stable")
            n += expect(stability.verify_certificate(
                p, theta.certificate, gitcore.THETA, theta.adapting),
                "theta certificate rejected")
            n += expect(not minus.is_stable, "engineered point minus-theta-stable")
            n += expect(stability.verify_certificate(
                p, minus.certificate, gitcore.MINUS_THETA, minus.adapting),
                "minus-theta certificate rejected")
            return n
        n += expect(minus.is_stable, "orbit translate not minus-theta-stable")
        if not theta.is_stable:
            return n + expect(stability.verify_certificate(
                p, theta.certificate, gitcore.THETA, theta.adapting),
                "theta certificate rejected")
        chart = charts.normalize(p, theta.witness_index + 1)
        n += expect(chart.validate(), "chart invalid")
        back = charts.from_quiver_chart(charts.to_quiver_chart(chart))
        return n + expect(back == chart, "hat chart round-trip differs")
    return run


# -- orbit_towers -------------------------------------------------------------------


CONNECTS_PER_CYCLE = 2
ORBIT_INPUT_SETS = 8
# At height 3 about one chart point in twelve has a square discriminant, and
# its connect needs one square root less and runs 4x faster; at height 16
# every connect adjoins three, so the cycles cost alike from seed to seed.
CONNECT_HEIGHT = 16


def _tower_element(field, rng):
    """u + v s at each level of the tower, with small rational leaves."""
    if field.is_base:
        return sampling.rand_nonzero_scalar(rng)
    return (field.lift(_tower_element(field.base, rng))
            + field.generator() * field.lift(_tower_element(field.base, rng)))


def _tower(depth, rng):
    field = scalars.QI
    while field.depth < depth:
        d = field.scalar(rng.randint(2, 40))
        field, _ = scalars.adjoin_sqrt(field, d)
    return field


def _tower_group_element(field, rng):
    while True:
        t = tuple(_tower_element(field, rng) for _ in range(3))
        g = Mat2(*(_tower_element(field, rng) for _ in range(4)))
        if not g.det().is_zero():
            return gitcore.GroupElement.make(t, g)


class OrbitTowers:
    """connect into rational chart points; stabilizers of base-point
    translates over a depth-1 tower (strict and relaxed, one op) and a
    depth-2 tower (strict); the S3 stabilizer.  The cycles take their
    targets and towers from ORBIT_INPUT_SETS sets in turn.  The op costs
    cluster around the median (connects and the depth-1 pair, about 1 s
    each), so op_ms.p50 does not jump between op kinds."""

    name = "orbit_towers"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.bstar = mckay.base_point()
        self.s3_point = cyclic_s3.s3_base_point()
        self.input_sets = [self._input_set(rng) for _ in range(ORBIT_INPUT_SETS)]

    def _input_set(self, rng):
        targets = []
        for _ in range(CONNECTS_PER_CYCLE):
            c = sampling.rand_chart_point(rng, CONNECT_HEIGHT)
            targets.append(gitcore.act(sampling.rand_group_element(rng), c))
        translates = {}
        for depth in (1, 2):
            g = _tower_group_element(_tower(depth, rng), rng)
            translates[depth] = (g, gitcore.act(g, self.bstar))
        return targets, translates

    def cycle(self, c):
        targets, translates = self.input_sets[c % len(self.input_sets)]
        ops = []
        for q in targets:
            ops.append(Op("connect", self._connect(q),
                          lambda q=q: {"connect_to": gitcore.point_to_json(q)}))
        for depth, modes in ((1, (True, False)), (2, (True,))):
            g, p = translates[depth]
            ops.append(Op("stabilizer.d%d" % depth, self._stabilizers(p, modes),
                          lambda g=g, modes=modes: {
                              "translate_base_point_by": gitcore.group_to_json(g),
                              "fix_beta": modes}))
        ops.append(Op("s3_stabilizer", self._s3, lambda: {"s3_base_point": True}))
        return ops

    def _connect(self, q):
        def run():
            h = mckay.connect(self.bstar, q)
            n = expect(h is not None, "connect gave None")
            return n + expect(same_h_part(gitcore.act(h, self.bstar), q),
                              "act(h, b*) misses the target H-part")
        return run

    @staticmethod
    def _stabilizers(p, modes):
        """The stabilizer for each fix_beta mode, as one op."""
        def run():
            n = 0
            for fix_beta in modes:
                group = mckay.stabilizer(p, fix_beta=fix_beta)
                if fix_beta:
                    n += expect(group.order() == 8, "order %d, not 8" % group.order())
                    n += expect(group.is_quaternion(), "not quaternion")
                else:
                    n += expect(group.order() == 16, "order %d, not 16" % group.order())
            return n
        return run

    def _s3(self):
        group = cyclic_s3.s3_stabilizer(self.s3_point)
        n = expect(group.order() == 6, "order %d, not 6" % group.order())
        n += expect(not group.is_abelian(), "abelian")
        return n + expect(group.order_profile() == {1: 1, 2: 3, 3: 2},
                          "profile %r" % group.order_profile())

    def input_scalars(self):
        targets, translates = self.input_sets[0]
        out = [x for q in targets for x in point_scalars(q)]
        for g, p in translates.values():
            out += group_scalars(g) + point_scalars(p)
        return out + list(self.s3_point.bC) + [x for row in self.s3_point.BU for x in row]

    def sample_point(self):
        return self.input_sets[0][0][0]


# -- toric_fans ---------------------------------------------------------------------


FAN_NS = tuple(range(2, 9))


class ToricFans:
    """For each n = 2..8 one op: an_quotient_fan(n, +1) and (n, -1), and one
    wall character that must raise WallError.  One op per n (costs grow
    about 4x per step) keeps op_ms.p50 on the n = 5 op in every cycle."""

    name = "toric_fans"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.walls = {}
        for n in FAN_NS:
            problem = cyclic_s3.an_redundant_problem(n)
            k = problem.k
            # a positive combination of the first k - 1 of the k (independent)
            # map weights lies on a wall (for n = 2 it is chi = 0).  Which
            # weight is left out sets how long the wall search runs, so it
            # is fixed; only the coefficients come from the seed.
            chi = [0] * k
            for j in range(k - 1):
                coef = rng.randint(1, 3)
                chi = [a + coef * b for a, b in zip(chi, problem.column(j))]
            self.walls[n] = tuple(chi)

    def cycle(self, c):
        return [Op("n%d" % n, _fans(n, self.walls[n]),
                   lambda n=n: {"n": n, "chi": [1, -1], "wall": self.walls[n]})
                for n in FAN_NS]

    def input_scalars(self):
        return [scalars.QI.scalar(c) for chi in self.walls.values() for c in chi]

    def sample_point(self):
        """The fans take no point; the CLI cold start uses the base point."""
        return mckay.base_point(x=(1, 0))


def _fans(n, wall):
    def run():
        fan = cyclic_s3.an_quotient_fan(n, 1)
        m = expect(fan.normalized_rays == tuple((i, 1) for i in range(n + 1)),
                   "rays %r" % (fan.normalized_rays,))
        m += expect(len(fan.maximal_cones) == n, "%d cones" % len(fan.maximal_cones))
        m += expect(all(x == 1 for x in fan.multiplicities), "non-unimodular cone")
        m += expect(fan.interior_ray_count == n - 1, "interior rays")
        fan = cyclic_s3.an_quotient_fan(n, -1)
        m += expect(len(fan.maximal_cones) == 1, "%d cones" % len(fan.maximal_cones))
        m += expect(fan.multiplicities == (n,), "multiplicities %r" % (fan.multiplicities,))
        try:
            cyclic_s3.an_quotient_fan(n, wall)
        except cyclic_s3.WallError:
            return m + 1
        raise OpFailure("wall character %r gave a fan" % (wall,))
    return run


WORKLOADS = {w.name: w for w in (SuiteAll, PointStream, OrbitTowers, ToricFans)}
