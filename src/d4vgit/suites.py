"""Named verification suites with deterministic seeded reports.

Every suite draws all randomness from a single seed, sorts its checks by
id, and reports machine-readable pass/fail entries, so identical seeds
produce byte-identical reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from . import charts, cyclic_s3, equations, gitcore, mckay, quiver, sampling, stability
from .gitcore import GroupElement, PointHV, act, pair, weight_table
from .linalg import Mat2, Vec2
from .scalars import QI


@dataclass
class Check:
    check_id: str
    passed: bool
    details: str = ""


@dataclass
class Report:
    suite: str
    seed: int
    checks: list = field(default_factory=list)

    def add(self, check_id, passed, details=""):
        self.checks.append(Check(check_id, bool(passed), details))

    def finish(self):
        self.checks.sort(key=lambda c: c.check_id)
        return self

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def counts(self):
        ok = sum(1 for c in self.checks if c.passed)
        return {"pass": ok, "fail": len(self.checks) - ok}

    def to_json(self):
        return json.dumps({
            "suite": self.suite,
            "seed": self.seed,
            "counts": self.counts,
            "checks": [{"id": c.check_id, "status": "pass" if c.passed else "fail",
                        "details": c.details} for c in self.checks],
        }, indent=2, sort_keys=True)

    def summary_lines(self):
        lines = ["suite %s (seed %d)" % (self.suite, self.seed)]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            detail = (" - " + c.details) if c.details and not c.passed else ""
            lines.append("  [%s] %s%s" % (status, c.check_id, detail))
        counts = self.counts
        lines.append("  %d passed, %d failed" % (counts["pass"], counts["fail"]))
        return lines


# The four primitive rows are the convention anchor; the three combined rows
# are their exact linear combinations (which pins the beta entry of the
# mu+lambda1 row at -2+1 = -1).
REFERENCE_WEIGHT_TABLE = {
    "lambda1": (-2, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0),
    "lambda2": (0, -2, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0),
    "lambda3": (0, 0, -2, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1),
    "mu": (1, 1, 1, -2, 0, -1, -2, 0, -1, -2, 0, -1, -2),
    "mu+lambda1": (-1, 1, 1, -1, 1, 0, -1, 0, -1, -2, 0, -1, -2),
    "mu+lambda1+lambda2": (-1, -1, 1, 0, 1, 0, -1, 1, 0, -1, 0, -1, -2),
    "2mu+lambda1+lambda2+lambda3": (0, 0, 0, -1, 1, -1, -3, 1, -1, -3, 1, -1, -3),
}


def _sample_details(k: int, p: PointHV) -> str:
    """The details of a sampled check that failed first at sample k, point p."""
    return "sample %d: %s" % (k, json.dumps(gitcore.point_to_json(p), sort_keys=True))


def _det_b_and_open_locus(p: PointHV):
    """(det B, whether p is in the open locus), with det B computed once; a
    point off Z is not in it.  In the open locus the identity
    2 det B = beta^3 a1 a2 a3 is checked on the way."""
    d = equations.open_locus_det(p) if equations.on_Z(p) else None
    return (d, True) if d is not None else (equations.det_b(p), False)


def suite_equations(seed: int) -> Report:
    rep = Report("equations", seed)
    rng = random.Random(seed)
    bstar = mckay.base_point(x=(1, 2))

    rep.add("eq.base_point_on_Z", equations.residuals(bstar).is_zero())
    d, is_open = _det_b_and_open_locus(bstar)
    rep.add("eq.base_point_open_locus", is_open)
    a1, a2, a3 = bstar.alpha
    rep.add("eq.det_identity", d + d == bstar.beta ** 3 * a1 * a2 * a3,
            "2 det B = beta^3 a1 a2 a3")
    rep.add("eq.zero_point_on_Z",
            equations.residuals(PointHV.make((0, 0, 0), 0,
                                             ((0, 0, 0),) * 3, (0, 0))).is_zero())

    flipped = PointHV(bstar.alpha, -bstar.beta, bstar.B, bstar.x)
    rf = equations.residuals(flipped)
    rep.add("eq.beta_flip_breaks_only_E3",
            rf.e1_zero() and rf.e2_zero() and not rf.e3_zero())

    first_off_z = bad_open = bad_det = ""
    ok_omega = True
    ok_semi = True
    for k in range(60):
        h = sampling.rand_group_element(rng)
        p = sampling.rand_z_point(rng)
        q = act(h, p)
        if not equations.on_Z(q) and not first_off_z:
            first_off_z = _sample_details(k, q)
        dq, is_open = _det_b_and_open_locus(q)
        if not is_open and not bad_open:
            bad_open = _sample_details(k, q)
        b1, b2, b3 = q.alpha
        if not bad_det and dq + dq != q.beta ** 3 * b1 * b2 * b3:
            bad_det = _sample_details(k, q)
        ok_omega = ok_omega and (equations.omega(q)
                                 == h.g.det().inverse() * equations.omega(p))
        chi = (h.t[0] * h.t[1] * h.t[2] * h.g.det()).inverse()
        ok_semi = ok_semi and (equations.semi_invariant_minus_theta(q, dq)
                               == chi * equations.semi_invariant_minus_theta(p))
    rep.add("eq.G_invariance_of_Z", not first_off_z, first_off_z)
    rep.add("eq.open_locus_G_invariant", not bad_open, bad_open)
    rep.add("eq.det_identity_on_orbit", not bad_det, bad_det)
    rep.add("eq.omega_weight", ok_omega, "omega scales by det(g)^-1")
    rep.add("eq.semi_invariant_weight", ok_semi,
            "a^2 b^2 det B transforms by the inverse character")

    w1 = equations.witness_E1_not_E2()
    r1 = equations.residuals(w1)
    rep.add("eq.witness_E1_not_E2",
            r1.e1_zero() and r1.e3_zero() and not r1.e2_zero())
    rep.add("eq.witness_semi_invariant_nonzero",
            not equations.witness_semi_invariant(w1).is_zero())
    w2 = equations.witness_E2_not_E1()
    r2 = equations.residuals(w2)
    rep.add("eq.witness_E2_not_E1",
            r2.e2_zero() and r2.e3_zero() and not r2.e1_zero())
    return rep.finish()


def suite_stability(seed: int) -> Report:
    rep = Report("stability", seed)
    rng = random.Random(seed)

    table = weight_table()
    rep.add("st.weight_table", table == REFERENCE_WEIGHT_TABLE)
    rep.add("st.pairings",
            pair(gitcore.THETA, gitcore.LAMBDA[0]) == 1
            and pair(gitcore.THETA, gitcore.MU) == 1
            and pair(gitcore.MINUS_THETA, gitcore.LAMBDA[0]) == -1)
    try:
        certs = stability.unstable_subset_certificates()
        rep.add("st.subset_certificates", len(certs) == 11)
    except AssertionError as err:
        rep.add("st.subset_certificates", False, str(err))

    first_mismatch = ""
    first_unstable = ""
    for k in range(40):
        p = sampling.rand_z_point(rng)
        v = stability.semistable_theta(p)
        king = quiver.king_stable(quiver.build_rep(p))
        if v.is_stable != king and not first_mismatch:
            first_mismatch = _sample_details(k, p)
        vm = stability.semistable_minus_theta(p)
        if not vm.is_stable and not first_unstable:
            first_unstable = _sample_details(k, p)
    rep.add("st.theta_matches_king", not first_mismatch, first_mismatch)
    rep.add("st.minus_theta_stable_on_open_locus", not first_unstable, first_unstable)

    ok_eng = True
    details = []
    for desc, p in sampling.engineered_unstable_points(rng):
        v = stability.semistable_theta(p)
        k = quiver.king_stable(quiver.build_rep(p))
        if v.is_stable or k:
            ok_eng = False
            details.append(desc)
    rep.add("st.engineered_unstable", ok_eng, ",".join(details))

    bad_minus = ""
    for k, (_, p) in enumerate(sampling.engineered_unstable_points(rng)):
        if bad_minus or p.x.is_zero():
            continue
        v = stability.semistable_minus_theta(p)
        if v.is_stable or not stability.verify_certificate(
                p, v.certificate, gitcore.MINUS_THETA, v.adapting):
            bad_minus = _sample_details(k, p)
    rep.add("st.minus_theta_unstable_certified", not bad_minus, bad_minus)

    bad_g = ""
    for k in range(20):
        p = sampling.rand_z_point(rng)
        h = sampling.rand_group_element(rng)
        v1 = stability.semistable_theta(p)
        v2 = stability.semistable_theta(act(h, p))
        if not bad_g and v1.is_stable != v2.is_stable:
            bad_g = _sample_details(k, p)
    rep.add("st.verdict_G_invariant", not bad_g, bad_g)
    return rep.finish()


def suite_quiver(seed: int) -> Report:
    rep = Report("quiver", seed)
    rng = random.Random(seed)

    bad_legs = bad_trace = bad_contract = ""
    for k in range(50):
        p = sampling.rand_point_hv(rng)
        r = quiver.build_rep(p)
        legs, central = quiver.preprojective_residual(r)
        if not bad_legs and not all(s.is_zero() for s in legs):
            bad_legs = _sample_details(k, p)
        if not bad_trace and not central.trace().is_zero():
            bad_trace = _sample_details(k, p)
        if not bad_contract and not _central_matches_e1(p, r):
            bad_contract = _sample_details(k, p)
    rep.add("qv.legs_always_zero", not bad_legs, bad_legs)
    rep.add("qv.central_trace_free", not bad_trace, bad_trace)
    rep.add("qv.central_equals_E1_contraction", not bad_contract, bad_contract)

    bad_z = ""
    for k in range(60):
        p = sampling.rand_z_point(rng)
        if not bad_z and not quiver.preprojective_holds(quiver.build_rep(p)):
            bad_z = _sample_details(k, p)
    rep.add("qv.preprojective_on_Z", not bad_z, bad_z)

    w = equations.witness_E2_not_E1().with_x(Vec2(QI.scalar(1), QI.scalar(2)))
    r = quiver.build_rep(w)
    rep.add("qv.witness_stable_but_not_preprojective",
            quiver.king_stable(r) and not quiver.preprojective_holds(r))
    rep.add("qv.zero_rep",
            not quiver.king_stable(quiver.build_rep(
                PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (0, 0)))))
    return rep.finish()


def _central_matches_e1(p: PointHV, r: quiver.QuiverRep) -> bool:
    """Whether the central quadratic of r = build_rep(p) is p's E1 form."""
    res = equations.residuals(p)
    e1 = res.e1                      # upper triangle (m <= n)
    gram = {(0, 0): e1[0], (0, 1): e1[1], (0, 2): e1[2],
            (1, 1): e1[3], (1, 2): e1[4], (2, 2): e1[5]}

    def form(u, v):
        # bilinear extension of the residual form at basis coords u, v
        s = QI.zero()
        for m in range(3):
            for n in range(3):
                key = (m, n) if m <= n else (n, m)
                s = s + gram[key] * u[m] * v[n]
        return s

    x = p.x
    e1v = Vec2(QI.one(), QI.zero())
    e2v = Vec2(QI.zero(), QI.one())

    def coords(v):
        return (x.a * v.a, x.a * v.b + x.b * v.a, x.b * v.b)

    checks = []
    for v in (e1v, e2v, Vec2(QI.one(), QI.one())):
        t = coords(v)
        checks.append(quiver.central_quadratic(r, v) == form(t, t))
    return all(checks)


def _chart_fails(check) -> bool:
    """Whether check() is false or raises a ChartError: a sample refused by
    a chart fails the check that made the call."""
    try:
        return not check()
    except charts.ChartError:
        return True


def suite_charts(seed: int) -> Report:
    rep = Report("charts", seed)
    rng = random.Random(seed)

    closure = charts.chart_closure_check()
    rep.add("ch.closure_24_components", len(closure.components) == 24)
    rep.add("ch.closure_all_remainders_zero", closure.ok,
            ",".join(closure.failing()))

    bad_norm = bad_round = bad_compose = ""
    for k in range(25):
        p = sampling.rand_z_point(rng)
        v = stability.semistable_theta(p)
        if not v.is_stable:
            continue
        idx = v.witness_index + 1
        try:
            c = charts.normalize(p, idx)
        except charts.ChartError:
            bad_norm = bad_norm or _sample_details(k, p)
            continue
        if not bad_round and _chart_fails(
                lambda: charts.from_quiver_chart(charts.to_quiver_chart(c)) == c):
            bad_round = _sample_details(k, p)
        if not bad_compose and _chart_fails(
                lambda: charts.normalize_rep(quiver.build_rep(p), idx)
                == charts.to_quiver_chart(c)):
            bad_compose = _sample_details(k, p)
    rep.add("ch.normalize_invariants", not bad_norm, bad_norm)
    rep.add("ch.hat_roundtrip", not bad_round, bad_round)
    rep.add("ch.quiver_side_composition", not bad_compose, bad_compose)

    bad_equiv = ""
    for k in range(10):
        p = sampling.rand_chart_point(rng)
        h = GroupElement.make(
            (1, sampling.rand_nonzero_scalar(rng),
             sampling.rand_nonzero_scalar(rng)),
            Mat2.identity())
        if not bad_equiv and _chart_fails(
                lambda: charts.chart_equivalent(charts.normalize(p, 1),
                                                charts.normalize(act(h, p), 1))
                is not None):
            bad_equiv = _sample_details(k, p)
    rep.add("ch.residual_torus_equivalence", not bad_equiv, bad_equiv)
    return rep.finish()


def suite_orbit(seed: int) -> Report:
    rep = Report("orbit", seed)
    rng = random.Random(seed)
    bstar = mckay.base_point()

    stab = mckay.stabilizer(bstar)
    rep.add("orb.stabilizer_order_8", stab.order() == 8)
    rep.add("orb.quaternion_signature", stab.is_quaternion())
    relaxed = mckay.stabilizer(bstar, fix_beta=False)
    rep.add("orb.relaxed_order_16", relaxed.order() == 16)

    h = sampling.rand_group_element(rng)
    conj = mckay.stabilizer(act(h, bstar))
    rep.add("orb.conjugate_stabilizer",
            conj.order() == 8 and conj.is_quaternion())

    bad_roundtrip = ""
    for k in range(4):
        g = sampling.rand_group_element(rng)
        q = act(g, bstar)
        found = mckay.connect(bstar, q)
        if not bad_roundtrip and (found is None or not act(found, bstar).same_h_part(q)):
            bad_roundtrip = _sample_details(k, q)
    rep.add("orb.connect_roundtrip", not bad_roundtrip, bad_roundtrip)

    self_h = mckay.connect(bstar, bstar)
    rep.add("orb.connect_self_in_stabilizer",
            self_h is not None and stab.index_of(self_h) is not None)
    return rep.finish()


def suite_examples(seed: int) -> Report:
    rep = Report("examples", seed)

    prob = cyclic_s3.an_minimal_problem(4)
    rep.add("ex.an_minimal_semistable",
            cyclic_s3.an_semistable(prob, (-1,), (1, 0, 0))
            and not cyclic_s3.an_semistable(prob, (-1,), (0, 1, 1))
            and not cyclic_s3.an_semistable(prob, (-1,), (0, 0, 0)))

    ok_res = True
    ok_orb = True
    for n in (2, 3, 4, 5):
        fan = cyclic_s3.an_quotient_fan(n, 1)
        expected = tuple(sorted((i, 1) for i in range(n + 1)))
        ok_res = (ok_res and fan.normalized_rays == expected
                  and len(fan.maximal_cones) == n
                  and fan.interior_ray_count == n - 1
                  and all(m == 1 for m in fan.multiplicities))
        orb = cyclic_s3.an_quotient_fan(n, -1)
        ok_orb = (ok_orb and len(orb.maximal_cones) == 1
                  and orb.multiplicities == (n,))
    rep.add("ex.an_resolution_fans", ok_res)
    rep.add("ex.an_orbifold_charts", ok_orb)

    s3p = cyclic_s3.s3_base_point()
    rep.add("ex.s3_base_residual", cyclic_s3.s3_on_z(s3p))
    stab = cyclic_s3.s3_stabilizer(s3p)
    rep.add("ex.s3_stabilizer_order_6",
            stab.order() == 6 and not stab.is_abelian()
            and stab.order_profile() == {1: 1, 2: 3, 3: 2})
    return rep.finish()


SUITES = {
    "equations": suite_equations,
    "stability": suite_stability,
    "quiver": suite_quiver,
    "charts": suite_charts,
    "orbit": suite_orbit,
    "examples": suite_examples,
}


def run_suite(name: str, seed: int = 0) -> Report:
    """Run a named suite (or 'all'); deterministic for a fixed seed."""
    if name == "all":
        rep = Report("all", seed)
        for sub in sorted(SUITES):
            sub_rep = SUITES[sub](seed)
            for c in sub_rep.checks:
                rep.add(c.check_id, c.passed, c.details)
        return rep.finish()
    if name not in SUITES:
        raise KeyError("unknown suite %r" % (name,))
    return SUITES[name](seed)
