"""Named verification suites with deterministic seeded reports.

Every suite draws all randomness from a single seed, sorts its checks by
id, and reports machine-readable pass/fail entries, so identical seeds
produce byte-identical reports.  A check is fixed (Report.add) or sampled
over a stream (Report.add_sampled), each suite drawing from its own stream
(_stream; suite_towers from the two it names).  Every check runs behind
one guard, _guarded: a ContractViolation or an AssertionError (a failed
re-verification) fails that check instead of the run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cache

from . import charts, cyclic_s3, equations, gitcore, mckay, quiver, sampling, stability
from .equations import ContractViolation
from .gitcore import GroupElement, PointHV, act, pair, weight_table
from .linalg import Mat2, Vec2
from .scalars import QI, dot, vanishes


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

    def add(self, check_id, holds, details=""):
        """A fixed check: it passes when holds() is true, with details; a
        ContractViolation or AssertionError from holds() fails it, with the
        error's message as details."""
        passed, err = _guarded(holds)
        self.checks.append(Check(check_id, bool(passed),
                                 details if err is None else str(err)))

    def add_sampled(self, samples, checks, passed_details=None, derive=None):
        """One check per (id, predicate) in checks over samples, which yields
        (k, args) for predicate(*args, *derive(*args)); derive, the work one
        sample's checks share, defaults to nothing.  A check fails if its
        predicate is false, or it or derive raises a ContractViolation or
        AssertionError; its details are then `sample k: <JSON of args[0]>`
        for its first failing sample.  If the stream itself raises one, every
        check that has not failed yet fails with the error's message.  Every
        predicate sees every sample, so neither the draws from a seeded rng
        nor the calls a sample makes depend on the verdicts.  passed_details
        maps an id to its details when the check passes."""
        failed = {}

        def run():
            for k, args in samples:
                shared = _guarded(derive, *args)[0] if derive else ()
                for check_id, holds in checks.items():
                    ok = shared is not False and _guarded(holds, *args, *shared)[0]
                    if not ok and check_id not in failed:
                        failed[check_id] = _sample_details(k, args[0])

        err = _guarded(run)[1]
        passed_details = passed_details or {}
        for check_id in checks:
            if err is not None:
                failed.setdefault(check_id, str(err))
            self.checks.append(Check(check_id, check_id not in failed, failed.get(
                check_id, passed_details.get(check_id, ""))))

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


def _stream(rep: Report) -> random.Random:
    """The suite's own sample stream for its seed.  A str seed goes through
    SHA-512, so no two suites draw the same samples and no stream depends on
    PYTHONHASHSEED."""
    return random.Random("%s/%d" % (rep.suite, rep.seed))


def _guarded(f, *args):
    """(f(*args), None), or (False, err) if it raises err, a ContractViolation
    or an AssertionError."""
    try:
        return f(*args), None
    except (ContractViolation, AssertionError) as err:
        return False, err


def _sample_details(k: int, x) -> str:
    """The details of a sampled check that failed first at sample k: k and
    x, a point (as point JSON) or a JSON value."""
    if isinstance(x, PointHV):
        x = gitcore.point_to_json(x)
    return "sample %d: %s" % (k, json.dumps(x, sort_keys=True))


def _det_b_and_open_locus(p: PointHV):
    """(det B, whether p is in the open locus); a point off Z is not in it.
    In the open locus the identity 2 det B = beta^3 a1 a2 a3 is checked on
    the way, and det_b reads the det B that check kept."""
    is_open = equations.on_Z(p) and equations.open_locus_det(p) is not None
    return equations.det_b(p), is_open


def suite_equations(seed: int) -> Report:
    rep = Report("equations", seed)
    rng = _stream(rep)
    # a cache keeps no raise, so each check that reads it meets a refusal
    bstar = cache(lambda: mckay.base_point(x=(1, 2)))
    base_det = cache(lambda: _det_b_and_open_locus(bstar()))

    rep.add("eq.base_point_on_Z", lambda: equations.residuals(bstar()).is_zero())
    rep.add("eq.base_point_open_locus", lambda: base_det()[1])

    rep.add("eq.det_identity", lambda: vanishes(
        equations.det_identity_terms(bstar(), base_det()[0])), "2 det B = beta^3 a1 a2 a3")
    rep.add("eq.zero_point_on_Z", lambda: equations.residuals(
        PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (0, 0))).is_zero())
    rep.add("eq.beta_flip_breaks_only_E3", lambda: _breaks_only(
        PointHV(bstar().alpha, -bstar().beta, bstar().B, bstar().x), 3))

    def orbit_samples():
        # (q = h.p, p, h); the checks add det B at q, whether q is in the
        # open locus, and det g
        for k in range(60):
            h = sampling.rand_group_element(rng)
            p = sampling.rand_z_point(rng)
            yield k, (act(h, p), p, h)

    def semi_invariant_weight(q, p, h, d, is_open, det_g):
        chi = (h.t[0] * h.t[1] * h.t[2] * det_g).inverse()
        return (equations.semi_invariant_minus_theta(q)
                == chi * equations.semi_invariant_minus_theta(p))

    rep.add_sampled(orbit_samples(), {
        "eq.G_invariance_of_Z": lambda q, *_: equations.on_Z(q),
        "eq.open_locus_G_invariant": lambda q, p, h, d, is_open, *_: is_open,
        "eq.det_identity_on_orbit": lambda q, p, h, d, *_: vanishes(
            equations.det_identity_terms(q, d)),
        "eq.omega_weight": lambda q, p, h, d, is_open, det_g: (
            equations.omega(q) == det_g.inverse() * equations.omega(p)),
        "eq.semi_invariant_weight": semi_invariant_weight,
    }, passed_details={
        "eq.omega_weight": "omega scales by det(g)^-1",
        "eq.semi_invariant_weight": "a^2 b^2 det B transforms by the inverse character",
    }, derive=lambda q, p, h: (*_det_b_and_open_locus(q), h.g.det()))

    w1 = equations.witness_E1_not_E2()
    rep.add("eq.witness_E1_not_E2", lambda: _breaks_only(w1, 2))
    rep.add("eq.witness_semi_invariant_nonzero",
            lambda: not equations.witness_semi_invariant(w1).is_zero())
    rep.add("eq.witness_E2_not_E1",
            lambda: _breaks_only(equations.witness_E2_not_E1(), 1))
    return rep.finish()


def _breaks_only(p: PointHV, broken: int) -> bool:
    """Whether p's residuals are nonzero in equation `broken` (1-3) alone."""
    r = equations.residuals(p)
    return [r.e1_zero(), r.e2_zero(), r.e3_zero()] == [e != broken for e in (1, 2, 3)]


def suite_stability(seed: int) -> Report:
    rep = Report("stability", seed)
    rng = _stream(rep)

    rep.add("st.weight_table", lambda: weight_table() == REFERENCE_WEIGHT_TABLE)
    rep.add("st.pairings", lambda: (
        pair(gitcore.THETA, gitcore.LAMBDA[0]) == 1
        and pair(gitcore.THETA, gitcore.MU) == 1
        and pair(gitcore.MINUS_THETA, gitcore.LAMBDA[0]) == -1))
    rep.add("st.subset_certificates",
            lambda: len(stability.unstable_subset_certificates()) == 11)

    def minus_theta_certified(p):
        # unstable, with a certificate that re-verifies
        v = stability.semistable_minus_theta(p)
        return not v.is_stable and stability.verify_certificate(
            p, v.certificate, gitcore.MINUS_THETA, v.adapting)

    rep.add_sampled(((k, (sampling.rand_z_point(rng),)) for k in range(40)), {
        "st.theta_matches_king": lambda p: (stability.semistable_theta(p).is_stable
                                            == quiver.king_stable(quiver.build_rep(p))),
        "st.minus_theta_stable_on_open_locus":
            lambda p: stability.semistable_minus_theta(p).is_stable,
    })
    engineered = sampling.engineered_unstable_points(rng)
    rep.add_sampled(((k, (p,)) for k, (_, p) in enumerate(engineered)), {
        "st.engineered_unstable": lambda p: not (
            stability.semistable_theta(p).is_stable
            or quiver.king_stable(quiver.build_rep(p))),
    })
    rep.add_sampled(((k, (p,)) for k, (_, p) in enumerate(engineered)
                     if not p.x.is_zero()),
                    {"st.minus_theta_unstable_certified": minus_theta_certified})
    # each sample draws its point, then the group element
    rep.add_sampled(((k, (sampling.rand_z_point(rng), sampling.rand_group_element(rng)))
                     for k in range(20)), {
        "st.verdict_G_invariant": lambda p, h: (
            stability.semistable_theta(p).is_stable
            == stability.semistable_theta(act(h, p)).is_stable),
    })
    return rep.finish()


def suite_quiver(seed: int) -> Report:
    rep = Report("quiver", seed)
    rng = _stream(rep)

    def rep_and_residuals(p):
        # build_rep(p), its leg residuals, its central residual
        r = quiver.build_rep(p)
        return (r, *quiver.preprojective_residual(r))

    rep.add_sampled(((k, (sampling.rand_point_hv(rng),)) for k in range(50)), {
        "qv.legs_always_zero": lambda p, r, legs, central: all(s.is_zero() for s in legs),
        "qv.central_trace_free": lambda p, r, legs, central: central.trace().is_zero(),
        "qv.central_equals_E1_contraction":
            lambda p, r, legs, central: _central_matches_e1(p, central),
    }, derive=rep_and_residuals)
    rep.add_sampled(((k, (sampling.rand_z_point(rng),)) for k in range(60)), {
        "qv.preprojective_on_Z":
            lambda p: quiver.preprojective_holds(quiver.build_rep(p)),
    })

    def witness_stable_but_not_preprojective():
        r = quiver.build_rep(equations.witness_E2_not_E1().with_x(
            Vec2(QI.scalar(1), QI.scalar(2))))
        return quiver.king_stable(r) and not quiver.preprojective_holds(r)

    rep.add("qv.witness_stable_but_not_preprojective",
            witness_stable_but_not_preprojective)
    rep.add("qv.zero_rep", lambda: not quiver.king_stable(quiver.build_rep(
        PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (0, 0)))))
    return rep.finish()


def _central_matches_e1(p: PointHV, central: Mat2) -> bool:
    """Whether the central quadratic of build_rep(p), whose central residual
    is `central`, is p's E1 form.  Only the 6 E1 entries are computed, not
    all 24 residual entries: nothing else reads this sample's residuals."""
    om = equations.omega_of(p.alpha, p.beta, lazy=True)
    e1 = equations.e1_entries(p.alpha, p.B, om)     # upper triangle (m <= n)
    gram = ((e1[0], e1[1], e1[2]), (e1[1], e1[3], e1[4]), (e1[2], e1[4], e1[5]))
    x = p.x

    def form(v):
        # the E1 form at the basis coordinates of x * v
        t = (x.a * v.a, x.a * v.b + x.b * v.a, x.b * v.b)
        return dot(t, [dot(row, t) for row in gram])

    return all(quiver.central_quadratic(central, v) == form(v)
               for v in (Vec2(QI.one(), QI.zero()), Vec2(QI.zero(), QI.one()),
                         Vec2(QI.one(), QI.one())))


def suite_charts(seed: int) -> Report:
    rep = Report("charts", seed)
    rng = _stream(rep)

    closure = cache(charts.chart_closure_check)

    def remainders_zero():
        # a failure names the components whose remainder is not zero
        failing = closure().failing()
        if failing:
            raise AssertionError(",".join(failing))
        return True

    rep.add("ch.closure_24_components", lambda: len(closure().components) == 24)
    rep.add("ch.closure_all_remainders_zero", remainders_zero)

    def witness_chart(p):
        # p's witness chart index and chart point, False if refused (which
        # fails ch.normalize_invariants alone); rand_z_point is theta-stable,
        # so an unstable p fails every check, named as its sample
        v = stability.semistable_theta(p)
        if not v.is_stable:
            raise AssertionError("sample is theta-unstable")
        return v.witness_index + 1, _guarded(charts.normalize, p, v.witness_index + 1)[0]

    rep.add_sampled(((k, (sampling.rand_z_point(rng),)) for k in range(25)), {
        "ch.normalize_invariants": lambda p, idx, c: c is not False,
        "ch.hat_roundtrip": lambda p, idx, c: (
            c is False or charts.from_quiver_chart(charts.to_quiver_chart(c)) == c),
        "ch.quiver_side_composition": lambda p, idx, c: (
            c is False or charts.normalize_rep(quiver.build_rep(p), idx)
            == charts.to_quiver_chart(c)),
    }, derive=witness_chart)
    # each sample draws its chart point, then the torus element
    rep.add_sampled(((k, (sampling.rand_chart_point(rng), GroupElement.make(
        (1, sampling.rand_nonzero_scalar(rng), sampling.rand_nonzero_scalar(rng)),
        Mat2.identity()))) for k in range(10)), {
        "ch.residual_torus_equivalence": lambda p, h: charts.chart_equivalent(
            charts.normalize(p, 1), charts.normalize(act(h, p), 1)) is not None,
    })
    return rep.finish()


def suite_orbit(seed: int) -> Report:
    rep = Report("orbit", seed)
    rng = _stream(rep)
    # a cache keeps no raise, so each check that reads it meets a refusal
    bstar = cache(mckay.base_point)
    stab = cache(lambda: mckay.stabilizer(bstar()))

    rep.add("orb.stabilizer_order_8", lambda: stab().order() == 8)
    rep.add("orb.quaternion_signature", lambda: stab().is_quaternion())
    rep.add("orb.relaxed_order_16",
            lambda: mckay.stabilizer(bstar(), fix_beta=False).order() == 16)
    h = sampling.rand_group_element(rng)
    rep.add("orb.conjugate_stabilizer",
            lambda: mckay.stabilizer(act(h, bstar())).is_quaternion())

    rep.add_sampled(((k, (act(sampling.rand_group_element(rng), bstar()),)) for k in range(4)),
                    {"orb.connect_roundtrip": lambda q: _connects(bstar(), q)})

    def connects_to_itself():
        self_h = mckay.connect(bstar(), bstar())
        return self_h is not None and stab().index_of(self_h) is not None

    rep.add("orb.connect_self_in_stabilizer", connects_to_itself)
    return rep.finish()


def _connects(source: PointHV, target: PointHV) -> bool:
    """Whether connect finds an element that carries source's H-part to
    target's, proved by one act."""
    h = mckay.connect(source, target)
    return h is not None and act(h, source).same_h_part(target)


def suite_examples(seed: int) -> Report:
    rep = Report("examples", seed)

    prob = cyclic_s3.an_minimal_problem(4)
    rep.add("ex.an_minimal_semistable", lambda: (
        cyclic_s3.an_semistable(prob, (-1,), (1, 0, 0))
        and not cyclic_s3.an_semistable(prob, (-1,), (0, 1, 1))
        and not cyclic_s3.an_semistable(prob, (-1,), (0, 0, 0))))

    def resolution_fan(at):
        # the fan for chi = 1 is the minimal resolution of C^2/Z_n
        n = at["n"]
        fan = cyclic_s3.an_quotient_fan(n, 1)
        return (fan.normalized_rays == tuple(sorted((i, 1) for i in range(n + 1)))
                and len(fan.maximal_cones) == n
                and fan.interior_ray_count == n - 1
                and all(m == 1 for m in fan.multiplicities))

    def orbifold_fan(at):
        # the fan for chi = -1 is the one orbifold chart C^2/Z_n
        orb = cyclic_s3.an_quotient_fan(at["n"], -1)
        return len(orb.maximal_cones) == 1 and orb.multiplicities == (at["n"],)

    rep.add_sampled(((k, ({"n": n},)) for k, n in enumerate((2, 3, 4, 5))), {
        "ex.an_resolution_fans": resolution_fan,
        "ex.an_orbifold_charts": orbifold_fan,
    })

    s3p = cyclic_s3.s3_base_point()

    def s3_stabilizer_order_6():
        stab = cyclic_s3.s3_stabilizer(s3p)
        return (stab.order() == 6 and not stab.is_abelian()
                and stab.order_profile() == {1: 1, 2: 3, 3: 2})

    rep.add("ex.s3_base_residual", lambda: cyclic_s3.s3_on_z(s3p))
    rep.add("ex.s3_stabilizer_order_6", s3_stabilizer_order_6)
    return rep.finish()


def _read_back(p: PointHV) -> PointHV:
    """p written as point JSON text and read back."""
    return gitcore.point_from_json(json.loads(json.dumps(gitcore.point_to_json(p))))


def suite_towers(seed: int) -> Report:
    """The pipeline and the orbit layer on points over Q(i) and over the
    towers connect and the stabilizer adjoin, each read back from point
    JSON.  Its two streams are random.Random("point-sweep/<seed>") and
    random.Random("tower-sweep/<seed>")."""
    rep = Report("towers", seed)
    height = 1 << 8
    bstar = cache(mckay.base_point)

    def pipeline_samples(rng):
        # (point, engineered): translates of eight Z-points and four
        # engineered unstable points at height 2^8, then of the {p1=p2=p3=0}
        # point (unstable under both characters) and a Z-point at tower
        # depths 1 and 2; each translate draws its element first
        for _ in range(8):
            yield (act(sampling.rand_group_element(rng, height),
                       sampling.rand_z_point(rng, height)), False)
        engineered = sampling.engineered_unstable_points(rng)
        unstable = [p for _, p in engineered if not p.x.is_zero()]
        for _ in range(4):
            yield act(sampling.rand_group_element(rng, height), rng.choice(unstable)), True
        for depth in (1, 2):
            yield (act(sampling.rand_tower_group_element(rng, depth),
                       dict(engineered)["{p1=p2=p3=0}"]), True)
        for depth in (1, 2):
            yield (act(sampling.rand_tower_group_element(rng, depth),
                       sampling.rand_z_point(rng, height)), False)

    def verdicts(p, engineered):
        back = _read_back(p)
        return back, stability.semistable_theta(back), stability.semistable_minus_theta(back)

    def reverified(p, engineered, back, *verdicts):
        return all(v.is_stable or stability.verify_certificate(back, v.certificate, chi, v.adapting)
                   for v, chi in zip(verdicts, (gitcore.THETA, gitcore.MINUS_THETA)))

    def charts_agree(p, engineered, back, theta, minus):
        # the witness chart, its hat round trip and its quiver-side form
        if engineered or not theta.is_stable:
            return True
        idx = theta.witness_index + 1
        c = charts.normalize(back, idx)
        return (c.validate() and charts.from_quiver_chart(charts.to_quiver_chart(c)) == c
                and charts.normalize_rep(quiver.build_rep(back), idx)
                == charts.to_quiver_chart(c))

    rep.add_sampled(enumerate(pipeline_samples(random.Random("point-sweep/%d" % seed))), {
        "tw.point_json_roundtrip": lambda p, engineered, back, *_: back == p,
        "tw.on_Z": lambda p, engineered, back, *_: equations.residuals(back).is_zero(),
        "tw.theta_matches_king": lambda p, engineered, back, theta, minus: (
            theta.is_stable == quiver.king_stable(quiver.build_rep(back))),
        "tw.unstable_reverified": reverified,
        "tw.engineered_unstable": lambda p, engineered, back, theta, minus: (
            not engineered or not (theta.is_stable or minus.is_stable)),
        "tw.minus_theta_stable": lambda p, engineered, back, theta, minus: (
            engineered or minus.is_stable),
        "tw.charts": charts_agree,
    }, derive=verdicts)

    def orbit_samples(rng):
        # (point, moved b*): b* at tower depths 1 and 2, then a height-16
        # chart point moved by a rational element
        for depth in (1, 2):
            yield act(sampling.rand_tower_group_element(rng, depth), bstar()), True
        yield act(sampling.rand_group_element(rng), sampling.rand_chart_point(rng, 16)), False

    def stabilizers(p, moved):
        if not moved:
            return _read_back(p), None, None
        return _read_back(p), mckay.stabilizer(p), mckay.stabilizer(p, fix_beta=False)

    def stabilizer_acts(p, moved, back, group, relaxed):
        # one act per listed element: the even half fixes the H-part, the
        # odd half sends it to (-alpha, -beta, B)
        flipped = PointHV(tuple(-a for a in p.alpha), -p.beta, p.B, p.x)
        return not moved or all(act(h, p).same_h_part(p if k < 8 else flipped)
                                for k, h in enumerate(relaxed.elements))

    rep.add_sampled(enumerate(orbit_samples(random.Random("tower-sweep/%d" % seed))), {
        "tw.orbit_json_roundtrip": lambda p, moved, back, *_: back == p,
        "tw.stabilizer_orders": lambda p, moved, back, group, relaxed: not moved or (
            group.order() == 8 and group.is_quaternion() and relaxed.order() == 16
            and relaxed.elements[:8] == group.elements),
        "tw.stabilizer_acts": stabilizer_acts,
        "tw.connect_roundtrip": lambda p, *_: _connects(bstar(), p) and _connects(p, bstar()),
    }, derive=stabilizers)
    return rep.finish()


SUITES = {
    "equations": suite_equations,
    "stability": suite_stability,
    "quiver": suite_quiver,
    "charts": suite_charts,
    "orbit": suite_orbit,
    "examples": suite_examples,
    "towers": suite_towers,
}


def run_suite(name: str, seed: int = 0) -> Report:
    """Run a named suite (or 'all'); deterministic for a fixed seed."""
    if name == "all":
        rep = Report("all", seed)
        # towers is not one of all's members: its tower arithmetic would
        # slow the headline run, and its checks would change every recorded
        # report of all (the golden fixtures and the benchmark's check ids)
        for sub in sorted(SUITES.keys() - {"towers"}):
            rep.checks.extend(SUITES[sub](seed).checks)
        return rep.finish()
    if name not in SUITES:
        raise KeyError("unknown suite %r" % (name,))
    return SUITES[name](seed)
