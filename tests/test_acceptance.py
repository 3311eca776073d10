"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Each criterion prints a single pass line when it completes; run with -s (or
via `d4vgit suite all`) to see them.  Two natural-looking alternative
normalizations (a factor-free determinant identity, and the chart relation
with r = omega/2 instead of omega/4) are provably incompatible with the
pairing and wedge identities pinned everywhere else; they appear here as
strict xfail companions next to the checks that gate the build.
"""

import random

import pytest

from d4vgit import charts, cyclic_s3, equations, mckay, quiver, stability, suites
from d4vgit.gitcore import MINUS_THETA, THETA, act, weight_table
from d4vgit.linalg import Vec2
from d4vgit.poly import Poly
from d4vgit.sampling import (
    engineered_unstable_points, rand_chart_point, rand_group_element,
    rand_nonzero_vec, rand_orbit_point, rand_point_hv,
)
from d4vgit.scalars import QI


SEED = 20260810


def _passed(n, text):
    print("criterion %2d: PASS - %s" % (n, text))


@pytest.fixture(scope="module")
def z_samples():
    """>= 200 seeded points of Z x V: orbit translates of the base point with
    random x, plus translated chart points."""
    rng = random.Random(SEED)
    pts = []
    for _ in range(120):
        pts.append(rand_orbit_point(rng))
    for _ in range(80):
        p = rand_chart_point(rng)
        pts.append(act(rand_group_element(rng), p))
    for _ in range(10):
        pts.append(rand_chart_point(rng))
    assert len(pts) >= 200
    return pts


@pytest.fixture(scope="module")
def engineered():
    """>= 100 engineered unstable Z-points: each destabilized family plus
    group translates."""
    rng = random.Random(SEED + 1)
    pts = []
    for rep in range(9):
        for desc, p in engineered_unstable_points(rng):
            if rep == 0:
                pts.append((desc, p))
            else:
                pts.append((desc, act(rand_group_element(rng), p)))
    assert len(pts) >= 100
    return pts


def test_criterion_01_weight_table():
    table = weight_table()
    assert table == suites.REFERENCE_WEIGHT_TABLE
    assert len(table) == 7
    assert all(len(row) == 13 for row in table.values())
    # the four generating rows agree with the reference table entry by entry
    assert table["lambda1"] == (-2, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0)
    assert table["mu"] == (1, 1, 1, -2, 0, -1, -2, 0, -1, -2, 0, -1, -2)
    # the combined rows are the exact sums of their names
    assert table["mu+lambda1"] == tuple(
        a + b for a, b in zip(table["mu"], table["lambda1"]))
    assert table["2mu+lambda1+lambda2+lambda3"] == tuple(
        2 * m + l1 + l2 + l3 for m, l1, l2, l3 in zip(
            table["mu"], table["lambda1"], table["lambda2"], table["lambda3"]))
    _passed(1, "weight table reproduced exactly (7 rows x 13 weights)")


def test_criterion_02_base_point():
    b = mckay.base_point(x=(1, 2))
    assert equations.residuals(b).is_zero()
    assert equations.in_Zo(b)
    a1, a2, a3 = b.alpha
    det = equations.det_b(b)
    assert det * 2 == b.beta ** 3 * a1 * a2 * a3
    assert not det.is_zero()
    _passed(2, "base point on Z, in the open locus, 2*det B = beta^3 a1 a2 a3")


@pytest.mark.xfail(reason="the factor-free form det B = beta^3 a1 a2 a3 is "
                   "incompatible with the pinned pairing normalization; the "
                   "exact identity is 2 det B = beta^3 a1 a2 a3", strict=True)
def test_criterion_02_factor_free_determinant_variant():
    b = mckay.base_point()
    a1, a2, a3 = b.alpha
    assert equations.det_b(b) == b.beta ** 3 * a1 * a2 * a3


def test_criterion_03_isotropy():
    b = mckay.base_point()
    stab = mckay.stabilizer(b)
    assert stab.order() == 8
    assert stab.order_profile().get(2, 0) == 1
    assert not stab.is_abelian()
    assert stab.is_quaternion()
    relaxed = mckay.stabilizer(b, fix_beta=False)
    assert relaxed.order() == 16
    _passed(3, "stabilizer has quaternion signature (8); relaxed variant 16")


def test_criterion_04_preprojective_functor(z_samples):
    for p in z_samples:
        legs, central = quiver.preprojective_residual(quiver.build_rep(p))
        assert all(s.is_zero() for s in legs)
        assert central.is_zero()
    rng = random.Random(SEED + 2)
    off = 0
    for _ in range(60):
        p = rand_point_hv(rng)
        rep = quiver.build_rep(p)
        legs, central = quiver.preprojective_residual(rep)
        assert all(s.is_zero() for s in legs)
        # central residual = first-equation residual contracted at x.v
        res = equations.residuals(p)
        e1 = res.e1
        gram = {(0, 0): e1[0], (0, 1): e1[1], (0, 2): e1[2],
                (1, 1): e1[3], (1, 2): e1[4], (2, 2): e1[5]}

        def form(t):
            s = QI.zero()
            for m in range(3):
                for n in range(3):
                    key = (m, n) if m <= n else (n, m)
                    s = s + gram[key] * t[m] * t[n]
            return s

        x = p.x
        for vv in (Vec2(QI.one(), QI.zero()), Vec2(QI.zero(), QI.one()),
                   Vec2(QI.one(), QI.one())):
            t = (x.a * vv.a, x.a * vv.b + x.b * vv.a, x.b * vv.b)
            assert quiver.central_quadratic(central, vv) == form(t)
        off += 1
    assert off >= 50
    _passed(4, "preprojective relations exact on %d Z-points; legs and the "
            "central contraction exact on %d generic points"
            % (len(z_samples), off))


def test_criterion_05_stability_equivalence(z_samples, engineered):
    checked = 0
    for p in z_samples:
        v = stability.semistable_theta(p)
        k = quiver.king_stable(quiver.build_rep(p))
        assert v.is_stable == k
        if not v.is_stable:
            assert stability.verify_certificate(p, v.certificate, THETA,
                                                v.adapting)
        checked += 1
    for desc, p in engineered:
        v = stability.semistable_theta(p)
        k = quiver.king_stable(quiver.build_rep(p))
        assert not v.is_stable and not k, desc
        assert stability.verify_certificate(p, v.certificate, THETA,
                                            v.adapting), desc
        checked += 1
    assert checked >= 300
    _passed(5, "theta oracle == King stability on %d points; all unstable "
            "verdicts re-certified" % checked)


def test_criterion_06_minus_theta(z_samples, engineered):
    for p in z_samples:
        v = stability.semistable_minus_theta(p)
        assert v.is_stable
        assert not v.witness_value.is_zero()
    for desc, p in engineered:
        if p.x.is_zero():
            continue
        v = stability.semistable_minus_theta(p)
        assert not v.is_stable, desc
        assert stability.verify_certificate(p, v.certificate, MINUS_THETA,
                                            v.adapting), desc
    rng = random.Random(SEED + 3)
    b = mckay.base_point(x=(1, 1))
    val = equations.semi_invariant_minus_theta(b)
    for _ in range(100):
        h = rand_group_element(rng)
        chi = (h.t[0] * h.t[1] * h.t[2] * h.g.det()).inverse()
        assert equations.semi_invariant_minus_theta(act(h, b)) == chi * val
    _passed(6, "minus-theta stable exactly on the open locus; semi-invariant "
            "exact under 100 group elements")


def test_criterion_07_chart_closure():
    report = charts.chart_closure_check()
    assert len(report.components) == 24
    assert report.ok, report.failing()
    _passed(7, "all 24 residual components reduce to remainder 0 mod N")


@pytest.mark.xfail(reason="the variant relation r1 = omega/2 does not "
                   "close; the chart relation under the pinned pairing "
                   "normalization is r1 = omega/4", strict=True,
                   raises=AssertionError)
def test_criterion_07_half_omega_substitution_variant():
    V = charts.CHART_VARIABLES
    gen = Poly.ring(V)
    one = Poly.constant(1, V)
    a2, a3, b, p2, p3 = (gen[v] for v in V)
    r1 = a2 * a3 * b * b / 2            # the variant coefficient
    B = ((one, Poly.constant(0, V), r1),
         (p2, b * a3 * p3, -(r1 * p2)),
         (p3, -(b * a2 * p2), -(r1 * p3)))
    e1, e2, e3 = equations.residual_entries((one, a2, a3), b, B)
    N = one + a2 * p2 ** 2 + a3 * p3 ** 2
    for entry in e1 + e2 + e3:
        _, remainder = entry.divide_by(N)
        assert remainder.is_zero()


def test_criterion_08_chart_correspondence():
    rng = random.Random(SEED + 4)
    count = 0
    for _ in range(110):
        p = rand_chart_point(rng)
        c = charts.normalize(p, 1)
        hat = charts.to_quiver_chart(c)
        assert charts.from_quiver_chart(hat) == c
        assert charts.to_quiver_chart(charts.from_quiver_chart(hat)) == hat
        # hat-side system collapse: q-formula and omega = bh^2 ah_j ah_k
        assert hat.q_j == hat.beta * hat.alpha_k * hat.p_k
        assert hat.q_k == -(hat.beta * hat.alpha_j * hat.p_j)
        assert (hat.alpha_j * hat.q_j ** 2 + hat.alpha_k * hat.q_k ** 2
                + hat.beta ** 2 * hat.alpha_j * hat.alpha_k).is_zero()
        count += 1
    assert count >= 100
    _passed(8, "hat roundtrips exact on %d inputs; hat system collapses to "
            "(q-formula, omega = bh^2 a2 a3)" % count)


def test_criterion_09_equation_independence():
    w1 = equations.witness_E1_not_E2()
    r1 = equations.residuals(w1)
    assert r1.e1_zero() and r1.e3_zero() and not r1.e2_zero()
    assert not equations.witness_semi_invariant(w1).is_zero()
    flags = stability.off_z_minus_theta_flags(w1)
    assert flags["strictly_semistable_behavior"]

    w2 = equations.witness_E2_not_E1()
    r2 = equations.residuals(w2)
    assert r2.e2_zero() and r2.e3_zero() and not r2.e1_zero()
    rng = random.Random(SEED + 5)
    generic = w2.with_x(rand_nonzero_vec(rng))
    rep = quiver.build_rep(generic)
    assert quiver.king_stable(rep)
    assert not quiver.preprojective_holds(rep)
    _passed(9, "witness residual patterns, semi-invariant, and King-stable "
            "non-preprojective representation all verified")


def test_criterion_10_examples():
    for n in (2, 3, 4, 5):
        fan = cyclic_s3.an_quotient_fan(n, 1)
        assert fan.interior_ray_count == n - 1
        assert len(fan.maximal_cones) == n
        assert all(m == 1 for m in fan.multiplicities)
        orb = cyclic_s3.an_quotient_fan(n, -1)
        assert len(orb.maximal_cones) == 1
        assert orb.multiplicities == (n,)
    s3p = cyclic_s3.s3_base_point()
    assert cyclic_s3.s3_on_z(s3p)
    stab = cyclic_s3.s3_stabilizer(s3p)
    assert stab.order() == 6
    _passed(10, "cyclic fans for n = 2..5 and the S3 base point verified")


def test_criterion_11_determinism():
    first = suites.run_suite("all", 7)
    second = suites.run_suite("all", 7)
    assert first.to_json() == second.to_json()
    assert first.passed
    _passed(11, "run_suite('all', seed) is byte-reproducible and green")
