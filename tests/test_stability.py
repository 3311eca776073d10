"""Stability oracles, destabilization certificates, cross-checks."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from d4vgit import stability
from d4vgit.cli import main
from d4vgit.equations import (
    ContractViolation, j_pairing, on_Z, semi_invariant_minus_theta, wedge,
    witness_E1_not_E2, witness_E2_not_E1, witness_semi_invariant,
)
from d4vgit.gitcore import (
    LAMBDA, MINUS_THETA, THETA, Cocharacter, GroupElement, PointHV, act,
    coordinate_weights, pair, point_to_json,
)
from d4vgit.linalg import Mat2
from d4vgit.mckay import base_point
from d4vgit.quiver import build_rep, form_contraction, king_stable
from d4vgit.sampling import (
    engineered_unstable_points, rand_chart_point, rand_group_element,
    rand_nonzero_scalar, rand_point_hv, rand_scalar, rand_tower_group_element,
    rand_z_point,
)
from d4vgit.scalars import QI
from d4vgit.stability import (
    infinite_stabilizer_detected, off_z_minus_theta_flags,
    semistable_minus_theta, semistable_theta, unstable_subset_certificates,
    verify_certificate,
)


class TestMinusTheta:
    def test_base_point_stable(self):
        v = semistable_minus_theta(base_point(x=(3, 1)))
        assert v.is_stable
        assert v.witness_value is not None and not v.witness_value.is_zero()

    def test_alpha_zero_certified(self):
        # a Z-point with a2 = 0
        rng = random.Random(0)
        found = [p for d, p in engineered_unstable_points(rng)
                 if d == "{a_j=a_k=0, p2=0}"]
        p = found[0]
        assert p.alpha[0].is_zero()
        v = semistable_minus_theta(p)
        assert not v.is_stable
        assert v.certificate.name.startswith("-lambda")
        assert verify_certificate(p, v.certificate, MINUS_THETA, v.adapting)

    def test_beta_zero_certified(self):
        rng = random.Random(1)
        found = [p for d, p in engineered_unstable_points(rng)
                 if d == "{p1=p2=p3=0}"]
        p = found[0]
        assert all(not a.is_zero() for a in p.alpha) and p.beta.is_zero()
        v = semistable_minus_theta(p)
        assert not v.is_stable and v.certificate.name == "-mu"
        assert verify_certificate(p, v.certificate, MINUS_THETA, v.adapting)

    def test_off_z_contract_violation(self):
        w = witness_E1_not_E2()
        with pytest.raises(ContractViolation):
            semistable_minus_theta(w)

    def test_off_z_strictly_semistable_flags(self):
        flags = off_z_minus_theta_flags(witness_E1_not_E2())
        assert flags["semi_invariant_nonvanishing"]
        assert flags["infinite_stabilizer_detected"]
        assert flags["strictly_semistable_behavior"]

    def test_infinite_stabilizer_not_detected_on_open_locus(self):
        assert not infinite_stabilizer_detected(base_point())

    def test_infinite_stabilizer_detected_off_the_open_locus(self):
        # a rank-one shared form: the unipotent shear family fixes the H-part
        assert infinite_stabilizer_detected(witness_E2_not_E1())
        # beta = 0 and B = 0: the whole torus of GL(V) fixes it
        assert infinite_stabilizer_detected(
            PointHV.make((1, 2, 3), 0, ((0, 0, 0),) * 3, (1, 0)))

    def test_patched_bad_certificate_raises(self, monkeypatch):
        """A certificate built with the wrong sign pairs negatively with
        -theta, so the a1 = 0 branch raises instead of returning it (an
        explicit raise, so this holds under python -O too)."""
        import d4vgit.stability as stability
        monkeypatch.setattr(stability, "Cocharacter", lambda a, w, name: Cocharacter(
            tuple(-c for c in a), w, name))
        p = PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (1, 0))
        with pytest.raises(AssertionError, match="failed re-verification"):
            semistable_minus_theta(p)


def _inverted_isotropic_adapting(p):
    """The -theta frame as _isotropic_adapting built it before, kept as an
    oracle: K with columns u, w, l(u) = 1 and l(w) = 0, built from 1/l1 and
    l2/l1 (or 1/l2 when l1 = 0), then h = (1, K^-1)."""
    form = next((b for b in p.B if any(not c.is_zero() for c in b)), None)
    if form is None:
        return None
    pm, qm, _ = form
    l1, l2 = (pm, qm / 2) if not pm.is_zero() else (QI.zero(), QI.one())
    if not l1.is_zero():
        K = Mat2(l1.inverse(), -l2 / l1, QI.zero(), QI.one())
    else:
        K = Mat2(QI.zero(), QI.one(), l2.inverse(), QI.zero())
    return GroupElement((QI.one(),) * 3, K.inverse())


def test_isotropic_adapting_matches_the_inverted_frame():
    """At the engineered {p1=p2=p3=0} point, its depth-1 and depth-2 tower
    translates, and points whose forms are multiples of one rank-one form
    l^2 with p = 0 and with p != 0: _isotropic_adapting equals the oracle,
    the first row of its GL2 part is l = (p, q/2) (or (0, 1) when p = 0)
    for the first nonzero form, and it moves every form to (*, 0, 0)."""
    rng = random.Random(8)
    p = dict(engineered_unstable_points(rng))["{p1=p2=p3=0}"]
    points = [p] + [act(rand_tower_group_element(rng, depth), p) for depth in (1, 1, 2, 2)]
    for l1, l2 in ((0, 1), (0, 3), (1, 2), (2, -1), (1, 0)):
        l1, l2 = QI.scalar(l1), rand_nonzero_scalar(rng) * l2
        square = (l1 * l1, l1 * l2 * 2, l2 * l2)
        points.append(PointHV((QI.one(),) * 3, QI.zero(),
                              tuple(tuple(c * k for c in square) for k in (1, 0, 3)),
                              p.x))
    assert {q.B[0][0].is_zero() for q in points} == {True, False}
    for q in points:
        h = stability._isotropic_adapting(q)
        assert h == _inverted_isotropic_adapting(q)
        pm, qm, _ = q.B[0]
        assert (h.g.a, h.g.b) == ((pm, qm / 2) if not pm.is_zero()
                                  else (QI.zero(), QI.one()))
        assert all(b[1].is_zero() and b[2].is_zero() for b in act(h, q).B)


class TestVerifyCertificate:
    """verify_certificate rejects each way a certificate can be wrong."""

    def test_positive_weight_on_a_nonzero_coordinate(self):
        # lambda1 gives beta weight +1, and beta != 0 at the base point
        assert pair(THETA, LAMBDA[0]) > 0
        assert not verify_certificate(base_point(), LAMBDA[0], THETA)

    def test_nonpositive_pairing(self):
        p = PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (0, 0))
        assert verify_certificate(p, LAMBDA[0], THETA)
        assert not verify_certificate(p, LAMBDA[0], MINUS_THETA)
        assert not verify_certificate(p, Cocharacter((1, -1, 0), (0, 0)), THETA)

    def test_positive_x_weight_at_nonzero_x(self):
        diagonal = Cocharacter((1, 1, 1), (1, 1), "diagonal")
        zero_h = ((0, 0, 0), 0, ((0, 0, 0),) * 3)
        assert verify_certificate(PointHV.make(*zero_h, (0, 0)), diagonal, THETA)
        assert not verify_certificate(PointHV.make(*zero_h, (0, 1)), diagonal, THETA)


class TestTheta:
    def test_x_zero_unstable(self):
        p = base_point(x=(0, 0))
        v = semistable_theta(p)
        assert not v.is_stable and v.subset == "{x=0}"
        assert verify_certificate(p, v.certificate, THETA)

    def test_base_point_generic_x_stable(self):
        v = semistable_theta(base_point(x=(1, 3)))
        assert v.is_stable
        assert v.witness_index is not None

    def test_chart_point_stable(self):
        p = rand_chart_point(random.Random(2))
        v = semistable_theta(p)
        assert v.is_stable and v.witness_index == 0

    def test_matches_king_on_samples(self):
        rng = random.Random(3)
        for _ in range(60):
            p = rand_z_point(rng)
            assert semistable_theta(p).is_stable == king_stable(build_rep(p))

    def test_oracle_consistency_500_points(self):
        rng = random.Random(9)
        for _ in range(500):
            p = rand_z_point(rng)
            v = semistable_theta(p)
            assert v.is_stable == king_stable(build_rep(p))

    def test_engineered_families_unstable_with_certificates(self):
        rng = random.Random(4)
        for desc, p in engineered_unstable_points(rng):
            v = semistable_theta(p)
            assert not v.is_stable, desc
            assert verify_certificate(p, v.certificate, THETA, v.adapting), desc
            assert not king_stable(build_rep(p)), desc

    def test_translated_engineered_families(self):
        rng = random.Random(5)
        for desc, p in engineered_unstable_points(rng):
            h = rand_group_element(rng)
            q = act(h, p)
            v = semistable_theta(q)
            assert not v.is_stable, desc
            assert verify_certificate(q, v.certificate, THETA, v.adapting), desc

    def test_off_z_contract_violation(self):
        with pytest.raises(ContractViolation):
            semistable_theta(PointHV.make((1, 1, 1), 1,
                                          ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                          (1, 0)))

    def test_verdict_g_invariant(self):
        rng = random.Random(6)
        for _ in range(20):
            p = rand_z_point(rng)
            h = rand_group_element(rng)
            assert (semistable_theta(p).is_stable
                    == semistable_theta(act(h, p)).is_stable)


class TestSubsetCertificates:
    def test_eleven_families_verified(self):
        certs = unstable_subset_certificates()
        assert len(certs) == 11
        descriptions = [c[0] for c in certs]
        assert "{a1=a2=a3=0}" in descriptions
        assert "{p1=p2=p3=0}" in descriptions

    def test_named_rows(self):
        certs = dict((c[0], c[2]) for c in unstable_subset_certificates())
        assert certs["{a1=a2=a3=0}"].name == "mu"
        assert certs["{p1=p2=p3=0}"].name == "2mu+sum lambda"
        assert certs["{a2=a3=0, p1=0}"].name == "mu+lambda1"

    def test_positive_weights_are_exactly_the_subset(self):
        """So at a point adapted to x (x2 = 0, the only x-coordinate any
        entry weights positively) an entry re-verifies exactly where its
        subset vanishes, and the search picks the first vanishing subset."""
        names = ("a1", "a2", "a3", "beta", "p1", "q1", "r1", "p2", "q2", "r2",
                 "p3", "q3", "r3")
        for desc, subset, lam in unstable_subset_certificates():
            weights = coordinate_weights(lam)
            assert {n for n, w in zip(names, weights) if w > 0} == set(subset), desc
            assert pair(THETA, lam) > 0 and lam.w[0] <= 0, desc


class TestZBranchIdentities:
    """The two constraint patterns the equations force at degenerate legs."""

    def test_b1_zero_forces_beta_products(self):
        rng = random.Random(7)
        count = 0
        for desc, p in engineered_unstable_points(rng):
            if not all(c.is_zero() for c in p.B[0]):
                continue
            count += 1
            a1, a2, a3 = p.alpha
            assert (p.beta * a2 * p.B[1][0]).is_zero()
            assert (p.beta * a3 * p.B[2][0]).is_zero()
        assert count >= 1

    def test_b1x_zero_with_r1_nonzero(self):
        rng = random.Random(8)
        x = (QI.one(), QI.zero())
        for desc, p in engineered_unstable_points(rng):
            if p.x.is_zero():
                continue
            c = form_contraction(p.B[0], p.x)
            if not c.is_zero() or p.B[0][2].is_zero():
                continue
            a1, a2, a3 = p.alpha
            p2, p3 = p.B[1][0], p.B[2][0]
            assert (a1 * p2).is_zero() and (a1 * p3).is_zero()
            assert (a2 * p2).is_zero() and (a3 * p3).is_zero()
        del x


class TestCheckOnce:
    def test_minus_theta_evaluates_residuals_once(self, monkeypatch):
        import d4vgit.equations as equations
        calls = []
        real = equations.residuals

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(equations, "residuals", counting)
        zero = PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (1, 0))
        for p in (base_point(x=(1, 2)), zero):
            calls.clear()
            semistable_minus_theta(p)
            assert len(calls) == 1

    def test_minus_theta_computes_det_b_once(self, monkeypatch):
        """The stable branch reuses the det B that the open-locus check
        computed for the semi-invariant witness: one determinant of B at a
        translate, and none at a base_point() copy, which came with it."""
        from d4vgit.linalg import Mat3
        calls = []
        real = Mat3.det

        def counting(m):
            calls.append(m.rows)
            return real(m)

        rng = random.Random(4)
        points = (base_point(x=(1, 2)), act(rand_group_element(rng), base_point()))
        monkeypatch.setattr(Mat3, "det", counting)
        for p, dets in zip(points, ([], [points[1].B])):
            calls.clear()
            v = semistable_minus_theta(p)
            assert v.is_stable and not v.witness_value.is_zero()
            assert calls == dets

    def test_unstable_verdicts_act_at_most_once(self, monkeypatch):
        """Each unstable verdict moves the point to its adapted basis at most
        once: the certificate search is the re-verification.  The translated
        {p1=p2=p3=0} point (tests/data/p_zero_translate_point.json) needs a
        nontrivial adapting element under both characters."""
        import d4vgit.stability as stability
        calls = []
        real = stability.act

        def counting(h, p):
            calls.append(h)
            return real(h, p)

        monkeypatch.setattr(stability, "act", counting)
        p = dict(engineered_unstable_points(random.Random(0)))["{p1=p2=p3=0}"]
        q = act(rand_group_element(random.Random(0)), p)
        v = semistable_theta(q)
        assert (v.status, v.subset, len(calls)) == ("unstable", "{beta=0, B3=0}", 1)
        calls.clear()
        v = semistable_minus_theta(q)
        assert (v.status, v.subset) == ("unstable", "{beta=0}") and len(calls) <= 1
        rng = random.Random(5)
        for desc, p in engineered_unstable_points(rng):
            for point in (p, act(rand_group_element(rng), p)):
                for oracle in (semistable_theta, semistable_minus_theta):
                    calls.clear()
                    oracle(point)
                    assert len(calls) <= 1, (desc, oracle.__name__)

    def test_certificate_search_reads_the_point_once(self, monkeypatch):
        """The theta search checks every candidate against one read of the
        moved point's coordinates, however many candidates it rejects."""
        rng = random.Random(5)
        points = [point for _, p in engineered_unstable_points(rng)
                  for point in (p, act(rand_group_element(rng), p))]
        for p in points:                 # weight rows and point caches warm
            semistable_theta(p)
        reads = []
        real = PointHV.coords
        monkeypatch.setattr(PointHV, "coords", lambda q: reads.append(q) or real(q))
        subsets = set()
        for p in points:
            reads.clear()
            v = semistable_theta(p)
            assert v.status == "unstable" and len(reads) == 1, v.subset
            subsets.add(v.subset)
        # most verdicts are not the first candidate in the table
        assert len(subsets) >= 8

    def test_certificate_recheck_survives_optimize(self):
        """Under python -O a certificate that fails re-verification still
        makes each unstable branch of both oracles raise."""
        import os
        import subprocess
        import sys
        import textwrap

        import d4vgit
        code = textwrap.dedent("""
            from d4vgit import stability
            from d4vgit.gitcore import PointHV
            from d4vgit.mckay import base_point

            stability._certifies = lambda *args: False
            zero_b = ((0, 0, 0),) * 3
            zero = PointHV.make((0, 0, 0), 0, zero_b, (1, 0))
            beta_zero = PointHV.make((1, 1, 1), 0, zero_b, (1, 0))
            cases = (
                (stability.semistable_theta, base_point(x=(0, 0))),     # x = 0
                (stability.semistable_theta, zero),                     # subset
                (stability.semistable_minus_theta, zero),               # a1 = 0
                (stability.semistable_minus_theta, beta_zero),          # beta = 0
            )
            for oracle, point in cases:
                try:
                    oracle(point)
                except AssertionError:
                    continue
                raise SystemExit("%s accepted a rejected certificate" % oracle.__name__)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(d4vgit.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("oracle, check_id, bad_call", [
    ("semistable_theta", "st.theta_matches_king", 5),
    ("semistable_minus_theta", "st.minus_theta_stable_on_open_locus", 2),
])
def test_suite_stability_names_the_first_failing_sample(monkeypatch, oracle,
                                                        check_id, bad_call):
    """A sampled oracle check that fails reports its first failing sample:
    index and point JSON, as eq.G_invariance_of_Z does; passing checks keep
    empty details."""
    import dataclasses
    import json

    import d4vgit.stability as stability
    from d4vgit.gitcore import point_from_json, point_to_json
    from d4vgit.suites import run_suite
    real = getattr(stability, oracle)
    seen = []

    def flipped(p):
        v = real(p)
        seen.append(p)
        if len(seen) - 1 in (bad_call, bad_call + 3):     # two samples fail
            return dataclasses.replace(v, status="unstable" if v.is_stable else "stable")
        return v

    monkeypatch.setattr(stability, oracle, flipped)
    checks = {c.check_id: c for c in run_suite("stability", 7).checks}
    assert not checks[check_id].passed
    index, text = checks[check_id].details.split(": ", 1)
    assert index == "sample %d" % bad_call
    assert point_from_json(json.loads(text)) == seen[bad_call]
    assert text == json.dumps(point_to_json(seen[bad_call]), sort_keys=True)
    other = ({"st.theta_matches_king", "st.minus_theta_stable_on_open_locus"}
             - {check_id}).pop()
    assert checks[other].passed and checks[other].details == ""
    monkeypatch.undo()
    passing = {c.check_id: c for c in run_suite("stability", 7).checks}
    assert passing[check_id].passed and passing[check_id].details == ""


def test_suite_stability_names_the_first_sample_whose_verdict_moves(monkeypatch):
    """A sample whose translate gets the other theta verdict fails
    st.verdict_G_invariant with the sample's index and point JSON; every
    other check passes with empty details."""
    import dataclasses
    import json

    import d4vgit.stability as stability
    import d4vgit.suites as suites
    from d4vgit.gitcore import point_to_json
    real_act, real_theta = suites.act, stability.semistable_theta
    pairs = []
    bad_call = 6

    def acting(h, p):
        pairs.append((p, real_act(h, p)))
        return pairs[-1][1]

    def flipped(p):
        v = real_theta(p)
        # the translates of samples bad_call and bad_call + 2 flip
        if pairs and p is pairs[-1][1] and len(pairs) - 1 in (bad_call, bad_call + 2):
            return dataclasses.replace(v, status="unstable" if v.is_stable else "stable")
        return v

    monkeypatch.setattr(suites, "act", acting)
    monkeypatch.setattr(stability, "semistable_theta", flipped)
    checks = {c.check_id: c for c in suites.run_suite("stability", 7).checks}
    check = checks.pop("st.verdict_G_invariant")
    assert not check.passed
    index, text = check.details.split(": ", 1)
    assert index == "sample %d" % bad_call
    assert text == json.dumps(point_to_json(pairs[bad_call][0]), sort_keys=True)
    assert all(c.passed and c.details == "" for c in checks.values())
    monkeypatch.undo()
    passing = {c.check_id: c for c in suites.run_suite("stability", 7).checks}
    assert all(c.passed and c.details == "" for c in passing.values())


def test_suite_stability_names_the_first_uncertified_engineered_point(monkeypatch):
    """An engineered point the minus-theta oracle calls stable fails
    st.minus_theta_unstable_certified with its index in the engineered list
    and its point JSON; every other check passes with empty details."""
    import dataclasses
    import json

    import d4vgit.sampling as sampling
    import d4vgit.stability as stability
    from d4vgit.gitcore import point_to_json
    from d4vgit.suites import run_suite
    real_points, real_oracle = sampling.engineered_unstable_points, stability.semistable_minus_theta
    lists = []
    bad = 3

    def recording(rng):
        lists.append(real_points(rng))
        return lists[-1]

    def flipped(p):
        v = real_oracle(p)
        # engineered points bad and bad + 2 of the certified pass come out stable
        if lists and any(p is lists[0][m][1] for m in (bad, bad + 2)):
            return dataclasses.replace(v, status="stable")
        return v

    monkeypatch.setattr(sampling, "engineered_unstable_points", recording)
    monkeypatch.setattr(stability, "semistable_minus_theta", flipped)
    checks = {c.check_id: c for c in run_suite("stability", 7).checks}
    check = checks.pop("st.minus_theta_unstable_certified")
    assert not check.passed
    index, text = check.details.split(": ", 1)
    assert index == "sample %d" % bad
    assert text == json.dumps(point_to_json(lists[0][bad][1]), sort_keys=True)
    assert len(lists) == 1           # built once, shared by both engineered passes
    assert all(c.passed and c.details == "" for c in checks.values())
    monkeypatch.undo()
    passing = {c.check_id: c for c in run_suite("stability", 7).checks}
    assert all(c.passed and c.details == "" for c in passing.values())


@given(depth=st.integers(0, 2), seed=st.integers(0, 2 ** 32), bits=st.just(64),
       engineered=st.booleans())
@example(depth=0, seed=0, bits=256, engineered=False)
@example(depth=0, seed=0, bits=256, engineered=True)
@settings(max_examples=8, deadline=None)
def test_verdicts_are_invariant_under_tower_translates_at_height(depth, seed, bits,
                                                                 engineered):
    """p, a Z point of height 2^16 or an engineered unstable point, moved by
    a depth-`depth` tower element composed with a rational one of height
    2^bits: the plus-theta verdict of h.p is King's verdict on its quiver
    representation and p's verdict, and the minus-theta verdict is p's."""
    rng = random.Random(seed)
    if engineered:
        p = rng.choice(engineered_unstable_points(rng))[1]
    else:
        p = rand_z_point(rng, 2 ** 16)
    h = rand_tower_group_element(rng, depth).compose(rand_group_element(rng, 2 ** bits))
    q = act(h, p)
    theta = semistable_theta(q).is_stable
    assert theta == king_stable(build_rep(q)) == semistable_theta(p).is_stable
    assert semistable_minus_theta(q).status == semistable_minus_theta(p).status


# -- the infinite-stabilizer test against explicit families -----------------------


def _fixing_family(form):
    """A one-parameter family s -> g(s) of SL(V) fixing the form (p, q, r),
    built explicitly: for B = 0 (form None) and the split form v1 v2 the
    torus diag(s, 1/s), for a rank-one form the shear along its kernel, and
    for any other nondegenerate form the Cayley transform
    (1 + sX)(1 - sX)^-1 of X = (q/2, r; -p, -q/2), which spans so(f)."""
    one, zero = QI.one(), QI.zero()
    if form is None or form[0].is_zero() and form[2].is_zero():
        return lambda s: Mat2(s, zero, zero, s.inverse())
    p, q, r = form
    if j_pairing(form, form).is_zero():
        l1, l2 = (p, q / 2) if not p.is_zero() else (zero, one)
        return lambda s: Mat2(one - s * l2 * l1, -(s * l2 * l2),
                              s * l1 * l1, one + s * l1 * l2)
    X = Mat2(q / 2, r, -p, -q / 2)
    return lambda s: ((Mat2.identity() + X.scale(s))
                      * (Mat2.identity() + X.scale(-s)).inverse())


def _reference_infinite_stabilizer(p):
    """Whether the _fixing_family of the first nonzero form fixes the H-part
    of p at its first two parameter values in 2, 3, 5, 7 where 1 - sX is
    invertible, each checked by a full act."""
    family = _fixing_family(next((b for b in p.B if any(not c.is_zero() for c in b)),
                                 None))
    gs = []
    for s in (2, 3, 5, 7):
        try:
            gs.append(family(QI.scalar(s)))
        except ZeroDivisionError:
            pass
    assert all(g.det() == QI.one() for g in gs[:2])
    return all(act(GroupElement((QI.one(),) * 3, g), p).same_h_part(p) for g in gs[:2])


def _hyperbolic_rotations(*values):
    """The elements ((s + 1/s)/2, (s - 1/s)/2; (s - 1/s)/2, (s + 1/s)/2) with
    t = 1, which fix the form v1^2 - v2^2, at the given values of s."""
    out = []
    for s in map(QI.scalar, values):
        c, d = (s + s.inverse()) / 2, (s - s.inverse()) / 2
        out.append(GroupElement((QI.one(),) * 3, Mat2(c, d, d, c)))
    return out


def _form(rng, shape):
    """A nonzero form of the given shape with entries of height 3."""
    while True:
        if shape == "rank one":
            l1, l2 = rand_scalar(rng), rand_scalar(rng)
            f = (l1 * l1, l1 * l2 * 2, l2 * l2)
        elif shape == "v1v2":
            f = (QI.zero(), rand_nonzero_scalar(rng), QI.zero())
        else:
            f = (rand_scalar(rng), rand_scalar(rng), rand_scalar(rng))
            if j_pairing(f, f).is_zero():
                continue
        if any(not c.is_zero() for c in f):
            return f


def _beta_zero_point(rng, shape, shared):
    """beta = 0, forms c_i f for f of the given shape and c_i of height 3
    (B1 = 0 one time in three); unless shared, one form is replaced by an
    independent general one."""
    f = _form(rng, shape)
    coefficients = [rand_scalar(rng) for _ in range(3)]
    if rng.randrange(3) == 0:
        coefficients[0] = QI.zero()
    B = [tuple(c * x for x in f) for c in coefficients]
    if not shared:
        B[rng.randrange(3)] = _form(rng, "general")
    return PointHV.make([rand_scalar(rng) for _ in range(3)], 0, B, (1, 0))


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("shape", ["rank one", "v1v2", "general"])
def test_infinite_stabilizer_matches_the_explicit_families(shape, shared, depth):
    """On beta = 0 points and the same points at beta = 2, at base level and
    translated by a depth-1 tower element, the one-test detector agrees
    with building each fixing family and acting with it: t = 1 and
    det g = 1 fix beta whatever it is."""
    rng = random.Random("%s/%s/%d" % (shape, shared, depth))
    verdicts = []
    for _ in range(4):
        p = _beta_zero_point(rng, shape, shared)
        points = (p, PointHV(p.alpha, QI.scalar(2), p.B, p.x))
        if depth:
            h = rand_tower_group_element(rng, depth)
            points = tuple(act(h, q) for q in points)
        for q in points:
            verdicts.append(_reference_infinite_stabilizer(q))
            assert infinite_stabilizer_detected(q) == verdicts[-1]
    assert all(verdicts) if shared else not any(verdicts)


@pytest.mark.parametrize("f, g", [((0, 0, 1), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)),
                                  ((1, 0, 0), (0, 1, 0))])
def test_forms_apart_in_one_minor_have_no_infinite_stabilizer(f, g):
    """wedge(f, g) has one nonzero minor, a different one in each case."""
    p = PointHV.make((1, 1, 1), 0, (f, g, f), (1, 0))
    assert not _reference_infinite_stabilizer(p)
    assert not infinite_stabilizer_detected(p)


@pytest.mark.parametrize("case", ["beta nonzero", "torus t3", "torus and gl2"])
def test_one_parameter_families_off_z_are_flagged(case):
    """Off Z, each point is fixed by a one-parameter family: at beta = 1 with
    B = (f, 2f, 3f), f = v1^2 - v2^2, by f's hyperbolic rotations (t = 1 and
    det g = 1 fix beta too); at a3 = 0 and B3 = 0, by the torus coordinate
    t3 alone; at a1 = 0 and B = (v1^2, v1 v2, 2 v1 v2), by
    ((mu^2, 1, 1), diag(mu, 1/mu)), which mixes t1 with GL(V)."""
    one = QI.one()
    if case == "beta nonzero":
        p = PointHV.make((1, 1, 1), 1, ((1, 0, -1), (2, 0, -2), (3, 0, -3)), (1, 0))
        family = _hyperbolic_rotations(2, 3)
    elif case == "torus t3":
        p = PointHV.make((1, 1, 0), 0, ((1, 0, 0), (0, 0, 1), (0, 0, 0)), (1, 0))
        family = [GroupElement((one, one, QI.scalar(s)), Mat2.identity())
                  for s in (2, 3)]
    else:
        p = PointHV.make((0, 1, 1), 0, ((1, 0, 0), (0, 1, 0), (0, 2, 0)), (1, 0))
        family = [GroupElement((mu * mu, one, one), Mat2.diagonal(mu, mu.inverse()))
                  for mu in (QI.scalar(2), QI.scalar(3))]
    assert not on_Z(p)
    assert all(act(h, p).same_h_part(p) for h in family)
    assert off_z_minus_theta_flags(p)["infinite_stabilizer_detected"]


def _one_parameter_subgroups(eps):
    """The elements at 1 + eps of the seven one-parameter subgroups t_i = s,
    diag(s, 1), diag(1, s), and the unipotents (1 eps; 0 1), (1 0; eps 1)
    with t = 1, in the row order of _infinitesimal_action."""
    one, zero, s = QI.one(), QI.zero(), QI.one() + eps
    ones = (one,) * 3
    out = [GroupElement(tuple(s if k == i else one for k in range(3)), Mat2.identity())
           for i in range(3)]
    return out + [GroupElement(ones, g) for g in (
        Mat2.diagonal(s, one), Mat2.diagonal(one, s),
        Mat2(one, eps, zero, one), Mat2(one, zero, eps, one))]


@pytest.mark.parametrize("seed", range(3))
def test_infinitesimal_action_is_the_derivative_of_act(seed):
    """Each row of the infinitesimal action is the derivative at the
    identity of act along its one-parameter subgroup: the difference
    quotient at eps = 10^-30 differs from it by O(eps) in every
    coordinate, at random points of H x V."""
    p = rand_point_hv(random.Random(seed))
    eps = QI.one() / 10 ** 30
    base = p.coords()
    for h, row in zip(_one_parameter_subgroups(eps), stability._infinitesimal_action(p)):
        moved = act(h, p).coords()
        for x, y, want in zip(moved, base, row):
            error = (x - y) / eps - want
            assert all(abs(part) < Fraction(1, 10 ** 20) for part in error.payload)


def _wedge_test(p):
    """The earlier test: B = 0, or every form a multiple of the first
    nonzero one, which finds only the SL(V) families with t = 1."""
    form = next((b for b in p.B if any(not c.is_zero() for c in b)), None)
    return form is None or all(
        all(c.is_zero() for c in wedge(form, b)) for b in p.B)


def test_the_rank_test_keeps_every_wedge_test_detection():
    """Every point the wedge test flagged is still flagged, at the off-Z
    witnesses, the engineered unstable points, B = 0 and random points with
    a shared form."""
    rng = random.Random(28)
    points = [witness_E1_not_E2(), witness_E2_not_E1(), base_point(),
              PointHV.make((1, 2, 3), 0, ((0, 0, 0),) * 3, (1, 0))]
    points += [p for _, p in engineered_unstable_points(rng)]
    points += [_beta_zero_point(rng, shape, shared) for shape in ("rank one", "v1v2",
                                                                   "general")
               for shared in (True, False) for _ in range(2)]
    flagged = [_wedge_test(p) for p in points]
    assert any(flagged) and not all(flagged)
    for p, old in zip(points, flagged):
        assert infinite_stabilizer_detected(p) or not old


def test_off_z_semi_invariant_flag_reads_the_factors():
    """The flag equals "a^2 beta^2 det B or (a1 a2 a3)^2 (a1 a2 f_12^2)^5 is
    nonzero" on random points with some of a_i, beta, f_12 and det B zero."""
    rng = random.Random(26)
    seen = set()
    for _ in range(48):
        p = rand_point_hv(rng)
        alpha = tuple(QI.zero() if rng.randrange(4) == 0 else a for a in p.alpha)
        B = list(p.B)
        if rng.randrange(3) == 0:                    # f_12 = j(B1, B2) = 0
            _, q1, r1 = B[0]
            B[1] = (q1, r1 * 2, QI.zero())
        if rng.randrange(3) == 0:                    # det B = 0
            B[2] = tuple(u + v for u, v in zip(B[0], B[1]))
        q = PointHV.make(alpha, QI.zero() if rng.randrange(3) == 0 else p.beta, B, p.x)
        expected = (not semi_invariant_minus_theta(q).is_zero()
                    or not witness_semi_invariant(q).is_zero())
        assert off_z_minus_theta_flags(q)["semi_invariant_nonvanishing"] == expected
        seen.add(expected)
    assert seen == {True, False}


def test_a_shared_nondegenerate_form_has_an_infinite_stabilizer(tmp_path, capsys):
    """beta = 0 and B = (f, 2f, 3f) for f = v1^2 - v2^2: the hyperbolic
    rotations of f fix the H-part, and the minus-theta report off Z says so."""
    f = (1, 0, -1)
    p = PointHV.make((1, 1, 1), 0, tuple(tuple(k * c for c in f) for k in (1, 2, 3)),
                     (1, 0))
    assert all(act(h, p).same_h_part(p) for h in _hyperbolic_rotations(2, 3, 5))
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(point_to_json(p)))
    assert main(["stability", "--point", str(path), "--character", "minus-theta",
                 "--json"]) == 3
    flags = json.loads(capsys.readouterr().out)["off_Z_flags"]
    assert flags["infinite_stabilizer_detected"] is True
    assert flags["strictly_semistable_behavior"] is True
