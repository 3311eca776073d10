"""Residuals of the defining equations, locus predicates, witnesses.

Includes an independent sympy oracle: the residual formulas are re-expanded
from scratch on random points and compared entry by entry.
"""

import json
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from d4vgit.equations import (
    ContractViolation, det_b, f_pairing, in_Zo, j_pairing, omega, residuals,
    semi_invariant_minus_theta, wedge, witness_E1_not_E2, witness_E2_not_E1,
    witness_semi_invariant,
)
from d4vgit.gitcore import PointHV, act, point_from_json, point_to_json
from d4vgit.mckay import base_point
from d4vgit.sampling import rand_group_element, rand_scalar, rand_z_point
from d4vgit.scalars import QI, adjoin_sqrt


class TestJPairing:
    def test_self_pairing_normalization(self):
        r1 = QI.scalar(Fraction(5, 3))
        b1 = (QI.one(), QI.zero(), r1)
        assert j_pairing(b1, b1) == r1 * 2

    def test_cross_pairing(self):
        r1 = QI.scalar(2)
        b1 = (QI.one(), QI.zero(), r1)
        b2 = (QI.scalar(3), QI.scalar(7), QI.scalar(-1))
        assert j_pairing(b1, b2) == QI.scalar(-1) + r1 * 3

    def test_symmetry(self):
        rng = random.Random(0)
        for _ in range(50):
            u = tuple(QI.scalar(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(3))
            v = tuple(QI.scalar(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(3))
            assert j_pairing(u, v) == j_pairing(v, u)


class TestWedge:
    def test_chart_identity_values(self):
        # B1 ^ B2 = (-r1 q2, r1 p2 - r2, q2) for B1 = (1, 0, r1)
        r1 = QI.scalar(3)
        b1 = (QI.one(), QI.zero(), r1)
        p2, q2, r2 = QI.scalar(2), QI.scalar(5), QI.scalar(-1)
        got = wedge(b1, (p2, q2, r2))
        assert got == (-(r1 * q2), r1 * p2 - r2, q2)

    def test_antisymmetry(self):
        rng = random.Random(1)
        u = tuple(QI.scalar(rng.randint(-4, 4)) for _ in range(3))
        v = tuple(QI.scalar(rng.randint(-4, 4)) for _ in range(3))
        wu = wedge(u, v)
        wv = wedge(v, u)
        assert all((a + b).is_zero() for a, b in zip(wu, wv))
        assert all(c.is_zero() for c in wedge(u, u))


class TestResiduals:
    def test_base_point(self):
        assert residuals(base_point(x=(1, 2))).is_zero()

    def test_zero_point(self):
        p = PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (0, 0))
        assert residuals(p).is_zero()

    def test_beta_negation_breaks_exactly_e3(self):
        b = base_point()
        flipped = PointHV(b.alpha, -b.beta, b.B, b.x)
        r = residuals(flipped)
        assert r.e1_zero() and r.e2_zero() and not r.e3_zero()
        assert all(lab.startswith("E3") for lab in r.nonzero_components())

    def test_sympy_oracle(self):
        """Independent expansion of all 24 entries on random points."""
        symbols, expected = _sympy_residuals()
        rng = random.Random(2)
        for _ in range(5):
            vals = {s: sp.Rational(rng.randint(-3, 3), rng.randint(1, 2)) for s in symbols}
            coords = [QI.scalar(Fraction(int(vals[s].p), int(vals[s].q))) for s in symbols]
            point = PointHV.make(coords[:3], coords[3], (coords[4:7], coords[7:10],
                                                         coords[10:13]), (0, 0))
            got = residuals(point)
            for mine, ref in zip(list(got.e1) + list(got.e2) + list(got.e3), expected):
                ref = sp.nsimplify(ref.subs(vals))
                assert mine == QI.scalar(Fraction(int(ref.p), int(ref.q)))

    def test_sympy_oracle_on_tower_points(self):
        """The same expansion on a point of Q(i)(sqrt 2)(sqrt 3) with Gaussian
        leaves of height 2^64, every coordinate read as a sympy radical
        expression, each difference expanded to exactly zero (about 4 s)."""
        field, s1 = adjoin_sqrt(QI, 2)
        field, s2 = adjoin_sqrt(field, 3)
        symbols, expected = _sympy_residuals()
        rng = random.Random(3)

        def leaf():
            return rand_scalar(rng, 2 ** 64)

        coords = [field.lift(leaf()) + s1 * leaf() + s2 * (leaf() + s1 * leaf())
                  for _ in symbols]
        point = PointHV.make(coords[:3], coords[3], (coords[4:7], coords[7:10],
                                                     coords[10:13]), (0, 0))
        vals = dict(zip(symbols, map(_to_sympy, coords)))
        got = residuals(point)
        entries = list(got.e1) + list(got.e2) + list(got.e3)
        assert all(e.field is field for e in entries)
        for mine, ref in zip(entries, expected):
            assert sp.expand(_to_sympy(mine) - ref.subs(vals)) == 0


def _sympy_residuals():
    """(the 13 coordinate symbols a1 a2 a3 b p1 q1 r1 ..., the 24 residual
    entries in e1, e2, e3 order), expanded from the equations in sympy."""
    a = sp.symbols("a1 a2 a3")
    b = sp.Symbol("b")
    B = [sp.symbols("p%d q%d r%d" % (i, i, i)) for i in (1, 2, 3)]
    om = a[0] * a[1] * a[2] * b ** 2
    half = sp.Rational(1, 2)
    btil = [sp.Matrix([t[0], half * t[1], t[2]]) for t in B]
    J = sp.Matrix([[0, 0, 1], [0, -half, 0], [1, 0, 0]])
    E1 = sum((a[i] * btil[i] * btil[i].T for i in range(3)),
             sp.zeros(3, 3)) - om / 2 * J

    def jp(u, v):
        return u[0] * v[2] + u[2] * v[0] - u[1] * v[1] / 2

    E2 = sp.Matrix(3, 3, lambda i, j: a[j] * jp(B[i], B[j])
                   - (om / 2 if i == j else 0))
    E3 = sp.zeros(3, 3)
    for i, jj, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        u, v = B[jj], B[k]
        w = (u[1] * v[2] - u[2] * v[1], -(u[0] * v[2] - u[2] * v[0]),
             u[0] * v[1] - u[1] * v[0])
        rhs = (b * a[i] * B[i][2], -b * a[i] * B[i][1] / 2, b * a[i] * B[i][0])
        for c in range(3):
            E3[i, c] = w[c] - rhs[c]
    symbols = list(a) + [b] + [s for t in B for s in t]
    return symbols, ([E1[m, n] for m in range(3) for n in range(m, 3)]
                     + [E2[i, j] for i in range(3) for j in range(3)]
                     + [E3[i, c] for i in range(3) for c in range(3)])


def _to_sympy(x):
    """A Scalar as a sympy expression in I and the square roots of its tower."""
    if x.field.is_base:
        re, im = x.payload
        return sp.Rational(re.numerator, re.denominator) + sp.I * sp.Rational(
            im.numerator, im.denominator)
    low, high = x.payload
    return _to_sympy(low) + _to_sympy(high) * sp.sqrt(_to_sympy(x.field.d))


class TestOpenLocus:
    def test_base_point_in_Zo(self):
        b = base_point()
        assert in_Zo(b)
        a1, a2, a3 = b.alpha
        assert det_b(b) * 2 == b.beta ** 3 * a1 * a2 * a3

    def test_zero_point_not_in_Zo(self):
        p = PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (0, 0))
        assert not in_Zo(p)

    def test_contract_violation_off_Z(self):
        rng = random.Random(3)
        p = PointHV.make((1, 1, 1), 1,
                         ((1, 2, 3), (4, 5, 6), (7, 8, 9)), (0, 0))
        assert not residuals(p).is_zero()
        with pytest.raises(ContractViolation):
            in_Zo(p)

    def test_orbit_invariance(self):
        rng = random.Random(4)
        b = base_point(x=(1, 1))
        for _ in range(25):
            q = act(rand_group_element(rng), b)
            assert residuals(q).is_zero()
            assert in_Zo(q)

    def test_invariance_200_group_elements(self):
        rng = random.Random(10)
        for _ in range(200):
            p = rand_z_point(rng)
            h = rand_group_element(rng)
            assert residuals(act(h, p)).is_zero()


class TestWitnesses:
    def test_e1_not_e2(self):
        w = witness_E1_not_E2()
        r = residuals(w)
        assert r.e1_zero() and r.e3_zero() and not r.e2_zero()
        assert not witness_semi_invariant(w).is_zero()

    def test_e2_not_e1(self):
        w = witness_E2_not_E1()
        r = residuals(w)
        assert r.e2_zero() and r.e3_zero() and not r.e1_zero()

    def test_rank_one(self):
        for w in (witness_E1_not_E2(), witness_E2_not_E1()):
            rows = [w.B[i] for i in range(3)]
            for i in range(3):
                for j in range(3):
                    assert all(c.is_zero() for c in wedge(rows[i], rows[j]))

    def test_witness_semi_invariant_weight(self):
        """(a1a2a3)^2 (a1 a2 f12^2)^5 is semi-invariant of weight -4 theta."""
        rng = random.Random(5)
        w = witness_E1_not_E2()
        for _ in range(20):
            h = rand_group_element(rng)
            chi = (h.t[0] * h.t[1] * h.t[2] * h.g.det()).inverse() ** 4
            assert witness_semi_invariant(act(h, w)) == chi * witness_semi_invariant(w)


class TestDerivedQuantities:
    def test_omega_weight(self):
        rng = random.Random(6)
        for _ in range(30):
            p = rand_z_point(rng)
            h = rand_group_element(rng)
            assert omega(act(h, p)) == h.g.det().inverse() * omega(p)

    def test_semi_invariant_minus_theta(self):
        rng = random.Random(7)
        p = base_point(x=(1, 0))
        for _ in range(30):
            h = rand_group_element(rng)
            chi = (h.t[0] * h.t[1] * h.t[2] * h.g.det()).inverse()
            assert (semi_invariant_minus_theta(act(h, p))
                    == chi * semi_invariant_minus_theta(p))

    def test_e3_and_det_imply_e1_e2(self):
        """On the open locus the determinant relation det B = beta*omega/4
        (stored-coordinate form of the third equation's determinant) holds."""
        rng = random.Random(8)
        for _ in range(30):
            p = rand_z_point(rng)
            if not in_Zo(p):
                continue
            assert det_b(p) * 4 == p.beta * omega(p) * 2  # 2detB = beta^3 a1a2a3

    def test_f_pairing_equivariance_zero_set(self):
        rng = random.Random(9)
        p = rand_z_point(rng)
        # off-diagonal f_ij vanish on Z (second equation with nonzero alpha)
        for i in range(3):
            for j in range(3):
                if i != j and not p.alpha[j].is_zero():
                    assert f_pairing(p, i, j).is_zero()


@pytest.fixture
def count_residual_entries(monkeypatch):
    """Records the H-part of every full residual evaluation."""
    import d4vgit.equations as equations
    calls = []
    real = equations.residual_entries

    def counting(alpha, beta, B):
        calls.append((alpha, beta, B))   # keeps the H-parts alive, so ids stay unique
        return real(alpha, beta, B)

    monkeypatch.setattr(equations, "residual_entries", counting)
    return calls


@pytest.mark.parametrize("height", [2, 2 ** 8, 2 ** 64])
def test_residual_entries_reduce_each_entry_once(monkeypatch, height):
    """At the base level the 24 residual entries are 24 reduced values
    (scalars._qi, the one builder of a reduced base-level Scalar): omega,
    the pairings and beta a_i are shared unreduced."""
    import d4vgit.scalars as scalars
    from d4vgit.equations import residual_entries
    rng = random.Random(16)
    points = [rand_z_point(rng, height) for _ in range(3)]
    points.append(act(rand_group_element(rng, height), points[0]))
    reduced = []
    real = scalars._qi
    monkeypatch.setattr(scalars, "_qi", lambda *args: reduced.append(args) or real(*args))
    for p in points:
        reduced.clear()
        e1, e2, e3 = residual_entries(p.alpha, p.beta, p.B)
        assert len(e1) + len(e2) + len(e3) == 24 and len(reduced) == 24


def test_suite_equations_evaluates_residuals_once_per_point(count_residual_entries):
    """suite_equations checks each point's membership in Z once: the
    open-locus check after it reads the residuals kept on the point."""
    from d4vgit.suites import suite_equations
    assert suite_equations(3).passed
    ids = [tuple(map(id, args)) for args in count_residual_entries]
    assert len(ids) >= 60 and len(ids) == len(set(ids))


def test_suite_equations_computes_det_b_once_per_point(monkeypatch):
    """suite_equations takes det B of each point in the open locus from the
    open-locus check (which also checks 2 det B = beta^3 a1 a2 a3) and
    reuses it for the identity and the semi-invariant: the determinant of
    each point's B is computed once."""
    from d4vgit.linalg import Mat3
    from d4vgit.suites import suite_equations
    calls = []
    real = Mat3.det

    def counting(m):
        calls.append(m.rows)
        return real(m)

    monkeypatch.setattr(Mat3, "det", counting)
    assert suite_equations(3).passed
    assert len(calls) >= 61 and len(calls) == len(set(calls))


def test_suite_equations_reports_an_off_z_sample_as_a_failed_check(monkeypatch):
    """An orbit sample off Z fails eq.G_invariance_of_Z and is outside the
    open locus; the suite reports both rather than raising
    ContractViolation from the open-locus check."""
    import d4vgit.sampling as sampling
    from d4vgit.suites import run_suite
    real = sampling.rand_z_point
    draws = [0]

    def third_off_z(rng, height=2):
        p = real(rng, height)
        draws[0] += 1
        if draws[0] == 3:
            p = PointHV(p.alpha, -p.beta, p.B, p.x)    # breaks E3 only
        return p

    monkeypatch.setattr(sampling, "rand_z_point", third_off_z)
    report = run_suite("equations", 7)
    status = {c.check_id: c.passed for c in report.checks}
    assert not status["eq.G_invariance_of_Z"]
    assert not status["eq.open_locus_G_invariant"]
    assert status["eq.omega_weight"] and status["eq.semi_invariant_weight"]
    # the failing check names sample 2 and the exact point that left Z
    details = {c.check_id: c.details for c in report.checks}
    index, text = details["eq.G_invariance_of_Z"].split(": ", 1)
    assert index == "sample 2"
    bad = point_from_json(json.loads(text))
    assert not residuals(bad).is_zero() and residuals(bad).e1_zero()
    monkeypatch.undo()
    passing = {c.check_id: c for c in run_suite("equations", 7).checks}
    assert passing["eq.G_invariance_of_Z"].passed
    assert passing["eq.G_invariance_of_Z"].details == ""


@pytest.mark.parametrize("check_id, flip, also_fails", [
    ("eq.open_locus_G_invariant", lambda d, is_open: (d, False), ()),
    # the semi-invariant weight reads the same det B
    ("eq.det_identity_on_orbit", lambda d, is_open: (d + 1, is_open),
     ("eq.semi_invariant_weight",)),
], ids=["open_locus", "det_identity"])
def test_suite_equations_names_the_first_failing_orbit_sample(monkeypatch, check_id,
                                                              flip, also_fails):
    """An orbit sample outside the open locus, or off 2 det B = beta^3 a1 a2
    a3, fails its check with the sample's index and point JSON; the other
    checks report as they do when every sample passes."""
    import d4vgit.suites as suites
    passing = {c.check_id: c for c in suites.run_suite("equations", 7).checks}
    real = suites._det_b_and_open_locus
    seen = []
    bad_call = 4

    def flipped(p):
        seen.append(p)
        # call 0 is for b*; call k + 1 for orbit sample k; two samples fail
        if len(seen) - 2 in (bad_call, bad_call + 3):
            return flip(*real(p))
        return real(p)

    monkeypatch.setattr(suites, "_det_b_and_open_locus", flipped)
    checks = {c.check_id: c for c in suites.run_suite("equations", 7).checks}
    assert not checks[check_id].passed
    index, text = checks[check_id].details.split(": ", 1)
    assert index == "sample %d" % bad_call
    assert text == json.dumps(point_to_json(seen[bad_call + 1]), sort_keys=True)
    for other, check in checks.items():
        if other != check_id and other not in also_fails:
            assert check == passing[other], other
    assert passing[check_id].passed and passing[check_id].details == ""


# -- residuals kept on the point ---------------------------------------------------


def _stream_point(rng, engineered):
    """A point as the point_stream benchmark makes it: a height-2^8
    translate of a Z point or of an engineered unstable point, read back
    from its JSON."""
    from d4vgit.sampling import engineered_unstable_points
    height = 1 << 8
    if engineered:
        families = [p for _, p in engineered_unstable_points(rng) if not p.x.is_zero()]
        p = families[rng.randrange(len(families))]
    else:
        p = rand_z_point(rng, height)
    q = act(rand_group_element(rng, height), p)
    return point_from_json(json.loads(json.dumps(point_to_json(q))))


@pytest.mark.parametrize("engineered", (False, True))
def test_point_stream_op_evaluates_residuals_once(engineered, count_residual_entries):
    from d4vgit.charts import normalize
    from d4vgit.stability import semistable_minus_theta, semistable_theta
    rng = random.Random(41)
    normalized = 0
    for _ in range(6):
        p = _stream_point(rng, engineered)
        count_residual_entries.clear()
        assert residuals(p).is_zero()
        theta = semistable_theta(p)
        minus = semistable_minus_theta(p)
        assert minus.is_stable != engineered
        if theta.is_stable:
            normalize(p, theta.witness_index + 1)
            normalized += 1
        assert len(count_residual_entries) == 1
        assert count_residual_entries[0][2] is p.B
    assert engineered or normalized > 0


def test_base_point_and_connect_never_re_evaluate_the_base_point(
        count_residual_entries):
    from d4vgit.mckay import connect
    from d4vgit.sampling import rand_chart_point
    base_point()                         # the H-part is solved and checked once
    rng = random.Random(5)
    q = act(rand_group_element(rng), rand_chart_point(rng))
    count_residual_entries.clear()
    b = base_point(x=(7, -3))
    assert in_Zo(b)
    h = connect(b, q)
    assert h is not None and act(h, b).same_h_part(q)
    assert len(count_residual_entries) == 1       # q's, in canonicalize(q)
    assert count_residual_entries[0][2] is q.B


def test_beta_flipped_base_point_gets_its_own_residuals():
    b = base_point(x=(1, 2))
    assert residuals(b).is_zero()
    flipped = PointHV(b.alpha, -b.beta, b.B, b.x)
    rf = residuals(flipped)
    assert rf.e1_zero() and rf.e2_zero() and not rf.e3_zero()
    assert not residuals(flipped.with_x((0, 1))).e3_zero()


def test_kept_residuals_are_invisible():
    """Neither kept value (the residuals, det B) takes part in ==, hash,
    repr or point JSON."""
    rng = random.Random(12)
    for _ in range(4):
        p = rand_z_point(rng)
        checked = point_from_json(point_to_json(p))
        unchecked = PointHV(checked.alpha, checked.beta, checked.B, checked.x)
        assert residuals(checked).is_zero() and in_Zo(checked)
        assert checked._open_locus is not None and unchecked._open_locus is None
        for q in (unchecked, checked.with_x(checked.x)):
            assert q == checked and hash(q) == hash(checked)
            assert repr(q) == repr(checked)
            assert point_to_json(q) == point_to_json(checked)
        assert "residual" not in repr(checked)
        assert "residual" not in json.dumps(point_to_json(checked))


def test_open_locus_det_is_kept_and_handed_on_by_with_x():
    """open_locus_det keeps its result on the point, det B or None off the
    open locus; with_x hands it on, since det B does not involve x, and a
    point built afresh from equal coordinates starts without it."""
    import d4vgit.equations as equations
    zero = PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (1, 0))
    moved = act(rand_group_element(random.Random(3)), base_point())
    for p, d in ((moved, det_b(moved)), (zero, None)):
        assert p._open_locus is None
        assert equations.open_locus_det(p) == d
        assert p._open_locus == (d,)
        kept = p._open_locus
        assert p.with_x((1, 2))._open_locus is kept
        fresh = PointHV(p.alpha, p.beta, p.B, p.x)
        assert fresh == p and fresh._open_locus is None


def test_a_failing_identity_raises_on_every_call_and_keeps_nothing(monkeypatch):
    """2 det B = beta^3 a1 a2 a3 failing raises at each call, and nothing is
    kept, so a later call checks again."""
    import d4vgit.equations as equations
    p = act(rand_group_element(random.Random(5)), base_point())
    with monkeypatch.context() as m:
        m.setattr(equations, "vanishes", lambda terms: False)
        for _ in range(3):
            with pytest.raises(AssertionError, match="determinant identity"):
                in_Zo(p)
            assert p._open_locus is None
            assert p.with_x((1, 1))._open_locus is None
    assert in_Zo(p) and p._open_locus == (det_b(p),)


def test_a_failing_identity_raises_under_optimize():
    """The identity is re-checked by raise, not assert: under python -O the
    failing identity still raises at every call and keeps nothing."""
    import os
    import subprocess
    import sys
    import textwrap

    import d4vgit
    code = textwrap.dedent("""
        import random

        from d4vgit import equations
        from d4vgit.gitcore import act
        from d4vgit.mckay import base_point
        from d4vgit.sampling import rand_group_element

        assert False, "asserts run"   # skipped under -O
        p = act(rand_group_element(random.Random(5)), base_point())
        equations.vanishes = lambda terms: False
        for _ in range(2):
            try:
                equations.in_Zo(p)
            except AssertionError as err:
                if "determinant identity" not in str(err) or p._open_locus is not None:
                    raise SystemExit("wrong refusal: %s" % err)
                continue
            raise SystemExit("a failing identity was accepted")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(d4vgit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _tower_translate(depth, height, seed):
    """A height-`height` chart point moved by a group element over a
    depth-`depth` tower with small rational leaves, as the orbit_towers
    benchmark builds its connect targets and translates."""
    from d4vgit.sampling import rand_chart_point, rand_tower_group_element
    rng = random.Random(seed)
    h = rand_tower_group_element(rng, depth)
    return act(h, rand_chart_point(rng, height))


@given(depth=st.integers(0, 2), bits=st.integers(1, 256), seed=st.integers(0, 2 ** 32))
@settings(max_examples=15, deadline=None)
def test_kept_residuals_equal_a_fresh_evaluation_on_tower_translates(depth, bits, seed):
    from d4vgit.equations import residual_entries
    p = _tower_translate(depth, 1 << bits, seed)
    kept = residuals(p)
    assert residuals(p) is kept and kept.is_zero()
    fresh = tuple(map(tuple, residual_entries(p.alpha, p.beta, p.B)))
    for q in (p, p.with_x((1, 1))):
        assert (residuals(q).e1, residuals(q).e2, residuals(q).e3) == fresh


def test_suite_equations_fails_the_sample_whose_shared_work_raises(monkeypatch, capsys):
    """The determinant identity failing in the work an orbit sample's checks
    share (det B and the open locus at q) fails each of those checks at that
    sample, and the run exits 1 with no traceback."""
    import d4vgit.equations as equations
    from d4vgit.cli import main
    real, seen = equations.open_locus_det, []

    def raising(p):
        # call 1 is the base point; calls 2, 3, 4 are orbit samples 0, 1, 2
        seen.append(p)
        if len(seen) == 4:
            raise AssertionError("determinant identity 2 det B = beta^3 a1 a2 a3 failed")
        return real(p)

    monkeypatch.setattr(equations, "open_locus_det", raising)
    assert main(["suite", "equations", "--seed", "7"]) == 1
    out, err = capsys.readouterr()
    details = "sample 2: %s" % json.dumps(point_to_json(seen[3]), sort_keys=True)
    assert [line for line in out.splitlines() if "[FAIL]" in line] == [
        "  [FAIL] %s - %s" % (check_id, details) for check_id in (
            "eq.G_invariance_of_Z", "eq.det_identity_on_orbit", "eq.omega_weight",
            "eq.open_locus_G_invariant", "eq.semi_invariant_weight")]
    assert err == ""
