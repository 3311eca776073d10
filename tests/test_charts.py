"""Chart normalization, the quiver-side chart, the symbolic closure check."""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from d4vgit.charts import (
    ChartError, ChartPoint, HatChart, chart_closure_check, chart_equivalent,
    dependent_coordinates, from_quiver_chart, normalize, normalize_rep,
    q_coordinates, to_quiver_chart,
)
from d4vgit.gitcore import GroupElement, PointHV, act
from d4vgit.linalg import Mat2, Vec2
from d4vgit.mckay import base_point
from d4vgit.poly import Poly
from d4vgit.quiver import Covector, build_rep, preprojective_holds
from d4vgit.sampling import (
    rand_chart_point, rand_group_element, rand_nonzero_scalar, rand_tower_group_element,
    rand_z_point,
)
from d4vgit.scalars import QI
from d4vgit.stability import semistable_theta


def test_already_normalized_gives_identity():
    p = rand_chart_point(random.Random(0))
    c = normalize(p, 1)
    assert c.normalizer == GroupElement.identity()
    assert c.validate()


def test_normalize_base_point():
    p = base_point(x=(1, 3))
    v = semistable_theta(p)
    assert v.is_stable
    c = normalize(p, v.witness_index + 1)
    assert c.validate()
    q = act(c.normalizer, p)
    i = c.index - 1
    assert q.x.a == QI.one() and q.x.b.is_zero()
    assert q.alpha[i] == QI.one()
    assert q.B[i][0] == QI.one() and q.B[i][1].is_zero()


def test_normalize_other_chart_indices():
    rng = random.Random(8)
    from d4vgit.quiver import build_rep, form_contraction
    done = 0
    for _ in range(10):
        p = rand_chart_point(rng)
        for idx in (2, 3):
            spanning = (p.alpha[idx - 1]
                        * form_contraction(p.B[idx - 1], p.x)(p.x))
            if spanning.is_zero():
                continue
            c = normalize(p, idx)
            assert c.validate()
            hat = to_quiver_chart(c)
            assert from_quiver_chart(hat) == c
            assert hat == normalize_rep(build_rep(p), idx)
            done += 1
    assert done >= 5


def test_normalize_all_witnessing_indices():
    rng = random.Random(1)
    for _ in range(15):
        p = rand_z_point(rng)
        v = semistable_theta(p)
        if not v.is_stable:
            continue
        c = normalize(p, v.witness_index + 1)
        assert c.validate()
        # 4r = omega in the written chart relations
        assert c.r * 4 == c.omega


def test_normalize_wrong_index_errors():
    # chart point with p2 = 0 (q2 nonzero keeps it stable): index 2 is not a
    # witnessing index, so normalize(p, 2) must refuse
    from fractions import Fraction
    from d4vgit.equations import residuals
    from d4vgit.gitcore import PointHV
    half = QI.scalar(Fraction(1, 2))
    p = PointHV.make(
        (1, 2, -1), 1,
        ((1, 0, -half), (0, -1, 0), (1, 0, half)),
        (1, 0))
    assert residuals(p).is_zero()
    v = semistable_theta(p)
    assert v.is_stable
    c1 = normalize(p, 1)
    assert c1.validate()
    with pytest.raises(ChartError):
        normalize(p, 2)


def test_not_in_chart_error():
    p = base_point(x=(0, 0))
    with pytest.raises(ChartError):
        normalize(p, 1)


def test_residual_torus_action_preserves_chart_class():
    rng = random.Random(3)
    for _ in range(15):
        p = rand_chart_point(rng)
        c1 = normalize(p, 1)
        h = GroupElement.make(
            (1, rand_nonzero_scalar(rng), rand_nonzero_scalar(rng)),
            Mat2.identity())
        c2 = normalize(act(h, p), 1)
        scales = chart_equivalent(c1, c2)
        assert scales is not None
        tj, tk = scales
        assert c2.alpha_j == tj.inverse() ** 2 * c1.alpha_j
        # torus invariants coincide
        assert c1.torus_invariants() == c2.torus_invariants()


def test_hat_roundtrip_exact():
    rng = random.Random(4)
    for _ in range(100):
        p = rand_chart_point(rng)
        c = normalize(p, 1)
        hat = to_quiver_chart(c)
        back = from_quiver_chart(hat)
        assert back == c
        assert to_quiver_chart(back) == hat


def test_hat_system_collapse():
    """Given the first hat relation and any bh, the derived qh values satisfy
    the middle relation and the omega relation collapses exactly."""
    rng = random.Random(5)
    for _ in range(40):
        a2 = rand_nonzero_scalar(rng)
        p2 = rand_nonzero_scalar(rng)
        p3 = rand_nonzero_scalar(rng)
        a3 = -(QI.one() + a2 * p2 * p2) / (p3 * p3)
        if a3.is_zero():
            continue
        bh = rand_nonzero_scalar(rng)
        q2 = bh * a3 * p3
        q3 = -(bh * a2 * p2)
        # middle central-vertex equation
        assert (a2 * p2 * q2 + a3 * p3 * q3).is_zero()
        # third equation collapses to omega-hat = bh^2 a2 a3
        wh = bh * bh * a2 * a3
        assert (a2 * q2 * q2 + a3 * q3 * q3 + wh).is_zero()


_HAT_GENS = ("aj", "ak", "bh", "pj", "pk")


def _hat_generators():
    """The free hat generators (ah_j, ah_k, bh, ph_j, ph_k) and (qh_j, qh_k)
    from q_coordinates: the two hat relations a HatChart does not test
    follow from these."""
    aj, ak, bh, pj, pk = (Poly.ring(_HAT_GENS)[v] for v in _HAT_GENS)
    return (aj, ak, bh, pj, pk), q_coordinates(aj, ak, bh, pj, pk)


def test_hat_pq_relation_follows_from_the_q_relations():
    """ah_j ph_j qh_j + ah_k ph_k qh_k = 0 is an identity."""
    (aj, ak, _, pj, pk), (qj, qk) = _hat_generators()
    assert (aj * pj * qj + ak * pk * qk).is_zero()


def test_hat_qq_relation_follows_from_the_q_relations_and_n():
    """ah_j qh_j^2 + ah_k qh_k^2 + wh = bh^2 ah_j ah_k N, so it holds
    whenever N does."""
    (aj, ak, bh, pj, pk), (qj, qk) = _hat_generators()
    N = Poly.constant(1, _HAT_GENS) + aj * pj ** 2 + ak * pk ** 2
    assert aj * qj ** 2 + ak * qk ** 2 + bh * bh * aj * ak == bh ** 2 * aj * ak * N
    assert not N.is_zero()


def test_quiver_side_normalization_matches():
    rng = random.Random(6)
    for _ in range(20):
        p = rand_z_point(rng)
        v = semistable_theta(p)
        if not v.is_stable:
            continue
        idx = v.witness_index + 1
        hat_geo = to_quiver_chart(normalize(p, idx))
        hat_rep = normalize_rep(build_rep(p), idx)
        assert hat_geo == hat_rep


def test_chart_compatibility_between_indices():
    """Points stable at two indices give hat data whose underlying normalized
    representations agree after re-normalization at the other index."""
    rng = random.Random(7)
    tested = 0
    for _ in range(60):
        p = rand_z_point(rng)
        v = semistable_theta(p)
        if not v.is_stable:
            continue
        from d4vgit.quiver import form_contraction
        witnesses = [i for i in range(3)
                     if not (p.alpha[i]
                             * form_contraction(p.B[i], p.x)(p.x)).is_zero()]
        if len(witnesses) < 2:
            continue
        tested += 1
        i1, i2 = witnesses[:2]
        rep = build_rep(p)
        hat1 = normalize_rep(rep, i1 + 1)
        hat2 = normalize_rep(rep, i2 + 1)
        geo1 = to_quiver_chart(normalize(p, i1 + 1))
        geo2 = to_quiver_chart(normalize(p, i2 + 1))
        assert hat1 == geo1 and hat2 == geo2
        if tested >= 5:
            break
    assert tested >= 1


class TestClosure:
    def test_full_sweep(self):
        report = chart_closure_check()
        assert len(report.components) == 24
        assert report.ok, report.failing()

    def test_b1_pairing_component_identically_zero(self):
        """The (1,1) entry of the second equation vanishes identically over
        the free generators: 2 r1 = omega/2 in chart variables (no division
        needed)."""
        report = chart_closure_check()
        comp = {c.label: c for c in report.components}
        assert comp["E2[0,0]"].quotient == "0"
        assert comp["E2[0,0]"].remainder_zero

    def test_e2_diagonal_quotient_is_omega_related(self):
        report = chart_closure_check()
        comp = {c.label: c for c in report.components}
        # alpha2-pairing diagonal: quotient is -omega/2 in chart variables
        assert comp["E2[1,1]"].remainder_zero
        assert "a2*a3" in comp["E2[1,1]"].quotient.replace(" ", "")

    def test_deterministic(self):
        r1 = chart_closure_check()
        r2 = chart_closure_check()
        assert [(c.label, c.quotient, c.remainder_zero) for c in r1.components] \
            == [(c.label, c.quotient, c.remainder_zero) for c in r2.components]


def test_normalize_does_not_rerun_theta_oracle(monkeypatch):
    """normalize checks on_Z and the witness only; an unstable point with a
    valid witness index is still refused, by the chart invariants."""
    import d4vgit.charts as charts
    import d4vgit.stability as stability
    from d4vgit.equations import residuals
    from d4vgit.gitcore import PointHV

    def refuse(p):
        raise AssertionError("normalize re-ran the theta oracle")

    # beta = 0 and B1 = 0: a2 B2(x, x) = 1 witnesses index 2, but B1(x, -) = 0
    unstable = PointHV.make((1, 1, -1), 0, ((0, 0, 0), (1, 0, 0), (1, 0, 0)),
                            (1, 0))
    assert residuals(unstable).is_zero()
    assert not semistable_theta(unstable).is_stable
    monkeypatch.setattr(stability, "semistable_theta", refuse)
    monkeypatch.setattr(charts, "semistable_theta", refuse, raising=False)
    assert normalize(base_point(x=(1, 2)), 1).validate()
    for h in (GroupElement.identity(),
              GroupElement.make((2, 3, 5), Mat2(*map(QI.scalar, (1, 2, 3, 4))))):
        with pytest.raises(ChartError):
            normalize(act(h, unstable), 2)


def test_normalize_moves_the_point_once(monkeypatch):
    """normalize builds its whole normalizer from leg i, then makes one act."""
    import d4vgit.charts as charts
    calls = []

    def counting_act(h, p):
        calls.append(h)
        return act(h, p)

    monkeypatch.setattr(charts, "act", counting_act)
    c = normalize(base_point(x=(1, 2)), 1)
    assert len(calls) == 1 and calls[0] is c.normalizer


def _two_step_normalize(p, index):
    """The chart point of p by two moves: h0 takes x to e1, then h1 shears
    and scales, read off the moved point's leg i."""
    from d4vgit.stability import adapting_element
    i = index - 1
    h0 = adapting_element(p.x)
    q0 = act(h0, p)
    pi, qi, _ = q0.B[i]
    t = [QI.one(), QI.one(), QI.one()]
    t[i] = pi.inverse()
    h1 = GroupElement.make(tuple(t), Mat2(QI.one(), qi / (pi * 2), QI.zero(),
                                          (q0.alpha[i] * pi * pi).inverse()))
    q = act(h1, q0)
    j, k = (i + 1) % 3, (i + 2) % 3
    return q, h1.compose(h0), (q.alpha[j], q.alpha[k], q.beta, q.B[j][0], q.B[k][0])


def test_normalize_equals_the_two_step_form():
    """On theta-stable points over Q(i) and over depth-1 and depth-2 towers,
    the one move by h1 h0 gives the chart point of act(h1, act(h0, p))."""
    from d4vgit.sampling import rand_tower_group_element
    rng = random.Random(20)
    points = [base_point(x=x) for x in ((1, 2), (1, 3), (0, 1), (2, -1))]
    points += [act(rand_tower_group_element(rng, depth), base_point(x=(1, 2)))
               for depth in (1, 1, 2)]
    for p in points:
        v = semistable_theta(p)
        assert v.is_stable
        index = v.witness_index + 1
        c = normalize(p, index)
        q, h, free = _two_step_normalize(p, index)
        assert (c.alpha_j, c.alpha_k, c.beta, c.p_j, c.p_k) == free
        assert c.normalizer == h and act(c.normalizer, p) == q


def _inverted_frame_hat(rep, index):
    """The hat chart by the frame normalize_rep built before, kept as an
    oracle: ghat = diag(1, 1/D_i(E0)) M^-1 for M with the columns E0 and
    E_i, applied to each E_m; ah from the coordinate normalize_rep solves
    it from, and bh as _solve_beta_hat reads it."""
    i = index - 1
    u, w = rep.E0, rep.E[i]
    du = rep.D[i](u)
    ghat = Mat2.diagonal(QI.one(), du.inverse()) * Mat2(u.a, w.a, u.b, w.b).inverse()
    legs = []
    for m in ((i + 1) % 3, (i + 2) % 3):
        ph, qh = rep.D[m](u), rep.D[m](w.scale(du))
        em = ghat * rep.E[m]
        legs.append((em.b / ph if not ph.is_zero() else -em.a / qh, ph, qh))
    (ah_j, ph_j, qh_j), (ah_k, ph_k, qh_k) = legs
    bh = (qh_j / (ah_k * ph_k) if not (ah_k * ph_k).is_zero()
          else -qh_k / (ah_j * ph_j))
    return HatChart(index, ah_j, ah_k, bh, ph_j, ph_k)


def test_normalize_rep_matches_the_inverted_frame():
    """normalize_rep, reading each E_m in the basis (E0, D_i(E0) E_i) by
    Cramer's rule, gives the hat chart of the inverted frame at stable
    height-2^8 translates of Z-points and at depth-1 and depth-2 tower
    translates of b* and of Z-points."""
    from d4vgit.sampling import rand_tower_group_element
    rng = random.Random(21)
    points = [act(rand_group_element(rng, 1 << 8), rand_z_point(rng, 1 << 8))
              for _ in range(12)]
    points += [act(rand_tower_group_element(rng, depth), p)
               for depth in (1, 2) for p in (base_point(x=(1, 2)), rand_z_point(rng))]
    for p in points:
        v = semistable_theta(p)
        assert v.is_stable
        rep, index = build_rep(p), v.witness_index + 1
        assert normalize_rep(rep, index) == _inverted_frame_hat(rep, index)


def test_normalize_checks_the_chart_relations(monkeypatch):
    """normalize compares the moved point with dependent_coordinates, so a
    wrong relation is refused at the boundary, by name."""
    import d4vgit.charts as charts
    real = charts.dependent_coordinates

    def wrong_r(*free):
        q_j, q_k, r, r_j, r_k = real(*free)
        return q_j, q_k, r + 1, r_j, r_k

    monkeypatch.setattr(charts, "dependent_coordinates", wrong_r)
    with pytest.raises(ChartError, match="4r = omega"):
        normalize(base_point(x=(1, 2)), 1)


def test_chart_point_is_its_free_coordinates():
    """The dependent coordinates follow from the five free ones, so two
    points with the same free coordinates are equal."""
    c = normalize(rand_chart_point(random.Random(2)), 1)
    assert (c.q_j, c.q_k, c.r, c.r_j, c.r_k) == dependent_coordinates(
        c.alpha_j, c.alpha_k, c.beta, c.p_j, c.p_k)
    assert ChartPoint(c.index, c.alpha_j, c.alpha_k, c.beta, c.p_j, c.p_k) == c


def _refuse(*args):
    raise ChartError("refused")


@pytest.mark.parametrize("check_id, name, fail", [
    ("ch.normalize_invariants", "normalize", _refuse),
    ("ch.hat_roundtrip", "from_quiver_chart", _refuse),
    ("ch.hat_roundtrip", "from_quiver_chart", lambda hat: None),
    ("ch.quiver_side_composition", "normalize_rep", _refuse),
    ("ch.quiver_side_composition", "normalize_rep", lambda rep, index: None),
])
def test_suite_charts_names_the_first_failing_sample(monkeypatch, check_id, name, fail):
    """A stable sample that a chart refuses, or whose chart comes back
    wrong, fails the check that made the call with the sample's index and
    point JSON, and raises nothing; every other check passes with empty
    details."""
    import json

    import d4vgit.charts as charts
    import d4vgit.sampling as sampling
    from d4vgit.gitcore import point_to_json
    from d4vgit.suites import run_suite
    real_sampler, real = sampling.rand_z_point, getattr(charts, name)
    drawn, failed = [], []

    def drawing(rng):
        drawn.append(real_sampler(rng))
        return drawn[-1]

    def failing(*args):
        # the calls for the first two samples from sample 3 on fail
        k = len(drawn) - 1
        if k >= 3 and len(failed) < 2 and k not in failed:
            failed.append(k)
            return fail(*args)
        return real(*args)

    monkeypatch.setattr(sampling, "rand_z_point", drawing)
    monkeypatch.setattr(charts, name, failing)
    checks = {c.check_id: c for c in run_suite("charts", 7).checks}
    check = checks.pop(check_id)
    assert not check.passed and failed
    index, text = check.details.split(": ", 1)
    assert index == "sample %d" % failed[0]
    assert text == json.dumps(point_to_json(drawn[failed[0]]), sort_keys=True)
    assert all(c.passed and c.details == "" for c in checks.values())


@pytest.mark.parametrize("fail", [_refuse, lambda c1, c2: None])
def test_suite_charts_names_the_first_chart_point_off_its_torus_class(monkeypatch,
                                                                      fail):
    """A chart point whose torus translate is refused, or not found
    equivalent, fails ch.residual_torus_equivalence with its index and
    point JSON; every other check passes with empty details."""
    import json

    import d4vgit.charts as charts
    from d4vgit.gitcore import point_from_json
    from d4vgit.suites import run_suite
    real = charts.chart_equivalent
    calls = []
    bad = 4

    def failing(c1, c2):
        calls.append(c1)
        return fail(c1, c2) if len(calls) - 1 in (bad, bad + 2) else real(c1, c2)

    monkeypatch.setattr(charts, "chart_equivalent", failing)
    checks = {c.check_id: c for c in run_suite("charts", 7).checks}
    check = checks.pop("ch.residual_torus_equivalence")
    assert not check.passed
    index, text = check.details.split(": ", 1)
    assert index == "sample %d" % bad
    assert normalize(point_from_json(json.loads(text)), 1) == calls[bad]
    assert all(c.passed and c.details == "" for c in checks.values())
    monkeypatch.undo()
    passing = {c.check_id: c for c in run_suite("charts", 7).checks}
    assert all(c.passed and c.details == "" for c in passing.values())



def _swap(maps, m, value):
    return tuple(value if n == m else old for n, old in enumerate(maps))


def _plus(c, d):
    return Covector(c.a + d.a, c.b + d.b)


_ZERO_C = Covector(QI.zero(), QI.zero())
_ZERO_V = Vec2(QI.zero(), QI.zero())


def _shift_qh(r, m):
    """The rep of a chart-1 normal-form point, whose frame is already
    normalized, with qh of leg m raised by 1 and E_m = ah_m (-qh_m, ph_m)
    kept (ph_m != 0)."""
    D, E = r.D[m], r.E[m]
    ah = E.b / D.a
    return replace(r, D=_swap(r.D, m, Covector(D.a, D.b + 1)),
                   E=_swap(r.E, m, Vec2(E.a - ah, E.b)))


# normalize_rep solves bh from qh_j unless ah_k ph_k = 0, so qh_j = bh ah_k ph_k
# fails alone only there: the chart-1 normal form of
# (a_j, a_k, beta, p_j, p_k) = (-1, 1, 2, 1, 0)
_POINTS = {"generic": lambda: rand_chart_point(random.Random(2)),
           "p_k = 0": lambda: PointHV.make((1, -1, 1), 2, ((1, 0, -1), (1, 0, 1), (0, 2, 0)),
                                           (1, 0))}


@pytest.mark.parametrize("point, message, perturb", [
    ("generic", "E0 and E_1 do not span V", lambda r: replace(r, E=_swap(r.E, 0, r.E0))),
    ("generic", r"D_1\(E0\) = 0", lambda r: replace(r, D=_swap(r.D, 0, _ZERO_C))),
    ("generic", "leg relation D_1 E_1 != 0",
     lambda r: replace(r, E=_swap(r.E, 0, r.E[0] + r.E0))),
    ("generic", "framing relation D0 E0 != 0", lambda r: replace(r, D0=_plus(r.D0, r.D[0]))),
    ("generic", "leg 2 vanishes", lambda r: replace(r, D=_swap(r.D, 1, _ZERO_C))),
    ("generic", "leg 2 is not of the dual form",
     lambda r: replace(r, E=_swap(r.E, 1, r.E[1] + r.E0))),
    ("generic", "central relation degenerate",
     lambda r: replace(r, E=(r.E[0], _ZERO_V, _ZERO_V))),
    ("generic", "hat invariant failed: ah_j",
     lambda r: replace(r, E=_swap(r.E, 1, r.E[1].scale(2)))),
    ("p_k = 0", "hat invariant failed: qh_j = bh ah_k ph_k$", lambda r: _shift_qh(r, 1)),
    ("generic", "hat invariant failed: qh_k = -bh ah_j ph_j$", lambda r: _shift_qh(r, 2)),
    ("generic", "framing map disagrees", lambda r: replace(r, D0=_plus(r.D0, r.D0))),
], ids=["span", "d_i_e0", "leg_relation", "framing_relation", "leg_vanishes",
        "dual_form", "central_degenerate", "hat_invariant", "hat_q_j", "hat_q_k",
        "framing_map"])
def test_normalize_rep_refuses_each_broken_precondition(point, message, perturb):
    """Each ChartError of normalize_rep, _solve_beta_hat and HatChart.validate
    is reached by breaking one precondition of a stable point's rep (chart 1,
    so legs 2 and 3 are j and k), and nothing else is raised."""
    rep = build_rep(_POINTS[point]())
    assert normalize_rep(rep, 1) is not None
    with pytest.raises(ChartError, match=message):
        normalize_rep(perturb(rep), 1)


def test_suite_charts_fails_the_sample_whose_theta_verdict_raises(monkeypatch, capsys):
    """The theta oracle raising in the work a chart sample's checks share
    fails each of those checks at that sample, and the run exits 1 with no
    traceback."""
    import json

    import d4vgit.stability as stability
    from d4vgit.cli import main
    from d4vgit.gitcore import point_to_json
    real, seen = stability.semistable_theta, []

    def raising(p):
        # one call per chart sample, so call 3 is sample 2
        seen.append(p)
        if len(seen) == 3:
            raise AssertionError("unstable point matched no destabilized subset")
        return real(p)

    monkeypatch.setattr(stability, "semistable_theta", raising)
    assert main(["suite", "charts", "--seed", "7"]) == 1
    out, err = capsys.readouterr()
    details = "sample 2: %s" % json.dumps(point_to_json(seen[2]), sort_keys=True)
    assert [line for line in out.splitlines() if "[FAIL]" in line] == [
        "  [FAIL] %s - %s" % (check_id, details) for check_id in (
            "ch.hat_roundtrip", "ch.normalize_invariants", "ch.quiver_side_composition")]
    assert err == ""


@given(depth=st.integers(0, 2), seed=st.integers(0, 2 ** 32), bits=st.just(64))
@example(depth=0, seed=0, bits=256)
@example(depth=1, seed=0, bits=256)
@example(depth=2, seed=0, bits=256)
@settings(max_examples=8, deadline=None)
def test_quiver_chart_agrees_with_the_chart_on_tower_translates_at_height(depth, seed,
                                                                          bits):
    """A Z point of height 2^16 moved by a depth-`depth` tower element
    composed with a rational one of height 2^bits: its representation
    satisfies the preprojective relations and, for the witness index i,
    normalizing the representation gives the quiver chart of the
    normalized point, whose round trip gives the chart point back."""
    rng = random.Random(seed)
    p = rand_z_point(rng, 2 ** 16)
    h = rand_tower_group_element(rng, depth).compose(rand_group_element(rng, 2 ** bits))
    q = act(h, p)
    rep = build_rep(q)
    assert preprojective_holds(rep)
    v = semistable_theta(q)
    assume(v.is_stable)
    i = v.witness_index + 1
    c = normalize(q, i)
    assert normalize_rep(rep, i) == to_quiver_chart(c)
    assert from_quiver_chart(to_quiver_chart(c)) == c
