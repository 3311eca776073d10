"""Work budgets: pinned counts of the reduced values and products each
operation of the point pipeline, the stabilizer and connect make.

scalars._qi is the one builder of a reduced base-level Scalar, so its calls
count the gcds an operation takes; scalars._flat builds every reduced tower
Scalar (and a base-level one through _qi).  The points of the pipeline are
those of the point_stream benchmark: stable Z-points of height 2^8,
translated by a group element of height 2^8 and read back from point JSON.
"""

import json
import random

import pytest
from test_golden import CONNECT_TARGETS

import d4vgit.charts as charts
import d4vgit.mckay as mckay
import d4vgit.scalars as scalars
import d4vgit.stability as stability
from d4vgit.charts import from_quiver_chart, normalize, normalize_rep, to_quiver_chart
from d4vgit.cyclic_s3 import s3_base_point, s3_stabilizer
from d4vgit.equations import (
    j_pairing, residuals, witness_E1_not_E2, witness_E2_not_E1, witness_semi_invariant,
)
from d4vgit.gitcore import (
    MINUS_THETA, THETA, GroupElement, PointHV, act, point_from_json, point_to_json,
    split_form,
)
from d4vgit.linalg import Mat2
from d4vgit.mckay import FiniteSubgroup, base_point, connect, stabilizer
from d4vgit.quiver import build_rep
from d4vgit.sampling import engineered_unstable_points, rand_group_element, rand_z_point
from d4vgit.scalars import QI
from d4vgit.stability import (
    infinite_stabilizer_detected, off_z_minus_theta_flags, semistable_minus_theta,
    semistable_theta, verify_certificate,
)


def _stable_stream_points(seed, n=6):
    """(point, theta verdict) for n stable height-2^8 translates, with their
    residuals already kept, so a count sees only the operation itself."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        p = act(rand_group_element(rng, 1 << 8), rand_z_point(rng, 1 << 8))
        p = point_from_json(json.loads(json.dumps(point_to_json(p))))
        residuals(p)
        v = semistable_theta(p)
        if v.is_stable:
            out.append((p, v))
    return out


def _record(monkeypatch, module, name):
    """A list that records every call of module.name from now on."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.fixture
def reduced(monkeypatch):
    """A list that records every scalars._qi call from now on."""
    return _record(monkeypatch, scalars, "_qi")


def _count(calls, run):
    calls.clear()
    run()
    return len(calls)


# at most this many reduced values per call: 19, 22, 94 and 44 when each
# product chain reduced after every binary product.  to_quiver_chart halves
# beta and builds the two qh, from_quiver_chart doubles beta and builds the
# five dependent coordinates, and the validations are zero tests.
# semistable_theta reduced 11 when it built each contraction B_i(x, -): now
# each is two lazy zero tests, and the witness a_i B_i(x, x) one sum (these
# points all take the witness at i = 1).
BUDGETS = {"semistable_minus_theta": 5, "build_rep": 17, "normalize": 37,
           "hat round trip": 9, "semistable_theta": 1}


@pytest.mark.parametrize("seed", [0, 1])
def test_stable_point_operations_stay_within_their_budgets(reduced, seed):
    for p, v in _stable_stream_points(seed):
        index = v.witness_index + 1
        c = normalize(p, index)
        counts = {name: _count(reduced, run) for name, run in (
            ("semistable_theta", lambda: semistable_theta(p)),
            ("semistable_minus_theta", lambda: semistable_minus_theta(p)),
            ("build_rep", lambda: build_rep(p)),
            ("normalize", lambda: normalize(p, index)),
            ("hat round trip", lambda: from_quiver_chart(to_quiver_chart(c))))}
        assert all(counts[name] <= bound for name, bound in BUDGETS.items()), counts


@pytest.mark.parametrize("seed", [0, 1])
def test_normalize_rep_stays_within_its_budget(reduced, seed):
    """normalize_rep counted on _qi at the rep of each stable point: each
    leg tests the one coordinate its ah was not solved from,
    _solve_beta_hat builds ah_k ph_k once, and each E_m is read in the new
    basis by Cramer's rule, one sum per coordinate over det(E0, E_i) (35
    with that determinant taken twice, the frame inverted as a matrix and
    applied as a product; 38 with both comparisons per leg and ah_k ph_k
    built twice)."""
    for p, v in _stable_stream_points(seed):
        rep = build_rep(p)
        assert _count(reduced, lambda: normalize_rep(rep, v.witness_index + 1)) == 26


def test_normalize_evaluates_the_chart_relations_once(monkeypatch):
    """The ChartPoint's own dependent coordinates are the ones normalize
    checks the moved point against."""
    calls = []
    real = charts.dependent_coordinates
    monkeypatch.setattr(charts, "dependent_coordinates",
                        lambda *free: calls.append(free) or real(*free))
    for p, v in _stable_stream_points(2, n=3):
        calls.clear()
        normalize(p, v.witness_index + 1)
        assert len(calls) == 1


def test_to_quiver_chart_makes_one_zero_test(monkeypatch, reduced):
    """A HatChart is its free coordinates and tests N alone (five zero tests
    when it tested every hat relation), and the hat round trip still
    reduces at most 9 values."""
    zero_tests = _record(monkeypatch, charts, "vanishes")
    for p, v in _stable_stream_points(3, n=3):
        c = normalize(p, v.witness_index + 1)
        assert _count(zero_tests, lambda: to_quiver_chart(c)) == 1
        assert _count(reduced, lambda: from_quiver_chart(to_quiver_chart(c))) <= 9


def _count_products(monkeypatch, cls, build):
    """The products cls.__mul__ makes while build() runs."""
    calls = []
    real = cls.__mul__

    def counting(a, b):
        if isinstance(b, cls):
            calls.append(b)
        return real(a, b)

    monkeypatch.setattr(cls, "__mul__", counting)
    if cls is GroupElement:
        monkeypatch.setattr(cls, "compose", counting)
    build()
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("fix_beta, order, dots, products",
                         [(True, 8, 8, 16), (False, 16, 24, 48)], ids=["strict", "relaxed"])
def test_stabilizer_closure_proof_takes_the_central_sign_last(monkeypatch, fix_beta,
                                                              order, dots, products):
    """Two generators prove the quaternion group closed and three the
    relaxed group of order 16: |G| edges each (24 and 64 when the central
    -1 was taken first).  The generic proof makes one product per edge.
    Inside stabilizer no edge composes (a full compose per edge before),
    and each +- pair of edges is one entry dot, the partner's index read
    off with its low bit flipped (16 and 48 dots, one per edge, before)."""
    G = stabilizer(base_point(), fix_beta)
    assert G.order() == order
    entries = _record(monkeypatch, mckay, "dot")
    assert _count_products(monkeypatch, GroupElement,
                           lambda: stabilizer(base_point(), fix_beta)) == 0
    assert len(entries) == dots
    assert _count_products(monkeypatch, GroupElement,
                           lambda: FiniteSubgroup(G.elements, G.identity)) == products


def test_s3_closure_proof_uses_two_generators(monkeypatch):
    S = s3_stabilizer(s3_base_point())
    assert _count_products(monkeypatch, Mat2,
                           lambda: FiniteSubgroup(S.elements, Mat2.identity())) == 12


def test_pairing_and_discriminant_reduce_once(reduced):
    """j_pairing is one sum over the denominator 2 (2 with -q_v/2 reduced
    first), and split_form's discriminant one sum (4 as q*q - p*r*4): 10 ->
    7 for a rational form with a non-square discriminant, and 5 since each
    quotient by the rational p*2 inverts it in Q(i), not lifted to the
    level of the square root."""
    u = (QI.scalar(3, 1) / 5, QI.scalar(-7) / 2, QI.scalar(2, -3) / 11)
    v = (QI.scalar(1, 4) / 3, QI.scalar(5, 2) / 7, QI.scalar(-1) / 4)
    assert _count(reduced, lambda: j_pairing(u, v)) == 1
    assert _count(reduced, lambda: split_form(u, QI)) == 5


@pytest.mark.parametrize("target, qi, flat", [
    ("chart_16_seed0", 105, 110), ("tower_depth1_seed5", 123, 122)],
    ids=["chart_16_seed0", "tower_depth1_seed5"])
def test_connect_stays_within_its_budget(monkeypatch, target, qi, flat):
    """connect(b*, q) counted on _qi and _flat, the residuals of both points
    already kept: each discriminant split_form takes is one sum, and
    T_q^-1 is read off q's transport parts with sigma_q^2 the one inverse
    (122/184 and 135/150 when connect inverted the whole transport of q).
    Each value is inverted at its own level (114/132 into the chart point
    when split_form inverted p*2 at depth 1 and the proving act inverted
    h's lifted torus entries at every level above their own), and b* comes
    with its det B (4 more _qi for its open-locus check before)."""
    b, q = base_point(), CONNECT_TARGETS[target]()
    residuals(q)
    reduced = _record(monkeypatch, scalars, "_qi")
    flats = _record(monkeypatch, scalars, "_flat")
    connect(b, q)
    assert (len(reduced), len(flats)) == (qi, flat)


@pytest.mark.parametrize("target", ["chart_16_seed0", "chart_16_seed1", "chart_16_seed2"])
def test_connect_inverts_sigma_squared_alone_at_the_top(monkeypatch, target):
    """connect(b*, q) into a height-16 chart translate, whose transport
    adjoins three square roots, the last sigma_q with sigma_q^2 the d of
    the top level.  Outside the proving act, the one Scalar it inverts at
    the level of sigma_q^2 or above is sigma_q^2: 1/u is u r2/p2 one level
    below, and 1/t_i the read-off coefficient over a rational one.  (Before,
    u, the three read-off coefficients and det g^-1 were inverted there, and
    then T_q's three torus entries and its det at the top.)"""
    b, q = base_point(), CONNECT_TARGETS[target]()
    inverted = []
    real_inverse, real_act = scalars.Scalar.inverse, mckay.act

    def recording(x):
        inverted.append(x)
        return real_inverse(x)

    def unrecorded_act(h, p):
        monkeypatch.setattr(scalars.Scalar, "inverse", real_inverse)
        return real_act(h, p)

    monkeypatch.setattr(scalars.Scalar, "inverse", recording)
    monkeypatch.setattr(mckay, "act", unrecorded_act)
    top = connect(b, q).g.a.field
    assert top.depth == 3
    sigma2 = scalars.lower(top.d)
    assert [x for x in map(scalars.lower, inverted)
            if x.field.depth >= sigma2.field.depth] == [sigma2]


@pytest.mark.parametrize("target", ["chart_16_seed0", "chart_16_seed1", "chart_16_seed2"])
def test_connect_inverts_each_value_at_its_own_level(monkeypatch, target):
    """Every Scalar.inverse during connect(b*, q), the proving act included,
    multiplies at the level of lower(x) or below: a lifted value is
    inverted at its own level and lifted back.  split_form's quotients
    (-q +- root) / (p * 2) invert the rational p*2 in Q(i) alone.  (Before,
    the act inverted h's torus entries, lifted to depth 3, at depths 3, 2
    and 1, and split_form lifted p*2 and inverted it at depth 1.)"""
    b, q = base_point(), CONNECT_TARGETS[target]()
    real_inverse, real_mul, real_split = scalars.Scalar.inverse, scalars._mul, mckay.split_form
    own, above, split_inverted, splitting = [], [], [], [False]

    def inverse(x):
        if splitting[0]:
            split_inverted.append(x)
        own.append(scalars.lower(x).field.depth)
        try:
            return real_inverse(x)
        finally:
            own.pop()

    def mul(f, X, Y):
        if own and f.depth > own[-1]:
            above.append((f.depth, own[-1]))
        return real_mul(f, X, Y)

    def split_form(triple, field):
        splitting[0] = True
        try:
            return real_split(triple, field)
        finally:
            splitting[0] = False

    monkeypatch.setattr(scalars.Scalar, "inverse", inverse)
    monkeypatch.setattr(scalars, "_mul", mul)
    monkeypatch.setattr(mckay, "split_form", split_form)
    assert connect(b, q) is not None
    assert above == []
    assert [x.field for x in split_inverted] == [QI, QI]


@pytest.mark.parametrize("fix_beta, budget", [(True, 38), (False, 70)],
                         ids=["strict", "relaxed"])
def test_stabilizer_stays_within_its_budget(reduced, fix_beta, budget):
    """stabilizer(b*) counted on _qi, the open-locus check reducing nothing
    (b* comes with its det B; 42 and 74 when each fresh b* took 4 for it);
    its identity is built, not validated, each +- pair of closure edges
    reduces one entry, each even g^-1 is K_e/s, one square root from
    det K_e, each odd g^-1 is i times an even one, its listed sign is read
    off the numerators, and -g^-1, -g and the odd patterns' g are
    negations, not scalings (54 and 120
    with one reduced entry per edge, det K_e times the sign reduced, and a
    square root and 1/s per odd pattern; 94 and 208 with a square root for
    the sign and a gcd per negated entry; 240 and 442 when g^-1 was
    recovered from a form matrix summed from line projectors; 336 and 730
    when each edge composed two elements)."""
    b = base_point()
    assert _count(reduced, lambda: stabilizer(b, fix_beta)) == budget


@pytest.mark.parametrize("fix_beta", [True, False])
def test_stabilizer_takes_one_square_root_per_pattern(monkeypatch, fix_beta):
    """One outermost Field.sqrt per even sign pattern, admitted or not, for
    either fix_beta, at b* (every pattern admitted) and at
    rand_z_point(random.Random(2)) (orders 2 and 4: most refused).  An odd
    pattern takes none, its g^-1 being i times its even one's (8 relaxed
    when each odd pattern took its own), and the listing rule takes none
    (one more per admitted pattern when it compared with field.sqrt of
    lead^2)."""
    points = [base_point(), rand_z_point(random.Random(2))]
    orders = [stabilizer(p, fix_beta).order() for p in points]   # residuals kept
    assert orders == ([8, 2] if fix_beta else [16, 4])
    calls, nesting = [], [0]
    real = scalars.Field.sqrt

    def outermost(field, x):
        if not nesting[0]:
            calls.append(x)
        nesting[0] += 1
        try:
            return real(field, x)
        finally:
            nesting[0] -= 1

    monkeypatch.setattr(scalars.Field, "sqrt", outermost)
    for p in points:
        calls.clear()
        stabilizer(p, fix_beta)
        assert len(calls) == 4


@pytest.mark.parametrize("translated, budget", [(False, 20), (True, 21)],
                         ids=["engineered", "translated"])
def test_minus_theta_unstable_verdict_stays_within_its_budget(reduced, translated,
                                                              budget):
    """semistable_minus_theta counted on _qi at the engineered {p1=p2=p3=0}
    point (beta = 0, every a_i nonzero, a form with p = 0) and at its
    translate by rand_group_element(random.Random(0)) (p != 0), after a
    first verdict has kept the residuals and cached the certificate's
    weights: the adapting GL2 part is the transpose of adapting_matrix(l),
    with nothing inverted (27 and 29 when K was built from 1/l2, or 1/l1
    and l2/l1, and then inverted as a matrix)."""
    p = dict(engineered_unstable_points(random.Random(0)))["{p1=p2=p3=0}"]
    if translated:
        p = act(rand_group_element(random.Random(0)), p)
    v = semistable_minus_theta(p)
    assert (v.status, v.subset) == ("unstable", "{beta=0}") and v.adapting is not None
    assert _count(reduced, lambda: semistable_minus_theta(p)) == budget


def _moved_nothing():
    """(description, character, point, verdict) for each unstable verdict
    that moved nothing: theta at x = 0 and -theta where some a_i = 0, at the
    engineered points, and -theta at a Z-point with beta = 0 and B = 0."""
    zero_b = PointHV.make((1, 1, 1), 0, ((0, 0, 0),) * 3, (1, 0))
    out = [("B=0", MINUS_THETA, zero_b, semistable_minus_theta(zero_b))]
    for desc, p in engineered_unstable_points(random.Random(0)):
        for chi, oracle, moved_nothing in (
                (THETA, semistable_theta, ("{x=0}",)),
                (MINUS_THETA, semistable_minus_theta, ("{a1=0}", "{a2=0}", "{a3=0}"))):
            v = oracle(p)
            if v.subset in moved_nothing:
                out.append((desc, chi, p, v))
    return out


def test_an_unstable_verdict_that_moved_nothing_reverifies_without_acting(monkeypatch):
    """These verdicts keep no adapting element, so their re-verification
    reads the point itself: no act."""
    cases = _moved_nothing()
    assert {desc for desc, *_ in cases} >= {"B=0", "{x=0}", "{a1=a2=a3=0}"}
    acts = _record(monkeypatch, stability, "act")
    for desc, chi, p, v in cases:
        assert v.adapting is None, desc
        assert verify_certificate(p, v.certificate, chi, v.adapting), desc
    assert acts == []


@pytest.mark.parametrize("point, budget", [
    (witness_E2_not_E1, 58), (witness_E1_not_E2, 52)],
    ids=["witness_E2_not_E1", "witness_E1_not_E2"])
def test_infinite_stabilizer_test_is_one_elimination(reduced, point, budget):
    """Gaussian elimination on the seven rows of the infinitesimal action,
    stopping at the first dependent row; no family is built or acted with
    (9 when three wedges read only the SL(V) families, 62 and 43 with two
    acts per family)."""
    p = point()
    assert _count(reduced, lambda: infinite_stabilizer_detected(p)) == budget


def test_off_z_flags_test_factors(reduced):
    """At witness_E1_not_E2: the a_i and beta are read, f_12 is one sum and
    the infinite-stabilizer test its 52-value elimination; neither
    semi-invariant product is built (59 before, 10 with the three-wedge
    test)."""
    p = witness_E1_not_E2()
    assert _count(reduced, lambda: off_z_minus_theta_flags(p)) == 53


def test_witness_semi_invariant_is_one_product(reduced):
    """f_12 and one product term a1^7 a2^7 a3^2 f_12^10 (11 with binary
    products and powers)."""
    p = witness_E1_not_E2()
    assert _count(reduced, lambda: witness_semi_invariant(p)) == 2
