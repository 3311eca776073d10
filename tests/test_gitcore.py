"""Group action conventions, the weight table anchor, pairings, JSON I/O."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from d4vgit.gitcore import (
    LAMBDA, MU, THETA, MINUS_THETA, Cocharacter, GroupElement, PointHV,
    act, apply_form_matrix, coordinate_weights, form_matrix, pair,
    point_from_json, point_to_json, weight_table,
)
from d4vgit.equations import residuals
from d4vgit.linalg import Mat2, Mat3, Vec2, sym_square
from d4vgit.sampling import rand_group_element, rand_point_hv, rand_scalar, rand_z_point
from d4vgit.scalars import QI, Scalar, adjoin_sqrt
from d4vgit.suites import REFERENCE_WEIGHT_TABLE


def test_identity_acts_trivially():
    rng = random.Random(0)
    p = rand_point_hv(rng)
    q = act(GroupElement.identity(), p)
    assert q.alpha == p.alpha and q.beta == p.beta and q.B == p.B and q.x == p.x


def test_lambda1_action():
    rng = random.Random(1)
    p = rand_point_hv(rng)
    t = QI.scalar(3)
    h = GroupElement.make((t, 1, 1), Mat2.identity())
    q = act(h, p)
    tinv2 = t.inverse() ** 2
    assert q.alpha[0] == tinv2 * p.alpha[0]
    assert q.alpha[1] == p.alpha[1] and q.alpha[2] == p.alpha[2]
    assert q.beta == t * p.beta
    assert q.B[0] == tuple(t * c for c in p.B[0])
    assert q.B[1] == p.B[1] and q.B[2] == p.B[2]


def test_mu_action():
    rng = random.Random(2)
    p = rand_point_hv(rng)
    t = QI.scalar(2)
    h = GroupElement.make((1, 1, 1), Mat2.diagonal(QI.one(), t))
    q = act(h, p)
    for i in range(3):
        assert q.alpha[i] == t * p.alpha[i]
    assert q.beta == t.inverse() ** 2 * p.beta
    for i in range(3):
        pi, qi, ri = p.B[i]
        assert q.B[i] == (pi, qi / t, ri / (t * t))


def test_group_law_on_action():
    rng = random.Random(3)
    for _ in range(100):
        h1 = rand_group_element(rng)
        h2 = rand_group_element(rng)
        p = rand_point_hv(rng)
        lhs = act(h1, act(h2, p))
        rhs = act(h1.compose(h2), p)
        assert lhs.alpha == rhs.alpha and lhs.beta == rhs.beta
        assert lhs.B == rhs.B and lhs.x == rhs.x


def test_inverse_composition():
    rng = random.Random(4)
    for _ in range(20):
        h = rand_group_element(rng)
        assert h.compose(h.inverse()) == GroupElement.identity()


def test_weight_table_matches_reference():
    assert weight_table() == REFERENCE_WEIGHT_TABLE


def test_coordinate_weights_act_once_per_cocharacter(monkeypatch):
    """A cocharacter's weights come from act on the generic point once; the
    table again, or a certificate re-check, reads the kept row."""
    import d4vgit.gitcore as gitcore
    gitcore.coordinate_weights.cache_clear()
    calls = []
    real = gitcore.act
    monkeypatch.setattr(gitcore, "act", lambda h, p: calls.append(h) or real(h, p))
    assert weight_table() == REFERENCE_WEIGHT_TABLE and len(calls) == 7
    assert weight_table() == REFERENCE_WEIGHT_TABLE and len(calls) == 7
    assert coordinate_weights(MU) is coordinate_weights(MU) and len(calls) == 7


def test_weight_table_primitive_rows_verbatim():
    # the four generating rows of the reference torus table
    table = weight_table()
    assert table["lambda1"] == (-2, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0)
    assert table["lambda2"] == (0, -2, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0)
    assert table["lambda3"] == (0, 0, -2, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1)
    assert table["mu"] == (1, 1, 1, -2, 0, -1, -2, 0, -1, -2, 0, -1, -2)
    assert table["2mu+lambda1+lambda2+lambda3"] == (
        0, 0, 0, -1, 1, -1, -3, 1, -1, -3, 1, -1, -3)


def test_weight_table_linearity():
    row_mu = coordinate_weights(MU)
    row_l1 = coordinate_weights(LAMBDA[0])
    row_sum = coordinate_weights(MU + LAMBDA[0])
    assert row_sum == tuple(a + b for a, b in zip(row_mu, row_l1))


def test_pairings():
    assert pair(THETA, LAMBDA[0]) == 1
    assert pair(THETA, MU) == 1
    assert pair(MINUS_THETA, LAMBDA[0]) == -1
    assert pair(THETA, Cocharacter((1, 1, 1), (1, 1))) == 5


def test_point_json_roundtrip_bit_exact():
    rng = random.Random(5)
    for _ in range(10):
        p = rand_point_hv(rng)
        blob = json.dumps(point_to_json(p), sort_keys=True)
        q = point_from_json(json.loads(blob))
        assert q.alpha == p.alpha and q.beta == p.beta
        assert q.B == p.B and q.x == p.x
        assert json.dumps(point_to_json(q), sort_keys=True) == blob


def test_point_json_accepts_scalars_from_one_tower():
    """Scalars over sqrt 2 and over sqrt 2, sqrt 3 share a tower; over
    sqrt 2 and over sqrt 3 they do not."""
    data = point_to_json(PointHV.make((1, 2, 3), 1, ((1, 0, 1),) * 3, (1, 2)))
    data["alpha"][0] = {"gens": ["2"], "coeffs": ["1", "1"]}
    data["alpha"][1] = {"gens": ["2", "3"], "coeffs": [["1", "1"], ["0", "1"]]}
    assert point_from_json(data).alpha[1].field.depth == 2
    data["alpha"][1] = {"gens": ["3"], "coeffs": ["1", "1"]}
    with pytest.raises(ValueError, match="one tower"):
        point_from_json(data)


# -- act over a depth-2 tower against the formulas written out ---------------


def ref_transform_form(triple, g):
    """Q o g, monomial by monomial."""
    p, q, r = triple
    a, b, c, d = g.a, g.b, g.c, g.d
    return (
        p * a * a + q * a * c + r * c * c,
        p * a * b * 2 + q * (a * d + b * c) + r * c * d * 2,
        p * b * b + q * b * d + r * d * d,
    )


def ref_act(h, p):
    """The action formulas of the module docstring, one coordinate at a time."""
    g = h.g
    det = g.a * g.d - g.b * g.c
    ginv = Mat2(g.d / det, -g.b / det, -g.c / det, g.a / det)
    t1, t2, t3 = h.t
    return PointHV(
        tuple(det / (t * t) * a for t, a in zip(h.t, p.alpha)),
        t1 * t2 * t3 / (det * det) * p.beta,
        tuple(tuple(t * c for c in ref_transform_form(b, ginv))
              for t, b in zip(h.t, p.B)),
        Vec2(g.a * p.x.a + g.b * p.x.b, g.c * p.x.a + g.d * p.x.b),
    )


def _depth2(rng, height=5):
    field, s1 = adjoin_sqrt(QI, 2)
    field, s2 = adjoin_sqrt(field, 3)

    def elem():
        r = [rand_scalar(rng, height) for _ in range(4)]
        # some entries keep a zero half, as lifted operands do
        if rng.random() < 0.3:
            r[1] = r[3] = QI.zero()
        return field.lift(r[0]) + s1 * r[1] + s2 * (r[2] + s1 * r[3])
    return field, elem


def _depth2_point(rng, height=5):
    _, elem = _depth2(rng, height)
    return PointHV.make([elem() for _ in range(3)], elem(),
                        [[elem() for _ in range(3)] for _ in range(3)],
                        (elem(), elem()))


def _depth2_group_element(rng, height=5):
    _, elem = _depth2(rng, height)
    while True:
        t = tuple(elem() for _ in range(3))
        g = Mat2(elem(), elem(), elem(), elem())
        if not g.det().is_zero() and not any(x.is_zero() for x in t):
            return GroupElement.make(t, g)


def test_form_matrix_is_sym_square_of_transpose():
    rng = random.Random(11)
    for _ in range(5):
        g = _depth2_group_element(rng).g
        h = _depth2_group_element(rng).g
        assert form_matrix(g) == sym_square(Mat2(g.a, g.c, g.b, g.d))
        assert form_matrix(g * h) == form_matrix(h) * form_matrix(g)
        triple = tuple(_depth2_point(rng).B[0])
        assert apply_form_matrix(form_matrix(g), triple) == ref_transform_form(triple, g)


def test_act_matches_reference_on_depth2_points():
    rng = random.Random(12)
    for _ in range(4):
        h, p = _depth2_group_element(rng), _depth2_point(rng)
        q, want = act(h, p), ref_act(h, p)
        assert q.alpha == want.alpha and q.beta == want.beta
        assert q.B == want.B and q.x == want.x
        assert all(c.field.depth == 2 for c in q.coords())


def test_group_law_on_depth2_points():
    rng = random.Random(13)
    for _ in range(3):
        h1, h2 = _depth2_group_element(rng), _depth2_group_element(rng)
        p = _depth2_point(rng)
        lhs, rhs = act(h1, act(h2, p)), act(h1 * h2, p)
        assert lhs.same_h_part(rhs) and lhs.x == rhs.x


def test_group_law_on_depth2_points_of_large_height():
    rng = random.Random(14)
    h1, h2 = (_depth2_group_element(rng, 2 ** 64) for _ in range(2))
    p = _depth2_point(rng, 2 ** 64)
    lhs, rhs = act(h1, act(h2, p)), act(h1 * h2, p)
    assert lhs.same_h_part(rhs) and lhs.x == rhs.x


def _count_calls(monkeypatch, name):
    """The argument tuples of every call to scalars.<name> from now on."""
    import d4vgit.scalars as scalars
    calls = []
    real = getattr(scalars, name)
    monkeypatch.setattr(scalars, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("height", [2, 2 ** 8, 2 ** 64])
def test_act_reduces_each_output_once(monkeypatch, height):
    """A base-level act builds at most 20 reduced values (scalars._qi, the
    one builder of a reduced base-level Scalar): its 15 output coordinates
    plus det g, its inverse and the three t_i inverses."""
    rng = random.Random(15)
    cases = [(rand_group_element(rng, height), rand_z_point(rng, height)) for _ in range(4)]
    reduced = _count_calls(monkeypatch, "_qi")
    for h, p in cases:
        reduced.clear()
        act(h, p)
        assert len(reduced) <= 20


def test_tower_act_reduces_at_most_37_values(monkeypatch):
    """act by a depth-1 tower element on a depth-1 translate of b*
    reduces (scalars._flat) at most 37 times: the shared factors, the
    inverses and one reduction per output."""
    from d4vgit.mckay import base_point
    from d4vgit.sampling import rand_tower_group_element
    cases = []
    for seed in range(4):
        rng = random.Random(seed)
        h = rand_tower_group_element(rng, 1)
        cases.append((h.compose(rand_group_element(rng)), act(h, base_point())))
    reduced = _count_calls(monkeypatch, "_flat")
    for h, p in cases:
        reduced.clear()
        q = act(h, p)
        assert q.beta.field.depth == 1 and len(reduced) <= 37


def _assert_reduced(x):
    """x is a canonical Scalar: one positive denominator coprime to the
    numerators."""
    assert type(x) is Scalar
    if x.field.is_base:
        re, im, den = x.triple
        nums = (re, im)
    else:
        nums, den = x._x, x._y
    assert den > 0 and gcd(*nums, den) == 1


@pytest.mark.parametrize("height", [2, 2 ** 8])
def test_no_lazy_factor_escapes(height):
    """act and residual_entries share unreduced (lazy) factors at the base
    level; every value they return, and so every coordinate of a PointHV
    they build, is reduced.  Even denominators make the shared squares and
    products of the group entries unreduced."""
    from d4vgit.equations import residual_entries
    rng = random.Random(17)
    field, s = adjoin_sqrt(QI, 2)
    for _ in range(6):
        h = rand_group_element(rng, height)
        h2 = GroupElement.make(tuple(t * 2 for t in h.t), h.g.scale(QI.scalar(Fraction(1, 2))))
        p = rand_z_point(rng, height)
        for q in (act(h, p), act(h2, p), act(h2, _lifted_point(p, field))):
            for x in q.coords() + (q.x.a, q.x.b):
                _assert_reduced(x)
            for entries in residual_entries(q.alpha, q.beta, q.B):
                for x in entries:
                    _assert_reduced(x)


def _lifted_point(p, field):
    lift = field.lift
    return PointHV(tuple(map(lift, p.alpha)), lift(p.beta),
                   tuple(tuple(map(lift, b)) for b in p.B),
                   Vec2(lift(p.x.a), lift(p.x.b)))


def test_points_and_group_elements_hash_by_value():
    """Vec2, Mat2 and Mat3 hash by their entries, so equal points and group
    elements hash equal: with or without kept residuals, and across a lift
    into a tower."""
    rng = random.Random(21)
    field, _ = adjoin_sqrt(adjoin_sqrt(QI, 2)[0], 3)
    for _ in range(4):
        p = rand_z_point(rng)
        kept = point_from_json(point_to_json(p))
        assert residuals(kept).is_zero() and kept._residuals is not None
        fresh = PointHV(kept.alpha, kept.beta, kept.B, kept.x)
        assert fresh._residuals is None
        lifted = _lifted_point(p, field)
        assert lifted.beta.field is field
        for q in (kept, fresh, lifted, kept.with_x(kept.x)):
            assert q == p and hash(q) == hash(p)
        assert len({p, kept, fresh, lifted}) == 1
        assert hash(p.with_x((1, 0))) != hash(p.with_x((0, 1)))
    h = rand_group_element(rng)
    g = h.g
    h_lifted = GroupElement(tuple(map(field.lift, h.t)),
                            Mat2(*map(field.lift, (g.a, g.b, g.c, g.d))))
    assert h_lifted == h and hash(h_lifted) == hash(h)
    assert hash(form_matrix(h_lifted.g)) == hash(form_matrix(g))
    def eye():
        return Mat3([[QI.scalar(int(m == n)) for n in range(3)] for m in range(3)])
    assert {eye(), eye(), form_matrix(Mat2.identity())} == {eye()}
