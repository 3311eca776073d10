"""The point pipeline's sums of products against their binary-product forms.

omega, the -theta semi-invariant, the open-locus identity, the dependent
chart coordinates and both chart validations are each written as
sum_of_products calls (an identity as one zero test).  Here each is
compared with the same formula as a chain of binary products, at heights
2^8 to 2^256 over Q(i) and on depth-1 and depth-2 tower translates; the
refusals name the same relation or invariant as the binary forms do.
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import d4vgit.charts as charts
from d4vgit.charts import (
    ChartError, ChartPoint, HatChart, dependent_coordinates, from_quiver_chart,
    normalize, to_quiver_chart,
)
from d4vgit.equations import (
    det_b, omega, open_locus_det, semi_invariant_minus_theta,
)
from d4vgit.gitcore import PointHV, act
from d4vgit.sampling import (
    rand_chart_point, rand_group_element, rand_tower_group_element, rand_z_point,
)
from d4vgit.scalars import QI
from d4vgit.stability import semistable_theta


def _translate(depth, bits, seed):
    """A Z-point from a height-2^bits one: over Q(i) a translate of
    rand_z_point by a group element of the same height, over a depth-1 or
    depth-2 tower a chart point moved by a tower group element."""
    rng = random.Random(seed)
    height = 1 << bits
    if depth == 0:
        return act(rand_group_element(rng, height), rand_z_point(rng, height))
    h = rand_tower_group_element(rng, depth)
    return act(h, rand_chart_point(rng, height))


seeds = st.integers(0, 2 ** 32)
# heights 2^8-2^256 over Q(i); height 2^8 over the towers, whose translates
# are far larger than their chart point
points = st.one_of(st.builds(_translate, st.just(0), st.integers(8, 256), seeds),
                   st.builds(_translate, st.integers(1, 2), st.just(8), seeds))


def _chart_point(p):
    """The chart point of a theta-stable p; other points are discarded."""
    v = semistable_theta(p)
    assume(v.is_stable)
    return normalize(p, v.witness_index + 1)


# -- the binary-product forms ------------------------------------------------


def _open_locus_reference(p):
    a1, a2, a3 = p.alpha
    if (a1 * a2 * a3 * p.beta).is_zero():
        return None
    d = det_b(p)
    if d.is_zero():
        return "det B vanished on the open locus"
    if d + d != p.beta ** 3 * a1 * a2 * a3:
        return "determinant identity 2 det B = beta^3 a1 a2 a3 failed"
    return d


def _dependent_reference(alpha_j, alpha_k, beta, p_j, p_k):
    r = alpha_j * alpha_k * beta * beta / 4
    return (beta * alpha_k * p_k, -(beta * alpha_j * p_j), r, -(r * p_j), -(r * p_k))


def _chart_reference(c):
    """The first failing ChartPoint invariant, or None."""
    q_j, q_k = _dependent_reference(c.alpha_j, c.alpha_k, c.beta, c.p_j, c.p_k)[:2]
    checks = (
        ("1 + a_j p_j^2 + a_k p_k^2 = 0",
         (QI.one() + c.alpha_j * c.p_j ** 2 + c.alpha_k * c.p_k ** 2).is_zero()),
        ("(p_j, q_j) != 0", not (c.p_j.is_zero() and q_j.is_zero())),
        ("(p_k, q_k) != 0", not (c.p_k.is_zero() and q_k.is_zero())),
    )
    return next(("chart invariant failed: " + name for name, ok in checks if not ok), None)


def _hat_reference(h):
    """The HatChart refusal, or None: it tests N alone."""
    if (h.alpha_j * h.p_j ** 2 + h.alpha_k * h.p_k ** 2 + QI.one()).is_zero():
        return None
    return "hat invariant failed: ah_j ph_j^2 + ah_k ph_k^2 + 1 = 0"


def _refusal(build):
    """The ChartError message of build(), or None when it succeeds."""
    try:
        build()
    except ChartError as err:
        return str(err)
    return None


def _open_locus_outcome(p):
    try:
        return open_locus_det(p)
    except AssertionError as err:
        return str(err)


def _variants(p):
    """p, then one point per branch of the open-locus test: beta doubled
    (the identity fails), a1 = 0 (off the locus), B2 = B1 (det B = 0)."""
    a1, a2, a3 = p.alpha
    return (p, PointHV(p.alpha, p.beta * 2, p.B, p.x),
            PointHV((a1.field.zero(), a2, a3), p.beta, p.B, p.x),
            PointHV(p.alpha, p.beta, (p.B[0], p.B[0], p.B[2]), p.x))


# -- the properties -----------------------------------------------------------


@given(p=points)
@settings(max_examples=10, deadline=None)
def test_omega_and_semi_invariant_equal_binary_products(p):
    for q in _variants(p):
        a1, a2, a3 = q.alpha
        assert omega(q) == a1 * a2 * a3 * q.beta * q.beta
        assert semi_invariant_minus_theta(q) == (a1 * a2 * a3) ** 2 * q.beta ** 2 * det_b(q)


@given(p=points)
@settings(max_examples=10, deadline=None)
def test_open_locus_verdicts_equal_binary_products(p):
    outcomes = [_open_locus_outcome(q) for q in _variants(p)]
    assert outcomes == [_open_locus_reference(q) for q in _variants(p)]
    assert outcomes[0] == det_b(p) and outcomes[2] is None
    assert outcomes[1] == "determinant identity 2 det B = beta^3 a1 a2 a3 failed"
    assert outcomes[3] == "det B vanished on the open locus"


@given(p=points)
@settings(max_examples=10, deadline=None)
def test_dependent_coordinates_equal_binary_products(p):
    """On the free coordinates of any point, chart or not."""
    free = (p.alpha[1], p.alpha[2], p.beta, p.B[1][0], p.B[2][0])
    assert dependent_coordinates(*free) == _dependent_reference(*free)
    c = _chart_point(p)
    free = (c.alpha_j, c.alpha_k, c.beta, c.p_j, c.p_k)
    assert (c.q_j, c.q_k, c.r, c.r_j, c.r_k) == _dependent_reference(*free)


@given(p=points, field=st.sampled_from(("alpha_j", "alpha_k", "beta", "p_j", "p_k")))
@settings(max_examples=10, deadline=None)
def test_chart_point_verdicts_equal_binary_products(p, field):
    """A valid chart point, and one with a free coordinate moved by 1."""
    c = _chart_point(p)
    assert c.validate() and _chart_reference(c) is None
    moved = {field: getattr(c, field) + 1}
    got = _refusal(lambda: replace(c, **moved))
    assert got == _chart_reference(SimpleNamespace(**dict(vars(c), **moved)))


@given(p=points, field=st.sampled_from(("alpha_j", "alpha_k", "beta", "p_j", "p_k")))
@settings(max_examples=10, deadline=None)
def test_hat_chart_verdicts_equal_binary_products(p, field):
    """A valid hat chart, with qh = q/2 from its free coordinates, and one
    with a free coordinate moved by 1."""
    c = _chart_point(p)
    hat = to_quiver_chart(c)
    assert hat.validate() and _hat_reference(hat) is None
    bh, aj, ak, pj, pk = hat.beta, hat.alpha_j, hat.alpha_k, hat.p_j, hat.p_k
    assert (hat.q_j, hat.q_k) == (bh * ak * pk, -(bh * aj * pj)) == (c.q_j / 2, c.q_k / 2)
    assert from_quiver_chart(hat) == c
    moved = {field: getattr(hat, field) + 1}
    got = _refusal(lambda: replace(hat, **moved))
    assert got == _hat_reference(SimpleNamespace(**dict(vars(hat), **moved)))


# -- refusals, by name ----------------------------------------------------------


@pytest.mark.parametrize("leg, entry, relation", [
    (1, 1, "q_j = beta a_k p_k"), (2, 1, "q_k = -beta a_j p_j"), (0, 2, "4r = omega"),
    (1, 2, "r_j = -r p_j"), (2, 2, "r_k = -r p_k"),
])
def test_normalize_names_the_one_broken_chart_relation(monkeypatch, leg, entry, relation):
    """A chart-1 normal-form point with one dependent coordinate moved is off
    Z; with the Z check waived, normalize moves it by the identity and
    names the one relation it breaks."""
    p = rand_chart_point(random.Random(3))
    B = [list(b) for b in p.B]
    B[leg][entry] = B[leg][entry] + 1
    broken = PointHV(p.alpha, p.beta, tuple(map(tuple, B)), p.x)
    monkeypatch.setattr(charts, "on_Z", lambda q: True)
    assert normalize(p, 1).validate()
    with pytest.raises(ChartError) as err:
        normalize(broken, 1)
    assert str(err.value) == "chart invariant failed: " + relation


def _chart(*free):
    return ChartPoint(1, *(QI.scalar(v) for v in free))


@pytest.mark.parametrize("free, invariant", [
    ((1, 1, 1, 1, 1), "1 + a_j p_j^2 + a_k p_k^2 = 0"),
    ((1, -1, 0, 0, 1), "(p_j, q_j) != 0"),
    ((-1, 1, 0, 1, 0), "(p_k, q_k) != 0"),
])
def test_chart_point_names_the_broken_invariant(free, invariant):
    with pytest.raises(ChartError) as err:
        _chart(*free)
    assert str(err.value) == "chart invariant failed: " + invariant


# (ah_j, ah_k, bh, ph_j, ph_k) = (-1, 1, 1, 1, 0) is a valid hat chart, with
# (qh_j, qh_k) = (0, 1); each change below breaks N, the one relation a
# HatChart tests (normalize_rep checks the two q relations)
_HAT = dict(alpha_j=-1, alpha_k=1, beta=1, p_j=1, p_k=0)


@pytest.mark.parametrize("change, invariant", [
    (dict(alpha_j=-2), "ah_j ph_j^2 + ah_k ph_k^2 + 1 = 0"),
    (dict(p_k=1), "ah_j ph_j^2 + ah_k ph_k^2 + 1 = 0"),
])
def test_hat_chart_names_the_broken_invariant(change, invariant):
    hat = HatChart(index=1, **{k: QI.scalar(v) for k, v in _HAT.items()})
    assert (hat.q_j, hat.q_k) == (QI.zero(), QI.one())
    with pytest.raises(ChartError) as err:
        HatChart(index=1, **{k: QI.scalar(v) for k, v in dict(_HAT, **change).items()})
    assert str(err.value) == "hat invariant failed: " + invariant
