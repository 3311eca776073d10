"""The samplers draw the same values from the same stream as the reference
samplers below, and leave the generator in the same state.

The reference is the sampling code written over rng.randint and the
validating make constructors, kept verbatim.  Every suite report, golden
fixture and benchmark input is drawn by these samplers, so a sampler that
drew other values or consumed other bits would move all of them.
"""

import random

import pytest

import d4vgit.sampling as sampling
from d4vgit.charts import dependent_coordinates
from d4vgit.gitcore import GroupElement, PointHV, act, group_to_json, point_to_json
from d4vgit.linalg import Mat2, Vec2
from d4vgit.mckay import base_point
from d4vgit.scalars import QI, Scalar, adjoin_sqrt, scalar_to_json

SEEDS = range(200)
HEIGHTS = (1, 2, 3, 16, 1 << 8, 1 << 256)


# -- the reference samplers, verbatim --------------------------------------------


def rand_scalar(rng: random.Random, height: int = 3) -> Scalar:
    """n1/d1 + (n2/d2) i with |n| <= height and 1 <= d <= height."""
    n1, d1 = rng.randint(-height, height), rng.randint(1, height)
    n2, d2 = rng.randint(-height, height), rng.randint(1, height)
    return QI.scalar(n1 * d2, n2 * d1) / (d1 * d2)


def rand_nonzero_scalar(rng: random.Random, height: int = 3) -> Scalar:
    while True:
        s = rand_scalar(rng, height)
        if not s.is_zero():
            return s


def rand_vec(rng: random.Random, height: int = 3) -> Vec2:
    return Vec2(rand_scalar(rng, height), rand_scalar(rng, height))


def rand_nonzero_vec(rng: random.Random, height: int = 3) -> Vec2:
    while True:
        v = rand_vec(rng, height)
        if not v.is_zero():
            return v


def rand_group_element(rng: random.Random, height: int = 3) -> GroupElement:
    t = tuple(rand_nonzero_scalar(rng, height) for _ in range(3))
    while True:
        g = Mat2(rand_scalar(rng, height), rand_scalar(rng, height),
                 rand_scalar(rng, height), rand_scalar(rng, height))
        if not g.det().is_zero():
            return GroupElement.make(t, g)


def rand_tower_group_element(rng: random.Random, depth: int) -> GroupElement:
    """A group element over a depth-`depth` tower: a square root of a random
    int in [2, 40] adjoined per level (drawn again while it is a square
    there), then g (drawn again while det g = 0), then t.  Each entry is
    u + v s at each level, with leaves from rand_nonzero_scalar."""
    field = QI
    while field.depth < depth:
        field, _ = adjoin_sqrt(field, rng.randint(2, 40))

    def element(f):
        if f.is_base:
            return rand_nonzero_scalar(rng)
        return f.lift(element(f.base)) + f.generator() * f.lift(element(f.base))

    while True:
        g = Mat2(*(element(field) for _ in range(4)))
        if not g.det().is_zero():
            return GroupElement.make(tuple(element(field) for _ in range(3)), g)


def rand_point_hv(rng: random.Random, height: int = 3) -> PointHV:
    """A random point of H x V (generically off Z)."""
    return PointHV.make(
        [rand_scalar(rng, height) for _ in range(3)],
        rand_scalar(rng, height),
        [[rand_scalar(rng, height) for _ in range(3)] for _ in range(3)],
        rand_vec(rng, height),
    )


def rand_orbit_point(rng: random.Random, height: int = 2) -> PointHV:
    """act(h, b*) with random h and random x: an exact point of Z^o x V."""
    h = rand_group_element(rng, height)
    return act(h, base_point(x=rand_nonzero_vec(rng, height)))


def rand_chart_point(rng: random.Random, height: int = 3) -> PointHV:
    """A rational chart-normal-form point of Z: solve the chart relations
    with a2 determined by the closure relation."""
    while True:
        a3 = rand_nonzero_scalar(rng, height)
        p2 = rand_nonzero_scalar(rng, height)
        p3 = rand_nonzero_scalar(rng, height)
        beta = rand_nonzero_scalar(rng, height)
        a2 = -(QI.one() + a3 * p3 * p3) / (p2 * p2)
        if a2.is_zero():
            continue
        q2, q3, r1, r2, r3 = dependent_coordinates(a2, a3, beta, p2, p3)
        return PointHV.make(
            (QI.one(), a2, a3), beta,
            ((QI.one(), QI.zero(), r1), (p2, q2, r2), (p3, q3, r3)),
            (1, 0),
        )


def rand_z_point(rng: random.Random, height: int = 2) -> PointHV:
    """A Z x V point: either an orbit translate or a translated chart point."""
    # An exact fair coin: rng.random() builds its float from two 32-bit words
    # and is below 0.5 exactly when the first is below 2^31, so this takes the
    # same branch and leaves the same generator state, without a float.
    w = rng.getrandbits(32)
    rng.getrandbits(32)
    if w < 2 ** 31:
        return rand_orbit_point(rng, height)
    p = rand_chart_point(rng, height)
    h = rand_group_element(rng, height)
    return act(h, p)


# -- the comparison ------------------------------------------------------------------


def _json(x):
    if isinstance(x, Scalar):
        return scalar_to_json(x)
    if isinstance(x, GroupElement):
        return group_to_json(x)
    return point_to_json(x)


def _slots(x):
    """The field and raw slots of every Scalar in x, in order: the same slots
    give the same JSON, and reading them costs no decimal formatting."""
    if isinstance(x, Scalar):
        return (x.field, x._x, x._y, x._den)
    if isinstance(x, GroupElement):
        return _slots(x.t + (x.g.a, x.g.b, x.g.c, x.g.d))
    if isinstance(x, PointHV):
        return _slots(x.coords() + (x.x.a, x.x.b))
    return tuple(_slots(s) for s in x)


def _meets_make_invariants(h: GroupElement) -> bool:
    return (all(isinstance(s, Scalar) and not s.is_zero() for s in h.t)
            and not h.g.det().is_zero())


def _assert_same_stream(name, arg):
    """The same values, compared as JSON up to height 2^8 (above it the
    decimal text is most of the cost) and slot for slot at every height."""
    draw, reference = getattr(sampling, name), globals()[name]
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        value, expected = draw(rng, arg), reference(ref, arg)
        assert _slots(value) == _slots(expected), (name, arg, seed)
        if arg <= 1 << 8:
            assert _json(value) == _json(expected), (name, arg, seed)
        assert rng.getstate() == ref.getstate(), (name, arg, seed)
        if isinstance(value, GroupElement):
            assert _meets_make_invariants(value), (name, arg, seed)


@pytest.mark.parametrize("height", HEIGHTS, ids=lambda h: "h%d" % h if h < 1 << 8 else
                         "h2^%d" % (h.bit_length() - 1))
@pytest.mark.parametrize("name", ["rand_scalar", "rand_group_element", "rand_point_hv",
                                  "rand_chart_point", "rand_z_point"])
def test_samplers_draw_the_reference_stream(name, height):
    _assert_same_stream(name, height)


@pytest.mark.parametrize("depth", [1, 2])
def test_tower_group_elements_draw_the_reference_stream(depth):
    _assert_same_stream("rand_tower_group_element", depth)


def test_draws_match_randint_over_every_width():
    """_below(rng, n) is rng.randint(0, n - 1), value and state, for widths
    around each power of two, where the rejection rate changes."""
    widths = sorted({max(1, (1 << k) + e) for k in range(70) for e in (-1, 0, 1)})
    rng, ref = random.Random(7), random.Random(7)
    for n in widths:
        for _ in range(20):
            assert sampling._below(rng, n) == ref.randint(0, n - 1), n
            assert rng.getstate() == ref.getstate(), n
