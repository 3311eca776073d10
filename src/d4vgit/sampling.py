"""Seeded exact random data: scalars of small height, group elements over
Q(i) or a square-root tower, and point families on Z.

Z-points are sampled two ways, both exact: as group translates of the base
point (the orbit parametrization is free), and as chart points built by
solving the chart relations for rational data.  Engineered unstable points
realize each destabilized subset family on Z.

Every int is drawn by _below, the rejection loop under rng.randint, so the
values and the generator state are those of randint.  A group element or
point is built with the plain constructor where the draw has itself tested
what make would check (nonzero t, det g != 0, Scalar coordinates).
"""

from __future__ import annotations

import random

from .charts import dependent_coordinates
from .gitcore import GroupElement, PointHV, act
from .linalg import Mat2, Vec2
from .mckay import base_point
from .scalars import QI, Scalar, _qi, adjoin_sqrt


def _below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n) for n > 0: draw k = n.bit_length() bits until
    the draw is below n (the rejection method; Knuth, TAOCP vol. 2, 3.4.1).
    It is the draw random.Random.randrange makes on CPython 3.10-3.13, so
    rng.randint(a, b) == a + _below(rng, b - a + 1) and both leave rng in
    the same state."""
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def rand_scalar(rng: random.Random, height: int = 3) -> Scalar:
    """n1/d1 + (n2/d2) i with |n| <= height and 1 <= d <= height."""
    w = 2 * height + 1
    n1, d1 = _below(rng, w) - height, _below(rng, height) + 1
    n2, d2 = _below(rng, w) - height, _below(rng, height) + 1
    return _qi(n1 * d2, n2 * d1, d1 * d2)


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
            return GroupElement(t, g)


def rand_tower_group_element(rng: random.Random, depth: int) -> GroupElement:
    """A group element over a depth-`depth` tower: a square root of a random
    int in [2, 40] adjoined per level (drawn again while it is a square
    there), then g (drawn again while det g = 0), then t.  Each entry is
    u + v s at each level, with leaves from rand_nonzero_scalar."""
    field = QI
    while field.depth < depth:
        field, _ = adjoin_sqrt(field, 2 + _below(rng, 39))

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
    return PointHV(
        tuple(rand_scalar(rng, height) for _ in range(3)),
        rand_scalar(rng, height),
        tuple(tuple(rand_scalar(rng, height) for _ in range(3)) for _ in range(3)),
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
        one, zero = QI.one(), QI.zero()
        a2 = -(one + a3 * p3 * p3) / (p2 * p2)
        if a2.is_zero():
            continue
        q2, q3, r1, r2, r3 = dependent_coordinates(a2, a3, beta, p2, p3)
        return PointHV((one, a2, a3), beta,
                       ((one, zero, r1), (p2, q2, r2), (p3, q3, r3)),
                       Vec2(one, zero))


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


def _rank_one_forms(ell, m):
    return tuple(tuple(li * c for c in m) for li in ell)


def engineered_unstable_points(rng: random.Random):
    """One Z-point inside each destabilized subset family of the plus-theta
    analysis (in the adapted coordinates, with x = (1, 0) unless noted).
    They are fixed: nothing is drawn from rng, so one call serves many."""
    one = QI.one()
    zero = QI.zero()
    i = QI.i()
    x = Vec2(one, zero)
    out = []
    # {x = 0}
    out.append(("{x=0}", base_point(x=(0, 0))))
    # {beta=0, B_i=0}: keep only leg i empty, other legs share a line
    m = (zero, zero, one)
    for idx in range(3):
        ell = [one, one, one]
        ell[idx] = zero
        alpha = [zero, zero, zero]
        alpha[idx] = one
        out.append(("{beta=0, B%d=0}" % (idx + 1),
                    PointHV.make(alpha, 0, _rank_one_forms(ell, m), x)))
    # {a1=a2=a3=0}
    ell = (one, QI.scalar(2), one)
    out.append(("{a1=a2=a3=0}",
                PointHV.make((0, 0, 0), 1, _rank_one_forms(ell, m), x)))
    # {a_j=a_k=0, p_i=0}: B_i = 0 and the two other legs share a line
    for idx in range(3):
        alpha = [zero, zero, zero]
        alpha[idx] = one
        ell = [one, one, one]
        ell[idx] = zero
        out.append(("{a_j=a_k=0, p%d=0}" % (idx + 1),
                    PointHV.make(alpha, 1, _rank_one_forms(ell, m), x)))
    # {a_k=0, p_i=p_j=0}: beta = 0, legs i, j supported on v2^2 only
    for k in range(3):
        ii, jj = [m_ for m_ in range(3) if m_ != k]
        alpha = [one, one, one]
        alpha[k] = zero
        B = [None, None, None]
        B[ii] = (zero, zero, one)
        B[jj] = (zero, zero, i)
        B[k] = (zero, zero, zero)
        out.append(("{a%d=0, p%d=p%d=0}" % (k + 1, ii + 1, jj + 1),
                    PointHV.make(alpha, 0, B, x)))
    # {p1=p2=p3=0}: beta = 0, r-supported line with isotropic alpha-vector
    B = ((zero, zero, one), (zero, zero, i), (zero, zero, zero))
    out.append(("{p1=p2=p3=0}",
                PointHV.make((1, 1, 1), 0, B, x)))
    return out
