"""Tower arithmetic against one deterministic reference: the pair-recursive
tower code the flat kernel replaced.

A tower Scalar of level k is 2^k Gaussian-integer coefficients over one
denominator.  The reference holds the same value as a pair tree: nested
(a, b) pairs meaning a + b s, down to base-level Scalars, whose arithmetic
is the base-level int-triple code (checked against Fraction pairs by
hypothesis in test_scalars.py).  Its product, sum, dot and inverse are the
pair-recursive rules of the old tower code: four products one level down,
two when a factor is lifted (zero upper half), d y v taken leaf by leaf when
d lies in Q(i), and each half of a sum of products a dot one level down,
down to binary base-level products and sums.

Tower kinds, each at depths 1-3 (d in the tower from depth 2):
- d in Q(i) with a denominator: a random Gaussian rational per level;
- d in the tower with a denominator: past the first level, a full element
  of the level below with leaves of height up to 2^256;
- d in Q(i) with none: the primes 2, 3, 5;
- d in the tower with none: sqrt 2, then s + 3 for the root s below.
Every kind stores level k in the integral basis s' = m s, for d = D/m at
d's shallowest level; the kinds without a denominator are the m = 1 kinds,
as the stabilizer towers are.

Operations: sum, difference, negation, product (full, lifted, generator-only
and zero operands), int multiples, a ** n for n in -6..6, inverse and
quotient, mixed-level products for every pair of levels (Q(i) included),
dot over operands of every level with zero and cancelling terms, square
roots, equality, hash, payload, format and JSON across lifts, interning and
freeing of towers.  Every result is checked canonical: one positive
denominator, coprime to the numerators.

The cases are drawn from fixed seeds, with no hypothesis shrinking, so a
defect in the kernel fails in seconds.
"""

import random
import weakref
from fractions import Fraction
from math import gcd

import pytest

from d4vgit.scalars import (
    QI, adjoin_sqrt, deepest_field, dot, format_scalar, lower, scalar_from_json,
    scalar_to_json, sum_of_products,
)

# -- the pair-recursive reference -----------------------------------------------


def tree(x):
    """The pair tree of a Scalar."""
    if x.field.is_base:
        return x
    a, b = x.payload
    return (tree(a), tree(b))


def tree_zero(field):
    return tree(field.zero())


def tree_lift(t, src, dst):
    """A pair tree of level src as a tree of its descendant level dst."""
    if src is dst:
        return t
    return (tree_lift(t, src, dst.base), tree_zero(dst.base))


def is_zero(t):
    return t.is_zero() if not isinstance(t, tuple) else is_zero(t[0]) and is_zero(t[1])


def add(f, a, b):
    if f.is_base:
        return a + b
    return (add(f.base, a[0], b[0]), add(f.base, a[1], b[1]))


def neg(f, a):
    return -a if f.is_base else (neg(f.base, a[0]), neg(f.base, a[1]))


def times_d(f, z):
    """d * z for z of level f.base: leaf by leaf when d lies in Q(i)."""
    low = lower(f.d)
    if low.field.is_base:
        return times_leaf(f.base, z, low)
    return mul(f.base, tree_lift(tree(low), low.field, f.base), z)


def times_leaf(f, z, q):
    return z * q if f.is_base else (times_leaf(f.base, z[0], q), times_leaf(f.base, z[1], q))


def mul(f, a, b):
    """(x + y s)(u + v s) = (x u + d y v) + (x v + y u) s."""
    if f.is_base:
        return a * b
    g = f.base
    (x, y), (u, v) = a, b
    if is_zero(y):
        return a if is_zero(x) else (mul(g, x, u), mul(g, x, v))
    if is_zero(v):
        return b if is_zero(u) else (mul(g, x, u), mul(g, y, u))
    return (add(g, mul(g, x, u), times_d(f, mul(g, y, v))),
            add(g, mul(g, x, v), mul(g, y, u)))


def inverse(f, a):
    """1/(x + y s) = (x - y s) / (x^2 - d y^2), descending the tower."""
    if f.is_base:
        return a.inverse()
    g = f.base
    x, y = a
    ninv = inverse(g, add(g, mul(g, x, x), neg(g, times_d(f, mul(g, y, y)))))
    return (mul(g, x, ninv), neg(g, mul(g, y, ninv)))


def tree_dot(f, xs, ys):
    """sum (x + y s)(u + v s) = (sum x u + d sum y v) + (sum x v + y u) s,
    skipping the terms a zero half removes; base-level sums are binary
    products and sums, so the reference does not rest on dot."""
    if f.is_base:
        total = QI.zero()
        for x, y in zip(xs, ys):
            total = total + x * y
        return total
    low_x, low_y, high_x, high_y, yv_x, yv_y = [], [], [], [], [], []
    for (x, y), (u, v) in zip(xs, ys):
        low_x.append(x)
        low_y.append(u)
        if not is_zero(v):
            high_x.append(x)
            high_y.append(v)
        if not is_zero(y):
            high_x.append(y)
            high_y.append(u)
            if not is_zero(v):
                yv_x.append(y)
                yv_y.append(v)
    g = f.base
    low = tree_dot(g, low_x, low_y)
    if yv_x:
        low = add(g, low, times_d(f, tree_dot(g, yv_x, yv_y)))
    return (low, tree_dot(g, high_x, high_y) if high_x else tree_zero(g))


def tree_sum_of_products(f, terms, den, scale):
    """Term by term: each product by mul from its coefficient, the sum by
    add, times scale (if any), and 1/den leaf by leaf."""
    total = tree_zero(f)
    for c, *factors in terms:
        value = tree_lift(QI.scalar(c), QI, f)
        for x in factors:
            value = mul(f, value, tree_lift(tree(x), x.field, f))
        total = add(f, total, value)
    if scale is not None:
        total = mul(f, total, tree_lift(tree(scale), scale.field, f))
    return times_leaf(f, total, QI.scalar(Fraction(1, den)))


def tree_format(f, t):
    if f.is_base:
        return format_scalar(t)
    if is_zero(t[1]):
        return tree_format(f.base, t[0])
    return "(%s)+(%s)*s%d" % (tree_format(f.base, t[0]), tree_format(f.base, t[1]),
                              f.depth)


def tree_coeffs(f, t):
    return format_scalar(t) if f.is_base else [tree_coeffs(f.base, h) for h in t]


def leaves(t):
    return leaves(t[0]) + leaves(t[1]) if isinstance(t, tuple) else [t]


# -- the cases ----------------------------------------------------------------------

HEIGHTS = (10, 2 ** 64, 2 ** 256)


def leaf(rng, height):
    def part():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    return QI.scalar(part(), part())


def random_tree(rng, field, height, shape=None):
    """The pair tree of a random element of field: full, lifted (zero upper
    half), a multiple of the generator (zero lower half) or zero, level by
    level."""
    if field.is_base:
        return leaf(rng, height)
    shape = shape or rng.choice(("full", "full", "lifted", "generator", "zero"))
    a, b = (random_tree(rng, field.base, height) for _ in range(2))
    zero = tree_zero(field.base)
    return {"full": (a, b), "lifted": (a, zero), "generator": (zero, b),
            "zero": (zero, zero)}[shape]


def element(rng, field, height, shape=None):
    """A random element of field, read from the JSON of its pair tree."""
    t = random_tree(rng, field, height, shape)
    if field.is_base:
        return t
    x = scalar_from_json({"gens": scalar_to_json(field.one())["gens"],
                          "coeffs": tree_coeffs(field, t)})
    assert x.field is field and tree(x) == t
    return x


def make_tower(seed, depth, d_in_tower, integral):
    """A depth-`depth` tower.  With a denominator: every d a random Gaussian
    rational or, past the first level, a full element of the level below.
    Without (integral): the primes 2, 3, 5, or, past the first level, s + 3
    for the root s of the level below."""
    rng = random.Random(seed)
    field, s = QI, None
    while field.depth < depth:
        if integral:
            d = s + 3 if d_in_tower and field.depth else (2, 3, 5)[field.depth]
        elif d_in_tower and field.depth:
            d = field.zero()
            while lower(d).field is not field:      # d in the tower, not below
                d = element(rng, field, rng.choice(HEIGHTS), "full")
        else:
            d = QI.scalar(Fraction(rng.randint(2, 99), rng.randint(2, 9)),
                          Fraction(rng.randint(-9, 9), rng.randint(2, 9)))
        field, s = adjoin_sqrt(field, d)
    assert field.depth == depth
    return field


def levels(field):
    """field and every level below it, Q(i) last."""
    out = [field]
    while not out[-1].is_base:
        out.append(out[-1].base)
    return out


TOWER_KINDS = [(depth, d_in_tower, integral)
               for integral in (False, True)
               for depth, d_in_tower in ((1, False), (2, False), (3, False),
                                         (2, True), (3, True))]
KIND_IDS = ["d_%s%s_%d" % ("tower" if in_tower else "qi",
                           "_integral" if integral else "", depth)
            for depth, in_tower, integral in TOWER_KINDS]
KIND = pytest.mark.parametrize("depth, d_in_tower, integral", TOWER_KINDS, ids=KIND_IDS)
CASES = {1: 24, 2: 12, 3: 4}           # operand pairs per tower depth


def tower_of(depth, d_in_tower, integral, k=0):
    return make_tower(100 * depth + 10 * d_in_tower + k, depth, d_in_tower, integral)


def assert_canonical(x):
    """One positive denominator, coprime to the numerators as a whole."""
    if x.field.is_base:
        re, im, den = x.triple
        nums = (re, im)
    else:
        nums, den = x._x, x._y
        assert len(nums) == 2 << x.field.depth
    assert den > 0 and gcd(*nums, den) == 1


def cases(depth, d_in_tower, integral):
    for k in range(2):
        field = tower_of(depth, d_in_tower, integral, k)
        rng = random.Random(k + 2 * integral)
        for _ in range(CASES[depth]):
            height = rng.choice(HEIGHTS)
            yield (rng, field, element(rng, field, height, "full"),
                   element(rng, field, height))


@pytest.mark.parametrize("height", (2 ** 8, 2 ** 64, 2 ** 256))
def test_base_level_two_term_dot_matches_reference(height):
    """dot's inline two-term branch: zero operands, equal product
    denominators (a repeated or swapped pair), unequal ones, cancellation."""
    rng = random.Random(height)
    zero = QI.zero()
    for _ in range(40):
        x, y, u, v = (element(rng, QI, rng.choice((10, height))) for _ in range(4))
        for xs, ys in (((x, u), (y, v)), ((x, x), (y, y)), ((x, y), (y, x)),
                       ((x, u), (zero, v)), ((zero, u), (y, zero)), ((x, -x), (y, y)),
                       ((zero, zero), (y, v))):
            got = dot(xs, ys)
            assert_canonical(got)
            assert got == tree_dot(QI, xs, ys) and dot(ys, xs) == got


def test_tower_kinds_are_what_their_names_say():
    """Read off public data only: d lies in Q(i), or in the level below and
    not lower; every level's d has a leaf with a denominator, or none has."""
    for kind in TOWER_KINDS:
        _, d_in_tower, integral = kind
        for k in range(2):
            for f in levels(tower_of(*kind, k))[:-1]:
                low = lower(f.d).field
                assert low is (f.base if d_in_tower and f.depth > 1 else QI), kind
                dens = {q.denominator for c in leaves(tree(f.d)) for q in c.payload}
                assert (dens == {1}) == integral, kind


@KIND
def test_dot_matches_reference(depth, d_in_tower, integral):
    """Sums of products over operands of every level of the tower, lifted
    or not, zero terms and cancelling terms included."""
    chain = levels(tower_of(depth, d_in_tower, integral))
    f = chain[0]
    rng = random.Random(depth + 10 * integral)
    for _ in range(CASES[depth]):
        xs, ys = [], []
        for _ in range(rng.randint(1, 4)):
            height = rng.choice(HEIGHTS)
            xs.append(element(rng, rng.choice(chain), height))
            ys.append(element(rng, rng.choice(chain), height))
        xs[rng.randrange(len(xs))] = element(rng, f, 10)    # one term in f
        if rng.random() < 0.3:                      # cancelling terms
            xs, ys = xs + [-xs[0]], ys + [ys[0]]
        got = dot(xs, ys)
        assert got.field is f
        assert_canonical(got)
        want = tree_dot(f, [tree_lift(tree(x), x.field, f) for x in xs],
                        [tree_lift(tree(y), y.field, f) for y in ys])
        assert tree(got) == want and dot(ys, xs) == got


@pytest.mark.parametrize("depth, d_in_tower, integral",
                         [(0, False, False)] + TOWER_KINDS, ids=["qi"] + KIND_IDS)
def test_sum_of_products_matches_reference(depth, d_in_tower, integral):
    """Arities 1-5, coefficients -3..3, a denominator, a scale factor or
    none, empty sums, operands of every level with zero ones among them,
    depths 0-3 and heights 2^8-2^256: the sum lies in the deepest field of
    all the factors, a zero one of that field included."""
    chain = levels(tower_of(depth, d_in_tower, integral))
    for seed in range(SUM_CASES[depth]):
        rng = random.Random(seed)
        terms = []
        for _ in range(rng.randint(0, 4)):
            height = rng.choice((2 ** 8, 2 ** 64, 2 ** 256))
            factors = [element(rng, rng.choice(chain), height)
                       for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.3:
                factors[rng.randrange(len(factors))] = rng.choice(chain).zero()
            terms.append((rng.randint(-3, 3),) + tuple(factors))
        den = rng.randint(1, 6)
        scale = element(rng, rng.choice(chain), 2 ** 8) if rng.random() < 0.5 else None
        f = deepest_field([x for term in terms for x in term[1:]]
                          + ([] if scale is None else [scale]))
        want = tree_sum_of_products(f, terms, den, scale)
        got = sum_of_products(terms, den, scale)
        assert got.field is f and tree(got) == want, seed
        assert_canonical(got)
        lazy = sum_of_products(terms, den, scale, lazy=True)
        assert tree(sum_of_products(((1, lazy),))) == want, seed


SUM_CASES = {0: 100, 1: 60, 2: 40, 3: 24}     # sums per tower depth


@KIND
def test_ring_operations_match_reference(depth, d_in_tower, integral):
    for rng, f, a, b in cases(depth, d_in_tower, integral):
        ta, tb = tree(a), tree(b)
        ab = mul(f, ta, tb)
        for got, want in ((a * b, ab), (b * a, ab),
                          (a * a, mul(f, ta, ta)), (a + b, add(f, ta, tb)),
                          (a - b, add(f, ta, neg(f, tb))), (-a, neg(f, ta)),
                          (a * 3, add(f, ta, add(f, ta, ta))),
                          (a - a, tree_zero(f))):
            assert got.field is f
            assert_canonical(got)
            assert tree(got) == want
        if not a.is_zero():
            inv, want = a.inverse(), inverse(f, ta)
            assert_canonical(inv)
            assert tree(inv) == want
            assert a * inv == f.one() and tree(b / a) == mul(f, tb, want)


@KIND
def test_mixed_level_products_match_lifted_reference(depth, d_in_tower, integral):
    """A factor from any lower level (Q(i) included) multiplies a factor of
    any level above it blockwise, as if lifted."""
    for rng, f, a, _ in cases(depth, d_in_tower, integral):
        chain = levels(f)
        for k, field in enumerate(chain[:-1]):
            x = a if field is f else element(rng, field, rng.choice(HEIGHTS), "full")
            for low in chain[k + 1:]:
                c = element(rng, low, rng.choice(HEIGHTS))
                want = mul(field, tree_lift(tree(c), low, field), tree(x))
                for got in (c * x, x * c):
                    assert got.field is field
                    assert_canonical(got)
                    assert tree(got) == want


@KIND
def test_powers_match_repeated_reference_product(depth, d_in_tower, integral):
    """a ** n for n in -6..6: the repeated reference product, and its
    reference inverse for negative n.  Height-10 operands in the first tower
    of each kind: over the second d_tower_3 tower, whose d has leaves of
    height 2^256, the reference inverses of six powers take seconds per
    operand."""
    f = tower_of(depth, d_in_tower, integral)
    rng = random.Random(depth + 10 * integral)
    for shape in ("full", "full", None, None, None, None):
        a = element(rng, f, 10, shape)
        want = tree(f.one())
        for n in range(7):
            got = a ** n
            assert got.field is f
            assert_canonical(got)
            assert tree(got) == want
            if n and not a.is_zero():
                got = a ** -n
                assert_canonical(got)
                assert tree(got) == inverse(f, want)
            want = mul(f, want, tree(a))


@KIND
def test_sqrt_finds_both_roots_of_a_square(depth, d_in_tower, integral):
    for rng, f, a, b in cases(depth, d_in_tower, integral):
        root = f.sqrt(a * a)
        assert root is not None and (root == a or root == -a)
        r = f.sqrt(b)
        assert r is None or mul(f, tree(r), tree(r)) == tree(b)
        if not a.is_zero():           # d a^2 is the square of a s
            s = f.generator()
            r = f.sqrt(f.lift(f.d) * a * a)
            assert r is not None and (r == a * s or r == -(a * s))


@KIND
def test_equality_hash_payload_and_json_across_lifts(depth, d_in_tower, integral):
    for rng, f, a, _ in cases(depth, d_in_tower, integral):
        low = lower(a)
        assert f.lift(low) == a and low == a
        assert hash(f.lift(low)) == hash(low) == hash(a)
        x, y = a.payload
        assert x.field is f.base and y.field is f.base
        assert tree(x) == tree(a)[0] and tree(y) == tree(a)[1]
        assert_canonical(x)
        assert_canonical(y)
        assert format_scalar(a) == tree_format(f, tree(a))
        data = scalar_to_json(a)
        assert data["coeffs"] == tree_coeffs(f, tree(a))
        back = scalar_from_json(data)
        assert back == a and back.field is f and hash(back) == hash(a)
        assert_canonical(back)
        assert_canonical(low)
        if not low.field.is_base:                   # the shallowest level
            assert not low.payload[1].is_zero()
        elif low.payload[1] == 0:                   # a rational value
            assert a == low.payload[0] and hash(a) == hash(low.payload[0])


def test_adjoin_sqrt_is_interned():
    """The same (base, d) gives the same Field, whether d is an int or a
    Scalar, and another d another Field."""
    for depth in (0, 1, 2):
        field = tower_of(depth, False, True)
        for p in (17, 19, 23):
            f1, s1 = adjoin_sqrt(field, p)
            f2, s2 = adjoin_sqrt(field, field.scalar(p))
            assert f1 is f2 and s1 == s2
            assert f1 != adjoin_sqrt(field, p + 12)[0]


def test_unused_towers_are_freed():
    """The intern table holds towers weakly and a Field keeps no Scalar
    of itself, so dropping the last reference frees the tower at once."""
    field, s = adjoin_sqrt(QI, 1009)
    ref = weakref.ref(field)
    del field, s
    assert ref() is None


def test_zero_terms_keep_the_deepest_field():
    """Zero terms are skipped, yet the sum still lives in the deepest field
    of all the operands, zero ones included."""
    field, s = adjoin_sqrt(adjoin_sqrt(QI, 2)[0], 3)
    base = [QI.scalar(Fraction(1, 6)), QI.scalar(Fraction(3, 10), 1), QI.zero()]
    cases = [
        # an all-zero sum mixing a base zero and a tower zero
        ((QI.zero(), field.zero()), (QI.scalar(Fraction(1, 7)), s)),
        ((QI.scalar(2), QI.zero()), (field.zero(), s)),
        # a zero tower operand among base terms
        (base, (QI.scalar(Fraction(1, 10)), field.zero(), QI.scalar(5))),
        (base + [field.zero()], base[::-1] + [QI.scalar(Fraction(1, 15))]),
        # zero base terms among tower terms, over denominators 6 and 10
        ((s / 6, QI.zero(), s / 10), (QI.scalar(Fraction(1, 7)), s, QI.scalar(3))),
    ]
    for xs, ys in cases:
        got = dot(xs, ys)
        assert got.field is field
        assert_canonical(got)
        want = tree_dot(field, [tree_lift(tree(x), x.field, field) for x in xs],
                        [tree_lift(tree(y), y.field, field) for y in ys])
        assert tree(got) == want and dot(ys, xs) == got
    assert dot(*cases[0]) == field.zero()


def test_tower_cancellation_and_lifted_only_operands():
    field, s = adjoin_sqrt(adjoin_sqrt(QI, 2)[0], 3)
    x = field.scalar(Fraction(2, 3), 5) + s
    assert dot((x, x), (s, -s)) == field.zero()
    assert dot((x, x), (s, -s)).field is field
    low = adjoin_sqrt(QI, 2)[1]
    got = dot((field.lift(low), QI.i()), (field.lift(low), QI.scalar(3)))
    assert got.field is field and lower(got) == QI.scalar(2, 3)
