"""Field axioms, tower arithmetic, square roots, serialization."""

import random
import time
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from d4vgit.poly import Poly
from d4vgit.scalars import (
    QI, DegenerateExtensionError, ExtensionLimitError, adjoin_sqrt,
    as_scalar, dot, format_scalar, lower, parse_scalar, scalar_from_json,
    scalar_to_json,
)


small_fraction = st.fractions(min_value=-10, max_value=10, max_denominator=8)


@st.composite
def scalars(draw):
    return QI.scalar(draw(small_fraction), draw(small_fraction))


class TestFieldAxioms:
    @given(a=scalars(), b=scalars(), c=scalars())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(a=scalars(), b=scalars(), c=scalars())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=scalars(), b=scalars())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(a=scalars())
    def test_inverse(self, a):
        if not a.is_zero():
            assert a * a.inverse() == QI.one()

    def test_thousand_random_identities(self):
        rng = random.Random(7)

        def rand():
            return QI.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

        for _ in range(1000):
            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == QI.one()

    def test_i_squared(self):
        assert QI.i() * QI.i() == QI.scalar(-1)

    def test_zero_test_exact(self):
        x = QI.scalar(Fraction(1, 3)) + QI.scalar(Fraction(1, 6)) - QI.scalar(Fraction(1, 2))
        assert x.is_zero()


class TestAdjoinSqrt:
    def test_defining_relation(self):
        field, s = adjoin_sqrt(QI, 2)
        assert s * s == field.scalar(2)

    def test_minus_one_gives_existing_i(self):
        field, s = adjoin_sqrt(QI, -1)
        assert field is QI
        assert s == QI.i()

    def test_rational_square_gives_base(self):
        field, s = adjoin_sqrt(QI, Fraction(9, 4))
        assert field is QI
        assert s == QI.scalar(Fraction(3, 2))

    def test_zero_degenerate(self):
        with pytest.raises(DegenerateExtensionError):
            adjoin_sqrt(QI, 0)

    def test_depth_cap(self):
        field = QI
        primes = (2, 3, 5, 7)
        for p in primes:
            field, _ = adjoin_sqrt(field, field.scalar(p))
        assert field.depth == 4
        with pytest.raises(ExtensionLimitError):
            adjoin_sqrt(field, field.scalar(11))

    def test_square_detection_in_tower(self):
        field, s = adjoin_sqrt(QI, 2)
        # (1 + s)^2 = 3 + 2s must be recognized as a square
        x = (field.one() + s) ** 2
        root = field.sqrt(x)
        assert root is not None and root * root == x
        assert field.sqrt(field.scalar(2)) == s or field.sqrt(field.scalar(2)) == -s

    def test_tower_difference_of_squares(self):
        field, s = adjoin_sqrt(QI, 5)
        rng = random.Random(3)
        for _ in range(50):
            x = field.lift(QI.scalar(rng.randint(-4, 4), rng.randint(-4, 4))) + \
                s * field.lift(QI.scalar(rng.randint(-4, 4)))
            y = field.lift(QI.scalar(rng.randint(-4, 4))) + \
                s * field.lift(QI.scalar(rng.randint(-4, 4), rng.randint(-2, 2)))
            assert (x + y) * (x - y) == x * x - y * y

    def test_nested_tower_arithmetic(self):
        f1, s1 = adjoin_sqrt(QI, 2)
        f2, s2 = adjoin_sqrt(f1, f1.scalar(3))
        x = f2.lift(s1) + s2
        assert x * x == f2.scalar(5) + f2.lift(s1) * s2 * 2
        assert lower(x * x - f2.lift(s1) * s2 * 2) == QI.scalar(5)

    def test_gaussian_sqrt(self):
        # 2i = (1+i)^2
        root = QI.sqrt(QI.scalar(0, 2))
        assert root is not None and root * root == QI.scalar(0, 2)
        assert QI.sqrt(QI.scalar(3)) is None


class TestSerialization:
    @given(a=scalars())
    @settings(max_examples=60)
    def test_string_roundtrip(self, a):
        assert parse_scalar(format_scalar(a)) == a

    def test_string_format(self):
        assert format_scalar(QI.scalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
        assert parse_scalar("1/2-3/4*i") == QI.scalar(Fraction(1, 2), Fraction(-3, 4))
        assert parse_scalar("i") == QI.i()
        assert parse_scalar("-2") == QI.scalar(-2)

    def test_spaces_outside_numbers_are_ignored(self):
        assert parse_scalar("1 /2") == QI.scalar(Fraction(1, 2))
        assert parse_scalar(" - 3 / 4 + 2 * i ") == QI.scalar(Fraction(-3, 4), 2)
        assert parse_scalar("5 i") == QI.scalar(0, 5)

    def test_json_roundtrip_tower(self):
        field, s = adjoin_sqrt(QI, 2)
        x = field.lift(QI.scalar(1, 1)) + s * field.scalar(3)
        data = scalar_to_json(x)
        assert scalar_from_json(data) == x

    def test_json_roundtrip_base(self):
        x = QI.scalar(Fraction(-7, 3), Fraction(2, 5))
        assert scalar_from_json(scalar_to_json(x)) == x

    @pytest.mark.parametrize("text", [
        "1e10000000", "1.5", "1_000", "abc", "1/0", "*i", "2*i*i", "1/2/3",
        "--1", "+", "1+", "i2", "\u0663", "", "1 2", "1/2 3", "1+3 4*i",
    ])
    def test_malformed_text_raises_value_error_fast(self, text):
        """Only [+-]digits[/digits] terms with an optional (*)i are read;
        an exponent is rejected before any number is built (reading
        "1e10000000" as a number takes seconds, so a 1 s bound catches it
        with room for a slow host)."""
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_scalar(text)
        assert time.perf_counter() - start < 1.0

    def test_as_scalar(self):
        assert as_scalar(3) == QI.scalar(3)
        assert as_scalar(Fraction(1, 2)) == QI.scalar(Fraction(1, 2))

    @pytest.mark.parametrize("data", [
        {"gens": [], "coeffs": ["1", "2"]},
        {"gens": ["2"], "coeffs": [["1", "2"], "3"]},
        {"gens": ["0"], "coeffs": ["1", "2"]},
        {"gens": ["2"], "coeffs": ["1", "2", "3"]},
    ], ids=["coeffs_deeper_than_gens", "nested_too_deep", "sqrt_0", "not_a_pair"])
    def test_malformed_tower_raises_value_error(self, data):
        with pytest.raises(ValueError):
            scalar_from_json(data)


# -- differential tests against a Fraction-pair reference --------------------
#
# The reference does base-level arithmetic on (re, im) pairs of Fractions,
# the representation the Scalar code is compared with.


def ref_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ref_mul(a, b):
    (x, y), (u, v) = a, b
    return (x * u - y * v, x * v + y * u)


def ref_inverse(a):
    x, y = a
    n = x * x + y * y
    return (x / n, -y / n)


def ref_hash(a):
    return hash(a[0]) if a[1] == 0 else hash(a)


def ref_format(a):
    re, im = a
    if im == 0:
        return str(re)
    if re == 0:
        return "%s*i" % (im,)
    return "%s%s%s*i" % (re, "+" if im > 0 else "-", abs(im))


def normalized(x):
    """x is a base-level Scalar in canonical form; returns it."""
    re, im, den = x.triple
    assert den > 0 and gcd(re, im, den) == 1
    return x


HEIGHT = 2 ** 256
rationals = st.one_of(
    small_fraction,
    st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT)),
    st.builds(Fraction, st.integers(-HEIGHT, HEIGHT)),
)
pairs = st.tuples(rationals, rationals)


class TestDifferential:
    @given(a=pairs, b=pairs)
    def test_ring_ops_match_reference(self, a, b):
        x, y = QI.scalar(*a), QI.scalar(*b)
        assert normalized(x).payload == a
        assert normalized(x + y).payload == ref_add(a, b)
        assert normalized(x - y).payload == ref_add(a, (-b[0], -b[1]))
        assert normalized(x * y).payload == ref_mul(a, b)
        assert normalized(-x).payload == (-a[0], -a[1])
        if b != (0, 0):
            assert normalized(y.inverse()).payload == ref_inverse(b)
            assert normalized(x / y).payload == ref_mul(a, ref_inverse(b))

    @given(a=pairs, k=st.integers(-HEIGHT, HEIGHT))
    def test_int_operands_match_reference(self, a, k):
        x = QI.scalar(*a)
        assert normalized(x * k).payload == (a[0] * k, a[1] * k)
        assert normalized(k * x).payload == (a[0] * k, a[1] * k)
        assert normalized(x + k).payload == (a[0] + k, a[1])
        assert normalized(k - x).payload == (k - a[0], -a[1])
        if k:
            assert normalized(x / k).payload == (a[0] / k, a[1] / k)
        assert (x == k) == (a == (k, 0))

    @given(a=pairs, b=pairs)
    def test_equality_and_hash_match_reference(self, a, b):
        x, y = QI.scalar(*a), QI.scalar(*b)
        assert (x == y) == (a == b)
        assert hash(x) == ref_hash(a)
        assert x == QI.scalar(*a) and hash(x) == hash(QI.scalar(*a))
        if a[1] == 0:                    # equal to, and hashed as, the Fraction
            assert x == a[0] and hash(x) == hash(a[0])

    @given(a=pairs)
    def test_format_and_json_match_reference(self, a):
        x = QI.scalar(*a)
        assert format_scalar(x) == ref_format(a)
        assert parse_scalar(format_scalar(x)) == x
        assert scalar_to_json(x) == ref_format(a)
        assert scalar_from_json(scalar_to_json(x)) == x

    def test_payload_is_a_read_only_view(self):
        x = QI.scalar(Fraction(6, 4), Fraction(-1, 3))
        assert x.payload == (Fraction(3, 2), Fraction(-1, 3))
        with pytest.raises(AttributeError):
            x.payload = (Fraction(0), Fraction(0))
        with pytest.raises(AttributeError):
            x.field = QI


TOWER_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def tower_fields(draw, min_depth=1, max_depth=3):
    """A tower of the given depth, adjoining roots of distinct primes."""
    k = draw(st.integers(min_depth, max_depth))
    primes = draw(st.permutations(TOWER_PRIMES))[:k]
    field = QI
    for p in primes:
        field, _ = adjoin_sqrt(field, p)
    assert field.depth == k
    return field


def tower_element(draw, field):
    if field.is_base:
        return QI.scalar(draw(rationals), draw(rationals))
    a = field.lift(tower_element(draw, field.base))
    b = field.lift(tower_element(draw, field.base))
    return a + field.generator() * b


@st.composite
def tower_triples(draw):
    field = draw(tower_fields())
    return field, [tower_element(draw, field) for _ in range(3)]


class TestTowers:
    @given(data=tower_triples())
    @settings(max_examples=40, deadline=None)
    def test_field_axioms(self, data):
        field, (a, b, c) = data
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert (a - a).is_zero() and a + field.zero() == a and a * field.one() == a
        if not a.is_zero():
            assert a * a.inverse() == field.one()
            assert (b / a) * a == b

    @given(data=tower_triples())
    @settings(max_examples=40, deadline=None)
    def test_sqrt_sound_and_finds_squares(self, data):
        field, (a, b, _) = data
        root = field.sqrt(a * a)
        assert root is not None and root * root == a * a
        r = field.sqrt(b)
        assert r is None or r * r == b

    @given(data=tower_triples())
    @settings(max_examples=40, deadline=None)
    def test_json_roundtrip_and_hash(self, data):
        field, (a, b, _) = data
        assert scalar_from_json(scalar_to_json(a)) == a
        assert hash(field.lift(lower(b))) == hash(lower(b))

    @given(field=tower_fields(0, 2), p=st.sampled_from((17, 19, 23)))
    def test_adjoin_sqrt_is_interned(self, field, p):
        f1, s1 = adjoin_sqrt(field, p)
        f2, s2 = adjoin_sqrt(field, field.scalar(p))
        assert f1 is f2 and s1 == s2
        assert f1 != adjoin_sqrt(field, p + 12)[0]

    def test_unused_towers_are_freed(self):
        """The intern table holds towers weakly and a Field keeps no Scalar
        of itself, so dropping the last reference frees the tower at once."""
        field, s = adjoin_sqrt(QI, 1009)
        ref = weakref.ref(field)
        del field, s
        assert ref() is None


# -- tower multiplication against the five-product rule ----------------------
#
# An element of a tower level is compared as its coefficient tree: nested
# (a, b) pairs down to (re, im) Fraction pairs.  The reference multiplies
# trees by (x + y s)(u + v s) = (x u + (d y) v) + (x v + y u) s, five
# products per level, with no shortcut for zero halves.


def tree(x):
    if x.field.is_base:
        re, im, den = x.triple
        assert den > 0 and gcd(re, im, den) == 1
        return x.payload
    a, b = x.payload
    return (tree(a), tree(b))


def tree_add(a, b, field):
    if field.is_base:
        return ref_add(a, b)
    return (tree_add(a[0], b[0], field.base), tree_add(a[1], b[1], field.base))


def tree_mul(a, b, field):
    if field.is_base:
        return ref_mul(a, b)
    (x, y), (u, v), lower_field = a, b, field.base
    d = tree(lower_field.lift(field.d))
    dy = tree_mul(d, y, lower_field)
    return (tree_add(tree_mul(x, u, lower_field), tree_mul(dy, v, lower_field),
                     lower_field),
            tree_add(tree_mul(x, v, lower_field), tree_mul(y, u, lower_field),
                     lower_field))


def _base_level_d_tower(depth):
    field = QI
    for p in (2, 3, 5)[:depth]:
        field, _ = adjoin_sqrt(field, p)
    return field


def _deep_d_tower(depth):
    """Every level past the first adjoins a root of 3 + (previous root)."""
    field, s = adjoin_sqrt(QI, 2)
    while field.depth < depth:
        field, s = adjoin_sqrt(field, s + 3)
    return field


TOWERS = {
    "d_base_1": _base_level_d_tower(1), "d_base_2": _base_level_d_tower(2),
    "d_base_3": _base_level_d_tower(3), "d_deep_2": _deep_d_tower(2),
    "d_deep_3": _deep_d_tower(3),
}
SHAPES = ("full", "lifted", "generator", "zero")


def coeff_tree(draw, depth, shape="full"):
    """JSON coeffs of a depth-`depth` element of the given shape: "lifted"
    has a zero upper half, "generator" a zero lower half."""
    if depth == 0:
        if shape == "zero":
            return "0"
        return format_scalar(QI.scalar(draw(small_fraction), draw(small_fraction)))
    half = lambda: coeff_tree(draw, depth - 1, draw(st.sampled_from(SHAPES)))
    zero = coeff_tree(draw, depth - 1, "zero")
    return {"full": lambda: [half(), half()], "lifted": lambda: [half(), zero],
            "generator": lambda: [zero, half()], "zero": lambda: [zero, zero]}[shape]()


def tower_json(field):
    return scalar_to_json(field.one())["gens"]


@st.composite
def tower_operands(draw):
    name = draw(st.sampled_from(sorted(TOWERS)))
    field = TOWERS[name]
    gens = tower_json(field)
    a, b = (scalar_from_json({"gens": gens, "coeffs": coeff_tree(
        draw, field.depth, draw(st.sampled_from(SHAPES)))}) for _ in range(2))
    return field, a, b


class TestTowerMultiply:
    def test_towers_cover_both_kinds_of_d(self):
        for name, field in TOWERS.items():
            assert lower(field.d).field.is_base == name.startswith("d_base")

    @given(data=tower_operands())
    @settings(max_examples=150, deadline=None)
    def test_product_matches_five_product_rule(self, data):
        field, a, b = data
        want = tree_mul(tree(a), tree(b), field)
        assert tree(a * b) == want and tree(b * a) == want
        assert tree(a * a) == tree_mul(tree(a), tree(a), field)

    @given(data=tower_operands(), level=st.integers(0, 2), draw=st.data())
    @settings(max_examples=80, deadline=None)
    def test_mixed_level_product_matches_lifted_rule(self, data, level, draw):
        """A factor from a lower level (Q(i) included) multiplies as if
        lifted, and the product lives in the deeper field."""
        field, a, _ = data
        low = field
        while low.depth > min(level, field.depth - 1):
            low = low.base
        coeffs = coeff_tree(draw.draw, low.depth, draw.draw(st.sampled_from(SHAPES)))
        c = scalar_from_json(coeffs if low.is_base
                             else {"gens": tower_json(low), "coeffs": coeffs})
        assert c.field is low
        want = tree_mul(tree(field.lift(c)), tree(a), field)
        assert (c * a).field is field and (a * c).field is field
        assert tree(c * a) == want and tree(a * c) == want

    @given(data=tower_operands(), n=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_power_is_repeated_product(self, data, n):
        field, a, _ = data
        want = field.one()
        for _ in range(n):
            want = want * a
        assert a ** n == want and (a ** n).field is field
        if not a.is_zero():
            assert a ** -n == want.inverse()


# -- dot: one normalization per sum of products -------------------------------


def ref_dot(xs, ys):
    total = (Fraction(0), Fraction(0))
    for x, y in zip(xs, ys):
        total = ref_add(total, ref_mul(x, y))
    return total


class TestDot:
    @given(terms=st.lists(st.tuples(pairs, pairs), min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_matches_the_naive_sum_of_products(self, terms):
        xs = [QI.scalar(*a) for a, _ in terms]
        ys = [QI.scalar(*b) for _, b in terms]
        got = normalized(dot(xs, ys))
        assert got.payload == ref_dot(*zip(*terms))
        naive = xs[0] * ys[0]
        for x, y in zip(xs[1:], ys[1:]):
            naive = naive + x * y
        assert got.triple == naive.triple

    @given(a=pairs, b=pairs, c=pairs)
    def test_zero_terms_and_cancellation_give_canonical_zero(self, a, b, c):
        x, y, z = QI.scalar(*a), QI.scalar(*b), QI.scalar(*c)
        zero = QI.zero()
        assert dot((x, x), (y, -y)).triple == (0, 0, 1)
        assert dot((x, y, -x), (z, zero, z)).triple == (0, 0, 1)
        assert dot((zero, zero), (x, y)).triple == (0, 0, 1)
        assert dot((), ()).triple == (0, 0, 1)
        assert normalized(dot((zero, x, zero), (y, z, x))).triple == (x * z).triple
        assert normalized(dot((x, y), (z, zero))).triple == (x * z).triple

    @given(field=st.one_of(tower_fields(), st.sampled_from(list(TOWERS.values()))),
           n=st.integers(1, 4), draw=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tower_operands_match_the_five_product_rule(self, field, n, draw):
        """Operands of a depth 1-3 tower (d in Q(i) or not), some from lower
        levels, lifted explicitly or not, give the tree sum of tree
        products."""
        levels = [field]
        while not levels[-1].is_base:
            levels.append(levels[-1].base)
        xs, ys = [], []
        for _ in range(n):
            low = draw.draw(st.sampled_from(levels))
            y = tower_element(draw.draw, low)
            if draw.draw(st.booleans()):
                y = field.lift(y)
            xs.append(tower_element(draw.draw, field))
            ys.append(y)
        got = dot(xs, ys)
        assert got.field is field
        want = tree(field.zero())
        for x, y in zip(xs, ys):
            want = tree_add(want, tree_mul(tree(x), tree(field.lift(y)), field), field)
        assert tree(got) == want
        assert dot(ys, xs) == got

    def test_tower_cancellation_and_lifted_only_operands(self):
        field, s = adjoin_sqrt(adjoin_sqrt(QI, 2)[0], 3)
        x = field.scalar(Fraction(2, 3), 5) + s
        assert dot((x, x), (s, -s)) == field.zero()
        assert dot((x, x), (s, -s)).field is field
        low = adjoin_sqrt(QI, 2)[1]
        got = dot((field.lift(low), QI.i()), (field.lift(low), QI.scalar(3)))
        assert got.field is field and lower(got) == QI.scalar(2, 3)

    def test_polynomials_take_the_term_by_term_loop(self):
        V = ("a", "b")
        a, b = Poly.variable("a", V), Poly.variable("b", V)
        half = QI.scalar(Fraction(-1, 2))
        got = dot((a, b, a * b), (b, a, half))
        assert isinstance(got, Poly)
        assert got == a * b * 2 + a * b * half
        assert str(got) == str(a * b * Fraction(3, 2))
        assert dot((3, QI.i()), (QI.i(), 2)) == QI.scalar(0, 5)
