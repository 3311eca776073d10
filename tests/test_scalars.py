"""Base-level field axioms and arithmetic against a Fraction-pair reference,
tower construction and square roots, serialization, base-level dot and
sum_of_products.

Tower arithmetic is checked against the pair-recursive reference in
test_tower_reference.py."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import d4vgit.scalars as kernel
from d4vgit.poly import Poly
from d4vgit.scalars import (
    QI, DegenerateExtensionError, ExtensionLimitError, adjoin_sqrt,
    as_scalar, dot, format_scalar, is_principal_root, lower, parse_scalar,
    scalar_from_json, scalar_to_json, sum_of_products,
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


def _leaf(rng, bits):
    """A Gaussian rational of height up to 2^bits whose real or imaginary
    part is zero a third of the time each, so that leading zeros occur."""
    h = 1 << bits
    re, im = (0 if rng.randrange(3) == 0 else rng.randint(-h, h) for _ in range(2))
    return QI.scalar(Fraction(re, rng.randint(1, h)), Fraction(im, rng.randint(1, h)))


def _element(rng, field, bits):
    """u + v s over field, each half zero a quarter of the time."""
    if field.is_base:
        return _leaf(rng, bits)
    base = field.base
    u, v = (base.zero() if rng.randrange(4) == 0 else _element(rng, base, bits)
            for _ in range(2))
    return field.lift(u) + field.generator() * field.lift(v)


def _tower(rng, depth):
    """A depth-`depth` tower; above level 1 each d has a tower part half the
    time (a small element of the level below with a nonzero upper half)."""
    field = QI
    while field.depth < depth:
        d = QI.scalar(rng.randint(2, 40), rng.randint(-3, 3))
        if field.depth and rng.randrange(2):
            d = field.lift(d) + field.generator() * rng.randint(1, 5)
        ext, _ = adjoin_sqrt(field, d)
        if ext is not field:
            field = ext
    return field


@given(depth=st.integers(0, 3), bits=st.integers(1, 256), seed=st.integers(0, 2 ** 32),
       shape=st.sampled_from(("full", "lifted", "pure")))
@settings(max_examples=60, deadline=None)
def test_principal_root_is_the_root_sqrt_returns(depth, bits, seed, shape):
    """is_principal_root(x) == (field.sqrt(x*x) == x) at depths 0-3 and
    heights up to 2^256, for x and -x, in x's own field and in the top of
    the tower: full elements, values lifted from a lower level, and pure
    multiples v s of a level's generator."""
    rng = random.Random(seed)
    top = _tower(rng, depth)
    field = top
    if shape == "lifted" and depth:
        for _ in range(rng.randint(1, depth)):
            field = field.base
    x = _element(rng, field, bits)
    if shape == "pure" and depth:
        x = top.generator() * top.lift(_element(rng, top.base, bits))
    for y in (x, -x):
        want = field.sqrt(y * y) == y
        assert is_principal_root(y) == want
        lifted = top.lift(y)
        assert is_principal_root(lifted) == want == (top.sqrt(lifted * lifted) == lifted)
    assert is_principal_root(x) != is_principal_root(-x) or x.is_zero()


def _own(rng, field):
    """A nonzero element of field that lies in no level below it."""
    while True:
        x = _element(rng, field, 64)
        if not x.is_zero() and lower(x).field is field:
            return x


def _levels(top):
    """The levels of top's tower, Q(i) first."""
    return _levels(top.base) + [top] if top.base else [top]


def test_half_products_are_formed_only_where_both_halves_are_nonzero(monkeypatch):
    """Above depth 1, _mul forms a half product only where both halves are
    nonzero: two pure multiples of the generator at depth 3 make one _mul
    at depth 2 (four while only a lifted factor was spared), and a product
    with a zero factor makes no _mul below its own."""
    rng = random.Random(5)
    top = _tower(rng, 3)
    s = top.generator()
    x, y = (s * top.lift(_own(rng, top.base)) for _ in range(2))
    depths = []
    real = kernel._mul
    monkeypatch.setattr(kernel, "_mul", lambda f, X, Y: depths.append(f.depth) or real(f, X, Y))
    product = x * y
    assert depths.count(2) == 1 and product.field is top
    depths.clear()
    assert (x * top.zero()).is_zero() and (top.zero() * y).is_zero()
    assert depths == [3, 3]


@pytest.mark.parametrize("seed", range(4))
def test_division_and_inverse_work_at_each_operands_own_level(seed):
    """x / y and y / x for values of every pair of levels of a depth-3
    tower, Q(i) included, lie in the deeper of the two fields and equal the
    quotient of the lifted values; the inverse of every value lifted to
    every level above its own is the lifted inverse, in the lifted field."""
    rng = random.Random(seed)
    levels = _levels(_tower(rng, 3))
    top = levels[-1]
    values = [_own(rng, f) for f in levels]
    for j, x in enumerate(values):
        for k, y in enumerate(values):
            q = x / y
            assert q.field is levels[max(j, k)] and q * y == x
            lifted = top.lift(x) / top.lift(y)
            assert lifted.field is top and lifted == q
        for f in levels[j:]:
            inv = f.lift(x).inverse()
            assert inv.field is f and inv == f.lift(x.inverse()) and (inv * x).field is f
            assert inv * x == 1


def test_division_by_a_zero_scalar_of_any_level_raises():
    """A zero divisor raises ZeroDivisionError at every level, lifted or
    not, whatever the level of the dividend."""
    levels = _levels(_tower(random.Random(1), 3))
    for f in levels:
        for zero in [f.lift(g.zero()) for g in levels if g.ancestor_of(f)]:
            with pytest.raises(ZeroDivisionError):
                zero.inverse()
            for g in levels:
                with pytest.raises(ZeroDivisionError):
                    g.one() / zero


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
high = st.integers(8, 256).flatmap(lambda k: st.builds(
    Fraction, st.integers(-2 ** k, 2 ** k), st.integers(1, 2 ** k)))
high_pairs = st.tuples(high, high)


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

    @pytest.mark.parametrize("terms", [
        # zero factors whose partners' denominators differ from the running one
        [((Fraction(1, 3), 0), (Fraction(2, 5), 1)), ((0, 0), (Fraction(1, 11), 2)),
         ((Fraction(5, 7), Fraction(-1, 2)), (0, 0)), ((1, 1), (Fraction(3, 4), 0))],
        [((0, 0), (Fraction(1, 9), 0)), ((Fraction(2, 9), 1), (Fraction(7, 13), 0))],
        # denominators with a shared factor: the lcm of 6 and 10 is 30
        [((Fraction(1, 6), 0), (1, 0)), ((Fraction(1, 10), 0), (1, 0))],
        [((Fraction(1, 2), Fraction(1, 3)), (Fraction(5, 3), 0)),
         ((Fraction(7, 10), 0), (Fraction(1, 1), Fraction(3, 10))),
         ((Fraction(-1, 6), 0), (Fraction(1, 5), 0))],
        # terms that cancel across shared factors, leaving the canonical zero
        [((Fraction(1, 6), 0), (1, 0)), ((Fraction(-1, 10), 0), (Fraction(5, 3), 0))],
    ])
    def test_zero_terms_and_shared_denominator_factors(self, terms):
        xs = [QI.scalar(*a) for a, _ in terms]
        ys = [QI.scalar(*b) for _, b in terms]
        got = normalized(dot(xs, ys))
        assert got.payload == ref_dot(*zip(*terms))
        assert dot(ys, xs) == got

    @given(terms=st.lists(st.tuples(high_pairs, high_pairs), min_size=2, max_size=2),
           zero=st.sampled_from((None, 0, 1, 2, 3)),
           shape=st.sampled_from(("free", "repeated", "swapped")))
    @settings(max_examples=200)
    def test_two_terms_at_height(self, terms, zero, shape):
        """The inline two-term branch at heights 2^8-2^256, with a zero
        operand, and with equal product denominators (a repeated or swapped
        pair) or unequal ones, against the reference and the kernel."""
        if shape == "repeated":
            terms = [terms[0], terms[0]]
        elif shape == "swapped":
            terms = [terms[0], terms[0][::-1]]
        if zero is not None:
            term = list(terms[zero // 2])
            term[zero % 2] = (Fraction(0), Fraction(0))
            terms[zero // 2] = tuple(term)
        xs = [QI.scalar(*a) for a, _ in terms]
        ys = [QI.scalar(*b) for _, b in terms]
        got = normalized(dot(xs, ys))
        assert got.payload == ref_dot(*zip(*terms))
        assert got.triple == sum_of_products([(1, x, y) for x, y in zip(xs, ys)]).triple
        assert dot(ys, xs) == got

    def test_polynomials_take_the_term_by_term_loop(self):
        V = ("a", "b")
        a, b = Poly.variable("a", V), Poly.variable("b", V)
        half = QI.scalar(Fraction(-1, 2))
        got = dot((a, b, a * b), (b, a, half))
        assert isinstance(got, Poly)
        assert got == a * b * 2 + a * b * half
        assert str(got) == str(a * b * Fraction(3, 2))
        assert dot((3, QI.i()), (QI.i(), 2)) == QI.scalar(0, 5)


# -- sum_of_products: the kernel dot is the two-factor case of -----------------


def ref_sum_of_products(terms, den, scale):
    """Term by term: each coefficient times its factors, the sum times
    scale (if any), over den."""
    total = (Fraction(0), Fraction(0))
    for c, factors in terms:
        value = (Fraction(c), Fraction(0))
        for f in factors:
            value = ref_mul(value, f)
        total = ref_add(total, value)
    if scale is not None:
        total = ref_mul(total, scale)
    return (total[0] / den, total[1] / den)


factors_or_zero = st.one_of(pairs, st.just((0, 0)))


class TestSumOfProducts:
    @given(terms=st.lists(st.tuples(st.integers(-3, 3),
                                    st.lists(factors_or_zero, min_size=1, max_size=5)),
                          max_size=5),
           den=st.integers(1, 6), scale=st.one_of(st.none(), factors_or_zero))
    @settings(max_examples=100)
    def test_matches_the_term_by_term_reference(self, terms, den, scale):
        """Arities 1-5, small integer coefficients, a scale factor or none,
        empty sums, zero factors and heights up to 2^256; a lazy value is
        the same number."""
        args = ([(c,) + tuple(QI.scalar(*f) for f in fs) for c, fs in terms], den,
                None if scale is None else QI.scalar(*scale))
        got = normalized(sum_of_products(*args))
        assert got.payload == ref_sum_of_products(terms, den, scale)
        lazy = sum_of_products(*args, lazy=True)
        assert lazy.payload == got.payload
        assert normalized(sum_of_products(((1, lazy), (-1, got)))).triple == (0, 0, 1)

    def test_polynomials_and_ints_are_summed_term_by_term(self):
        V = ("a", "b")
        a, b = Poly.variable("a", V), Poly.variable("b", V)
        got = sum_of_products(((2, a, b, a), (-1, b), (3, QI.i(), a)), 4, b)
        assert isinstance(got, Poly)
        assert got == (a * a * b * 2 - b + a * QI.i() * 3) * b / 4
        assert sum_of_products(((3, QI.i(), 2), (1, QI.one())), 2) == QI.scalar(Fraction(1, 2), 3)
