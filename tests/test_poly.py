"""Sparse polynomial ring: arithmetic and single-divisor division."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from d4vgit.poly import Poly
from d4vgit.scalars import QI


V = ("x", "y", "z")


def rand_poly(rng, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        expo = tuple(rng.randint(0, maxdeg) for _ in V)
        terms[expo] = QI.scalar(rng.randint(-5, 5), rng.randint(-2, 2))
    return Poly(V, terms)


@st.composite
def polys(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    return rand_poly(rng)


class TestRing:
    @given(p=polys(), q=polys(), r=polys())
    @settings(max_examples=30)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(p=polys(), q=polys())
    @settings(max_examples=30)
    def test_commutative(self, p, q):
        assert p * q == q * p

    def test_no_zero_coefficients_stored(self):
        p = Poly(V, {(1, 0, 0): 1})
        q = p - p
        assert q.terms == {}
        assert (p + p - p * 2).terms == {}

    def test_power(self):
        x = Poly.variable("x", V)
        assert (x + 1) ** 2 == x * x + x * 2 + 1


class TestDivision:
    def test_self_division(self):
        rng = random.Random(5)
        n = rand_poly(rng)
        while n.is_zero():
            n = rand_poly(rng)
        q, r = n.divide_by(n)
        assert q == Poly.constant(1, V) and r.is_zero()

    def test_exact_multiple(self):
        gen = Poly.ring(("a2", "p2", "n"))
        n = gen["n"] + 1
        multiple = gen["a2"] * gen["p2"] ** 2 * n
        q, r = multiple.divide_by(n)
        assert r.is_zero()
        assert q == gen["a2"] * gen["p2"] ** 2

    def test_division_identity(self):
        rng = random.Random(6)
        for _ in range(40):
            p = rand_poly(rng)
            n = rand_poly(rng, 2, 2)
            if n.is_zero():
                continue
            q, r = p.divide_by(n)
            assert q * n + r == p
            # no remainder monomial divisible by the leading monomial
            lead, _ = n.leading()
            for expo in r.terms:
                assert not all(a >= b for a, b in zip(expo, lead))

    def test_zero_divisor(self):
        p = Poly.variable("x", V)
        with pytest.raises(ZeroDivisionError):
            p.divide_by(Poly(V, {}))


def test_printing():
    gen = Poly.ring(("a2", "p2", "p3"))
    p = Poly.constant(1, ("a2", "p2", "p3")) + gen["a2"] * gen["p2"] ** 2
    assert str(p) == "a2*p2^2 + 1"
