"""Sparse multivariate polynomials over the exact scalar field.

Supports exactly what the symbolic chart verification needs: ring arithmetic
and division by a single polynomial under graded lex order.
No zero coefficients are ever stored.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QI, Scalar, as_scalar


class PolyError(Exception):
    pass


class Poly:
    """A sparse polynomial: map from exponent tuples to Scalar coefficients.

    The variable list is fixed and ordered; the monomial order used by
    divide_by is graded lexicographic in that order.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != len(self.variables):
                raise PolyError("exponent arity mismatch")
            coeff = as_scalar(coeff)
            if not coeff.is_zero():
                clean[expo] = coeff
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value, variables):
        zero = (0,) * len(variables)
        return Poly(variables, {zero: as_scalar(value)})

    @staticmethod
    def variable(name, variables):
        variables = tuple(variables)
        if name not in variables:
            raise PolyError("unknown variable %r" % (name,))
        expo = tuple(1 if v == name else 0 for v in variables)
        return Poly(variables, {expo: QI.one()})

    @staticmethod
    def ring(variables):
        """Convenience: the generators of a polynomial ring, as a dict."""
        return {v: Poly.variable(v, variables) for v in variables}

    # -- basics --------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(other, self.variables)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and (self - other).is_zero()

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.variables != self.variables:
                raise PolyError("polynomials over different variable lists")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return Poly.constant(other, self.variables)
        return None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            terms[expo] = terms.get(expo, QI.zero()) + c
        return Poly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):     # coefficient-wise
            return Poly(self.variables, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in terms:
                    terms[e] = terms[e] + c
                else:
                    terms[e] = c
        return Poly(self.variables, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = as_scalar(scalar)
        inv = scalar.inverse()
        return Poly(self.variables, {e: c * inv for e, c in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PolyError("polynomial powers must be nonnegative integers")
        result = Poly.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure -----------------------------------------------------------

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading monomial."""
        if self.is_zero():
            raise PolyError("zero polynomial has no leading monomial")
        expo = max(self.terms, key=lambda e: (sum(e), e))
        return expo, self.terms[expo]

    # -- division ----------------------------------------------------------

    def divide_by(self, divisor: "Poly"):
        """Division with remainder by a single polynomial (graded lex).

        Returns (quotient, remainder) with self == quotient*divisor + remainder
        and no monomial of the remainder divisible by the divisor's leading
        monomial.
        """
        if not isinstance(divisor, Poly) or divisor.variables != self.variables:
            raise PolyError("divisor must live in the same ring")
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_e, lead_c = divisor.leading()
        lead_c_inv = lead_c.inverse()
        quotient = Poly(self.variables, {})
        remainder = Poly(self.variables, {})
        work = self
        while not work.is_zero():
            expo, coeff = work.leading()
            if all(a >= b for a, b in zip(expo, lead_e)):
                shift = tuple(a - b for a, b in zip(expo, lead_e))
                factor = Poly(self.variables, {shift: coeff * lead_c_inv})
                quotient = quotient + factor
                work = work - factor * divisor
            else:
                mono = Poly(self.variables, {expo: coeff})
                remainder = remainder + mono
                work = work - mono
        return quotient, remainder

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self.terms[expo]
            factors = []
            for name, k in zip(self.variables, expo):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            cs = repr(coeff)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors and cs == "-1":
                body = "-" + "*".join(factors)
            else:
                body = "*".join([cs] + factors) if factors else cs
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "Poly(%s)" % (self,)
