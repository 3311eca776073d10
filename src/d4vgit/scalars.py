"""Exact scalar arithmetic: Gaussian rationals and quadratic extension towers.

Every number in this package is a Scalar: an element of Q(i) or of a tower
Q(i)(sqrt(d1))(sqrt(d2))... built with adjoin_sqrt.  A base-level Scalar is
one normalized integer triple (re, im, den) meaning (re + im*i)/den, with
den > 0 and gcd(re, im, den) = 1; the form is canonical, so equal values have
equal triples.  A level-k tower Scalar is a flat tuple of 2^k Gaussian-
integer coefficients over one positive denominator, canonical by one gcd (the
common-denominator form, Cohen, GTM 138, 4.2): the low half is the level
below, the high half the coefficient of s' = m s for d = D/m at d's
shallowest level, so s'^2 = m D is integral.  Products take
    (x + y s')(u + v s') = (x u + m D y v) + (x v + y u) s'
on the integer tuples level by level and reduce once (only _join and payload
convert s to s'); a lower-level factor multiplies each block, with no lift.
Sums of products are reduced once per computed value: sum_of_products is
the one kernel, dot its two-factor case and vanishes its zero test.
Towers are interned: adjoin_sqrt gives the same Field object for the same
(base, d) while that Field is in use, so fields compare by identity.  All
operations are exact and zero-testing is decidable at every level.
"""

from __future__ import annotations

import re
import weakref
from fractions import Fraction
from math import gcd, isqrt


class FieldError(Exception):
    pass


class DegenerateExtensionError(FieldError):
    """Raised when asked to adjoin sqrt(0)."""


class ExtensionLimitError(FieldError):
    """Raised when a computation would exceed the tower depth cap."""


DEFAULT_TOWER_DEPTH = 4


def _rational_sqrt(n: int, d: int):
    """Exact square root (rn, rd) of n/d for d > 0, in lowest terms, or None."""
    if n < 0:
        return None
    g = gcd(n, d)
    n, d = n // g, d // g
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return rn, rd
    return None


class Field:
    """A level of the extension tower.

    The base level is Q(i).  Each further level adjoins a square root of a
    non-square element d of the level below.  Build levels with adjoin_sqrt,
    which interns them; Field equality is identity.
    """

    def __init__(self, base, d):
        self.base = base            # Field or None for Q(i)
        self.d = d                  # Scalar of base or below, as given; or None
        self.is_base = base is None
        self.depth = 0 if self.is_base else base.depth + 1
        self._size = 2 << self.depth    # ints in a numerator tuple
        # With d = D / m at _d's level (the shallowest), the tuples hold
        # coefficients of s' = m s, and _dv = m D is the tuple of s'^2.  A
        # Field keeps no Scalar of itself, so an unused tower is freed at once.
        if not self.is_base:
            self._d = lower(d)
            dv, self._m = _num(self._d)
            self._dv = tuple([self._m * t for t in dv])

    def __repr__(self):
        if self.is_base:
            return "Q(i)"
        return "%r(sqrt(%s))" % (self.base, self.d)

    # -- constructors ------------------------------------------------------

    def zero(self):
        if self.is_base:
            return Scalar(self, 0, 0, 1)
        return Scalar(self, (0,) * self._size, 1, None)

    def one(self):
        if self.is_base:
            return Scalar(self, 1, 0, 1)
        return Scalar(self, (1,) + (0,) * (self._size - 1), 1, None)

    def i(self):
        if self.is_base:
            return Scalar(self, 0, 1, 1)
        return self.lift(self.base.i())

    def generator(self):
        """The adjoined square root s at this level (s*s == d)."""
        if self.is_base:
            raise FieldError("Q(i) has no adjoined generator")
        return _join(self, self.base.zero(), self.base.one())

    def scalar(self, re, im=0):
        """Build a Scalar from rational data (int or Fraction), lifted up the tower."""
        if not self.is_base:
            return self.lift(QI.scalar(re, im))
        if re.__class__ is int and im.__class__ is int:
            return Scalar(self, re, im, 1)
        for v in (re, im):
            if not isinstance(v, (int, Fraction)):
                raise TypeError("expected int or Fraction, got %r" % (v,))
        d1, d2 = re.denominator, im.denominator
        return _qi(re.numerator * d2, im.numerator * d1, d1 * d2)

    def lift(self, x):
        """Embed a Scalar from an ancestor level into this field."""
        if x._field is self:
            return x
        if not x._field.ancestor_of(self):
            raise FieldError("cannot lift %.60r into %.60r" % (x, self))
        v, den = _num(x)
        return Scalar(self, v + (0,) * (self._size - len(v)), den, None)

    def ancestor_of(self, other):
        f = other
        while f is not None:
            if f is self:
                return True
            f = f.base
        return False

    # -- square roots ------------------------------------------------------

    def sqrt(self, x):
        """An exact square root of x in this field, or None.

        Square testing descends the tower through the norm map, so it is
        decidable at every level.
        """
        x = self.lift(x)
        if self.is_base:
            return _sqrt_qi(x)
        a, b = x.payload
        base = self.base
        if b.is_zero():
            r = base.sqrt(a)
            if r is not None:
                return self.lift(r)
            # x = a may also be d * (square): sqrt = r * s
            r = base.sqrt(a / self._d)
            if r is not None:
                return _join(self, base.zero(), r)
            return None
        # y = u + v s with 2uv = b, u^2 + d v^2 = a; norm descent:
        norm = a * a - self._d * b * b
        m = base.sqrt(norm)
        if m is None:
            return None
        for cand in ((a + m) / 2, (a - m) / 2):
            u = base.sqrt(cand)
            if u is not None and not u.is_zero():
                v = b / (u * 2)
                root = _join(self, u, v)
                if root * root == x:
                    return root
        return None


def is_principal_root(y):
    """Whether y is the square root of y*y that Field.sqrt returns, in any
    field holding y: exactly when the first nonzero int of y's numerator
    tuple is positive (True for y = 0).

    At Q(i), _sqrt_qi returns the root with positive real part, or positive
    imaginary part when the real part is 0, and the tuple is (re, im) over
    den > 0.  At level k write y = u0 + v0 s, so y*y = a + b s with
    a = u0^2 + d v0^2 and b = 2 u0 v0.  If v0 = 0, sqrt takes base.sqrt(a)
    = base.sqrt(u0^2).  If u0 = 0, a = d v0^2 is not a square below (d is
    not one), so sqrt returns base.sqrt(v0^2) s.  Otherwise the norm
    descent finds u^2 in {u0^2, d v0^2}; only u0^2 is a square below, so
    u = base.sqrt(u0^2) = +-u0 and v = b/(2u) = +-v0 with the same sign.
    So the root is y exactly when base.sqrt(u0^2) == u0, or
    base.sqrt(v0^2) == v0 when u0 = 0.  The tuple holds u0's numerators
    first and then v0's over positive factors (den, and m > 0 in s' = m s),
    so by induction its first nonzero int carries the sign.  A lift pads
    the tuple with zeros, which leaves the first nonzero int alone.
    """
    for t in _num(y)[0]:
        if t > 0:
            return True
        if t < 0:
            return False
    return True


def _sqrt_qi(x):
    re, im, den = x._x, x._y, x._den
    if im == 0:
        r = _rational_sqrt(re, den)
        if r is not None:
            return Scalar(QI, r[0], 0, r[1])
        r = _rational_sqrt(-re, den)
        if r is not None:
            return Scalar(QI, 0, r[0], r[1])   # (r*i)^2 = -r^2
        return None
    # |x| = m/den with m^2 = re^2 + im^2; u^2 = (re + m)/(2 den), v = im/(2 den u)
    m = isqrt(re * re + im * im)
    if m * m != re * re + im * im:
        return None
    u = _rational_sqrt(re + m, 2 * den)    # re + m > 0 since im != 0
    if u is None:
        return None
    un, ud = u
    # u + v i = (un 2 den un + im ud ud i) / (ud 2 den un)
    return _qi(2 * den * un * un, im * ud * ud, 2 * den * un * ud)


# (base, d) -> the Field adjoining sqrt(d) to base.  Weak values: a tower
# that no Scalar or caller references any more is freed and leaves the table.
_TOWERS = weakref.WeakValueDictionary()


def adjoin_sqrt(base: Field, d):
    """Adjoin a square root of d to base.

    Returns (field, root) with root*root == d inside field.  If d is already
    a square the base field itself is returned with the existing root.  The
    same (base, d) gives the same Field object while it is in use.  A new
    level past depth DEFAULT_TOWER_DEPTH raises ExtensionLimitError.
    """
    d = as_scalar(d, base)
    if d.is_zero():
        raise DegenerateExtensionError("cannot adjoin sqrt(0)")
    key = (base, d)
    ext = _TOWERS.get(key)
    if ext is None:                     # interned fields have non-square d
        existing = base.sqrt(d)
        if existing is not None:
            return base, existing
    if base.depth + 1 > DEFAULT_TOWER_DEPTH:
        raise ExtensionLimitError("tower depth %d would exceed cap %d"
                                  % (base.depth + 1, DEFAULT_TOWER_DEPTH))
    if ext is None:
        ext = Field(base, d)
        _TOWERS[key] = ext
    return ext, ext.generator()


def _qi(re: int, im: int, den: int):
    """The base-level Scalar (re + im*i)/den for den > 0, normalized."""
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
    return Scalar(QI, re, im, den)


def _num(x):
    """(numerators, den) of a Scalar: 2^(k+1) ints over one den at level k."""
    if x._den is None:
        return x._x, x._y
    return (x._x, x._y), x._den


def _flat(field, v, den):
    """The Scalar v / den of field for den > 0, reduced by one gcd."""
    if field.is_base:
        return _qi(v[0], v[1], den)
    g = gcd(*v, den) if den != 1 else 1
    if g != 1:
        return Scalar(field, tuple([t // g for t in v]), den // g, None)
    return Scalar(field, tuple(v), den, None)


def _deeper(f, g):
    """The deeper of two levels of one tower."""
    if f.depth > g.depth:
        f, g = g, f
    if f is not g and not f.ancestor_of(g):
        raise FieldError("scalars live in incompatible towers")
    return g


def _join(field, a, b):
    """a + b s = a + (b/m) s' in field for a, b in field.base."""
    (av, ad), (bv, bd) = _num(a), _num(b)
    bd *= field._m
    return _flat(field, [t * bd for t in av] + [t * ad for t in bv], ad * bd)


def _mul(f, X, Y):
    """The numerator tuple X Y (a list) for numerator tuples X, Y of level f.

    Above depth 1, of the four half products x u, y v, x v, y u of
    X = x + y s' and Y = u + v s', only those with both halves nonzero are
    formed: a lifted factor costs two products one level down, two pure
    multiples of s' one, and a zero factor none.
    """
    if f.is_base:
        (x0, x1), (y0, y1) = X, Y
        return [x0 * y0 - x1 * y1, x0 * y1 + x1 * y0]
    if f.depth == 1:    # unrolled: recursing here cost orbit_towers 17-20% of its ops/s
        (x0, x1, y0, y1), (u0, u1, v0, v1), (d0, d1) = X, Y, f._dv
        w0, w1 = y0 * v0 - y1 * v1, y0 * v1 + y1 * v0
        return [x0 * u0 - x1 * u1 + d0 * w0 - d1 * w1,
                x0 * u1 + x1 * u0 + d0 * w1 + d1 * w0,
                x0 * v0 - x1 * v1 + y0 * u0 - y1 * u1,
                x0 * v1 + x1 * v0 + y0 * u1 + y1 * u0]
    g = f.base
    n = len(X) >> 1
    x, y, u, v = X[:n], X[n:], Y[:n], Y[n:]
    ax, ay, au, av = any(x), any(y), any(u), any(v)
    low = _mul(g, x, u) if ax and au else [0] * n
    if ay and av:
        low = [a + b for a, b in zip(low, _blocks(f._d._field, f._dv, _mul(g, y, v)))]
    high = _mul(g, x, v) if ax and av else [0] * n
    if ay and au:
        high = [a + b for a, b in zip(high, _mul(g, y, u))]
    return low + high


def _blocks(f, A, Y):
    """The numerator tuple A Y (a list) for a numerator tuple A of level f and
    Y of f or a level above it: A times each block of Y, with no lift."""
    n = len(A)
    if n == len(Y):
        return _mul(f, A, Y)
    z = []
    for k in range(0, len(Y), n):
        z += _mul(f, A, Y[k:k + n])
    return z


class Scalar:
    """An element of a Field.  Immutable: the public attributes are read-only
    properties and no method writes a slot after __init__.  All arithmetic
    is exact.

    Build Scalars through Field (scalar, zero, one, i, generator, lift),
    parse_scalar and arithmetic.  The slots hold (re, im, den) ints at the
    base level and (v, den, None) above it, v the tuple of numerators.
    """

    __slots__ = ("_field", "_x", "_y", "_den")

    def __init__(self, field, x, y, den):
        self._field = field
        self._x = x
        self._y = y
        self._den = den

    @property
    def field(self):
        return self._field

    @property
    def payload(self):
        """Read-only view: (re, im) as reduced Fractions at the base level,
        (a, b) Scalars of field.base with x = a + b*s above it."""
        if self._den is None:
            f, v, den = self._field, self._x, self._y
            n = f._size >> 1
            return _flat(f.base, v[:n], den), _flat(f.base, [t * f._m for t in v[n:]], den)
        return Fraction(self._x, self._den), Fraction(self._y, self._den)

    @property
    def triple(self):
        """(re, im, den) of a base-level Scalar: x = (re + im*i)/den,
        den > 0 and gcd(re, im, den) = 1."""
        if self._den is None:
            raise FieldError("%r is not in Q(i)" % (self,))
        return self._x, self._y, self._den

    # -- coercion ----------------------------------------------------------

    def _pair(self, other):
        if other.__class__ is not Scalar:
            if isinstance(other, (int, Fraction)):
                return self, self._field.scalar(other)
            return None, None
        f, g = self._field, other._field
        if f is g:
            return self, other
        h = _deeper(f, g)
        return h.lift(self), h.lift(other)

    def _scale(self, n: int, d: int):
        """self * n/d for ints n and d > 0."""
        if self._den is None:
            return _flat(self._field, [t * n for t in self._x], self._y * d)
        return _qi(self._x * n, self._y * n, self._den * d)

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not any(self._x) if self._den is None else not self._x and not self._y

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if other.__class__ is Scalar and other._field is self._field:
            a, b = self, other
        else:
            try:
                a, b = self._pair(other)
            except FieldError:
                return False
            if a is None:
                return NotImplemented
        # both representations are canonical within one field
        return a._x == b._x and a._y == b._y and a._den == b._den

    def __hash__(self):
        if self._den is None:               # by the shallowest level, so a lift agrees
            low = lower(self)
            return hash(low) if low._den is not None else hash((low._x, low._y))
        h = hash(Fraction(self._x, self._den))
        if not self._y:
            return h
        return hash((h, hash(Fraction(self._y, self._den))))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is Scalar and other._field is self._field:
            a, b = self, other
        else:
            a, b = self._pair(other)
            if a is None:
                return NotImplemented
        ad, bd = a._den, b._den
        if ad is None:
            x, xd, y, yd = a._x, a._y, b._x, b._y
            if xd == yd:
                return _flat(a._field, [s + t for s, t in zip(x, y)], xd)
            return _flat(a._field, [s * yd + t * xd for s, t in zip(x, y)], xd * yd)
        if ad == bd:
            return _qi(a._x + b._x, a._y + b._y, ad)
        return _qi(a._x * bd + b._x * ad, a._y * bd + b._y * ad, ad * bd)

    __radd__ = __add__

    def __neg__(self):
        if self._den is None:
            return Scalar(self._field, tuple([-t for t in self._x]), self._y, None)
        return Scalar(self._field, -self._x, -self._y, self._den)

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a + -b

    def __rsub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return b - a

    def __mul__(self, other):
        if other.__class__ is Scalar and other._field is self._field:
            a, b = self, other
        elif other.__class__ is int:
            return self._scale(other, 1)
        elif other.__class__ is Scalar:     # two levels: blockwise, no lift
            (v, d), (w, e) = _num(self), _num(other)
            return _flat(*_times(self._field, v, other._field, w), d * e)
        else:
            a, b = self._pair(other)
            if a is None:
                return NotImplemented
        x, y, u, v = a._x, a._y, b._x, b._y
        if a._den is not None:
            return _qi(x * u - y * v, x * v + y * u, a._den * b._den)
        f = a._field
        return _flat(f, _mul(f, x, u), y * v)

    __rmul__ = __mul__

    def inverse(self):
        """1/x in x's field, computed at the level of lower(x): a value whose
        upper halves are zero is inverted there and lifted back.  Otherwise
        1/(a + b s) = (a - b s) / (a^2 - d b^2), d not a square below, with
        the norm a^2 - d b^2 inverted one level down by the same rule."""
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        x, y = self._x, self._y
        if self._den is None:
            f = self._field
            low = lower(self)
            if low is not self:
                return f.lift(low.inverse())
            n = f._size >> 1
            conj = x[:n] + tuple([-t for t in x[n:]])
            nv, nd = _num(_flat(f.base, _mul(f, x, conj)[:n], y * y).inverse())
            return _flat(f, _blocks(f.base, nv, conj), y * nd)
        return _qi(x * self._den, -y * self._den, x * x + y * y)

    def __truediv__(self, other):
        """self / other; a tower operand makes it self * other.inverse(),
        the inverse taken at other's own level and multiplied blockwise
        into the deeper of the two fields, as __mul__ does."""
        if other.__class__ is int:
            if not other:
                raise ZeroDivisionError("scalar division by zero")
            return self._scale(1, other) if other > 0 else self._scale(-1, -other)
        if other.__class__ is not Scalar:
            a, b = self._pair(other)
            return NotImplemented if a is None else a / b
        ad, bd = self._den, other._den
        if ad is None or bd is None:
            return self * other.inverse()
        # (x + y i)/ad / ((u + v i)/bd) = (x + y i)(u - v i) bd / (ad (u^2 + v^2))
        x, y, u, v = self._x, self._y, other._x, other._y
        n = u * u + v * v
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        return _qi((x * u + y * v) * bd, (y * u - x * v) * bd, ad * n)

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return b / a

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self._field.one()
        # square and multiply from the low bit; no product by one and no
        # square past the top bit
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- formatting ----------------------------------------------------------

    def __repr__(self):
        return format_scalar(self)


QI = Field(None, None)


# -- sums of products --------------------------------------------------------

def sum_of_products(terms, den=1, scale=None, lazy=False):
    """The exact sum of c x_1 ... x_k over the terms (c, x_1, ..., x_k) (a
    small int c, k >= 1), times the factor scale if one is given, over the
    positive int den; zero for no terms.  terms is a sequence.

    Each term's raw numerators (Gaussian integers, or tower numerator tuples
    multiplied blockwise across levels) are multiplied, terms with a zero
    factor are skipped, and the sum is taken over the lcm of the term
    denominators, multiplied by scale once and reduced once, in the deepest
    field of all the factors, zero ones included: one gcd per sum, where
    x*y*z + u*v with the operators reduces every product and every sum
    (Knuth, TAOCP 2, 4.5.1).  Other factors (ints, Polys) are multiplied
    and summed term by term (_sum_any).

    lazy=True marks a value used only as a factor of later sums: the base
    level skips its gcd (the later sum reduces), so it must never be
    compared, hashed or returned.  A tower reduces it anyway, since there
    unreduced numerators grow far faster than the gcd costs.
    """
    re = im = 0
    sd = 1
    try:
        for term in terms:
            x = term[1]
            tr, ti, d = x._x, x._y, x._den
            if d is None:
                break
            for x in term[2:]:
                xd = x._den
                if xd is None:
                    break
                xr, xi = x._x, x._y
                tr, ti = tr * xr - ti * xi, tr * xi + ti * xr
                d *= xd
            else:
                if not (tr or ti):
                    continue
                c = term[0]
                if c != 1:
                    tr, ti = tr * c, ti * c
                if d == sd:
                    re += tr
                    im += ti
                else:                   # over the lcm of the denominators
                    g = gcd(d, sd)
                    dg, eg = d // g, sd // g
                    re = re * dg + tr * eg
                    im = im * dg + ti * eg
                    sd *= dg
                continue
            break                       # a tower factor
        else:
            if scale is not None:
                xd = scale._den
                if xd is None:
                    return _sum_tower(terms, den, scale)
                xr, xi = scale._x, scale._y
                re, im = re * xr - im * xi, re * xi + im * xr
                sd *= xd
            return Scalar(QI, re, im, sd * den) if lazy else _qi(re, im, sd * den)
    except AttributeError:              # a factor is not a Scalar
        return _sum_any(terms, den, scale)
    return _sum_tower(terms, den, scale)   # a factor lies in a tower


def vanishes(terms):
    """Whether sum_of_products(terms) is zero: one zero test of the
    unreduced sum (is_zero reads the numerators alone)."""
    return sum_of_products(terms, lazy=True).is_zero()


def dot(xs, ys):
    """The exact sum of x_k * y_k over two equal-length sequences: the
    two-factor sum_of_products, which carries the matrix products,
    determinants and quiver maps of the other layers.  Two terms of
    base-level Scalars, most calls (2x2 matrices, vectors), take its
    base-level loop unrolled: both Gaussian products inline, summed over the
    lcm of their denominators, one _qi.  Everything else (towers, Polys,
    ints, more terms) goes to sum_of_products."""
    if len(xs) == 2:
        (x, u), (y, v) = xs, ys
        # the class first: dot also carries Polys
        if x.__class__ is u.__class__ is y.__class__ is v.__class__ is Scalar:
            d, e, yd, vd = x._den, u._den, y._den, v._den
            if d and e and yd and vd:   # a tower Scalar's _den is None
                xr, xi, yr, yi = x._x, x._y, y._x, y._y
                ur, ui, vr, vi = u._x, u._y, v._x, v._y
                d *= yd
                e *= vd
                re, im = xr * yr - xi * yi, xr * yi + xi * yr
                tr, ti = ur * vr - ui * vi, ur * vi + ui * vr
                if d == e:
                    return _qi(re + tr, im + ti, d)
                g = gcd(d, e)
                dg, eg = d // g, e // g
                return _qi(re * eg + tr * dg, im * eg + ti * dg, d * eg)
        return sum_of_products(((1, x, y), (1, u, v)))
    return sum_of_products([(1, x, y) for x, y in zip(xs, ys)])


def _times(f, v, g, w):
    """(level, numerators) of v w for numerator tuples v of level f and w of
    level g, one tower: a lower factor multiplies each block of the other."""
    if g is f:
        return f, _mul(f, v, w)
    if _deeper(f, g) is g:
        return g, _blocks(f, v, w)
    return f, _blocks(g, w, v)


def _sum_tower(terms, den, scale):
    """sum_of_products for Scalars of one tower, in its deepest field."""
    field, total, tden = QI, [], 1
    try:
        for term in terms:
            x = term[1]
            f = x._field
            v, d = _num(x)
            live = any(v)
            for x in term[2:]:
                if live and not x.is_zero():
                    xv, xd = _num(x)
                    f, v = _times(f, v, x._field, xv)
                    d *= xd
                else:
                    f, live = _deeper(f, x._field), False
            field = _deeper(field, f)
            if not live:
                continue
            if term[0] != 1:
                v = [term[0] * t for t in v]
            if not total:
                total, tden = list(v), d
                continue
            if d != tden:               # over the lcm of the denominators
                g = gcd(d, tden)
                dg, eg = d // g, tden // g
                total, v, tden = [t * dg for t in total], [t * eg for t in v], tden * dg
            total += [0] * (len(v) - len(total))
            total[:len(v)] = [s + t for s, t in zip(total, v)]
        total += [0] * (field._size - len(total))
        if scale is not None:
            if any(total):
                xv, xd = _num(scale)
                field, total = _times(field, total, scale._field, xv)
                tden *= xd
            else:
                field = _deeper(field, scale._field)
                total = [0] * field._size
    except AttributeError:              # a factor is not a Scalar
        return _sum_any(terms, den, scale)
    return _flat(field, total, tden * den)


def _sum_any(terms, den, scale):
    """sum_of_products with Scalar, int and Poly arithmetic: a coefficient
    of +-1 costs no product, another int scales each coefficient, and den
    divides each coefficient (a Poly's by its own __mul__ and __truediv__)."""
    total = None
    for term in terms:
        t = term[1]
        for x in term[2:]:
            t = t * x
        c = term[0]
        if c == -1:
            t = -t
        elif c != 1:
            t = t * c
        total = t if total is None else total + t
    if total is None:
        total = 0
    if scale is not None:
        total = total * scale
    if den == 1:
        return total
    return Fraction(total, den) if isinstance(total, (int, Fraction)) else total / den


# -- serialization -----------------------------------------------------------

def _format_rational(n: int, d: int) -> str:
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else "%d/%d" % (n, d)


def format_scalar(x: Scalar) -> str:
    """Base level: "a/b+c/d*i".  Tower levels: "(a)+(b)*s{k}"."""
    if x.field.is_base:
        re, im, den = x.triple
        if im == 0:
            return _format_rational(re, den)
        if re == 0:
            return "%s*i" % _format_rational(im, den)
        sign = "+" if im > 0 else "-"
        return "%s%s%s*i" % (_format_rational(re, den), sign,
                             _format_rational(abs(im), den))
    a, b = x.payload
    if b.is_zero():
        return format_scalar(a)
    return "(%s)+(%s)*s%d" % (format_scalar(a), format_scalar(b), x.field.depth)


# one signed term: [+-]digits[/digits], optionally followed by "*i" or "i",
# or a bare "i"
_TERM = re.compile(r"([+-]?)(?:([0-9]+)(?:/([0-9]+))?(\*?i)?|(i))")
_SPLIT_DIGITS = re.compile(r"[0-9] +[0-9]")


def parse_scalar(text: str) -> Scalar:
    """Parse the base-level string format "a/b+c/d*i".

    The text is a sum of terms, each [+-]digits[/digits] optionally followed
    by "*i" or "i", or a bare "i"; every term after the first starts with
    its sign.  Spaces are ignored, except that a space between two digits
    ("1 2") is an error rather than one number.  Anything else, and a zero
    denominator, raises ValueError; parse time is polynomial in the length
    of the text.
    """
    if " " in text and _SPLIT_DIGITS.search(text):
        raise ValueError("space inside a number in scalar %.60r" % (text,))
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    re_, im, den = 0, 0, 1
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or (pos and not m.group(1)):
            raise ValueError("malformed scalar %.60r" % (text,))
        sign, num, dnm, unit, bare = m.groups()
        n = 1 if bare else int(num)
        d = int(dnm) if dnm else 1
        if not d:
            raise ValueError("zero denominator in scalar %.60r" % (text,))
        if sign == "-":
            n = -n
        if unit or bare:
            re_, im = re_ * d, im * d + n * den
        else:
            re_, im = re_ * d + n * den, im * d
        den *= d
        pos = m.end()
    return _qi(re_, im, den)


def scalar_to_json(x: Scalar):
    """JSON form: base-level scalars as strings, tower elements as
    {"gens": [...], "coeffs": [...]} against the declared generators."""
    if x.field.is_base:
        return format_scalar(x)
    gens = []
    f = x.field
    while not f.is_base:
        gens.append(scalar_to_json(f.d))
        f = f.base
    gens.reverse()

    def unfold(s):
        if s.field.is_base:
            return format_scalar(s)
        return [unfold(half) for half in s.payload]

    return {"gens": gens, "coeffs": unfold(x)}


def scalar_from_json(data, field: Field = QI) -> Scalar:
    """Inverse of scalar_to_json.  A string is lifted into field; a tower
    dict lives in the tower its generators name.  Anything that is not the
    JSON form of a scalar raises ValueError."""
    if isinstance(data, str):
        return field.lift(parse_scalar(data))
    if (not isinstance(data, dict) or not isinstance(data.get("gens"), list)
            or "coeffs" not in data):
        raise ValueError("a scalar is a string or {\"gens\": [...], \"coeffs\": ...}")
    gens = data["gens"]
    f = QI
    for g in gens:
        inner = g.get("gens") if isinstance(g, dict) else None
        if isinstance(inner, list) and len(inner) > f.depth:
            # checked before recursing, so nesting depth stays within the tower
            raise ValueError("tower generator names more generators than precede it")
        d = scalar_from_json(g, f)
        if not d.field.ancestor_of(f):
            raise ValueError("tower generator %.60r is not in the tower below it" % (g,))
        if d.is_zero():
            raise ValueError("tower generator sqrt(0) is degenerate")
        try:
            ext, _ = adjoin_sqrt(f, d)
        except ExtensionLimitError as err:
            raise ValueError(str(err)) from None
        if ext is f:
            raise ValueError("tower generator %.60r is a square" % (g,))
        f = ext

    def fold(coeffs, fld):
        if isinstance(coeffs, str):
            return fld.lift(parse_scalar(coeffs))
        if fld.is_base:
            raise ValueError("tower coeffs nest deeper than its %d generators"
                             % len(gens))
        if not isinstance(coeffs, list) or len(coeffs) != 2:
            raise ValueError("tower coeffs must be pairs, got %.60r" % (coeffs,))
        return _join(fld, fold(coeffs[0], fld.base), fold(coeffs[1], fld.base))

    return fold(data["coeffs"], f)


def lower(x: Scalar) -> Scalar:
    """The same value in the shallowest tower level that contains it."""
    f, v = x._field, x._x
    while not f.is_base and not any(v[f._size >> 1:f._size]):
        f = f.base
    if f is x._field:
        return x
    return Scalar(f, v[0], v[1], x._y) if f.is_base else Scalar(f, v[:f._size], x._y, None)


def deepest_field(values) -> Field:
    """The deepest tower level among the fields of the values (Q(i) for none)."""
    field = QI
    for x in values:
        if x.field.depth > field.depth:
            field = x.field
    return field


def as_scalar(x, field: Field = QI) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return field.scalar(x)
    raise TypeError("cannot convert %r to Scalar" % (x,))
