"""Exact scalar arithmetic: Gaussian rationals and quadratic extension towers.

Every number in this package is a Scalar: an element of Q(i) or of a tower
Q(i)(sqrt(d1))(sqrt(d2))... built with adjoin_sqrt.  All operations are exact
(fractions.Fraction underneath) and zero-testing is decidable at every level.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class FieldError(Exception):
    pass


class DegenerateExtensionError(FieldError):
    """Raised when asked to adjoin sqrt(0)."""


class ExtensionLimitError(FieldError):
    """Raised when a computation would exceed the tower depth cap."""


DEFAULT_TOWER_DEPTH = 4


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def _rational_sqrt(f: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class Field:
    """A level of the extension tower.

    The base level is Q(i).  Each further level adjoins a square root of a
    non-square element d of the level below.
    """

    _BASE = None

    def __init__(self, base, d):
        self.base = base            # Field or None for Q(i)
        self.d = d                  # Scalar in base, or None
        self.depth = 0 if base is None else base.depth + 1

    @classmethod
    def gaussian_rationals(cls):
        if cls._BASE is None:
            cls._BASE = cls(None, None)
        return cls._BASE

    @property
    def is_base(self):
        return self.base is None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        if self.is_base or other.is_base:
            return self.is_base and other.is_base
        return self.base == other.base and self.d == other.d

    def __hash__(self):
        if self.is_base:
            return hash(("QI",))
        return hash((self.base, self.d))

    def __repr__(self):
        if self.is_base:
            return "Q(i)"
        return "%r(sqrt(%s))" % (self.base, self.d)

    # -- constructors ------------------------------------------------------

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def i(self):
        if self.is_base:
            return Scalar(self, (Fraction(0), Fraction(1)))
        return self.lift(self.base.i())

    def generator(self):
        """The adjoined square root s at this level (s*s == d)."""
        if self.is_base:
            raise FieldError("Q(i) has no adjoined generator")
        return Scalar(self, (self.base.zero(), self.base.one()))

    def scalar(self, re, im=0):
        """Build a Scalar from rational data (lifted up the tower)."""
        if self.is_base:
            return Scalar(self, (_frac(re), _frac(im)))
        return self.lift(self.base.scalar(re, im))

    def lift(self, x):
        """Embed a Scalar from an ancestor level into this field."""
        if x.field == self:
            return x
        if self.is_base:
            raise FieldError("cannot lift %r into Q(i)" % (x,))
        return Scalar(self, (self.base.lift(x), self.base.zero()))

    def ancestor_of(self, other):
        f = other
        while f is not None:
            if f == self:
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
            return _sqrt_qi(self, x)
        a, b = x.payload
        base = self.base
        if b.is_zero():
            r = base.sqrt(a)
            if r is not None:
                return self.lift(r)
            # x = a may also be d * (square): sqrt = r * s
            r = base.sqrt(a / self.d)
            if r is not None:
                return Scalar(self, (base.zero(), r))
            return None
        # y = u + v s with 2uv = b, u^2 + d v^2 = a; norm descent:
        norm = a * a - self.d * b * b
        m = base.sqrt(norm)
        if m is None:
            return None
        for cand in ((a + m) / 2, (a - m) / 2):
            u = base.sqrt(cand)
            if u is not None and not u.is_zero():
                v = b / (u * 2)
                root = Scalar(self, (u, v))
                if root * root == x:
                    return root
        return None


def _sqrt_qi(field, x):
    re, im = x.payload
    if im == 0:
        r = _rational_sqrt(re)
        if r is not None:
            return Scalar(field, (r, Fraction(0)))
        r = _rational_sqrt(-re)
        if r is not None:
            return Scalar(field, (Fraction(0), r))   # (r*i)^2 = -r^2
        return None
    m = _rational_sqrt(re * re + im * im)
    if m is None:
        return None
    u2 = (re + m) / 2
    u = _rational_sqrt(u2)
    if u is None or u == 0:
        return None
    v = im / (2 * u)
    return Scalar(field, (u, v))


QI = Field.gaussian_rationals()


def adjoin_sqrt(base: Field, d, max_depth: int = DEFAULT_TOWER_DEPTH):
    """Adjoin a square root of d to base.

    Returns (field, root) with root*root == d inside field.  If d is already
    a square the base field itself is returned with the existing root.
    """
    d = as_scalar(d, base)
    if d.is_zero():
        raise DegenerateExtensionError("cannot adjoin sqrt(0)")
    existing = base.sqrt(d)
    if existing is not None:
        return base, existing
    if base.depth + 1 > max_depth:
        raise ExtensionLimitError(
            "tower depth %d would exceed cap %d" % (base.depth + 1, max_depth)
        )
    ext = Field(base, d)
    return ext, ext.generator()


class Scalar:
    """An element of a Field.  Immutable; all arithmetic exact."""

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- coercion ----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return None, None
        if self.field == other.field:
            return self, other
        if self.field.ancestor_of(other.field):
            return other.field.lift(self), other
        if other.field.ancestor_of(self.field):
            return self, self.field.lift(other)
        raise FieldError("scalars live in incompatible towers")

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        if self.field.is_base:
            re, im = self.payload
            return re == 0 and im == 0
        a, b = self.payload
        return a.is_zero() and b.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except FieldError:
            return False
        if a is None:
            return NotImplemented
        return (a - b).is_zero()

    def __hash__(self):
        if self.field.is_base:
            re, im = self.payload
            if im == 0:
                return hash(re)
            return hash((re, im))
        a, b = self.payload
        if b.is_zero():
            return hash(a)
        return hash((a, b))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Scalar(a.field, (a.payload[0] + b.payload[0],
                                a.payload[1] + b.payload[1]))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, (-self.payload[0], -self.payload[1]))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return b + (-a)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if a.field.is_base:
            x, y = a.payload
            u, v = b.payload
            return Scalar(a.field, (x * u - y * v, x * v + y * u))
        x, y = a.payload
        u, v = b.payload
        d = a.field.d
        return Scalar(a.field, (x * u + d * y * v, x * v + y * u))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.field.is_base:
            re, im = self.payload
            n = re * re + im * im
            return Scalar(self.field, (re / n, -im / n))
        a, b = self.payload
        d = self.field.d
        n = a * a - d * b * b   # nonzero since d is not a square below
        ninv = n.inverse()
        return Scalar(self.field, (a * ninv, -b * ninv))

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return b * a.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- formatting ----------------------------------------------------------

    def __repr__(self):
        return format_scalar(self)


# -- serialization -----------------------------------------------------------

def format_scalar(x: Scalar) -> str:
    """Base level: "a/b+c/d*i".  Tower levels: "(a)+(b)*s{k}"."""
    if x.field.is_base:
        re, im = x.payload
        if im == 0:
            return str(re)
        if re == 0:
            return "%s*i" % (im,)
        sign = "+" if im > 0 else "-"
        return "%s%s%s*i" % (re, sign, abs(im))
    a, b = x.payload
    if b.is_zero():
        return format_scalar(a)
    return "(%s)+(%s)*s%d" % (format_scalar(a), format_scalar(b), x.field.depth)


def parse_scalar(text: str, field: Field = QI) -> Scalar:
    """Parse the base-level string format "a/b+c/d*i"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    re = Fraction(0)
    im = Fraction(0)
    # split into signed terms
    terms = []
    cur = ""
    for k, ch in enumerate(s):
        if ch in "+-" and k > 0 and s[k - 1] not in "+-/*":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    for t in terms:
        if not t:
            continue
        if t in ("i", "+i"):
            im += 1
        elif t == "-i":
            im -= 1
        elif t.endswith("*i"):
            im += Fraction(t[:-2])
        elif t.endswith("i"):
            im += Fraction(t[:-1])
        else:
            re += Fraction(t)
    return field.scalar(re, im)


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
        a, b = s.payload
        return [unfold(a), unfold(b)]

    return {"gens": gens, "coeffs": unfold(x)}


def scalar_from_json(data, field: Field = QI) -> Scalar:
    if isinstance(data, str):
        return field.lift(parse_scalar(data))
    gens = data["gens"]
    f = QI
    for g in gens:
        f, _ = adjoin_sqrt(f, scalar_from_json(g, f))

    def fold(coeffs, fld):
        if isinstance(coeffs, str):
            return fld.lift(parse_scalar(coeffs))
        a = fold(coeffs[0], fld.base)
        b = fold(coeffs[1], fld.base)
        return Scalar(fld, (a, b))

    return fold(data["coeffs"], f)


def lower(x: Scalar) -> Scalar:
    """The same value in the shallowest tower level that contains it."""
    while not x.field.is_base:
        a, b = x.payload
        if not b.is_zero():
            return x
        x = a
    return x


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
    if isinstance(x, str):
        return parse_scalar(x, field)
    raise TypeError("cannot convert %r to Scalar" % (x,))
