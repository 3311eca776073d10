"""Tiny exact linear algebra: 2-vectors, 2x2 and 3x3 matrices of Scalars, stored
as given; outside data is converted where it enters (PointHV.make,
GroupElement.make, S3Point.make, the JSON readers).  Each entry of a product
and each determinant is one scalars.dot, so it is reduced once."""

from __future__ import annotations

from .scalars import QI, dot


class Vec2:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __iter__(self):
        yield self.a
        yield self.b

    def __eq__(self, other):
        return isinstance(other, Vec2) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        return Vec2(self.a + other.a, self.b + other.b)

    def scale(self, c):
        return Vec2(self.a * c, self.b * c)

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def wedge(self, other):
        """Signed area a1*b2 - a2*b1."""
        return dot((self.a, self.b), (other.b, -other.a))

    def __repr__(self):
        return "Vec2(%r, %r)" % (self.a, self.b)


class Mat2:
    """2x2 matrix, row-major entries (a b / c d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @staticmethod
    def identity():
        one, zero = QI.one(), QI.zero()
        return Mat2(one, zero, zero, one)

    @staticmethod
    def diagonal(u, v):
        return Mat2(u, QI.zero(), QI.zero(), v)

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __add__(self, other):
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            top, bottom = (self.a, self.b), (self.c, self.d)
            left, right = (other.a, other.c), (other.b, other.d)
            return Mat2(dot(top, left), dot(top, right),
                        dot(bottom, left), dot(bottom, right))
        if isinstance(other, Vec2):
            v = (other.a, other.b)
            return Vec2(dot((self.a, self.b), v), dot((self.c, self.d), v))
        return NotImplemented

    def scale(self, c):
        return Mat2(self.a * c, self.b * c, self.c * c, self.d * c)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self):
        return dot((self.a, self.b), (self.d, -self.c))

    def adjugate(self):
        return Mat2(self.d, -self.b, -self.c, self.a)

    def inverse(self):
        dt = self.det()
        if dt.is_zero():
            raise ZeroDivisionError("singular 2x2 matrix")
        inv = dt.inverse()
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def trace(self):
        return self.a + self.d

    def is_zero(self):
        return all(x.is_zero() for x in (self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "Mat2(%r, %r, %r, %r)" % (self.a, self.b, self.c, self.d)


class Mat3:
    """3x3 matrix stored as a tuple of 3 row tuples of Scalars."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise ValueError("Mat3 needs 3x3 entries")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat3) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __sub__(self, other):
        return Mat3([[self[i, j] - other[i, j] for j in range(3)] for i in range(3)])

    def __mul__(self, other):
        if isinstance(other, Mat3):
            cols = tuple(zip(*other.rows))
            return Mat3([[dot(row, col) for col in cols] for row in self.rows])
        return Mat3([[self[i, j] * other for j in range(3)] for i in range(3)])

    def det(self):
        """Expansion along the first row, each minor one dot."""
        (a, b, c), (d, e, f), (g, h, k) = self.rows
        return dot((a, b, c), (dot((e, f), (k, -h)), dot((f, d), (g, -k)),
                               dot((d, e), (h, -g))))

    def __repr__(self):
        return "Mat3(%r)" % (self.rows,)


def sym_square(g: Mat2) -> Mat3:
    """Induced action of g on Sym^2 V in the ordered basis (e1^2, e1e2, e2^2).

    Functorial (sym_square(gh) == sym_square(g)*sym_square(h)) and
    det(sym_square(g)) == det(g)^3.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    return Mat3([
        [a * a, a * b, b * b],
        [a * c * 2, dot((a, b), (d, c)), b * d * 2],
        [c * c, c * d, d * d],
    ])
