"""GIT data in fixed coordinates: points of H x V, the group, its action.

Coordinates.  A point of H x V is (a1, a2, a3, beta, B1, B2, B3, x) where
each B_i is a triple (p, q, r) of coefficients of the quadratic form
    Q_i(v) = p*v1^2 + q*v1*v2 + r*v2^2
on V in the fixed basis, the a_i and beta are scalars after trivializing all
line bundles, and x is a vector of V.  The group is (C*)^3 x GL_2 acting by

    a_i  ->  det(g) * t_i^-2 * a_i
    beta ->  t1 t2 t3 * det(g)^-2 * beta
    B_i  ->  t_i * (B_i o Sym^2(g)^-1)
    x    ->  g x

These formulas reproduce the reference torus weight table exactly (see
weight_table), which is the convention anchor for the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .linalg import Mat2, Mat3, Vec2, sym_square
from .scalars import (
    QI, Scalar, adjoin_sqrt, as_scalar, deepest_field, dot,
    scalar_from_json, scalar_to_json, sum_of_products,
)


def _triple(t):
    p, q, r = t
    return (as_scalar(p), as_scalar(q), as_scalar(r))


def _vector(x):
    """x if it is a Vec2, else the pair (x1, x2) as a Vec2 of Scalars."""
    return x if isinstance(x, Vec2) else Vec2(*map(as_scalar, x))


@dataclass(frozen=True)
class PointHV:
    """A point (a1, a2, a3, beta, B, x) of H x V.

    It keeps two values, neither of them a field: _residuals, filled by
    equations.residuals on first use, and _open_locus, filled by
    equations.open_locus_det.  So they take no part in ==, hash, repr or
    point_to_json, and a point built afresh from equal coordinates starts
    without them.
    """

    alpha: tuple          # (a1, a2, a3)
    beta: Scalar
    B: tuple              # (B1, B2, B3), each a (p, q, r) triple
    x: Vec2
    _residuals = None
    _open_locus = None

    @staticmethod
    def make(alpha, beta, B, x=(0, 0)):
        alpha = tuple(as_scalar(a) for a in alpha)
        beta = as_scalar(beta)
        B = tuple(_triple(b) for b in B)
        return PointHV(alpha, beta, B, _vector(x))

    def with_x(self, x):
        q = PointHV(self.alpha, self.beta, self.B, _vector(x))
        # the equations and det B do not involve x, so both kept values carry over
        object.__setattr__(q, "_residuals", self._residuals)
        object.__setattr__(q, "_open_locus", self._open_locus)
        return q

    def coords(self):
        """The 13 H-coordinates in table order: a1 a2 a3 beta B1 B2 B3."""
        flat = list(self.alpha) + [self.beta]
        for b in self.B:
            flat.extend(b)
        return tuple(flat)

    def same_h_part(self, other: "PointHV") -> bool:
        """Equal (alpha, beta, B); x is ignored."""
        return (self.alpha == other.alpha and self.beta == other.beta
                and self.B == other.B)


@dataclass(frozen=True)
class GroupElement:
    """(t1, t2, t3, g) with all t_i nonzero and g invertible.

    make is the one validating constructor, for data from outside; identity,
    compose and inverse build their results directly, since a product or
    inverse of invertible elements is invertible.
    """

    t: tuple              # (t1, t2, t3)
    g: Mat2

    @staticmethod
    def make(t, g):
        t = tuple(as_scalar(s) for s in t)
        if any(s.is_zero() for s in t):
            raise ValueError("torus coordinates must be nonzero")
        if g.det().is_zero():
            raise ValueError("GL2 part must be invertible")
        return GroupElement(t, g)

    @staticmethod
    def identity():
        return GroupElement((QI.one(),) * 3, Mat2.identity())

    def compose(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            tuple(a * b for a, b in zip(self.t, other.t)), self.g * other.g
        )

    __mul__ = compose

    def inverse(self) -> "GroupElement":
        return GroupElement(tuple(s.inverse() for s in self.t), self.g.inverse())


def form_matrix(g: Mat2) -> Mat3:
    """The 3x3 matrix of Q -> Q o g on coefficient triples (p, q, r).

    It is sym_square of the transpose of g, so form_matrix(g h) ==
    form_matrix(h) * form_matrix(g).
    """
    return sym_square(Mat2(g.a, g.c, g.b, g.d))


def apply_form_matrix(M: Mat3, triple):
    """The triple M (p, q, r)."""
    return tuple(dot(row, triple) for row in M.rows)


def pairing_terms(u, v):
    """The sum_of_products terms of 2 j(u, v) = 2 p_u r_v + 2 r_u p_v - q_u q_v,
    twice the invariant pairing of two form triples (the polarized
    discriminant: -2 j(f, f) is the discriminant q^2 - 4 p r of f).  The
    one place the pairing is written: equations.j_pairing, the E2 entries of
    equations.residual_entries and split_form's discriminant sum it."""
    pu, qu, ru = u
    pv, qv, rv = v
    return ((2, pu, rv), (2, ru, pv), (-1, qu, qv))


def split_form(triple, field):
    """(field', T) with the columns of T the two root directions of the
    binary form Q with the given triple, so that Q o T is a multiple of v1 v2.

    field' is field, extended by the square root of the discriminant when it
    has none.  Returns None for a square form (zero discriminant), before any
    root is taken.
    """
    p, q, r = triple
    disc = -sum_of_products(pairing_terms(triple, triple))
    if disc.is_zero():
        return None
    if p.is_zero():
        return field, Mat2(QI.one(), -r / q, QI.zero(), QI.one())
    field, root = adjoin_sqrt(field, disc)
    return field, Mat2((-q + root) / (p * 2), (-q - root) / (p * 2),
                       field.one(), field.one())


def act(h: GroupElement, p: PointHV) -> PointHV:
    """The group action on H x V; act(h1, act(h2, p)) == act(h1*h2, p).

    det g and the t_i are inverted once each, and every output coordinate
    is one reduced sum_of_products.  B_i o Sym^2(g)^-1 is written with the
    quadratic monomials of the adjugate (d, -b; -c, a) of g = (a b; c d),
    and t_i / det^2 scales each sum; those factors are shared lazily, so no
    form matrix is built and none is reduced at the base level.
    """
    g = h.g
    a, b, c, d = g.a, g.b, g.c, g.d
    det = g.det()
    di = det.inverse()
    dd, dc, cc, db, ca, da_cb, bb, ba, aa, di2 = (
        sum_of_products(terms, lazy=True) for terms in (
            ((1, d, d),), ((1, d, c),), ((1, c, c),), ((2, d, b),), ((2, c, a),),
            ((1, d, a), (1, c, b)), ((1, b, b),), ((1, b, a),), ((1, a, a),),
            ((1, di, di),)))
    alpha = []
    B = []
    for t, ai, (pi, qi, ri) in zip(h.t, p.alpha, p.B):
        u = t.inverse()
        alpha.append(sum_of_products(((1, ai, det, u, u),)))
        s = sum_of_products(((1, t, di2),), lazy=True)
        B.append((
            sum_of_products(((1, pi, dd), (-1, qi, dc), (1, ri, cc)), scale=s),
            sum_of_products(((-1, pi, db), (1, qi, da_cb), (-1, ri, ca)), scale=s),
            sum_of_products(((1, pi, bb), (-1, qi, ba), (1, ri, aa)), scale=s)))
    t1, t2, t3 = h.t
    beta = sum_of_products(((1, p.beta, t1, t2, t3, di2),))
    return PointHV(tuple(alpha), beta, tuple(B), g * p.x)


# -- characters and cocharacters ---------------------------------------------

@dataclass(frozen=True)
class Character:
    """(theta1, theta2, theta3, theta4): exponents of L1, L2, L3, det V."""

    theta: tuple


THETA = Character((1, 1, 1, 1))
MINUS_THETA = Character((-1, -1, -1, -1))


@dataclass(frozen=True)
class Cocharacter:
    """(a1, a2, a3; w1, w2): torus exponents for the three lines and for the
    diagonal torus of GL(V) in a chosen basis."""

    a: tuple              # (a1, a2, a3)
    w: tuple              # (w1, w2)
    name: str = ""

    def group_element(self, s: Scalar) -> GroupElement:
        """The group element at parameter value s (s nonzero)."""
        t = tuple(s ** k for k in self.a)
        g = Mat2.diagonal(s ** self.w[0], s ** self.w[1])
        return GroupElement.make(t, g)

    def __add__(self, other):
        return Cocharacter(
            tuple(u + v for u, v in zip(self.a, other.a)),
            tuple(u + v for u, v in zip(self.w, other.w)),
        )

    def scaled(self, k: int):
        return Cocharacter(tuple(k * u for u in self.a), tuple(k * u for u in self.w))


LAMBDA = (
    Cocharacter((1, 0, 0), (0, 0), "lambda1"),
    Cocharacter((0, 1, 0), (0, 0), "lambda2"),
    Cocharacter((0, 0, 1), (0, 0), "lambda3"),
)
MU = Cocharacter((0, 0, 0), (0, 1), "mu")


def pair(chi: Character, lam: Cocharacter) -> int:
    """Pairing <chi, lam> = theta1 a1 + theta2 a2 + theta3 a3 + theta4 (w1+w2)."""
    t1, t2, t3, t4 = chi.theta
    return t1 * lam.a[0] + t2 * lam.a[1] + t3 * lam.a[2] + t4 * (lam.w[0] + lam.w[1])


# -- weights ------------------------------------------------------------------

def _log2_rational(x: Scalar) -> int:
    """x must be an exact power of 2 in Q; returns the exponent."""
    n, im, d = x.triple
    if im != 0 or n <= 0 or n & (n - 1) or d & (d - 1):
        raise ValueError("not a positive rational power of 2")
    return n.bit_length() - d.bit_length()


@cache
def _generic_point():
    # all 13 coordinates distinct powers of 3, so weights separate cleanly
    vals = [QI.scalar(3) ** k for k in range(1, 14)]
    return PointHV.make(
        vals[0:3], vals[3],
        (vals[4:7], vals[7:10], vals[10:13]),
        (1, 1),
    )


@cache
def coordinate_weights(lam: Cocharacter):
    """Weights of the 13 H-coordinates under the 1-parameter subgroup lam,
    computed once from the action formulas (evaluated at parameter 2)."""
    p = _generic_point()
    h = lam.group_element(QI.scalar(2))
    q = act(h, p)
    base = p.coords()
    moved = q.coords()
    return tuple(_log2_rational(m / b) for m, b in zip(moved, base))


WEIGHT_TABLE_ROWS = (
    ("lambda1", LAMBDA[0]),
    ("lambda2", LAMBDA[1]),
    ("lambda3", LAMBDA[2]),
    ("mu", MU),
    ("mu+lambda1", MU + LAMBDA[0]),
    ("mu+lambda1+lambda2", MU + LAMBDA[0] + LAMBDA[1]),
    ("2mu+lambda1+lambda2+lambda3", MU.scaled(2) + LAMBDA[0] + LAMBDA[1] + LAMBDA[2]),
)


def weight_table():
    """All seven reference rows of coordinate weights, keyed by row name.

    Each row is the 13-tuple of weights of (a1, a2, a3, beta, B1, B2, B3)
    with each B_i contributing its (p, q, r) weights in order.
    """
    return {name: coordinate_weights(lam) for name, lam in WEIGHT_TABLE_ROWS}


# -- JSON ---------------------------------------------------------------------

def point_to_json(p: PointHV) -> dict:
    return {
        "alpha": [scalar_to_json(a) for a in p.alpha],
        "beta": scalar_to_json(p.beta),
        "B": [[scalar_to_json(c) for c in b] for b in p.B],
        "x": [scalar_to_json(p.x.a), scalar_to_json(p.x.b)],
    }


def point_from_json(data) -> PointHV:
    """Inverse of point_to_json; raises ValueError for anything else."""
    def seq(value, n):
        return isinstance(value, list) and len(value) == n

    if (not isinstance(data, dict) or not seq(data.get("alpha"), 3)
            or "beta" not in data or not seq(data.get("B"), 3)
            or not all(seq(b, 3) for b in data["B"]) or not seq(data.get("x"), 2)):
        raise ValueError("a point has 3 alpha, 3 B triples and 2 x coordinates")
    alpha = tuple(scalar_from_json(a) for a in data["alpha"])
    beta = scalar_from_json(data["beta"])
    B = tuple(tuple(scalar_from_json(c) for c in b) for b in data["B"])
    x = Vec2(scalar_from_json(data["x"][0]), scalar_from_json(data["x"][1]))
    p = PointHV(alpha, beta, B, x)
    values = p.coords() + (x.a, x.b)
    deepest = deepest_field(values)
    if not all(v.field.ancestor_of(deepest) for v in values):
        raise ValueError("the scalars of a point must lie in one tower")
    return p


def group_to_json(h: GroupElement) -> dict:
    return {
        "t": [scalar_to_json(s) for s in h.t],
        "g": [[scalar_to_json(h.g.a), scalar_to_json(h.g.b)],
              [scalar_to_json(h.g.c), scalar_to_json(h.g.d)]],
    }

