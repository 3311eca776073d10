"""The framed affine-D4 quiver: representations from points of H x V,
preprojective relations, King stability.

Dimension vector (1; 2; 1, 1, 1): a framing line, the central V, and three
leg lines.  From a point (a, beta, B, x) we set

    E0 = x
    D0 = (omega/4) * (x, -)      with (x, -)(v) = x1 v2 - x2 v1
    D_i = B_i(x, -)              (half-polarization of the form triple)
    E_i = a_i * iota(D_i)        with iota(a, b) = (-b, a)

The omega/4 coefficient is the unique one making the central relation equal
the first defining equation contracted at x (exactly); see equations.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equations import omega_of
from .gitcore import PointHV
from .linalg import Mat2, Vec2
from .scalars import Scalar, dot, sum_of_products


@dataclass(frozen=True)
class Covector:
    """A linear functional on V, stored as the coefficient pair (a, b)."""

    a: Scalar
    b: Scalar

    def __call__(self, v: Vec2) -> Scalar:
        return dot((self.a, self.b), (v.a, v.b))

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def dual_vector(self) -> Vec2:
        """The fixed identification V^* (x) det V = V: (a, b) -> (-b, a)."""
        return Vec2(-self.b, self.a)


@dataclass(frozen=True)
class QuiverRep:
    """The eight linear maps of the framed quiver."""

    E0: Vec2
    D0: Covector
    D: tuple              # (D1, D2, D3) covectors V -> L_i
    E: tuple              # (E1, E2, E3) vectors L_i -> V


def form_contraction(triple, x: Vec2) -> Covector:
    """B(x, -) for the quadratic form triple (p, q, r)."""
    p, q, r = triple
    h = q / 2
    v = (x.a, x.b)
    return Covector(dot((p, h), v), dot((h, r), v))


def build_rep(p: PointHV) -> QuiverRep:
    """The representation attached to a point of H x V (defined everywhere):
    the maps of the module docstring, with D0 two sums over a lazy omega."""
    x = p.x
    om = omega_of(p.alpha, p.beta, lazy=True)       # D0 = (omega/4)(x, -)
    D0 = Covector(sum_of_products(((-1, om, x.b),), 4),
                  sum_of_products(((1, om, x.a),), 4))
    D = tuple(form_contraction(b, x) for b in p.B)
    E = tuple(Dc.dual_vector().scale(a) for a, Dc in zip(p.alpha, D))
    return QuiverRep(x, D0, D, E)


def preprojective_residual(rep: QuiverRep):
    """(leg residuals D_i E_i for i = 1, 2, 3; central 2x2 residual).

    The central residual is sum_i E_i D_i - E0 D0; it is trace-free for every
    representation built from a point of H x V, and vanishes exactly on Z x V.
    """
    legs = tuple(Dc(Ev) for Dc, Ev in zip(rep.D, rep.E))
    # entry (r, c) is sum_i E_i[r] D_i[c] - E0[r] D0[c], one dot
    E = rep.E + (rep.E0,)
    D = rep.D + (Covector(-rep.D0.a, -rep.D0.b),)
    rows = [tuple(Ev.a for Ev in E), tuple(Ev.b for Ev in E)]
    cols = [tuple(Dc.a for Dc in D), tuple(Dc.b for Dc in D)]
    return legs, Mat2(*(dot(row, col) for row in rows for col in cols))


def preprojective_holds(rep: QuiverRep) -> bool:
    legs, central = preprojective_residual(rep)
    return all(s.is_zero() for s in legs) and central.is_zero()


def king_stable(rep: QuiverRep) -> bool:
    """Stability = generated from the framing vertex: every D_i nonzero and
    V spanned by E0 together with the image of some E_i."""
    if any(Dc.is_zero() for Dc in rep.D):
        return False
    return any(not rep.E0.wedge(Ev).is_zero() for Ev in rep.E)


def central_quadratic(central: Mat2, v: Vec2) -> Scalar:
    """v ^ (M v) for the central residual M = preprojective_residual(rep)[1]:
    the quadratic form that matches the first equation's residual
    contracted at x.v (tested exactly)."""
    return v.wedge(central * v)
