"""The defining equations of the variety Z and their residuals.

A point (a1, a2, a3, beta, B, x) lies on Z x V iff all stored residual
entries vanish:

  e1 (6 entries)  the symmetric form  sum_i a_i <B_i, .><B_i, .>  minus
                  (omega/2) J on Sym^2 V,
  e2 (9 entries)  a_j * j_pairing(B_i, B_j) - (omega/2) delta_ij,
  e3 (9 entries)  wedge(B_j, B_k) - beta a_i (r_i, -q_i/2, p_i)  cyclically,

with omega = a1 a2 a3 beta^2.  The residual code is written over generic
ring elements so the chart module can evaluate the same formulas on
polynomials.

Convention anchors (all exactly verified by the test suite): the pairing
j_pairing(B1, B1) = 2 r1 for B1 = (1, 0, r1); the wedge values
B1 ^ B2 = (-r1 q2, r1 p2 - r2, q2) = beta a3 (r3, -q3/2, p3) at chart
points; and on the invertible locus 2 det B = beta^3 a1 a2 a3.  (These pins
force the remaining normalizations: r = omega/4 in chart coordinates and
the omega/4 coefficient in the quiver map.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gitcore import PointHV, pairing_terms
from .linalg import Mat3
from .scalars import QI, Scalar, dot, sum_of_products, vanishes


class ContractViolation(Exception):
    """An operation was called outside its stated precondition."""


def omega(p: PointHV) -> Scalar:
    """omega = a1 a2 a3 beta^2 (transforms as a section of (det V)^-1)."""
    return omega_of(p.alpha, p.beta)


def omega_of(alpha, beta, lazy=False):
    """The product of the alphas times beta^2 over any commutative ring, as
    the one product term (1, *alpha, beta, beta), lazy as in
    sum_of_products: omega for (a1, a2, a3), and the chart omega
    a_j a_k beta^2 for the pair (a_j, a_k) of a chart's free coordinates
    (its a_i is 1)."""
    return sum_of_products(((1, *alpha, beta, beta),), lazy=lazy)


def j_pairing(u, v):
    """The pairing on quadratic-form triples: pu*rv + ru*pv - qu*qv/2.

    Normalized so that j_pairing((1,0,r), (1,0,r)) = 2r; this is the
    polarized discriminant and is equivariant for the form action.  One
    sum of gitcore.pairing_terms over the denominator 2.
    """
    return sum_of_products(pairing_terms(u, v), 2)


def wedge(u, v):
    """Coordinates of u ^ v in Sym^2 V: the signed 2x2 minors
    (m_qr, -m_pr, m_pq) of the two coefficient triples."""
    pu, qu, ru = u
    pv, qv, rv = v
    return (dot((qu, ru), (rv, -qv)), dot((ru, pu), (pv, -rv)),
            dot((pu, qu), (qv, -pv)))


_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# e1[m, n] = (k sum_i a_i b_i[m] b_i[n] + o omega) / den for (k, o, den):
# the halves of the functional vectors (p, q/2, r) and the omega coefficients
# the invariant pairing on Sym^2 V adds (-1/2 at (0, 2), 1/4 at (1, 1))
_E1 = {(0, 0): (1, 0, 1), (0, 1): (1, 0, 2), (0, 2): (2, -1, 2),
       (1, 1): (1, 1, 4), (1, 2): (1, 0, 2), (2, 2): (1, 0, 1)}


def e1_entries(alpha, B, om):
    """The 6 upper-triangle entries (m <= n) of e1, the symmetric form on
    Sym^2 V, over any commutative ring with halving; om is omega_of(alpha,
    beta, lazy=True).  Each entry is one sum_of_products."""
    e1 = []
    for (m, n), (k, o, den) in _E1.items():
        terms = [(k, a, b[m], b[n]) for a, b in zip(alpha, B)]
        if o:
            terms.append((o, om))
        e1.append(sum_of_products(terms, den))
    return e1


def residual_entries(alpha, beta, B):
    """(e1, e2, e3) entry lists over any commutative ring with halving.

    e1 is e1_entries; e2 and e3 are row-major 3x3.  Each entry is one
    sum_of_products, the halves and signs in its integer coefficients and
    denominator.  omega, 2 j_pairing(B_i, B_j) and beta a_i are shared as
    lazy factors.
    """
    om = omega_of(alpha, beta, lazy=True)
    e1 = e1_entries(alpha, B, om)

    # a_j j_pairing(B_i, B_j) - (omega/2) delta_ij, over the denominator 2
    pairing = {}
    for i in range(3):
        for j in range(i, 3):
            pairing[i, j] = pairing[j, i] = sum_of_products(
                pairing_terms(B[i], B[j]), lazy=True)
    e2 = [sum_of_products(((1, alpha[j], pairing[i, j]), (-1, om)) if i == j
                          else ((1, alpha[j], pairing[i, j]),), 2)
          for i in range(3) for j in range(3)]

    e3 = []
    for i, j, k in _CYCLIC:
        # wedge(B_j, B_k) - beta a_i (r_i, -q_i/2, p_i)
        (pu, qu, ru), (pv, qv, rv), (pi, qi, ri) = B[j], B[k], B[i]
        ba = sum_of_products(((1, beta, alpha[i]),), lazy=True)
        e3.extend((
            sum_of_products(((1, qu, rv), (-1, ru, qv), (-1, ba, ri))),
            sum_of_products(((2, ru, pv), (-2, pu, rv), (1, ba, qi)), 2),
            sum_of_products(((1, pu, qv), (-1, qu, pv), (-1, ba, pi)))))

    return e1, e2, e3


E1_LABELS = tuple("E1[%d,%d]" % (m, n) for m in range(3) for n in range(m, 3))
E2_LABELS = tuple("E2[%d,%d]" % (i, j) for i in range(3) for j in range(3))
E3_LABELS = tuple("E3[%d].%s" % (i, c) for i in range(3) for c in ("p", "q", "r"))


@dataclass(frozen=True)
class EquationResidual:
    e1: tuple
    e2: tuple
    e3: tuple

    def is_zero(self):
        return self.e1_zero() and self.e2_zero() and self.e3_zero()

    def e1_zero(self):
        return all(x.is_zero() for x in self.e1)

    def e2_zero(self):
        return all(x.is_zero() for x in self.e2)

    def e3_zero(self):
        return all(x.is_zero() for x in self.e3)

    def nonzero_components(self):
        out = []
        for labels, entries in ((E1_LABELS, self.e1), (E2_LABELS, self.e2),
                                (E3_LABELS, self.e3)):
            out.extend(lab for lab, val in zip(labels, entries) if not val.is_zero())
        return out


def residuals(p: PointHV) -> EquationResidual:
    """Exact residuals of the three equations at p; all zero iff p in Z x V.

    A point keeps two values: these residuals and open_locus_det's.  Each is
    computed once per point and kept on it, so every later precondition
    check on p (on_Z, in_Zo, the oracles, normalize) reads the kept value;
    PointHV.with_x hands both to the new point, since the equations do not
    involve x.
    """
    res = p._residuals
    if res is None:
        e1, e2, e3 = residual_entries(p.alpha, p.beta, p.B)
        res = EquationResidual(tuple(e1), tuple(e2), tuple(e3))
        object.__setattr__(p, "_residuals", res)
    return res


def on_Z(p: PointHV) -> bool:
    return residuals(p).is_zero()


def det_b(p: PointHV) -> Scalar:
    """det B: the value open_locus_det kept on p when it kept one, else the
    determinant of the 3x3 matrix of stored B-coefficient rows."""
    kept = p._open_locus
    return kept[0] if kept and kept[0] is not None else Mat3(p.B).det()


def in_Zo(p: PointHV) -> bool:
    """Membership in the open locus where B is invertible; raises off Z."""
    if not on_Z(p):
        raise ContractViolation("in_Zo called off Z")
    return open_locus_det(p) is not None


def det_identity_terms(p: PointHV, d):
    """The sum_of_products terms of 2 d - beta^3 a1 a2 a3, for d = det B of
    p: they vanish exactly when the determinant identity holds.  The one
    place the identity is written: open_locus_det and the equations suite
    test it with vanishes."""
    return ((2, d), (-1, p.beta, p.beta, p.beta, *p.alpha))


def open_locus_det(p: PointHV) -> Optional[Scalar]:
    """det B at a point already known to lie on Z, or None off the open locus.

    On Z the condition a1 a2 a3 beta != 0 is equivalent to det B != 0, and
    2 det B = beta^3 a1 a2 a3 holds exactly; both are re-checked here, the
    four factors tested for zero one by one, with no product, and the
    identity as one zero test of det_identity_terms.  The result is
    the second value a point keeps (see residuals), as the 1-tuple
    p._open_locus, and det_b reads the det B kept there; a raise keeps
    nothing, so every later call raises again.
    """
    kept = p._open_locus
    if kept is not None:
        return kept[0]
    a1, a2, a3 = p.alpha
    d = None
    if not (a1.is_zero() or a2.is_zero() or a3.is_zero() or p.beta.is_zero()):
        d = det_b(p)
        if d.is_zero():
            raise AssertionError("det B vanished on the open locus")
        if not vanishes(det_identity_terms(p, d)):
            raise AssertionError("determinant identity 2 det B = beta^3 a1 a2 a3 failed")
    object.__setattr__(p, "_open_locus", (d,))
    return d


def semi_invariant_minus_theta(p: PointHV) -> Scalar:
    """a1^2 a2^2 a3^2 beta^2 det B: semi-invariant of weight -theta,
    nonvanishing exactly on the open locus (within Z), as one product
    term.  det B is det_b's, so a point whose open locus was decided
    brings its own."""
    a1, a2, a3 = p.alpha
    beta = p.beta
    return sum_of_products(((1, a1, a1, a2, a2, a3, a3, beta, beta, det_b(p)),))


def f_pairing(p: PointHV, i: int, j: int) -> Scalar:
    """f_ij = j_pairing(B_i, B_j), a (det V)^-2-valued pairing of legs."""
    return j_pairing(p.B[i], p.B[j])


def witness_semi_invariant(p: PointHV) -> Scalar:
    """(a1 a2 a3)^2 (a1 a2 f_12^2)^5: semi-invariant of weight -4*theta.

    Nonvanishing at the rank-one beta = 0 points where the second equation
    fails but the first holds.
    """
    a1, a2, a3 = p.alpha
    f = f_pairing(p, 0, 1)
    return sum_of_products(((1,) + (a1, a2) * 7 + (a3, a3) + (f,) * 10,))


def witness_E1_not_E2() -> PointHV:
    """beta = 0, all a_i nonzero, B = l (x) m of rank one with l isotropic
    for A but m not isotropic for the j-pairing: e1 = e3 = 0, e2 != 0."""
    i = QI.i()
    one = QI.one()
    m = (QI.zero(), one, QI.zero())           # v1*v2: j_pairing(m, m) = -1/2
    ell = (one, i, QI.zero())                 # 1 + i^2 + 0 = 0
    B = tuple(tuple(li * c for c in m) for li in ell)
    return PointHV.make((1, 1, 1), 0, B, (1, 1))


def witness_E2_not_E1() -> PointHV:
    """beta = 0, all a_i nonzero, B = l (x) m with m = x^2 isotropic for the
    j-pairing but l not isotropic for A: e2 = e3 = 0, e1 != 0."""
    one = QI.one()
    m = (one, QI.zero(), QI.zero())           # v1^2: j_pairing(m, m) = 0
    ell = (one, one, one)                     # 1 + 1 + 1 != 0
    B = tuple(tuple(li * c for c in m) for li in ell)
    return PointHV.make((1, 1, 1), 0, B, (1, 1))
