"""Semistability oracles for the two stability conditions, with mechanical
one-parameter-subgroup certificates for every unstable verdict.

The oracles are the closed-form criteria: for -theta, stability on Z x V is
exactly the open locus where B is invertible; for +theta it is the spanning
condition (every B_i(x, -) nonzero and some a_i B_i(x, x) nonzero).  The
1-PS machinery cross-checks the verdicts: an unstable certificate is a
cocharacter, expressed in a basis adapted to x, such that every coordinate
carrying positive weight vanishes at the point and which pairs positively
with the character.  Every unstable verdict comes from one certificate
search, _unstable, whose test is the re-verification verify_certificate
makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .equations import (
    ContractViolation, det_b, f_pairing, on_Z, open_locus_det,
    semi_invariant_minus_theta,
)
from .gitcore import (
    LAMBDA, MU, THETA, MINUS_THETA,
    Character, Cocharacter, GroupElement, PointHV,
    act, contraction_terms, coordinate_weights, pair,
)
from .linalg import Mat2, Vec2
from .scalars import QI, Scalar, sum_of_products, vanishes


STABLE = "stable"
UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    status: str
    character: Character
    # unstable: destabilizing data
    certificate: Optional[Cocharacter] = None
    adapting: Optional[GroupElement] = None        # to the adapted basis; None: no move
    subset: str = ""
    # stable: witnessing data
    witness_index: Optional[int] = None            # condition-(iii) index, theta side
    witness_value: Optional[Scalar] = None         # nonvanishing semi-invariant, -theta side

    @property
    def is_stable(self):
        return self.status == STABLE


def adapting_matrix(x: Vec2) -> Mat2:
    """K with K (1, 0) == x and det K = x1, or -x2 when x1 = 0: the inverse
    of the GL2 part of adapting_element(x), read off x; invertible iff x is
    nonzero.  Its transpose, whose first row is x, is the GL2 part of
    _isotropic_adapting for the line x."""
    if not x.a.is_zero():
        return Mat2(x.a, QI.zero(), x.b, QI.one())
    return Mat2(QI.zero(), QI.one(), x.b, QI.zero())


def adapting_element(x: Vec2) -> GroupElement:
    """h with act(h, p).x == (1, 0); requires x nonzero."""
    one = QI.one()
    return GroupElement((one, one, one), adapting_matrix(x).inverse())


def verify_certificate(p: PointHV, cert: Cocharacter, chi: Character,
                       adapting: Optional[GroupElement] = None) -> bool:
    """Mechanical re-verification: positive pairing with chi, and every
    positively weighted coordinate (including x) vanishes at the point."""
    q = act(adapting, p) if adapting is not None else p
    return _certifies(q.coords() + (q.x.a, q.x.b), cert, chi)


@cache
def _positive_coordinates(cert: Cocharacter):
    """The indices into coords() + (x1, x2) that cert weights positively."""
    weights = coordinate_weights(cert) + tuple(cert.w)
    return tuple(k for k, w in enumerate(weights) if w > 0)


def _certifies(values, cert: Cocharacter, chi: Character) -> bool:
    """cert pairs positively with chi, and every coordinate it weights
    positively is zero among the values coords() + (x1, x2) of a point."""
    return pair(chi, cert) > 0 and all(
        values[k].is_zero() for k in _positive_coordinates(cert))


def _unstable(q: PointHV, chi: Character, candidates,
              adapting: Optional[GroupElement] = None) -> StabilityVerdict:
    """The unstable verdict for the first (description, cocharacter) of
    `candidates` that re-verifies at q, the point already moved by
    `adapting` (None: not moved), whose coordinates are read once.  None
    re-verifying raises explicitly, so the check also runs under python -O.

    Each unstable branch moves its point to the adapted basis at most once
    and passes all its candidates here: one certificate, or every
    destabilized subset on the +theta side.  A branch that moves nothing
    (+theta at x = 0, -theta with some a_i = 0 or with B = 0) passes
    adapting None, so re-verifying its verdict makes no act."""
    values = q.coords() + (q.x.a, q.x.b)
    for subset, cert in candidates:
        if _certifies(values, cert, chi):
            return StabilityVerdict(UNSTABLE, chi, certificate=cert, subset=subset,
                                    adapting=adapting)
    raise AssertionError("every certificate for %s failed re-verification"
                         % ", ".join(subset for subset, _ in candidates))


# -- the unstable subset families (plus-theta side) ---------------------------


_COORD_NAMES = ("a1", "a2", "a3", "beta",
                "p1", "q1", "r1", "p2", "q2", "r2", "p3", "q3", "r3")


@cache
def unstable_subset_certificates():
    """The destabilized subsets of the reference weight rows, with a
    certificate cocharacter per subset (coordinates in the adapted basis).

    Each certificate is re-verified mechanically against the weight table:
    its positive-weight coordinates are exactly the subset's vanishing list,
    so at a point adapted to x it re-verifies exactly where its subset
    vanishes.  Computed once; the result is a tuple.
    """
    out = []
    for i in range(3):
        lam = LAMBDA[i]
        subset = ("beta", "p%d" % (i + 1), "q%d" % (i + 1), "r%d" % (i + 1))
        out.append(("{beta=0, B%d=0}" % (i + 1), subset, lam))
    out.append(("{a1=a2=a3=0}", ("a1", "a2", "a3"), MU))
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        subset = ("a%d" % (j + 1), "a%d" % (k + 1), "p%d" % (i + 1))
        out.append(("{a%d=a%d=0, p%d=0}" % (j + 1, k + 1, i + 1), subset,
                    Cocharacter(LAMBDA[i].a, (0, 1), "mu+lambda%d" % (i + 1))))
    for k in range(3):
        i, j = [m for m in range(3) if m != k]
        subset = ("a%d" % (k + 1), "p%d" % (i + 1), "p%d" % (j + 1))
        lam = Cocharacter(
            tuple(LAMBDA[i].a[m] + LAMBDA[j].a[m] for m in range(3)), (0, 1),
            "mu+lambda%d+lambda%d" % (i + 1, j + 1))
        out.append(("{a%d=0, p%d=p%d=0}" % (k + 1, i + 1, j + 1), subset, lam))
    out.append(("{p1=p2=p3=0}", ("p1", "p2", "p3"),
                Cocharacter((1, 1, 1), (0, 2), "2mu+sum lambda")))
    # mechanical re-verification against the weight rows
    for desc, subset, lam in out:
        weights = coordinate_weights(lam)
        positive = {_COORD_NAMES[m] for m, w in enumerate(weights) if w > 0}
        if positive != set(subset):
            raise AssertionError("certificate %s has positive weights %s, not %s"
                                 % (desc, sorted(positive), subset))
    return tuple(out)


# -- plus-theta oracle ---------------------------------------------------------


def _contraction_vanishes(form, x1, x2) -> bool:
    """Whether B(x, -) is zero for the form (p, q, r): one zero test of
    each coefficient of its double, gitcore.contraction_terms, with no
    reduction."""
    first, second = contraction_terms(form, x1, x2)
    return vanishes(first) and vanishes(second)


def semistable_theta(p: PointHV) -> StabilityVerdict:
    """Stability for the character (1,1,1,1) on Z x V.

    Stable iff every B_i(x,-) is nonzero and V is spanned by x and the image
    of some a_i (B_i^x)^dual; no strictly semistable points exist.  Each
    B_i(x, -) is tested by _contraction_vanishes, and the witness
    a_i B_i(x, x), the spanning determinant, is one sum.
    """
    if not on_Z(p):
        raise ContractViolation("semistable_theta called off Z")
    if p.x.is_zero():
        return _unstable(p, THETA,
                         [("{x=0}", Cocharacter((1, 1, 1), (1, 1), "diagonal"))])
    x1, x2 = p.x.a, p.x.b
    if not any(_contraction_vanishes(b, x1, x2) for b in p.B):
        for i, (a, (pi, qi, ri)) in enumerate(zip(p.alpha, p.B)):
            # the spanning determinant a_i B_i(x, x), one reduction
            s = sum_of_products(((1, a, pi, x1, x1), (1, a, qi, x1, x2),
                                 (1, a, ri, x2, x2)))
            if not s.is_zero():
                return StabilityVerdict(STABLE, THETA, witness_index=i,
                                        witness_value=s)
    h = adapting_element(p.x)
    return _unstable(act(h, p), THETA,
                     [(desc, lam) for desc, _, lam in unstable_subset_certificates()],
                     h)


# -- minus-theta oracle --------------------------------------------------------


def _isotropic_adapting(p: PointHV) -> Optional[GroupElement]:
    """For a Z-point with beta = 0 and all a_i nonzero: the nonzero forms B_i
    are multiples of a single rank-one form l^2; returns h such that every
    B-triple of act(h, p) has the shape (*, 0, 0), or None when B = 0.

    The first nonzero form (p, q, r) is a multiple of (l1 v1 + l2 v2)^2 =
    (l1^2, 2 l1 l2, l2^2), so l = (p, q/2) = l1 (l1, l2) spans the line,
    or l = (0, 1) when p = 0 (which forces q = 0).  The GL2 part g of h is
    the transpose of adapting_matrix(l), invertible with first row l: a
    form Q moves to Q o g^-1, and l o g^-1 = (1, 0), the first row of
    g g^-1, so l^2 becomes v1^2, with nothing inverted.
    """
    form = next((b for b in p.B if any(not c.is_zero() for c in b)), None)
    if form is None:
        return None
    pm, qm, _ = form
    K = adapting_matrix(Vec2(pm, qm / 2) if not pm.is_zero()
                        else Vec2(QI.zero(), QI.one()))
    return GroupElement((QI.one(),) * 3, Mat2(K.a, K.c, K.b, K.d))


def semistable_minus_theta(p: PointHV) -> StabilityVerdict:
    """Stability for the character (-1,-1,-1,-1) on Z x V: stable exactly on
    the open locus where B is invertible, witnessed by the nonvanishing
    semi-invariant a^2 beta^2 det B; no strictly semistable points."""
    if not on_Z(p):
        raise ContractViolation("semistable_minus_theta called off Z")
    if open_locus_det(p) is not None:
        return StabilityVerdict(STABLE, MINUS_THETA,
                                witness_value=semi_invariant_minus_theta(p))
    for i, a in enumerate(p.alpha):
        if a.is_zero():
            cert = Cocharacter(tuple(-1 if m == i else 0 for m in range(3)),
                               (0, 0), "-lambda%d" % (i + 1))
            return _unstable(p, MINUS_THETA, [("{a%d=0}" % (i + 1), cert)])
    # all a_i nonzero, beta = 0: B has rank <= 1 with isotropic image
    h = _isotropic_adapting(p)
    return _unstable(p if h is None else act(h, p), MINUS_THETA,
                     [("{beta=0}", Cocharacter((0, 0, 0), (0, -1), "-mu"))], h)


# -- off-Z reporting -------------------------------------------------------------


def _independent(rows):
    """Whether the rows, equal-length lists of Scalars, are linearly
    independent: Gaussian elimination, stopping at the first row that
    reduces to zero."""
    rows = [list(row) for row in rows]
    for k, row in enumerate(rows):
        c = next((c for c, x in enumerate(row) if not x.is_zero()), None)
        if c is None:
            return False
        inv = row[c].inverse()
        for below in rows[k + 1:]:
            if not below[c].is_zero():
                f = below[c] * inv
                below[:] = [x if y.is_zero() else x - f * y
                            for x, y in zip(below, row)]
    return True


def infinite_stabilizer_detected(p: PointHV) -> bool:
    """Whether the stabilizer of the H-part of p in G = (C*)^3 x GL2 is
    positive-dimensional.

    In characteristic 0 every algebraic group is smooth, so the stabilizer
    has the dimension of its Lie algebra: the kernel of the infinitesimal
    action of Lie G (tau in C^3, X in gl2; dimension 7) on the 13
    H-coordinates.  The kernel of the action itself on H is finite,
    {(1, +-I)}: t_i Q o g^-1 = Q for every form Q makes g = mu I with
    t_i = mu^2, and a_i -> mu^-2 a_i then forces mu^2 = 1.  So Lie G acts
    faithfully, and a positive-dimensional stabilizer is exactly a nonzero
    kernel: the test is that the seven rows below are dependent.  The row of
    (tau, X), the derivative of the action at the identity, reads
        a_i:  (tr X - 2 tau_i) a_i
        beta: (tau_1 + tau_2 + tau_3 - 2 tr X) beta
        B_i:  tau_i B_i - (2p x11 + q x21, q tr X + 2p x12 + 2r x21,
                           q x12 + 2r x22)   for B_i = (p, q, r),
    the last from t_i B_i(g^-1 v).  It reads torus coordinates and GL(V)
    together, so it also finds the families that mix them."""
    return not _independent(_infinitesimal_action(p))


def _infinitesimal_action(p: PointHV):
    """The rows tau_1, tau_2, tau_3, x11, x22, x12, x21 of the infinitesimal
    action of Lie G on the H-coordinates of p, in table order (see
    infinite_stabilizer_detected)."""
    zero = QI.zero()
    a, beta, B = p.alpha, p.beta, p.B
    rows = []
    for i in range(3):                          # tau_i
        row = [zero] * 13
        row[i], row[3] = a[i] * -2, beta
        row[4 + 3 * i:7 + 3 * i] = B[i]
        rows.append(row)
    for trace, form in (
            (True, lambda f, q, r: (f * -2, -q, zero)),         # x11
            (True, lambda f, q, r: (zero, -q, r * -2)),         # x22
            (False, lambda f, q, r: (zero, f * -2, -q)),        # x12
            (False, lambda f, q, r: (-q, r * -2, zero))):       # x21
        rows.append((list(a) + [beta * -2] if trace else [zero] * 4)
                    + [c for b in B for c in form(*b)])
    return rows


def off_z_minus_theta_flags(p: PointHV) -> dict:
    """Report flags for points off Z: whether a nonvanishing semi-invariant
    of negative-character weight certifies semistability, and whether an
    infinite stabilizer is detected (the strictly-semistable signature).
    The semi-invariants a^2 beta^2 det B and (a1 a2 a3)^2 (a1 a2 f_12^2)^5
    are tested by their factors, since a product vanishes with a factor."""
    semi = not any(a.is_zero() for a in p.alpha) and (
        not p.beta.is_zero() and not det_b(p).is_zero()
        or not f_pairing(p, 0, 1).is_zero())
    infinite = infinite_stabilizer_detected(p)
    return {
        "semi_invariant_nonvanishing": semi,
        "infinite_stabilizer_detected": infinite,
        "strictly_semistable_behavior": semi and infinite,
    }
