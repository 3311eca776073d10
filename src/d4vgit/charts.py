"""Chart normalization on the plus-theta side and the chart isomorphism with
the quiver moduli.

A stable point with witness index i is moved to the normal form

    x = (1, 0),   a_i = 1,   B_i = (1, 0, r)

by a unique group element up to the residual torus GL(L_j) x GL(L_k).  In
this normal form membership in Z collapses to one relation: with
omega = a_j a_k beta^2 the five coordinates q_j, q_k, r, r_j, r_k are fixed
by the free ones a_j, a_k, beta, p_j, p_k,

    4 r = omega,   r_j = -r p_j,   r_k = -r p_k,
    q_j = beta a_k p_k,   q_k = -beta a_j p_j,

(q_coordinates and dependent_coordinates, the one place these are written),
and what is left is N = 1 + a_j p_j^2 + a_k p_k^2 = 0, whose terms
_chart_equation writes once.  A ChartPoint, like a HatChart, is its five
free coordinates.  The relations are checked where data enters a chart,
once: a point in normalize, a representation in normalize_rep.  Every
invariant the charts validate is one zero test of an unreduced sum of
products.  chart_closure_check proves the relations imply the defining
equations.

The quiver-side chart fixes E0 = (1,0), D_i = (1,0), E_i = (0,1); writing
D_m = (ph_m, qh_m) and E_m = ah_m (-qh_m, ph_m) for the other two legs and
D0 = (0, wh) gives hat coordinates related to the chart coordinates by

    ah = a,  ph = p,  qh = q/2,  bh = beta/2,  wh = omega/4 = bh^2 ah_j ah_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .equations import (
    E1_LABELS, E2_LABELS, E3_LABELS, ContractViolation, omega_of, on_Z, residual_entries,
)
from .gitcore import GroupElement, PointHV, act, contraction_terms
from .linalg import Mat2, Vec2
from .poly import Poly
from .quiver import QuiverRep
from .scalars import QI, Scalar, sum_of_products, vanishes
from .stability import adapting_matrix


class ChartError(ContractViolation):
    """A point or representation outside the chart it was asked for."""


def _cyclic(i):
    """0-based successor pair of a 0-based chart index."""
    return (i + 1) % 3, (i + 2) % 3


def q_coordinates(alpha_j, alpha_k, beta, p_j, p_k):
    """(q_j, q_k) = (beta a_k p_k, -beta a_j p_j), in chart or hat coordinates."""
    return (sum_of_products(((1, beta, alpha_k, p_k),)),
            sum_of_products(((-1, beta, alpha_j, p_j),)))


def dependent_coordinates(alpha_j, alpha_k, beta, p_j, p_k):
    """(q_j, q_k, r, r_j, r_k) from the free chart coordinates, over any
    commutative ring with division by 4 (Scalars, or Polys for the closure
    check): the five chart relations, one sum_of_products per output, with
    omega = equations.omega_of((a_j, a_k), beta) shared lazily.  The chart
    index i is implicit: the formulas are the same in every chart, with
    (j, k) its cyclic successors.
    """
    om = omega_of((alpha_j, alpha_k), beta, lazy=True)
    return q_coordinates(alpha_j, alpha_k, beta, p_j, p_k) + (
        sum_of_products(((1, om),), 4),
        sum_of_products(((-1, om, p_j),), 4),
        sum_of_products(((-1, om, p_k),), 4))


def _chart_equation(one, alpha_j, alpha_k, p_j, p_k):
    """The terms of N = 1 + a_j p_j^2 + a_k p_k^2 over the ring of one."""
    return ((1, one), (1, alpha_j, p_j, p_j), (1, alpha_k, p_k, p_k))


# the relation each entry of dependent_coordinates satisfies, in its order
_RELATIONS = ("q_j = beta a_k p_k", "q_k = -beta a_j p_j", "4r = omega",
              "r_j = -r p_j", "r_k = -r p_k")


@dataclass(frozen=True)
class ChartPoint:
    """A normalized point by its free chart coordinates; validated on
    construction.

    q_j, q_k, r, r_j and r_k are not fields: __post_init__ sets them from
    dependent_coordinates, so they take no part in == or hash.
    """

    index: int                      # 1, 2 or 3
    alpha_j: Scalar
    alpha_k: Scalar
    beta: Scalar
    p_j: Scalar
    p_k: Scalar
    normalizer: Optional[GroupElement] = field(default=None, compare=False)

    def __post_init__(self):
        dependent = dependent_coordinates(self.alpha_j, self.alpha_k, self.beta,
                                          self.p_j, self.p_k)
        for name, value in zip(("q_j", "q_k", "r", "r_j", "r_k"), dependent):
            object.__setattr__(self, name, value)
        self.validate()

    @property
    def omega(self):
        return omega_of((self.alpha_j, self.alpha_k), self.beta)

    def validate(self):
        aj, ak, pj, pk = self.alpha_j, self.alpha_k, self.p_j, self.p_k
        checks = (
            ("1 + a_j p_j^2 + a_k p_k^2 = 0",
             vanishes(_chart_equation(QI.one(), aj, ak, pj, pk))),
            ("(p_j, q_j) != 0", not (pj.is_zero() and self.q_j.is_zero())),
            ("(p_k, q_k) != 0", not (pk.is_zero() and self.q_k.is_zero())),
        )
        for name, ok in checks:
            if not ok:
                raise ChartError("chart invariant failed: %s" % name)
        return True

    def torus_invariants(self):
        """Functions invariant under the residual GL(L_j) x GL(L_k) torus."""
        return (sum_of_products(((1, self.alpha_j, self.p_j, self.p_j),)),
                sum_of_products(((1, self.alpha_k, self.p_k, self.p_k),)),
                self.omega)


def normalize(p: PointHV, index: int) -> ChartPoint:
    """Normal form of a theta-stable Z-point in the chart of the given index.

    Preconditions: p lies on Z and is stable with witnessing index `index`
    (a_i B_i(x,x) != 0).  The normalizing element is unique given the gauge
    x = (1,0), a_i = 1, B_i = (1,0,r); all steps are rational, so no field
    extension is ever needed here.  A nonzero witness forces x != 0 and
    B_i(x, -) != 0; stability then asks only that B_j(x, -) and B_k(x, -)
    be nonzero, which ChartPoint.validate checks as (p, q) != 0.  The whole
    normalizer is built from leg i alone, reading g0^-1 off x
    (stability.adapting_matrix), invertible by construction and not
    re-checked; then the point moves with one act.  This is where a point
    enters a chart, so the five chart relations are checked here, once: the
    moved point's B-entries against the ChartPoint's own dependent
    coordinates.
    """
    if not on_Z(p):
        raise ContractViolation("normalize called off Z")
    i = index - 1
    # step 1: h0 = (1, g0) moves x to e1, and g0^-1 = K has first column x;
    # leg i of act(h0, p) is B_i o K, so p_i = B_i(x, x) and q_i =
    # 2 B_i(x, K e2), the double contraction 2 B_i(x, -) paired with K e2
    x1, x2 = p.x
    K = adapting_matrix(p.x)
    pB, qB, rB = p.B[i]
    pi = sum_of_products(((1, pB, x1, x1), (1, qB, x1, x2), (1, rB, x2, x2)))
    if p.alpha[i].is_zero() or pi.is_zero():       # the witness a_i B_i(x, x)
        raise ChartError("index %d is not a witnessing index for this point"
                         % index)
    first, second = contraction_terms(p.B[i], x1, x2)
    qi = sum_of_products([t + (K.b,) for t in first] + [t + (K.d,) for t in second])
    # step 2: g1 = (1 b; 0 d) shears and scales, fixing e1, with
    # a_i = det(g0) alpha_i = alpha_i / det K; then one move by
    # h = (t, g1 g0), g1 g0 = g1 adj(K) / det K.  d and p_i are nonzero, so
    # h is invertible by construction.
    det_k = K.det()
    kinv, pinv = det_k.inverse(), pi.inverse()
    b = sum_of_products(((1, qi, pinv),), 2)                        # q_i / 2 p_i
    d = sum_of_products(((1, det_k, pinv, pinv),)) / p.alpha[i]     # 1 / a_i p_i^2
    adj = K.adjugate()
    g = Mat2(sum_of_products(((1, adj.a), (1, b, adj.c)), scale=kinv),
             sum_of_products(((1, adj.b), (1, b, adj.d)), scale=kinv),
             sum_of_products(((1, d, adj.c),), scale=kinv),
             sum_of_products(((1, d, adj.d),), scale=kinv))
    t = [QI.one(), QI.one(), QI.one()]
    t[i] = pinv
    h = GroupElement(tuple(t), g)
    q = act(h, p)
    j, k = _cyclic(i)
    c = ChartPoint(index, q.alpha[j], q.alpha[k], q.beta, q.B[j][0], q.B[k][0],
                   normalizer=h)
    moved = (q.B[j][1], q.B[k][1], q.B[i][2], q.B[j][2], q.B[k][2])
    for name, want, got in zip(_RELATIONS, (c.q_j, c.q_k, c.r, c.r_j, c.r_k), moved):
        if want != got:
            raise ChartError("chart invariant failed: %s" % name)
    return c


def chart_equivalent(c1: ChartPoint, c2: ChartPoint):
    """The residual torus element (t_j, t_k) carrying c1 to c2, or None."""
    if c1.index != c2.index:
        return None

    def leg_scale(p1, q1, p2, q2):
        if not p1.is_zero():
            return p2 / p1
        if not q1.is_zero():
            return q2 / q1
        return None

    tj = leg_scale(c1.p_j, c1.q_j, c2.p_j, c2.q_j)
    tk = leg_scale(c1.p_k, c1.q_k, c2.p_k, c2.q_k)
    if tj is None or tk is None or tj.is_zero() or tk.is_zero():
        return None
    # the free coordinates; the dependent ones follow from them
    ok = (
        c2.alpha_j == tj.inverse() ** 2 * c1.alpha_j
        and c2.alpha_k == tk.inverse() ** 2 * c1.alpha_k
        and c2.beta == tj * tk * c1.beta
        and c2.p_j == tj * c1.p_j and c2.p_k == tk * c1.p_k
    )
    return (tj, tk) if ok else None


# -- quiver-side chart ---------------------------------------------------------


@dataclass(frozen=True)
class HatChart:
    """Normalized quiver-side chart data by its free hat coordinates;
    validated on construction.  qh_j and qh_k are set from q_coordinates,
    not fields."""

    index: int
    alpha_j: Scalar
    alpha_k: Scalar
    beta: Scalar            # bh
    p_j: Scalar
    p_k: Scalar

    def __post_init__(self):
        q = q_coordinates(self.alpha_j, self.alpha_k, self.beta, self.p_j, self.p_k)
        for name, value in zip(("q_j", "q_k"), q):
            object.__setattr__(self, name, value)
        self.validate()

    @property
    def omega(self):
        return omega_of((self.alpha_j, self.alpha_k), self.beta)

    def validate(self):
        """N = ah_j ph_j^2 + ah_k ph_k^2 + 1 = 0, the one relation left: with
        qh_j = bh ah_k ph_k and qh_k = -bh ah_j ph_j, ah_j ph_j qh_j +
        ah_k ph_k qh_k is identically 0, and ah_j qh_j^2 + ah_k qh_k^2 + wh
        is bh^2 ah_j ah_k N."""
        if not vanishes(_chart_equation(QI.one(), self.alpha_j, self.alpha_k,
                                       self.p_j, self.p_k)):
            raise ChartError("hat invariant failed: ah_j ph_j^2 + ah_k ph_k^2 + 1 = 0")
        return True


def to_quiver_chart(c: ChartPoint) -> HatChart:
    """The hat coordinates of a chart point: bh = beta/2, the others equal."""
    return HatChart(c.index, c.alpha_j, c.alpha_k, c.beta / 2, c.p_j, c.p_k)


def from_quiver_chart(hat: HatChart) -> ChartPoint:
    """Inverse of to_quiver_chart: beta = 2 bh."""
    return ChartPoint(hat.index, hat.alpha_j, hat.alpha_k, hat.beta * 2,
                      hat.p_j, hat.p_k)


def normalize_rep(rep: QuiverRep, index: int):
    """Quiver-side normalization E0 = (1,0), D_i = (1,0), E_i = (0,1).

    Requires the rep to be generated through index i (D_i(E0) != 0 and
    E0, E_i independent) and to satisfy the leg relations.  Returns a
    HatChart; the transport is unique modulo the two leg scalings.  Each D
    is read on the new basis (E0, D_i(E0) E_i), and each E_m written in it
    by Cramer's rule over det(E0, E_i), which the span check computes: no
    matrix is inverted.  The q relations are checked here, once, where a
    rep enters the hat chart.
    """
    i = index - 1
    j, k = _cyclic(i)
    u, w = rep.E0, rep.E[i]
    det = u.wedge(w)
    if det.is_zero():
        raise ChartError("E0 and E_%d do not span V" % index)
    du = rep.D[i](u)
    if du.is_zero():
        raise ChartError("D_%d(E0) = 0; rep not in chart %d" % (index, index))
    if not rep.D[i](w).is_zero():
        raise ChartError("leg relation D_%d E_%d != 0" % (index, index))
    wd = w.scale(du)

    def move_cov(cov):
        return (cov(u), cov(wd))

    d0 = move_cov(rep.D0)
    if not d0[0].is_zero():
        raise ChartError("framing relation D0 E0 != 0")
    # E_m = c1 E0 + c2 D_i(E0) E_i: c1 = det(E_m, E_i) / det, and
    # c2 = det(E0, E_m) / (D_i(E0) det)
    dinv = det.inverse()
    dudinv = dinv / du
    hats = {}
    for m in (j, k):
        dm = move_cov(rep.D[m])
        e = rep.E[m]
        em = Vec2(sum_of_products(((1, e.a, w.b), (-1, e.b, w.a)), scale=dinv),
                  sum_of_products(((1, u.a, e.b), (-1, u.b, e.a)), scale=dudinv))
        # E_m = ah_m * (-qh_m, ph_m)
        ph, qh = dm
        # ah is solved from one coordinate, so only the other is tested
        if not ph.is_zero():
            ah = em.b / ph
            dual = em.a == -ah * qh
        elif not qh.is_zero():
            ah = -em.a / qh
            dual = em.b.is_zero()
        else:
            raise ChartError("leg %d vanishes; rep not stable" % (m + 1))
        if not dual:
            raise ChartError("leg %d is not of the dual form" % (m + 1))
        hats[m] = (ah, ph, qh)
    hat = HatChart(index, hats[j][0], hats[k][0], _solve_beta_hat(hats[j], hats[k]),
                   hats[j][1], hats[k][1])
    for name, want, got in (("qh_j = bh ah_k ph_k", hat.q_j, hats[j][2]),
                            ("qh_k = -bh ah_j ph_j", hat.q_k, hats[k][2])):
        if want != got:
            raise ChartError("hat invariant failed: %s" % name)
    if d0[1] != hat.omega:
        raise ChartError("framing map disagrees with the collapsed relation")
    return hat


def _solve_beta_hat(leg_j, leg_k):
    """bh with (qh_j, qh_k) = bh (ah_k ph_k, -ah_j ph_j)."""
    ah_j, ph_j, qh_j = leg_j
    ah_k, ph_k, qh_k = leg_k
    ap = ah_k * ph_k
    if not ap.is_zero():
        return qh_j / ap
    ap = ah_j * ph_j
    if not ap.is_zero():
        return -qh_k / ap
    raise ChartError("central relation degenerate: both ah ph vanish")


# -- symbolic closure ----------------------------------------------------------


CHART_VARIABLES = ("a2", "a3", "b", "p2", "p3")


@dataclass(frozen=True)
class ClosureComponent:
    label: str
    quotient: str
    remainder_zero: bool


@dataclass(frozen=True)
class ClosureReport:
    components: tuple

    @property
    def ok(self):
        return all(c.remainder_zero for c in self.components)

    def failing(self):
        return [c.label for c in self.components if not c.remainder_zero]


def chart_closure_check() -> ClosureReport:
    """Verify symbolically that the chart relations imply every remaining
    component of the three defining equations.

    B is built in chart 1 over the five free generators a2, a3, b, p2, p3,
    with q2, q3, r1, r2, r3 from dependent_coordinates; each of the 24
    residual components must then be a polynomial multiple of
    N = 1 + a2 p2^2 + a3 p3^2.  Deterministic and exact; no randomness
    involved.
    """
    V = CHART_VARIABLES
    gen = Poly.ring(V)
    one, zero = Poly.constant(1, V), Poly.constant(0, V)
    a2, a3, b, p2, p3 = (gen[v] for v in V)
    q2, q3, r1, r2, r3 = dependent_coordinates(a2, a3, b, p2, p3)
    B = ((one, zero, r1), (p2, q2, r2), (p3, q3, r3))
    e1, e2, e3 = residual_entries((one, a2, a3), b, B)
    N = sum_of_products(_chart_equation(one, a2, a3, p2, p3))

    components = []
    for labels, entries in ((E1_LABELS, e1), (E2_LABELS, e2), (E3_LABELS, e3)):
        for label, entry in zip(labels, entries):
            quotient, remainder = entry.divide_by(N)
            components.append(ClosureComponent(
                label=label,
                quotient=str(quotient),
                remainder_zero=remainder.is_zero(),
            ))
    return ClosureReport(tuple(components))
