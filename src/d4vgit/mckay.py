"""The representation-theoretic base point of the open locus, stabilizer
enumeration, and orbit connection.

The base point b* is built from the 2-dimensional irreducible representation
of the quaternion group: the three forms are the character projections of
Sym^2 V (lines spanned by e1 e2, e1^2 + e2^2, e1^2 - e2^2) and the scalars
are solved exactly from the defining equations.  Its stabilizer inside the
full group has order exactly 8 with quaternion signature; relaxing the
constraint that fixes the signs of (alpha, beta) jointly doubles it to 16.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass
from functools import cache

from .equations import ContractViolation, in_Zo, omega, open_locus_det, residuals, wedge
from .gitcore import (
    GroupElement, PointHV, act, apply_form_matrix, form_matrix, split_form,
)
from .linalg import Mat2
from .scalars import (
    ExtensionLimitError, Field, QI, adjoin_sqrt, deepest_field, dot, is_principal_root,
    sum_of_products,
)


class DegeneratePointError(ContractViolation):
    """A form of the point is too degenerate to transport to the base point."""


# -- the base point ------------------------------------------------------------


_CHARACTER_FORMS = ((0, 2, 0), (1, 0, 1), (1, 0, -1))


def base_point(x=(0, 0)) -> PointHV:
    """The rational base point of the open locus.

    The forms are fixed as the three character projections of Sym^2 V for
    the quaternion 2-dimensional irrep; (a1, a2, a3) are then solved exactly
    and linearly from the third equation at beta = 1, and the full residual
    evaluation re-checks the solution.  Neither the equations nor det B
    involve x, so the H-part is solved, checked and placed in the open
    locus once per process, and each copy with_x makes keeps both values.
    """
    return _base_h_part().with_x(x)


@cache
def _base_h_part() -> PointHV:
    one = QI.one()
    B = tuple(tuple(QI.scalar(c) for c in b) for b in _CHARACTER_FORMS)
    beta = one
    # E3 component i reads  wedge(B_j, B_k) = beta a_i (r_i, -q_i/2, p_i);
    # each line determines a_i by one division.
    alpha = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        w = wedge(B[j], B[k])
        pi, qi, ri = B[i]
        target = (ri, -qi / 2, pi)
        ai = None
        for wc, tc in zip(w, target):
            if not tc.is_zero():
                ai = wc / (beta * tc)
                break
        if ai is None:
            raise AssertionError("degenerate character form")
        alpha.append(ai)
    p = PointHV.make(alpha, beta, B)
    if not residuals(p).is_zero():
        raise AssertionError("base point failed residual check")
    if open_locus_det(p) is None:
        raise AssertionError("base point outside the open locus")
    return p


def quaternion_rep():
    """The eight group elements realizing the quaternion group inside the
    stabilizer of the base point: pairs (name, GroupElement)."""
    i = QI.i()
    one = QI.one()
    zero = QI.zero()
    rho = {
        "1": Mat2.identity(),
        "i": Mat2(i, zero, zero, -i),
        "j": Mat2(zero, one, -one, zero),
        "k": Mat2(zero, i, i, zero),
    }
    torus = {
        "1": (one, one, one),
        "i": (one, -one, -one),
        "j": (-one, one, -one),
        "k": (-one, -one, one),
    }
    out = []
    for name in ("1", "i", "j", "k"):
        for sign, prefix in ((one, ""), (-one, "-")):
            out.append((prefix + name,
                        GroupElement.make(torus[name], rho[name].scale(sign))))
    return out


# -- finite subgroups ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteSubgroup:
    """A tuple of distinct group elements closed under product and inverse.

    The elements need only `*` and `==`: GroupElements here, Mat2s for the
    S3 example.  Building the group proves closure from a generating set
    (Holt-Eick-O'Brien, Handbook of Computational Group Theory, 4.1): the
    generators are taken greedily, each the first element that a
    breadth-first search from the identity along the earlier ones has not
    reached, and every reached element is multiplied on the right by every
    generator.  All products lie in the set and every element is a word in
    the generators, so the set is closed under product.  Each generator at
    least doubles the subgroup reached, so the proof makes |G| products per
    generator, at most |G| floor(log2 |G|).  The candidates are tried at
    even positions first: stabilizer lists each element g just before -g,
    so the even positions hold one of each pair, and the central -1 at
    position 1, the square of every element of order 4, comes last and is
    not taken as a generator.

    The Cayley table of indices is then filled by walking each element's
    word along those edges, with no further product; every row must hold
    the identity (every inverse is present).  An edge names its product
    through product(i, j), the index of elements[i] * elements[j] or None
    when it is not listed; by default it multiplies and looks the product
    up, and stabilizer passes _sign_product, which reads a single matrix
    entry instead.  The table queries (multiplication_table, is_abelian,
    element_orders, order_profile, is_quaternion) read it and multiply
    nothing.  An element listed twice is never reached under its second
    index, so the walk refuses it.  The group is frozen, so the table
    cannot go stale.
    """

    elements: tuple
    identity: object
    product: InitVar = None

    def __post_init__(self, product):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "_table", self.verify(product))

    def order(self):
        return len(self.elements)

    def index_of(self, h):
        for idx, e in enumerate(self.elements):
            if e == h:
                return idx
        return None

    def _multiply(self, i, j):
        return self.index_of(self.elements[i] * self.elements[j])

    def verify(self, product=None):
        """Prove that the identity, every product and every inverse are
        present; returns the products as a Cayley table of indices."""
        elements = self.elements
        product = product or self._multiply
        one = self.index_of(self.identity)
        if one is None:
            raise AssertionError("identity missing")
        gens = []
        # reached: breadth-first order from the identity; word[j] = (i, k)
        # with elements[j] == elements[i] * elements[gens[k]]
        reached, word, edges = [one], {one: None}, {}
        n = len(elements)
        for g in list(range(0, n, 2)) + list(range(1, n, 2)):
            if g in word:
                continue
            gens.append(g)
            for i in reached:        # grows while it is walked
                row = edges.setdefault(i, [])
                for k in range(len(row), len(gens)):
                    j = product(i, gens[k])
                    if j is None:
                        raise AssertionError("not closed under product")
                    row.append(j)
                    if j not in word:
                        word[j] = (i, k)
                        reached.append(j)
        if len(reached) != n:
            raise AssertionError("duplicate element")
        rows = {}
        for i in reached:
            # prod[j]: the index of elements[i] * elements[j], j reached
            prod = {one: i}
            for j in reached[1:]:
                parent, k = word[j]
                prod[j] = edges[prod[parent]][k]
            if one not in prod.values():
                raise AssertionError("inverse missing")
            rows[i] = tuple(prod[j] for j in range(n))
        return tuple(rows[i] for i in range(n))

    def multiplication_table(self):
        """Row i, column j: the index of elements[i] * elements[j]."""
        return [list(row) for row in self._table]

    def element_orders(self):
        # the elements are distinct, so index equality is element equality
        table, one = self._table, self.index_of(self.identity)
        orders = []
        for i in range(len(table)):
            n, cur = 1, table[one][i]
            while cur != one:
                cur = table[cur][i]
                n += 1
                if n > len(table) + 1:
                    raise AssertionError("element order exceeds group order")
            orders.append(n)
        return orders

    def order_profile(self):
        return dict(Counter(self.element_orders()))

    def is_abelian(self):
        table = self._table
        return all(table[i][j] == table[j][i]
                   for i in range(len(table)) for j in range(i))

    def is_quaternion(self):
        """Order 8, non-abelian, with exactly one element of order 2."""
        return (self.order() == 8 and not self.is_abelian()
                and self.order_profile().get(2, 0) == 1)


# -- stabilizer enumeration ------------------------------------------------------


def point_field(p: PointHV) -> Field:
    return deepest_field(p.coords() + (p.x.a, p.x.b))


def _pattern_matrix(B, pattern):
    """K_e: the identity when the three signs of e agree, else
    J(B_j) = (q_j 2r_j / -2p_j -q_j) for the index j whose sign differs
    from the other two (see stabilizer)."""
    if len(set(pattern)) == 1:
        return Mat2.identity()
    j = next(j for j in range(3) if pattern.count(pattern[j]) == 1)
    pj, qj, rj = B[j]
    return Mat2(qj, rj * 2, pj * -2, -qj)


_EVEN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def _sign_product(elements, patterns):
    """product(i, j) for the closure proof of stabilizer's list, in which
    elements[2k] and elements[2k + 1] are (e, g) and (e, -g) for
    e = patterns[k].

    Each listed (e, g) has form_matrix(g^-1) == M_e, the matrix with
    eigenvalue e_j on the line of B_j (stabilizer proves it in closed form).
    The three B-lines span, so M_e M_e' = M_ee'.  form_matrix is
    anti-multiplicative (which does not matter here, the M_e commute) and
    its kernel on GL2 is {+-1}: the product g g' of the listed (e, g) and
    (e', g') is +-g_m, g_m the GL2 part of the listed pair of the pattern
    ee', and the torus part of the product is exactly ee'.  One nonzero
    entry of g_m settles the sign, and that entry of g g' is one two-term
    dot, where compose would make eight products.  An entry equal to
    neither sign, or a pattern ee' not listed, names no element: the proof
    then refuses the list as not closed.

    The +- pair: as the list holds each pattern at its position, it holds
    elements[i ^ 1] = (e, -g) beside elements[i] = (e, g).  So
    elements[i ^ 1] elements[j] = -(elements[i] elements[j]), the listed
    partner of that product, whose index differs in the low bit alone: one
    probe, for i with its low bit cleared, serves both rows and is kept.
    """
    position = {e: 2 * k for k, e in enumerate(patterns)}
    rows = [((h.g.a, h.g.b), (h.g.c, h.g.d)) for h in elements]
    cols = [((h.g.a, h.g.c), (h.g.b, h.g.d)) for h in elements]
    probes = {}
    for m in position.values():
        # g_m is invertible, so some entry is nonzero
        r, c = next((r, c) for r in (0, 1) for c in (0, 1)
                    if not rows[m][r][c].is_zero())
        probes[m] = r, c, rows[m][r][c], rows[m + 1][r][c]

    def probe(i, j):
        m = position.get(tuple(x * y for x, y in
                               zip(patterns[i // 2], patterns[j // 2])))
        if m is None:
            return None
        r, c, plus, minus = probes[m]
        entry = dot(rows[i][r], cols[j][c])
        if entry == plus:
            return m
        if entry == minus:
            return m + 1
        return None

    kept = {}

    def product(i, j):
        key = i & ~1, j
        if key not in kept:
            kept[key] = probe(*key)
        k = kept[key]
        return None if k is None else k ^ (i & 1)

    return product


def stabilizer(p: PointHV, fix_beta: bool = True) -> FiniteSubgroup:
    """The stabilizer of the H-part (alpha, beta, B) of a point of the open
    locus.

    On Z the E2 entries read a_k j(B_i, B_k) = (omega/2) delta_ik, and on
    the open locus every a_k and omega are nonzero: the B_j are pairwise
    orthogonal for the pairing j, and each n_j = 2 j(B_j, B_j) = omega/a_j
    is nonzero.  The three B-lines span, so the form action of a
    stabilizing g is diagonal in the B-adapted basis with eigenvalues +-1:
    form_matrix(g^-1) == M_e, the matrix with eigenvalue e_j on the line of
    B_j, for a sign pattern e.  With t = e the forms come back,
    B'_j = e_j e_j B_j = B_j, while alpha' = det(g) alpha and
    beta' = e1 e2 e3 det(g)^-2 beta.  Alpha and beta are nonzero on the
    open locus, so g fixes the H-part iff det(g^-1) = 1 with e even, and
    sends it to (-alpha, -beta, B) iff det(g^-1) = -1 with e odd: both read
    det(g^-1) == e1 e2 e3.

    Each such g^-1 has a closed form.  For a form B = (p, q, r) let
    J(B) = (q 2r / -2p -q).  Then det J(B) = 4pr - q^2 = n(B), and
    form_matrix(J(B)) = 2 B w^T - n(B) I with w = (2r, -q, 2p), so that
    w . Q = 2 j(Q, B); by the orthogonality, form_matrix(J(B_j)) is n_j on
    the line of B_j and -n_j on the other two.  Let K_e be I when the three
    signs of e agree, and J(B_j) for the index j whose sign differs from
    the other two otherwise, and let s^2 = e1 e2 e3 det K_e.  Then
    form_matrix(K_e/s) = form_matrix(K_e)/s^2 = M_e (e1 e2 e3 is e_j, and
    the other two signs are -e_j) and det(K_e/s) = e1 e2 e3.  form_matrix
    has kernel +-1 on GL2, so +-K_e/s are the only candidates, and they lie
    in GL2 of the point's field exactly when s does: an even pattern is
    admitted iff Field.sqrt finds s, and then g^-1 and -g^-1 join together,
    with g = e1 e2 e3 adj(g^-1) and no matrix inverted.

    Of the two, the one listed first has its leading entry (a, or b when
    a = 0) equal to Field.sqrt of its square; that is read off the entry's
    numerators (scalars.is_principal_root), with no second square root.

    With fix_beta=False the constraint pinning the joint sign of
    (alpha, beta) is dropped, which admits the odd patterns as well and
    doubles the group (the double cover of (Z/2)^3 rather than of
    (Z/2)^2).  They follow from the even ones through the central element
    z = ((-1, -1, -1), i I): det(i I) = -1 and B o Sym^2(i I)^-1 = -B, so z
    sends (alpha, beta, B) to (-alpha, -beta, B).  So the odd pattern -e is
    admitted exactly when e is (i lies in every field), K_{-e} = K_e, and
    its g^-1 is +-i g_e^-1: no second square root, inverse or scaling by
    1/s.  The even patterns are listed first, then the odd ones in the
    same order.  The list is proved closed by _sign_product.
    """
    if not in_Zo(p):
        raise ContractViolation("stabilizer requires a point of the open locus")
    field = point_field(p)
    admitted, inverses = [], []
    for pattern in _EVEN_PATTERNS:
        K = _pattern_matrix(p.B, pattern)
        s = field.sqrt(K.det())
        if s is not None:
            admitted.append(pattern)
            inverses.append(K.scale(s.inverse()))
    if not fix_beta:
        i = QI.i()
        admitted += [tuple(-c for c in e) for e in admitted]
        inverses += [ginv.scale(i) for ginv in inverses]
    elements = []
    for pattern, ginv in zip(admitted, inverses):
        if not is_principal_root(ginv.b if ginv.a.is_zero() else ginv.a):
            ginv = -ginv
        # det(g^-1) = e1 e2 e3 = +-1: g is the signed adjugate, no inverse
        g = ginv.adjugate() if pattern in _EVEN_PATTERNS else -ginv.adjugate()
        # eigenvalues of the inverse-side form action; t_i = 1/c_i = c_i
        t = tuple(QI.scalar(c) for c in pattern)
        elements.append(GroupElement(t, g))
        elements.append(GroupElement(t, -g))
    return FiniteSubgroup(elements, GroupElement.identity(),
                          _sign_product(elements, admitted))


# -- orbit connection ------------------------------------------------------------


def _transport_parts(p: PointHV, field: Field):
    """(g^-1, sigma, sigma^2, (1/t_1, 1/t_2, 1/t_3)) for the transport
    (sigma^2 t, sigma g) of the H-part of a point of the open locus to the
    base point, read off the forms over at most three square-root
    extensions of field (splitting the first form, balancing the second,
    and sigma).

    With g the GL2 part of the transport, the forms move by the form matrix
    M of g^-1.  T splits the first form into a multiple of v1 v2, which
    makes the second one p2 v1^2 + r2 v2^2, and g^-1 = T diag(1/u, 1) with
    u^2 = p2/r2 balances it; the torus part t then scales each M B_i to the
    base form.  Once B = B*, omega = a1 a2 a3 beta^2 = 8, and omega has
    weight det(g)^-1 and no torus weight, so the scalar element
    (sigma^2, sigma) with sigma^2 = omega(p) det(g^-1) / 8 finishes the
    transport.  Nothing at the level of u or above is inverted when u is
    adjoined: 1/u = u (r2/p2) inverts p2 one level below, sigma^2 lies in
    the field sigma is adjoined to, and 1/t_i is the read-off coefficient
    times the inverse of the base form's rational one.
    """
    if not in_Zo(p):
        raise ContractViolation("canonicalize requires a point of the open locus")
    target = base_point()
    split = split_form(p.B[0], field)
    if split is None:
        raise DegeneratePointError("first form is degenerate")
    field, T = split
    p2, q2, r2 = apply_form_matrix(form_matrix(T), p.B[1])
    if not q2.is_zero():
        raise AssertionError("second form not orthogonal to the first")
    if p2.is_zero() or r2.is_zero():
        raise DegeneratePointError("second form degenerate after splitting")
    field, u = adjoin_sqrt(field, p2 / r2)
    ginv = T * Mat2.diagonal(u * (r2 / p2), field.one())
    # the last square root before the form work, so that a tower at the
    # depth cap gives up at once
    sigma2 = omega(p) * ginv.det() / 8
    field, sigma = adjoin_sqrt(field, sigma2)
    M = form_matrix(ginv)
    tinv = []
    for b, bstar in zip(p.B, target.B):
        # the first nonzero coefficient of the base form fixes the scale
        k = next(k for k, c in enumerate(bstar) if not c.is_zero())
        tinv.append(sum_of_products(tuple((1, m, c) for m, c in zip(M.rows[k], b)),
                                    scale=bstar[k].inverse()))
    return ginv, sigma, sigma2, tinv


def canonicalize(p: PointHV) -> GroupElement:
    """The transport (sigma^2 t, sigma g) of the H-part of a point of the
    open locus to the base point, every entry in the field of sigma, built
    from _transport_parts over the point's own field.  It is not verified
    here: connect checks the element it builds with one act.
    """
    ginv, sigma, sigma2, tinv = _transport_parts(p, point_field(p))
    field = sigma.field
    return GroupElement(tuple(field.lift(sigma2 * x.inverse()) for x in tinv),
                        ginv.inverse().scale(sigma))


def connect(p: PointHV, q: PointHV):
    """A group element carrying the H-part of p exactly to the H-part of q.

    h = T_q^-1 T_p for the transports T of both points to the base point
    (see _transport_parts), proved with one act.  q's transport starts
    from the deeper of T_p's field and q's, so both live in one tower.
    T_q^-1 = (t_q^-1 / sigma_q^2, g_q^-1 / sigma_q) is read off q's parts
    with sigma_q^2 the one Scalar inverted: h = (t_q^-1 T_p.t / sigma_q^2,
    (g_q^-1 T_p.g) sigma_q / sigma_q^2), every entry in the field of
    sigma_q.  Reports None only when a square-root extension would exceed
    the tower depth cap, never as a claim of non-existence.  Points whose
    scalars lie in two towers neither of which contains the other raise
    FieldError.
    """
    try:
        tp = canonicalize(p)
        ginv, sigma, sigma2, tinv = _transport_parts(
            q, deepest_field(tp.t + q.coords() + (q.x.a, q.x.b)))
    except ExtensionLimitError:
        return None
    field, w = sigma.field, sigma2.inverse()
    h = GroupElement(
        tuple(field.lift(sum_of_products(((1, x, y, w),))) for x, y in zip(tinv, tp.t)),
        (ginv * tp.g).scale(sigma * w))
    if not act(h, p).same_h_part(q):
        raise AssertionError("connect verification failed")
    return h
