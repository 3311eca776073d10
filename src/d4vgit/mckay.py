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

from .equations import ContractViolation, in_Zo, omega, residuals, wedge
from .gitcore import (
    GroupElement, PointHV, act, apply_form_matrix, form_matrix, split_form,
)
from .linalg import Mat2, Mat3
from .scalars import ExtensionLimitError, Field, QI, adjoin_sqrt, deepest_field, dot


class DegeneratePointError(ContractViolation):
    """A form of the point is too degenerate to transport to the base point."""


# -- the base point ------------------------------------------------------------


_CHARACTER_FORMS = ((0, 2, 0), (1, 0, 1), (1, 0, -1))


def base_point(x=(0, 0)) -> PointHV:
    """The rational base point of the open locus.

    The forms are fixed as the three character projections of Sym^2 V for
    the quaternion 2-dimensional irrep; (a1, a2, a3) are then solved exactly
    and linearly from the third equation at beta = 1, and the full residual
    evaluation re-checks the solution.  The equations do not involve x, so
    the H-part is solved and checked once per process.
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
    position 1, the square of every element of order 4, comes last (16, 48
    and 12 products for the orders 8, 16 and 6, against |G|^2).  The
    Cayley table of indices is then filled by walking each element's word
    along those edges, with no further product; every row must hold the
    identity (every inverse is present).  An edge names its product through
    product(i, j), the index of elements[i] * elements[j] or None when it is
    not listed; by default it multiplies and looks the product up, and
    stabilizer passes one that reads a single matrix entry instead (see
    _sign_product).  The table
    queries (multiplication_table, is_abelian, element_orders,
    order_profile, is_quaternion) read it and multiply nothing.  An element
    listed twice is never reached under its second index, so the walk
    refuses it.  The group is frozen, so the table cannot go stale.
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


def _line_projectors(B):
    """The rank-one projectors P_j = C[:, j] C^-1[j, :], for C the matrix
    with the B-triples as columns, stored entry-wise: entry (r, c) is the
    triple (P_0, P_1, P_2)[r, c].  det C = det B, which the open-locus
    check of the caller has proved nonzero."""
    C = Mat3([[B[j][i] for j in range(3)] for i in range(3)])
    Cinv = C.adjugate() * C.det().inverse()
    return [[tuple(C[r, j] * Cinv[j, c] for j in range(3)) for c in range(3)]
            for r in range(3)]


def _form_matrix_on_lines(P, pattern):
    """The 3x3 matrix acting on coefficient triples with the B-lines as
    eigenvectors and the given +-1 eigenvalues: sum_j e_j P_j, additions
    only."""
    def entry(parts):
        a, b, c = (x if e == 1 else -x for x, e in zip(parts, pattern))
        return a + b + c
    return Mat3([[entry(parts) for parts in row] for row in P])


def _recover_from_form_action(M: Mat3, field: Field):
    """g with form_matrix(g) == M, or None.

    The columns of M are the images of the basis triples, so the entries of
    g are pinned by square roots and ratios of M-entries.
    """
    m = M.rows
    # M = [[a^2, ac, c^2], [2ab, ad+bc, 2cd], [b^2, bd, d^2]] for g = (a b / c d)
    a2, c2 = m[0][0], m[0][2]
    b2, d2 = m[2][0], m[2][2]
    if not a2.is_zero():
        a = field.sqrt(a2)
        if a is None:
            return None
        b = m[1][0] / (a * 2)
        c = m[0][1] / a
        d = (m[1][1] - b * c) / a
    elif not b2.is_zero():
        b = field.sqrt(b2)
        if b is None:
            return None
        a = field.zero()
        c = m[1][1] / b          # M[1][1] = ad + bc = bc when a = 0
        if c.is_zero():
            return None
        d = m[1][2] / (c * 2)
    else:
        return None
    g = Mat2(a, b, c, d)
    # exact verification: column j of form_matrix(g) is the image of the
    # j-th basis triple
    return g if form_matrix(g) == M else None


_EVEN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
_ODD_PATTERNS = ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))


def _sign_product(elements, patterns):
    """product(i, j) for the closure proof of stabilizer's list, in which
    elements[2k] and elements[2k + 1] are (e, g) and (e, -g) for
    e = patterns[k].

    Each listed (e, g) has the verified certificate form_matrix(g^-1) == M_e,
    M_e = sum_j e_j P_j.  The P_j are complementary idempotents, since
    C C^-1 = I exactly, so M_e M_e' = M_ee'.  form_matrix is
    anti-multiplicative (which does not matter here, the M_e commute) and
    its kernel on GL2 is {+-1}: the product g g' of the listed (e, g) and
    (e', g') is +-g_m, g_m the GL2 part of the listed pair of the pattern
    ee', and the torus part of the product is exactly ee'.  One nonzero
    entry of g_m settles the sign, and that entry of g g' is one two-term
    dot, where compose would make eight products.  An entry equal to
    neither sign, or a pattern ee' not listed, names no element: the proof
    then refuses the list as not closed.
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

    def product(i, j):
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

    return product


def stabilizer(p: PointHV, fix_beta: bool = True) -> FiniteSubgroup:
    """The stabilizer of the H-part (alpha, beta, B) of a point of the open
    locus.

    The three B-lines span, so the form action of any stabilizing g is
    diagonal in the B-adapted basis with eigenvalues +-1.  For each sign
    pattern e, exact square-root recovery proves form_matrix(g^-1) == M_e
    and fixes g up to sign; that proof is the membership certificate.  With
    t = e the forms come back, B'_j = e_j e_j B_j = B_j, while
    alpha' = det(g) alpha and beta' = e1 e2 e3 det(g)^-2 beta.  Alpha and
    beta are nonzero on the open locus, so g fixes the H-part iff
    det(g^-1) = 1 with e even, and sends it to (-alpha, -beta, B) iff
    det(g^-1) = -1 with e odd: both read det(g^-1) == e1 e2 e3, the
    comparison act would make, in closed form.  (A verified recovery always
    passes it: det(M_e) = e1 e2 e3 = det(g^-1)^3, and the eigenvalues of
    g^-1 multiply to +-1.)  -g has the same form matrix and determinant, so
    g and -g join together.  With fix_beta=False the constraint pinning the
    joint sign of (alpha, beta) is dropped, which admits the odd patterns as
    well and doubles the group (the double cover of (Z/2)^3 rather than of
    (Z/2)^2).  The certificates also prove the group closed: the product of
    (e, g) and (e', g') is (ee', +-g_m) for the listed pair of the pattern
    ee', and one matrix entry picks the sign (_sign_product), so no element
    is composed.
    """
    if not in_Zo(p):
        raise ContractViolation("stabilizer requires a point of the open locus")
    field = point_field(p)
    elements, admitted = [], []
    patterns = list(_EVEN_PATTERNS) + (list(_ODD_PATTERNS) if not fix_beta else [])
    P = _line_projectors(p.B)
    for pattern in patterns:
        # eigenvalues of the inverse-side form action; t_i = 1/c_i = c_i
        sign = pattern[0] * pattern[1] * pattern[2]
        ginv = _recover_from_form_action(_form_matrix_on_lines(P, pattern), field)
        if ginv is None or ginv.det() != sign:
            continue
        g = ginv.adjugate().scale(sign)     # det(g^-1) = sign = +-1: no inverse
        t = tuple(QI.scalar(c) for c in pattern)
        admitted.append(pattern)
        elements.append(GroupElement(t, g))
        elements.append(GroupElement(t, g.scale(-1)))
    return FiniteSubgroup(elements, GroupElement.identity(),
                          _sign_product(elements, admitted))


# -- orbit connection ------------------------------------------------------------


def canonicalize(p: PointHV) -> GroupElement:
    """The transport of the H-part of a point of the open locus to the base
    point, read off the forms over at most three square-root extensions
    (splitting the first form, balancing the second, and sigma).

    With g the GL2 part of the transport, the forms move by the form matrix
    M of g^-1.  T splits the first form into a multiple of v1 v2, which
    makes the second one p2 v1^2 + r2 v2^2, and g^-1 = T diag(1/u, 1) with
    u^2 = p2/r2 balances it; the torus part t then scales each M B_i to the
    base form.  Once B = B*, omega = a1 a2 a3 beta^2 = 8, and omega has
    weight det(g)^-1 and no torus weight, so the scalar element
    (sigma^2, sigma) with sigma^2 = omega(p) det(g^-1) / 8 finishes the
    transport.  The transport is not verified here: connect checks the
    element it builds from two of them with one act.
    """
    if not in_Zo(p):
        raise ContractViolation("canonicalize requires a point of the open locus")
    target = base_point()
    split = split_form(p.B[0], point_field(p))
    if split is None:
        raise DegeneratePointError("first form is degenerate")
    field, T = split
    p2, q2, r2 = apply_form_matrix(form_matrix(T), p.B[1])
    if not q2.is_zero():
        raise AssertionError("second form not orthogonal to the first")
    if p2.is_zero() or r2.is_zero():
        raise DegeneratePointError("second form degenerate after splitting")
    field, u = adjoin_sqrt(field, p2 / r2)
    ginv = T * Mat2.diagonal(u.inverse(), field.one())
    # the last square root before the form work, so that a tower at the
    # depth cap gives up at once
    field, sigma = adjoin_sqrt(field, omega(p) * ginv.det() / 8)
    M = form_matrix(ginv)
    t = []
    for b, bstar in zip(p.B, target.B):
        # the first nonzero coefficient of the base form fixes the scale
        k = next(k for k, c in enumerate(bstar) if not c.is_zero())
        t.append(bstar[k] / dot(M.rows[k], b))
    sigma2 = sigma ** 2
    return GroupElement(tuple(sigma2 * ti for ti in t),
                        ginv.inverse().scale(sigma))


def connect(p: PointHV, q: PointHV):
    """A group element carrying the H-part of p exactly to the H-part of q.

    Composes the transports of both points to the base point and proves the
    result with one act.  Reports None only when a square-root extension
    would exceed the tower depth cap, never as a claim of non-existence.
    """
    try:
        tp = canonicalize(p)
        tq = canonicalize(q)
    except ExtensionLimitError:
        return None
    h = tq.inverse().compose(tp)
    if not act(h, p).same_h_part(q):
        raise AssertionError("connect verification failed")
    return h
