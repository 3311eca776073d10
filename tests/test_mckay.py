"""The base point, its quaternion stabilizer, and orbit connection."""

import importlib.util
import pathlib
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from d4vgit.equations import ContractViolation, det_b, in_Zo, omega, residuals
from d4vgit.cyclic_s3 import s3_base_point, s3_stabilizer
from d4vgit import gitcore, mckay, scalars
from d4vgit.gitcore import (
    GroupElement, PointHV, act, form_matrix, group_to_json, pairing_terms, split_form,
)
from d4vgit.linalg import Mat2, Mat3
from d4vgit.poly import Poly
from d4vgit.mckay import (
    _EVEN_PATTERNS, DegeneratePointError, FiniteSubgroup,
    _pattern_matrix, base_point, canonicalize, connect, point_field,
    quaternion_rep, stabilizer,
)
from d4vgit.sampling import (
    rand_chart_point, rand_group_element, rand_tower_group_element, rand_z_point,
)
from d4vgit.scalars import (
    QI, ExtensionLimitError, FieldError, adjoin_sqrt, is_principal_root, sum_of_products,
)


class TestBasePoint:
    def test_residuals_zero(self):
        assert residuals(base_point()).is_zero()

    def test_open_locus_and_determinant(self):
        b = base_point()
        assert in_Zo(b)
        a1, a2, a3 = b.alpha
        assert det_b(b) * 2 == b.beta ** 3 * a1 * a2 * a3

    def test_exact_coordinates(self):
        b = base_point()
        assert b.alpha == (QI.scalar(-2), QI.scalar(2), QI.scalar(-2))
        assert b.beta == QI.one()
        assert b.B == ((QI.zero(), QI.scalar(2), QI.zero()),
                       (QI.one(), QI.zero(), QI.one()),
                       (QI.one(), QI.zero(), QI.scalar(-1)))

    def test_h_part_is_solved_once(self):
        """base_point(x) reuses one solved and checked H-part for every x."""
        b1, b2 = base_point(x=(1, 2)), base_point(x=(3, -1))
        assert b1.alpha is b2.alpha and b1.B is b2.B
        assert tuple(b1.x) == (QI.scalar(1), QI.scalar(2))
        assert tuple(b2.x) == (QI.scalar(3), QI.scalar(-1))

    def test_quaternion_rep_fixes_form_lines(self):
        """Each group element of the quaternion representation scales each
        form line: Sym^2 of its GL2 part is diagonal in the B-adapted basis."""
        b = base_point()
        for name, h in quaternion_rep():
            q = act(h, b)
            assert q.alpha == b.alpha and q.beta == b.beta and q.B == b.B, name

    def test_quaternion_relations(self):
        elems = dict(quaternion_rep())
        i, j, k = elems["i"], elems["j"], elems["k"]
        minus_one = elems["-1"]
        assert i.compose(i).g == minus_one.g
        assert j.compose(j).g == minus_one.g
        assert i.compose(j).g == k.g
        assert j.compose(i).g == k.g.scale(QI.scalar(-1))


class TestStabilizer:
    def test_order_eight_quaternion(self):
        stab = stabilizer(base_point())
        assert stab.order() == 8
        assert stab.is_quaternion()
        profile = stab.order_profile()
        assert profile == {1: 1, 2: 1, 4: 6}

    def test_elements_are_hashable(self):
        """The eight elements are distinct and hash by value, so a set holds
        all eight."""
        assert len(set(stabilizer(base_point()).elements)) == 8

    def test_multiplication_table_closure(self):
        stab = stabilizer(base_point())
        table = stab.multiplication_table()
        assert all(entry is not None for row in table for entry in row)
        assert stab.verify()

    def test_relaxed_order_sixteen(self):
        relaxed = stabilizer(base_point(), fix_beta=False)
        assert relaxed.order() == 16
        assert not relaxed.is_abelian()

    def test_double_cover_signature(self):
        """Every stabilizer element squares into the center {+-identity}."""
        stab = stabilizer(base_point())
        center = (Mat2.identity(), Mat2.identity().scale(QI.scalar(-1)))
        for h in stab.elements:
            assert h.g * h.g in center

    def test_conjugate_stabilizer(self):
        rng = random.Random(0)
        b = base_point()
        h = rand_group_element(rng)
        moved = act(h, b)
        stab = stabilizer(moved)
        assert stab.order() == 8 and stab.is_quaternion()
        # element-wise conjugation of the base stabilizer
        base_stab = stabilizer(b)
        for s in base_stab.elements:
            conj = h.compose(s).compose(h.inverse())
            assert stab.index_of(conj) is not None

    def test_contract_violation_off_open_locus(self):
        p = PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (0, 0))
        with pytest.raises(ContractViolation):
            stabilizer(p)


class TestConnect:
    def test_roundtrip_orbit(self):
        rng = random.Random(1)
        b = base_point()
        for _ in range(5):
            h = rand_group_element(rng)
            q = act(h, b)
            found = connect(b, q)
            assert found is not None
            moved = act(found, b)
            assert (moved.alpha == q.alpha and moved.beta == q.beta
                    and moved.B == q.B)

    def test_self_connect_is_stabilizer_element(self):
        b = base_point()
        h = connect(b, b)
        assert h is not None
        assert stabilizer(b).index_of(h) is not None

    def test_connect_two_independent_samples(self):
        rng = random.Random(2)
        b = base_point()
        p = act(rand_group_element(rng), b)
        q = act(rand_group_element(rng), b)
        found = connect(p, q)
        assert found is not None
        moved = act(found, p)
        assert (moved.alpha == q.alpha and moved.beta == q.beta
                and moved.B == q.B)

    def test_canonicalize_transports_to_base(self):
        rng = random.Random(3)
        b = base_point()
        p = act(rand_group_element(rng), b)
        moved = act(canonicalize(p), p)
        assert moved.alpha == b.alpha and moved.beta == b.beta and moved.B == b.B

    def test_depth_exhaustion_reports_none(self):
        """The three square roots connect adjoins take a depth-2 tower past
        the depth cap of 4, so connect gives up rather than claim
        non-existence; over a depth-1 tower they fit and the element found
        is verified."""
        b = base_point()
        for seed in range(6):
            assert connect(b, _tower_chart_translate(2, seed)) is None
            q = _tower_chart_translate(1, seed)
            h = connect(b, q)
            assert h is not None and act(h, b).same_h_part(q)


def test_point_field_tracks_towers():
    b = base_point()
    assert point_field(b).is_base
    field, s = adjoin_sqrt(QI, 2)
    lifted = PointHV.make([field.lift(a) * s * s for a in b.alpha],
                          b.beta, b.B, (0, 0))
    assert point_field(lifted).depth == 1


def _tower_translate(depth, seed):
    """The base point moved by a group element over a depth-`depth` tower."""
    p = act(rand_tower_group_element(random.Random(seed), depth), base_point())
    assert point_field(p).depth == depth
    return p


def _tower_chart_translate(depth, seed):
    """A height-16 rational chart point moved by a group element over a
    depth-`depth` tower; connecting it adjoins three more square roots."""
    rng = random.Random(seed)
    c = rand_chart_point(rng, 16)
    return act(rand_tower_group_element(rng, depth), c)


def _tower_stabilizer(depth, seed):
    return stabilizer(_tower_translate(depth, seed))


GROUPS = {
    "quaternion_8": (lambda: stabilizer(base_point()), GroupElement),
    "relaxed_16": (lambda: stabilizer(base_point(), fix_beta=False), GroupElement),
    "s3_6": (lambda: s3_stabilizer(s3_base_point()), Mat2),
}

TOWER_GROUPS = {
    "depth1_translate_8": lambda: _tower_stabilizer(1, 5),
    "depth2_translate_8": lambda: _tower_stabilizer(2, 6),
}


def _brute_force_table(elements):
    """All |G|^2 products, each named by the first equal element."""
    def first(h):
        return next(k for k, e in enumerate(elements) if e == h)
    return [[first(a * b) for b in elements] for a in elements]


@pytest.mark.parametrize("name", sorted(GROUPS) + sorted(TOWER_GROUPS))
def test_cayley_table_matches_brute_force(name):
    build = GROUPS[name][0] if name in GROUPS else TOWER_GROUPS[name]
    group = build()
    assert group.order() == int(name.rsplit("_", 1)[1])
    assert group.multiplication_table() == _brute_force_table(group.elements)


def _generic_table(group):
    """The Cayley table of the generic proof, which multiplies each edge's
    elements and looks the product up."""
    return FiniteSubgroup(group.elements, group.identity).multiplication_table()


SIGN_GROUPS = {name: GROUPS[name][0] for name in GROUPS}
SIGN_GROUPS.update(TOWER_GROUPS)
SIGN_GROUPS.update(
    {"depth%d_seed%d_%s" % (depth, seed, fix_beta):
     (lambda depth=depth, seed=seed, fix_beta=fix_beta:
      stabilizer(_tower_translate(depth, seed), fix_beta=fix_beta))
     for depth, seed in ((1, 7), (1, 8), (2, 7)) for fix_beta in (True, False)})


@pytest.mark.parametrize("name", sorted(SIGN_GROUPS))
def test_sign_decided_table_matches_the_full_product(name):
    """stabilizer names each edge's product by one entry's sign; the table
    equals the generic proof's and that of all |G|^2 products, on every
    fixture group and on depth-1 and depth-2 translates with both
    fix_beta."""
    group = SIGN_GROUPS[name]()
    table = group.multiplication_table()
    assert table == _generic_table(group)
    assert table == _brute_force_table(group.elements)


def test_sign_proof_refuses_an_entry_of_neither_sign():
    """The pair (e, 2g), (e, -2g) breaks its certificate: some product's
    probed entry is then neither sign of the listed one, and the proof
    refuses the list, as the generic proof does."""
    elements = list(stabilizer(base_point()).elements)
    elements[2:4] = [GroupElement(h.t, h.g.scale(QI.scalar(2))) for h in elements[2:4]]
    for product in (mckay._sign_product(elements, _EVEN_PATTERNS), None):
        with pytest.raises(AssertionError, match="not closed under product"):
            FiniteSubgroup(elements, GroupElement.identity(), product)


def test_sign_proof_refuses_a_missing_pattern():
    """Q8 without the pair of the last even pattern: a product of two listed
    elements has a pattern that is not listed."""
    elements = list(stabilizer(base_point()).elements)[:6]
    with pytest.raises(AssertionError, match="not closed under product"):
        FiniteSubgroup(elements, GroupElement.identity(),
                       mckay._sign_product(elements, _EVEN_PATTERNS[:3]))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_queries_multiply_only_to_prove_closure(name, monkeypatch):
    """Building the group proves closure with at most |G| floor(log2 |G|)
    products; the table queries read their indices and multiply nothing
    more."""
    build, cls = GROUPS[name]
    group = build()
    count = [0]
    real = cls.__mul__

    def counting(a, b):
        count[0] += 1
        return real(a, b)

    monkeypatch.setattr(cls, "__mul__", counting)
    again = FiniteSubgroup(group.elements, group.identity)
    table = again.multiplication_table()
    again.is_abelian()
    profile = again.order_profile()
    again.is_quaternion()
    n = again.order()
    assert count[0] <= n * (n.bit_length() - 1)     # n floor(log2 n)
    monkeypatch.undo()
    assert table == [[again.index_of(a * b) for b in again.elements]
                     for a in again.elements]
    assert not again.is_abelian()
    assert profile == {8: {1: 1, 2: 1, 4: 6}, 16: {1: 1, 2: 7, 4: 8},
                       6: {1: 1, 2: 3, 3: 2}}[n]


def test_group_is_immutable():
    group = stabilizer(base_point())
    assert isinstance(group.elements, tuple)
    with pytest.raises(AttributeError):
        group.elements = group.elements[:1]
    with pytest.raises(AttributeError):
        group.identity = None


def test_group_proof_still_refuses_a_non_group():
    quats = [h for _, h in quaternion_rep()]
    with pytest.raises(AssertionError, match="not closed"):
        FiniteSubgroup(quats[:5], GroupElement.identity())
    with pytest.raises(AssertionError, match="identity missing"):
        FiniteSubgroup(quats[1:2], GroupElement.identity())


@pytest.mark.parametrize("dropped", range(8))
def test_group_with_one_element_dropped_is_refused(dropped):
    quats = [h for _, h in quaternion_rep()]
    rest = quats[:dropped] + quats[dropped + 1:]
    message = "identity missing" if dropped == 0 else "not closed"
    with pytest.raises(AssertionError, match=message):
        FiniteSubgroup(rest, GroupElement.identity())


def test_singular_idempotent_is_refused_as_missing_inverse():
    """{1, E} with E^2 = E singular is closed under product but no group."""
    E = Mat2.diagonal(QI.one(), QI.zero())
    with pytest.raises(AssertionError, match="inverse missing"):
        FiniteSubgroup([Mat2.identity(), E], Mat2.identity())


def test_duplicate_elements_are_refused():
    """A group lists each element once: Q8 listed with -1, 1, k and -k
    repeated (12 entries), and Q8 with only the identity repeated, are each
    refused once the walk from the identity is done."""
    quats = [h for _, h in quaternion_rep()]
    copies = [GroupElement(h.t, h.g) for h in quats]
    # indices 3, 9, 10, 11 repeat -1, 1, k, -k
    listed = quats[:3] + copies[1:2] + quats[3:] + copies[0:1] + copies[6:]
    for elements in (listed, quats + copies[:1]):
        with pytest.raises(AssertionError, match="duplicate element"):
            FiniteSubgroup(elements, GroupElement.identity())


# -- membership: the closed form against projectors and recovery ---------------


def _adjugate3(m):
    """The adjugate of a Mat3, from its nine 2x2 minors."""
    r = m.rows
    cof = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            a, b = [k for k in range(3) if k != i]
            c, d = [k for k in range(3) if k != j]
            minor = r[a][c] * r[b][d] - r[a][d] * r[b][c]
            cof[i][j] = minor if (i + j) % 2 == 0 else -minor
    return Mat3([[cof[j][i] for j in range(3)] for i in range(3)])


def test_reference_adjugate_identity():
    rng = random.Random(0)
    for _ in range(30):
        m = Mat3([[QI.scalar(rng.randint(-3, 3)) for _ in range(3)]
                  for _ in range(3)])
        prod = _adjugate3(m) * m
        d = m.det()
        expected = Mat3([[d if i == j else 0 for j in range(3)] for i in range(3)])
        assert prod == expected


def _line_projectors(B):
    """The rank-one projectors P_j = C[:, j] C^-1[j, :], for C the matrix
    with the B-triples as columns, stored entry-wise: entry (r, c) is the
    triple (P_0, P_1, P_2)[r, c]."""
    C = Mat3([[B[j][i] for j in range(3)] for i in range(3)])
    Cinv = _adjugate3(C) * C.det().inverse()
    return [[tuple(C[r, j] * Cinv[j, c] for j in range(3)) for c in range(3)]
            for r in range(3)]


def _form_matrix_on_lines(P, pattern):
    """M_e = sum_j e_j P_j: the B-lines are its eigenvectors, with the
    eigenvalues e_j."""
    return Mat3([[sum(x if e == 1 else -x for x, e in zip(parts, pattern))
                  for parts in row] for row in P])


def _recover_from_form_action(M, field):
    """g with form_matrix(g) == M, or None: the entries of g are pinned by
    square roots and ratios of M-entries, then checked exactly."""
    m = M.rows
    # M = [[a^2, ac, c^2], [2ab, ad+bc, 2cd], [b^2, bd, d^2]] for g = (a b / c d)
    if not m[0][0].is_zero():
        a = field.sqrt(m[0][0])
        if a is None:
            return None
        b = m[1][0] / (a * 2)
        c = m[0][1] / a
        d = (m[1][1] - b * c) / a
    elif not m[2][0].is_zero():
        b = field.sqrt(m[2][0])
        if b is None:
            return None
        a = field.zero()
        c = m[1][1] / b
        if c.is_zero():
            return None
        d = m[1][2] / (c * 2)
    else:
        return None
    g = Mat2(a, b, c, d)
    return g if form_matrix(g) == M else None


_ODD_PATTERNS = ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))


def _reference_stabilizer_elements(p, fix_beta=True, twist=None):
    """The stabilizer's elements built with no closed form: M_e is summed
    from the line projectors of C^-1, g^-1 is recovered from it by square
    roots (twist(g^-1) instead, when a twist is given), and each candidate,
    and its negative, is moved by act and compared with the point (or,
    relaxed, with the point with (alpha, beta) negated).  Returns the
    admitted elements in order."""
    if not in_Zo(p):
        raise ContractViolation("stabilizer requires a point of the open locus")
    field = point_field(p)
    flipped = PointHV(tuple(-a for a in p.alpha), -p.beta, p.B, p.x)
    elements = []
    patterns = list(_EVEN_PATTERNS) + (list(_ODD_PATTERNS) if not fix_beta else [])
    P = _line_projectors(p.B)
    minus_one = QI.scalar(-1)
    for pattern in patterns:
        # eigenvalues of the inverse-side form action; t_i = 1/c_i = c_i
        ginv = _recover_from_form_action(_form_matrix_on_lines(P, pattern), field)
        if ginv is None:
            continue
        if twist is not None:
            ginv = twist(ginv)
        g = ginv.inverse()
        t = tuple(QI.scalar(c) for c in pattern)
        # the sign -1 candidate inverts -ginv, which is -g
        for gl2 in (g, g.scale(minus_one)):
            h = GroupElement.make(t, gl2)
            moved = act(h, p)
            if moved.same_h_part(p) or (not fix_beta
                                        and moved.same_h_part(flipped)):
                elements.append(h)
    return elements


def test_form_matrix_of_j_is_a_rank_one_update():
    """For B = (p, q, r) and J(B) = (q 2r / -2p -q): det J(B) = n(B) =
    2 j(B, B), and form_matrix(J(B)) = 2 B w^T - n(B) I with
    w = (2r, -q, 2p), so that w . Q = 2 j(Q, B).  J(B_j) is the K_e of
    every pattern whose j-th sign differs from the other two."""
    p, q, r = (Poly.ring("pqr")[v] for v in "pqr")
    B = (p, q, r)
    n = sum_of_products(pairing_terms(B, B))
    w = (r * 2, -q, p * 2)
    for pattern in ((-1, 1, 1), (1, -1, 1), (1, 1, -1),
                    (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        K = _pattern_matrix((B, B, B), pattern)
        assert (K.a, K.b, K.c, K.d) == (q, r * 2, p * -2, -q)
        assert K.det() == n
        M = form_matrix(K)
        for i in range(3):
            for k in range(3):
                want = B[i] * w[k] * 2 - (n if i == k else 0)
                assert M[i, k] == want


STABILIZER_POINTS = {
    "base": base_point,
    "translate_depth1": lambda: _tower_translate(1, 5),
    "translate_depth2": lambda: _tower_translate(2, 6),
}
STABILIZER_POINTS.update(
    {"z_point_%d" % seed: (lambda seed=seed: rand_z_point(random.Random(seed)))
     for seed in range(20)})


def test_stabilizer_takes_the_signed_adjugate(monkeypatch):
    """det(g^-1) = e1 e2 e3 = +-1 for every admitted pattern, so g is the
    signed adjugate of g^-1 and no matrix is inverted."""
    points = [STABILIZER_POINTS[name]() for name in
              ("base", "translate_depth1", "translate_depth2")]

    def refuse(self):
        raise AssertionError("stabilizer inverted a matrix")

    monkeypatch.setattr(Mat2, "inverse", refuse)
    for p in points:
        for fix_beta, order in ((True, 8), (False, 16)):
            group = stabilizer(p, fix_beta=fix_beta)
            assert group.order() == order


@pytest.mark.parametrize("fix_beta", [True, False])
@pytest.mark.parametrize("name", sorted(STABILIZER_POINTS))
def test_stabilizer_matches_per_candidate_reference(name, fix_beta):
    """The same elements, in the same order and with the same coordinates,
    as the loop that moved every candidate by act."""
    p = STABILIZER_POINTS[name]()
    got = stabilizer(p, fix_beta=fix_beta).elements
    want = _reference_stabilizer_elements(p, fix_beta=fix_beta)
    assert list(got) == want
    assert [group_to_json(h) for h in got] == [group_to_json(h) for h in want]


def _per_pattern_stabilizer(p, fix_beta=True):
    """The stabilizer built pattern by pattern, with no use of the central
    z: every pattern, odd ones included, takes its own K_e, one Field.sqrt
    of e1 e2 e3 det K_e and g^-1 = +-K_e/s, listed by the same sign rule;
    the Cayley table comes from the generic closure proof."""
    if not in_Zo(p):
        raise ContractViolation("stabilizer requires a point of the open locus")
    field = point_field(p)
    elements = []
    patterns = list(_EVEN_PATTERNS) + (list(_ODD_PATTERNS) if not fix_beta else [])
    for pattern in patterns:
        sign = pattern[0] * pattern[1] * pattern[2]
        K = _pattern_matrix(p.B, pattern)
        s = field.sqrt(K.det() * sign)
        if s is None:
            continue
        ginv = K.scale(s.inverse())
        if not is_principal_root(ginv.b if ginv.a.is_zero() else ginv.a):
            ginv = -ginv
        g = ginv.adjugate() if sign == 1 else -ginv.adjugate()
        t = tuple(QI.scalar(c) for c in pattern)
        elements += [GroupElement(t, g), GroupElement(t, -g)]
    return FiniteSubgroup(elements, GroupElement.identity())


@pytest.mark.parametrize("fix_beta", [True, False])
@pytest.mark.parametrize("name", sorted(STABILIZER_POINTS))
def test_stabilizer_matches_the_per_pattern_construction(name, fix_beta):
    """The odd patterns read off the even ones through z give the elements,
    listing order, coordinates and Cayley table of the construction that
    takes one square root per pattern, at b*, at Z-points whose
    stabilizers have orders 2, 4 and 8, and at depth-1 and depth-2
    translates."""
    p = STABILIZER_POINTS[name]()
    got, want = stabilizer(p, fix_beta=fix_beta), _per_pattern_stabilizer(p, fix_beta)
    assert got.elements == want.elements
    assert [group_to_json(h) for h in got.elements] == [group_to_json(h) for h in want.elements]
    assert got.multiplication_table() == want.multiplication_table()


def _central_z():
    """z = ((-1, -1, -1), i I)."""
    i, zero = QI.i(), QI.zero()
    return GroupElement((QI.scalar(-1),) * 3, Mat2(i, zero, zero, i))


@pytest.mark.parametrize("seed", range(4))
def test_central_z_negates_alpha_and_beta(seed):
    """act(z, p) = (-alpha, -beta, B) at Z-points, at a rational translate
    of b* and at depth-1 and depth-2 tower translates: det(i I) = -1 and
    B o Sym^2(i I)^-1 = -B, which the torus sign undoes.  So the odd half
    of the relaxed stabilizer is z times the strict one."""
    rng = random.Random(seed)
    z = _central_z()
    points = [rand_z_point(rng), rand_z_point(rng, 2 ** 64),
              act(rand_group_element(rng), base_point()),
              _tower_translate(1, seed), _tower_translate(2, seed)]
    for p in points:
        q = act(z, p)
        assert q.alpha == tuple(-a for a in p.alpha)
        assert q.beta == -p.beta and q.B == p.B
        strict = stabilizer(p).elements
        odd = stabilizer(p, fix_beta=False).elements[len(strict):]
        assert set(odd) == {z * h for h in strict}


def test_reference_points_reach_stabilizer_orders_two_four_and_eight():
    orders = {stabilizer(STABILIZER_POINTS[name]()).order()
              for name in STABILIZER_POINTS}
    assert orders == {2, 4, 8}


@pytest.mark.parametrize("fix_beta", [True, False])
def test_stabilizer_makes_no_group_action(fix_beta, monkeypatch):
    calls = [0]
    real = gitcore.act

    def counting(h, p):
        calls[0] += 1
        return real(h, p)

    monkeypatch.setattr(mckay, "act", counting)
    monkeypatch.setattr(gitcore, "act", counting)
    for p in (base_point(), _tower_translate(1, 5)):
        assert stabilizer(p, fix_beta=fix_beta).order() == (8 if fix_beta else 16)
    assert calls[0] == 0


@pytest.mark.parametrize("fix_beta", [True, False])
def test_candidate_with_wrong_determinant_is_never_admitted(fix_beta):
    """Every listed element has det(g^-1) = e1 e2 e3.  i g^-1 has
    determinant -det(g^-1), never e1 e2 e3: act, which sends each B_j to
    -B_j, admits no such candidate."""
    for p in (base_point(), _tower_translate(1, 5)):
        for h in stabilizer(p, fix_beta=fix_beta).elements:
            assert h.g.inverse().det() == h.t[0] * h.t[1] * h.t[2]
        twisted = _reference_stabilizer_elements(
            p, fix_beta=fix_beta, twist=lambda ginv: ginv.scale(QI.i()))
        assert twisted == []


def test_compose_and_inverse_build_without_make(monkeypatch):
    """A product or inverse of invertible elements is invertible, so neither
    goes back through the validating constructor."""
    elements = list(stabilizer(_tower_translate(1, 5), fix_beta=False).elements)
    want = [(GroupElement.make(tuple(x * y for x, y in zip(a.t, b.t)), a.g * b.g),
             GroupElement.make(tuple(x.inverse() for x in a.t), a.g.inverse()))
            for a in elements for b in elements]

    def refuse(t, g):
        raise AssertionError("GroupElement.make called")

    monkeypatch.setattr(GroupElement, "make", staticmethod(refuse))
    got = [(a.compose(b), a.inverse()) for a in elements for b in elements]
    assert got == want


# -- connect against the four-act canonicalization -----------------------------


def _reference_canonicalize(p):
    """The canonicalization connect used before the transport was read off
    the forms: four elements, each moving the point by act, composed into
    the transport and checked against the base point on the way."""
    if not in_Zo(p):
        raise ContractViolation("canonicalize requires a point of the open locus")
    target = base_point()
    # 1. split the first form into the product of the basis directions
    split = split_form(p.B[0], point_field(p))
    if split is None:
        raise DegeneratePointError("first form is degenerate")
    field, T = split
    h1 = GroupElement.make((1, 1, 1), T.inverse())
    q1 = act(h1, p)
    # 2. balance the second form (q-coefficient already zero by orthogonality)
    p2, q2, r2 = q1.B[1]
    if not q2.is_zero():
        raise AssertionError("second form not orthogonal to the first")
    if p2.is_zero() or r2.is_zero():
        raise DegeneratePointError("second form degenerate after splitting")
    field, u = adjoin_sqrt(field, p2 / r2)
    h2 = GroupElement.make((1, 1, 1), Mat2.diagonal(u, field.one()))
    q2pt = act(h2, q1)
    # 3. torus-scale the three forms to the exact base values
    t = []
    for b, bstar in zip(q2pt.B, target.B):
        scale = None
        for c, cstar in zip(b, bstar):
            if not cstar.is_zero():
                scale = cstar / c
                break
        t.append(scale)
    h3 = GroupElement.make(tuple(t), Mat2.identity())
    q3 = act(h3, q2pt)
    if q3.B != target.B:
        raise AssertionError("form scaling failed to reach the base forms")
    # 4. the residual scalar family fixes B; solve it for (alpha, beta).
    # beta*omega = beta^3 a1 a2 a3 = 2 det B = 8 exactly once B = B*.
    om = omega(q3)
    if q3.beta * om != QI.scalar(8):
        raise AssertionError("determinant identity failed in canonical form")
    field, sigma = adjoin_sqrt(field, om / 8)
    h4 = GroupElement.make((sigma ** 2, sigma ** 2, sigma ** 2),
                           Mat2.diagonal(sigma, sigma))
    q4 = act(h4, q3)
    transport = h4.compose(h3.compose(h2.compose(h1)))
    if not q4.same_h_part(target):
        raise AssertionError("canonical form mismatch")
    return transport


def _reference_connect(p, q):
    try:
        tp = _reference_canonicalize(p)
        tq = _reference_canonicalize(q)
    except ExtensionLimitError:
        return None
    h = tq.inverse().compose(tp)
    if not act(h, p).same_h_part(q):
        raise AssertionError("connect verification failed")
    return h


def _orbit_towers_targets(seed):
    """The connect targets of the orbit_towers benchmark workload."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [q for targets, _ in workloads.OrbitTowers(seed).input_sets
            for q in targets]


def _from_base_point(points):
    return [(base_point(), q) for q in points]


def _rational_translate_pairs():
    """Six rational translates of the base point: each from b*, and each
    from the one before it."""
    rng = random.Random(12)
    translates = [act(rand_group_element(rng), base_point()) for _ in range(6)]
    return (_from_base_point(translates)
            + list(zip(translates, translates[1:])))


CONNECT_PAIRS = {
    "orbit_towers_611": lambda: _from_base_point(_orbit_towers_targets(611)),
    "rational_translates": _rational_translate_pairs,
    "chart_depth1_translates": lambda: _from_base_point(
        [_tower_chart_translate(1, seed) for seed in range(3)]),
}


@pytest.mark.parametrize("family", sorted(CONNECT_PAIRS))
def test_connect_matches_four_act_reference(family):
    """The same group element, coordinate for coordinate, as the four-act
    canonicalization, in both directions."""
    for p, q in CONNECT_PAIRS[family]():
        for source, target in ((p, q), (q, p)):
            got = connect(source, target)
            assert got is not None
            assert (group_to_json(got)
                    == group_to_json(_reference_connect(source, target)))


def test_connect_between_z_points_builds_both_transports_in_one_tower():
    """Thirty rand_z_point pairs from random.Random(3).  q's transport
    starts from the field of p's, so the two never sit in towers with
    different square roots: pairs 1, 4, 6, 7, 8, 11, 14 and 26 raised
    FieldError ("scalars live in incompatible towers") when q's transport
    started from q's own field.  Those now reach the depth cap and report
    None; every other pair is proved by act and equals the four-act
    reference."""
    rng = random.Random(3)
    capped = []
    for k in range(30):
        p, q = rand_z_point(rng), rand_z_point(rng)
        h = connect(p, q)
        if h is None:
            capped.append(k)
            continue
        assert act(h, p).same_h_part(q)
        assert group_to_json(h) == group_to_json(_reference_connect(p, q))
    assert capped == [1, 4, 6, 7, 8, 11, 14, 26]


def test_connect_across_incompatible_towers_raises_a_short_field_error():
    """A height-16 chart translate and b* moved over a depth-1 tower hold
    scalars of two towers neither of which contains the other: connect
    raises FieldError, and its message cuts both the value and the tower
    (1,193-1,793 characters when it printed them whole)."""
    q = act(rand_tower_group_element(random.Random(5), 1), base_point())
    for seed in range(12):
        p = act(rand_group_element(random.Random(seed), 16),
                rand_chart_point(random.Random(seed), 16))
        with pytest.raises(FieldError, match="^cannot lift ") as err:
            connect(p, q)
        assert len(str(err.value)) <= 140


def test_connect_proves_with_one_act(monkeypatch):
    """canonicalize makes no act, compose or validating make; connect's one
    act is its final check."""
    b, q = base_point(), _tower_chart_translate(1, 0)
    calls = [0]
    real = gitcore.act

    def counting(h, p):
        calls[0] += 1
        return real(h, p)

    def refuse(*args):
        raise AssertionError("canonicalize built a group element by a product")

    monkeypatch.setattr(mckay, "act", counting)
    monkeypatch.setattr(gitcore, "act", counting)
    with monkeypatch.context() as m:
        m.setattr(GroupElement, "make", staticmethod(refuse))
        m.setattr(GroupElement, "compose", refuse)
        canonicalize(b)
        canonicalize(q)
    assert calls[0] == 0
    h = connect(b, q)
    assert calls[0] == 1
    assert act(h, b).same_h_part(q)


def test_orbit_operations_check_the_open_locus_once_per_point(monkeypatch):
    """The strict and relaxed stabilizers, connect(b*, p) and the -theta
    oracle at one depth-2 translate p compute det B and check its identity
    once, for p: each later in_Zo reads the value open_locus_det kept on the
    point, and b* came with its det B from base_point."""
    import d4vgit.equations as equations
    from d4vgit.stability import semistable_minus_theta
    p, b = _tower_translate(2, 6), base_point()
    dets, identities = [], []
    real_det, real_vanishes = Mat3.det, equations.vanishes
    monkeypatch.setattr(Mat3, "det", lambda m: dets.append(m.rows) or real_det(m))
    monkeypatch.setattr(equations, "vanishes",
                        lambda terms: identities.append(terms) or real_vanishes(terms))
    assert stabilizer(p).order() == 8
    assert stabilizer(p, fix_beta=False).order() == 16
    assert connect(b, p) is not None
    assert semistable_minus_theta(p).is_stable
    assert dets == [p.B] and len(identities) == 1


def test_base_point_copies_carry_the_kept_det_b(monkeypatch):
    """base_point decides the open locus of its H-part beside the residuals,
    once per process, so every copy carries det B: in_Zo on a copy reduces
    nothing, and the kept value is the determinant of B."""
    b = base_point(x=(1, 2))
    assert b._open_locus == (Mat3(b.B).det(),) and b._open_locus is base_point()._open_locus
    reduced = []
    real = scalars._qi
    monkeypatch.setattr(scalars, "_qi", lambda *args: reduced.append(args) or real(*args))
    assert in_Zo(b) and in_Zo(base_point(x=(3, 4)))
    assert reduced == []


def _height_translate(depth, bits, seed):
    """b* moved by a depth-`depth` tower element composed with a rational
    one of height 2^bits, both drawn from random.Random(seed)."""
    rng = random.Random(seed)
    h = rand_tower_group_element(rng, depth).compose(rand_group_element(rng, 2 ** bits))
    return act(h, base_point())


@given(depth=st.integers(0, 2), bits=st.integers(1, 64), seed=st.integers(0, 2 ** 32))
@example(depth=1, bits=256, seed=1)
@example(depth=1, bits=256, seed=2)
@settings(max_examples=8, deadline=None)
def test_tower_translates_at_height_keep_the_quaternion_stabilizer(depth, bits, seed):
    """b* moved by a depth-`depth` tower element composed with a rational
    one of height 2^bits: the stabilizer is quaternion of order 8, the
    relaxed one has order 16, and connect reaches the translate from b* and
    back."""
    b = base_point()
    p = _height_translate(depth, bits, seed)
    group = stabilizer(p)
    assert group.order() == 8 and group.is_quaternion()
    assert stabilizer(p, fix_beta=False).order() == 16
    for source, target in ((b, p), (p, b)):
        found = connect(source, target)
        assert found is not None and act(found, source).same_h_part(target)


def test_stabilizer_pair_at_height_2_256_stays_fast():
    """The strict and relaxed stabilizers of a depth-1 translate at height
    2^256, the residuals included, in well under the bound (0.34-0.43 s on
    a noisy 2-core x86-64 host with the odd patterns read off the even ones
    and det B kept for the second call, 0.46-0.70 s with a square root per
    pattern; 1.2-1.4 s when g^-1 was recovered from a form matrix)."""
    p = _height_translate(1, 256, 1)
    start = time.perf_counter()
    orders = stabilizer(p).order(), stabilizer(p, fix_beta=False).order()
    assert time.perf_counter() - start < 5
    assert orders == (8, 16)


@given(depth=st.integers(0, 2), bits=st.integers(8, 64), seed=st.integers(0, 2 ** 32))
@settings(max_examples=6, deadline=None)
def test_sign_proof_matches_the_full_product_at_height(depth, bits, seed):
    """b* moved by a depth-`depth` tower element composed with a rational
    one of height 2^bits: the sign-decided stabilizer is quaternion of
    order 8, relaxed of order 16 with seven elements of order 2, and each
    table equals the generic proof's."""
    p = _height_translate(depth, bits, seed)
    group, relaxed = stabilizer(p), stabilizer(p, fix_beta=False)
    assert group.order() == 8 and group.is_quaternion()
    assert relaxed.order() == 16 and relaxed.order_profile() == {1: 1, 2: 7, 4: 8}
    for G in (group, relaxed):
        assert G.multiplication_table() == _generic_table(G)


@given(bits=st.integers(1, 64), seed=st.integers(0, 2 ** 32), fix_beta=st.booleans())
@example(bits=8, seed=2, fix_beta=False)
@settings(max_examples=10, deadline=None)
def test_sign_proof_matches_the_full_product_at_z_points(bits, seed, fix_beta):
    """At a rand_z_point of height 2^bits, whose stabilizer has order 2, 4
    or 8 (4, 8 or 16 relaxed), the group, its sign-decided table with one
    probe per +- pair, and its listing equal the generic proof's table and
    the per-pattern construction's, for either fix_beta."""
    p = rand_z_point(random.Random(seed), 2 ** bits)
    group = stabilizer(p, fix_beta=fix_beta)
    assert group.order() in ((2, 4, 8) if fix_beta else (4, 8, 16))
    table = group.multiplication_table()
    assert table == _generic_table(group)
    want = _per_pattern_stabilizer(p, fix_beta)
    assert group.elements == want.elements and table == want.multiplication_table()


@pytest.mark.parametrize("wrong", [None, "identity"])
def test_suite_orbit_names_the_first_failing_connect_sample(monkeypatch, wrong):
    """A connect that returns None, or an element that misses the target,
    fails orb.connect_roundtrip with the index and point JSON of its
    sample; every other check passes with empty details."""
    import json

    from d4vgit.suites import run_suite
    real = mckay.connect
    targets = []
    bad_call = 2

    def failing(p, q):
        targets.append(q)
        if len(targets) - 1 in (bad_call, bad_call + 1):     # two samples fail
            return None if wrong is None else GroupElement.identity()
        return real(p, q)

    monkeypatch.setattr(mckay, "connect", failing)
    checks = {c.check_id: c for c in run_suite("orbit", 7).checks}
    check = checks.pop("orb.connect_roundtrip")
    assert not check.passed
    index, text = check.details.split(": ", 1)
    assert index == "sample %d" % bad_call
    assert text == json.dumps(gitcore.point_to_json(targets[bad_call]), sort_keys=True)
    assert all(c.passed and c.details == "" for c in checks.values())
    monkeypatch.undo()
    passing = {c.check_id: c for c in run_suite("orbit", 7).checks}
    assert all(c.passed and c.details == "" for c in passing.values())
