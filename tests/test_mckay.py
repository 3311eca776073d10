"""The base point, its quaternion stabilizer, and orbit connection."""

import random

import pytest

from d4vgit.equations import ContractViolation, det_b, residuals, in_Zo
from d4vgit.cyclic_s3 import s3_base_point, s3_stabilizer
from d4vgit.gitcore import GroupElement, PointHV, act
from d4vgit.linalg import Mat2
from d4vgit.mckay import (
    FiniteSubgroup, base_point, canonicalize, connect, point_field,
    quaternion_rep, stabilizer,
)
from d4vgit.sampling import rand_group_element, rand_nonzero_scalar
from d4vgit.scalars import QI, ExtensionLimitError, adjoin_sqrt


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
        canon = canonicalize(p)
        moved = act(canon.transport, p)
        assert moved.alpha == b.alpha and moved.beta == b.beta and moved.B == b.B

    def test_depth_exhaustion_reports_none(self):
        rng = random.Random(4)
        b = base_point()
        p = act(rand_group_element(rng), b)
        # depth cap zero: the square-root adjunctions are forbidden, so the
        # canonicalization must give up rather than claim non-existence
        try:
            result = connect(b, p, max_depth=0)
        except ExtensionLimitError:
            result = None
        if result is not None:
            moved = act(result, b)
            assert moved.B == p.B


def test_point_field_tracks_towers():
    b = base_point()
    assert point_field(b).is_base
    field, s = adjoin_sqrt(QI, 2)
    lifted = PointHV.make([field.lift(a) * s * s for a in b.alpha],
                          b.beta, b.B, (0, 0))
    assert point_field(lifted).depth == 1


def _tower_stabilizer(depth, seed):
    """The stabilizer of the base point moved by a group element over a
    depth-`depth` tower of random square-root generators."""
    rng = random.Random(seed)
    field = QI
    while field.depth < depth:
        field, _ = adjoin_sqrt(field, rng.randint(2, 40))

    def element(f):
        if f.is_base:
            return rand_nonzero_scalar(rng)
        return f.lift(element(f.base)) + f.generator() * f.lift(element(f.base))

    g = Mat2(*(element(field) for _ in range(4)))
    while g.det().is_zero():
        g = Mat2(*(element(field) for _ in range(4)))
    p = act(GroupElement.make(tuple(element(field) for _ in range(3)), g),
            base_point())
    assert point_field(p).depth == depth
    return stabilizer(p)


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


def test_duplicate_elements_take_first_occurrence_indices():
    """Equal elements listed twice are named by their first index, and the
    proof still terminates."""
    quats = [h for _, h in quaternion_rep()]
    copies = [GroupElement(h.t, h.g) for h in quats]
    # indices 3, 9, 10, 11 repeat -1, 1, k, -k
    listed = quats[:3] + copies[1:2] + quats[3:] + copies[0:1] + copies[6:]
    group = FiniteSubgroup(listed, GroupElement.identity())
    assert group.order() == len(listed) == 12
    table = group.multiplication_table()
    assert table == _brute_force_table(listed)
    assert {entry for row in table for entry in row} == {0, 1, 2, 4, 5, 6, 7, 8}
    assert group.order_profile() == {1: 2, 2: 2, 4: 8}
