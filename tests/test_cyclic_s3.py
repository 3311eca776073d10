"""The cyclic-group toric verifiers and the S3 example."""

import random
from itertools import product

import pytest

from d4vgit.cyclic_s3 import (
    DegenerateS3Point, S3Point, WallError, an_minimal_problem, an_quotient_fan,
    an_redundant_problem, an_semistable, in_cone, on_wall, s3_act,
    s3_base_point, s3_on_z, s3_stabilizer, smith_normal_form,
)
from d4vgit.linalg import Mat2
from d4vgit.scalars import QI


class TestToricSemistability:
    def test_minimal_presentation_examples(self):
        prob = an_minimal_problem(4)
        assert an_semistable(prob, (-1,), (1, 0, 0))
        assert not an_semistable(prob, (-1,), (0, 1, 1))
        assert an_semistable(prob, (1,), (0, 1, 1))
        # origin unstable for every nonzero character
        assert not an_semistable(prob, (-1,), (0, 0, 0))
        assert not an_semistable(prob, (7,), (0, 0, 0))
        assert an_semistable(prob, (0,), (0, 0, 0))

    def test_agrees_with_cocharacter_search(self):
        """chi-semistability of x matches: no integer 1-PS with positive
        chi-pairing has all its positively-weighted coordinates of x zero."""
        prob = an_redundant_problem(3)
        rng = random.Random(0)
        cochars = [c for c in product(range(-3, 4), repeat=prob.k)
                   if any(c)]
        for _ in range(25):
            chi = (rng.randint(-2, 2), rng.randint(-2, 2))
            if not any(chi):
                continue
            point = [rng.randint(0, 1) for _ in range(prob.n_coords)]
            oracle = an_semistable(prob, chi, point)
            destabilized = False
            for lam in cochars:
                pairing = sum(a * b for a, b in zip(chi, lam))
                if pairing <= 0:
                    continue
                ok = True
                for j in range(prob.n_coords):
                    w = sum(l * wr for l, wr in zip(lam, prob.column(j)))
                    if w > 0 and point[j] != 0:
                        ok = False
                        break
                if ok:
                    destabilized = True
                    break
            assert oracle == (not destabilized)

    def test_in_cone_basics(self):
        assert in_cone([(1, 0), (0, 1)], (2, 3))
        assert not in_cone([(1, 0), (0, 1)], (-1, 0))
        assert in_cone([], (0, 0))

    def test_minimal_presentation_two_chambers(self):
        """For the rank-one torus the generic characters split into exactly
        two chambers, and the orbifold-shaped semistable locus ({B != 0})
        appears in exactly one of them."""
        prob = an_minimal_problem(3)
        reps = {}
        for chi in (-2, -1, 1, 2):
            key = (an_semistable(prob, (chi,), (1, 0, 0)),
                   an_semistable(prob, (chi,), (0, 1, 0)),
                   an_semistable(prob, (chi,), (0, 0, 1)))
            reps.setdefault(key, []).append(chi)
        assert len(reps) == 2
        orbifold_key = (True, False, False)       # only the map coordinate
        assert orbifold_key in reps
        assert all(c < 0 for c in reps[orbifold_key])


class TestFans:
    def test_resolution_fans(self):
        for n in (2, 3, 4, 5):
            fan = an_quotient_fan(n, 1)
            assert fan.normalized_rays == tuple(sorted((i, 1) for i in range(n + 1)))
            assert len(fan.maximal_cones) == n
            assert all(m == 1 for m in fan.multiplicities)
            assert fan.interior_ray_count == n - 1

    def test_orbifold_charts(self):
        for n in (2, 3, 4, 5):
            fan = an_quotient_fan(n, -1)
            assert len(fan.maximal_cones) == 1
            assert fan.multiplicities == (n,)
            assert fan.interior_ray_count == 0

    def test_wall_character_rejected(self):
        # chi parallel to a single weight column lies on a wall
        prob = an_redundant_problem(3)
        col = prob.column(0)
        with pytest.raises(WallError):
            an_quotient_fan(3, tuple(col))
        assert on_wall(prob, col) is not None

    def test_zero_character_is_wall(self):
        with pytest.raises(WallError):
            an_quotient_fan(3, (0, 0))

    def test_smith_normal_form(self):
        rng = random.Random(1)
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(4)]
            U, diag = smith_normal_form([list(r) for r in rows])
            # U is unimodular
            det = (U[0][0] * (U[1][1] * (U[2][2] * U[3][3] - U[2][3] * U[3][2])
                              - U[1][2] * (U[2][1] * U[3][3] - U[2][3] * U[3][1])
                              + U[1][3] * (U[2][1] * U[3][2] - U[2][2] * U[3][1])))
            # cheap full expansion via fractions>Laplace is overkill; check
            # invertibility over Q through numpy-free elimination instead
            from fractions import Fraction
            m = [[Fraction(x) for x in row] for row in U]
            rank = 0
            for col in range(4):
                piv = next((r for r in range(rank, 4) if m[r][col] != 0), None)
                if piv is None:
                    continue
                m[rank], m[piv] = m[piv], m[rank]
                inv = 1 / m[rank][col]
                m[rank] = [v * inv for v in m[rank]]
                for r in range(4):
                    if r != rank and m[r][col] != 0:
                        f = m[r][col]
                        m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
                rank += 1
            assert rank == 4
            del det


class TestS3:
    def test_base_point_residual_zero(self):
        assert s3_on_z(s3_base_point())

    def test_zero_map_residual_zero(self):
        zero = S3Point.make(((0, 0, 0), (0, 0, 0)), (0, 0, 0))
        assert s3_on_z(zero)

    def test_random_maps_generically_off(self):
        rng = random.Random(2)
        off = 0
        for _ in range(20):
            p = S3Point.make(
                [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)],
                [rng.randint(-3, 3) for _ in range(3)])
            if not s3_on_z(p):
                off += 1
        assert off >= 18

    def test_action_preserves_relation(self):
        rng = random.Random(3)
        p = s3_base_point()
        for _ in range(20):
            while True:
                g = Mat2(*[QI.scalar(rng.randint(-3, 3), rng.randint(-1, 1))
                           for _ in range(4)])
                if not g.det().is_zero():
                    break
            q = s3_act(g, p)
            assert s3_on_z(q)

    def test_stabilizer_order_six(self):
        stab = s3_stabilizer(s3_base_point())
        assert stab.order() == 6
        assert not stab.is_abelian()
        assert stab.order_profile() == {1: 1, 2: 3, 3: 2}

    def test_stabilizer_trivial_center(self):
        stab = s3_stabilizer(s3_base_point())
        central = [g for g in stab.elements
                   if all(g * h == h * g for h in stab.elements)]
        assert len(central) == 1
        assert central[0] == Mat2.identity()

    def test_conjugate_stabilizer(self):
        g = Mat2(QI.scalar(2), QI.zero(), QI.zero(), QI.one())
        p = s3_act(g, s3_base_point())
        stab = s3_stabilizer(p)
        assert stab.order() == 6
        assert stab.order_profile() == {1: 1, 2: 3, 3: 2}
        base_stab = s3_stabilizer(s3_base_point())
        for s in base_stab.elements:
            conj = g * s * g.inverse()
            assert stab.index_of(conj) is not None

    def test_shear_conjugate_stabilizer(self):
        g = Mat2(QI.one(), QI.one(), QI.zero(), QI.one())
        p = s3_act(g, s3_base_point())
        stab = s3_stabilizer(p)
        assert stab.order() == 6

    def test_rational_cbrt_is_exact_at_any_height(self):
        from fractions import Fraction
        from d4vgit.cyclic_s3 import _rational_cbrt
        for root in (10 ** 20 + 39, 10 ** 110 + 7):      # 61 and 331 digits cubed
            assert _rational_cbrt(QI.scalar(root ** 3)) == QI.scalar(root)
            assert _rational_cbrt(QI.scalar(-root ** 3)) == QI.scalar(-root)
            assert _rational_cbrt(QI.scalar(root ** 3 + 1)) is None
            assert (_rational_cbrt(QI.scalar(Fraction(8, root ** 3)))
                    == QI.scalar(Fraction(2, root)))

    def test_degenerate_rejected(self):
        p = S3Point.make(((0, 0, 0), (0, 0, 0)), (0, 0, 0))
        with pytest.raises(DegenerateS3Point):
            s3_stabilizer(p)
