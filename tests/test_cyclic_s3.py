"""The cyclic-group toric verifiers and the S3 example."""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from d4vgit.cyclic_s3 import (
    J_GRAM, DegenerateS3Point, S3Point, ToricGITProblem, WallError, _primitive,
    an_minimal_problem, an_quotient_fan, an_redundant_problem, an_semistable,
    diagonalize, s3_act, s3_base_point, s3_on_z, s3_stabilizer,
)
from d4vgit.linalg import Mat2, Mat3
from d4vgit.scalars import QI


# -- brute-force oracles: the subset enumerations the Gale-dual pass replaced --


def solve_exact(columns, target):
    """Solve sum_j c_j columns[j] = target exactly over Q: one solution with
    free variables zero, or None if inconsistent."""
    k = len(target)
    m = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(m)] + [Fraction(target[i])]
           for i in range(k)]
    pivots = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, k) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(k):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == k:
            break
    for r in range(row, k):
        if aug[r][m] != 0:
            return None
    sol = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        sol[col] = aug[r][m]
    return sol


def in_cone(weights, chi):
    """Exact membership of chi in the rational cone spanned by the weight
    vectors (brute force over subsets)."""
    if not any(chi):
        return True
    for size in range(1, min(len(chi), len(weights)) + 1):
        for subset in combinations(weights, size):
            found = solve_exact(subset, chi)
            if found is not None and all(c >= 0 for c in found):
                return True
    return False


def on_wall(problem, chi):
    """A weight subset of size < k whose cone holds chi, if chi lies on a
    GIT wall, else None."""
    if not any(chi):
        return ("zero character",)
    cols = problem.columns()
    for size in range(1, problem.k):
        for subset in combinations(range(len(cols)), size):
            found = solve_exact([cols[j] for j in subset], chi)
            if found is not None and all(c >= 0 for c in found):
                return subset
    return None


def brute_force_cones(n, chi):
    """None on a wall, else the maximal cones as sets of primitive rays:
    (a, b) is a cone when chi lies in the cone of the other weights."""
    problem = an_redundant_problem(n)
    if on_wall(problem, chi) is not None:
        return None
    k, N = problem.k, problem.n_coords
    cols = problem.columns()
    U, _, _ = diagonalize([list(c) for c in cols])
    rays = [tuple(U[r][j] for r in range(k, N)) for j in range(N)]
    cones = set()
    for a, b in combinations(range(N), 2):
        va, vb = rays[a], rays[b]
        if va[0] * vb[1] - va[1] * vb[0] != 0 and in_cone(
                [cols[j] for j in range(N) if j not in (a, b)], chi):
            cones.add(frozenset((_primitive(va), _primitive(vb))))
    return cones


def _oracle_characters(n):
    """[-2, 2]^k for k <= 3, random characters, and positive combinations
    of fewer than k weights (walls by definition)."""
    rng = random.Random(n)
    k = n - 1
    problem = an_redundant_problem(n)
    chars = list(product(range(-2, 3), repeat=k)) if k <= 3 else []
    randoms, walls = (4, 5) if n == 6 else (25, 35 if k > 1 else 0)
    chars += [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(randoms)]
    for _ in range(walls):
        chi = (0,) * k
        for j in rng.sample(range(n + 1), rng.randint(1, k - 1)):
            chi = tuple(a + rng.randint(1, 3) * b
                        for a, b in zip(chi, problem.column(j)))
        chars.append(chi)
    return chars


def _scaled_redundant_problem(n):
    """The redundant weights with row i scaled by i + 2: they span a
    sublattice, with invariant factors [2], [1, 6], [1, 2, 12], ..., so the
    lift of chi divides by some d_i != 1."""
    rows = an_redundant_problem(n).weights
    return ToricGITProblem(tuple(tuple((i + 2) * w for w in row)
                                 for i, row in enumerate(rows)))


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

    @pytest.mark.parametrize("make", (an_minimal_problem, an_redundant_problem,
                                      _scaled_redundant_problem))
    def test_agrees_with_subset_oracle(self, make):
        """The Gale-dual pass against the subset enumeration, on random
        characters in [-3, 3]^k and random 0/1 supports, n = 2..7 (2..6 for
        the scaled weights, whose oracle is slower)."""
        rng = random.Random(5)
        for n in range(2, 7 if make is _scaled_redundant_problem else 8):
            prob = make(n)
            for _ in range(150):
                chi = tuple(rng.randint(-3, 3) for _ in range(prob.k))
                point = [rng.randint(0, 1) for _ in range(prob.n_coords)]
                support = [prob.column(j) for j, c in enumerate(point) if c]
                assert an_semistable(prob, chi, point) == in_cone(support, chi), \
                    (n, chi, point)

    def test_is_polynomial_time(self):
        """Both singularity coordinates zero: unstable at n = 16 in well
        under a second (the subset enumeration took 6.7 s at n = 14 and
        about doubles per step of n)."""
        start = time.perf_counter()
        assert not an_semistable(an_redundant_problem(16), (1,) * 15,
                                 [1] * 15 + [0, 0])
        assert time.perf_counter() - start < 5

    def test_inputs_checked_at_entry(self):
        prob = an_minimal_problem(4)
        for chi, point in (((-1,), (1, 0)),             # too few coordinates
                           ((-1,), (1, 0, 0, 0)),       # too many
                           ((1, 1), (1, 0, 0))):        # a rank-2 character
            with pytest.raises(ValueError):
                an_semistable(prob, chi, point)
        with pytest.raises(ValueError):                 # N != k + 2
            an_semistable(ToricGITProblem(((1, 1),)), (1,), (1, 1))

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

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
    def test_fan_agrees_with_brute_force(self, n):
        """The same cones as the subset enumeration, the same walls, and
        each wall's witness: fewer than k weights whose cone holds chi."""
        problem = an_redundant_problem(n)
        cols = problem.columns()
        for chi in _oracle_characters(n):
            expected = brute_force_cones(n, chi)
            try:
                fan = an_quotient_fan(n, chi)
            except WallError as err:
                assert expected is None, chi
                if any(chi):
                    assert len(err.witness) < problem.k, (chi, err.witness)
                    assert in_cone([cols[j] for j in err.witness], chi), chi
                else:
                    assert err.witness == ("zero character",)
                continue
            assert expected == {frozenset((fan.rays[a], fan.rays[b]))
                                for a, b in fan.maximal_cones}, chi

    def test_fan_is_polynomial_time(self):
        """One lift and C(n+1, 2) 2x2 solves: n = 30 takes under a
        second (the subset enumeration took minutes at n = 12)."""
        start = time.perf_counter()
        resolution = an_quotient_fan(30, 1)
        orbifold = an_quotient_fan(30, -1)
        assert time.perf_counter() - start < 5
        assert resolution.normalized_rays == tuple((i, 1) for i in range(31))
        assert orbifold.multiplicities == (30,)

    def test_zero_character_is_wall(self):
        with pytest.raises(WallError):
            an_quotient_fan(3, (0, 0))

    def test_diagonalize(self):
        """det U = +-1 exactly, and the rows of U A past the rank of A
        vanish: the facts the Gale rays of the fan rely on.  det V = +-1 and
        U A V = D, which the lift of chi relies on."""
        rng = random.Random(1)
        cases = [[[rng.randint(-4, 4) for _ in range(2)] for _ in range(4)]
                 for _ in range(20)]
        an_cases = [[list(c) for c in an_redundant_problem(n).columns()]
                    for n in range(2, 9)]
        not_smith = [[2, 0], [0, 3], [0, 0]]   # invariant factors [1, 6]
        for A in cases + an_cases + [not_smith]:
            U, diag, V = diagonalize([list(r) for r in A])
            assert _rank_and_det(U)[1] in (1, -1)
            rank = _rank_and_det(A)[0]
            assert all(d != 0 for d in diag[:rank])
            UA = [[sum(u * A[l][j] for l, u in enumerate(row))
                   for j in range(len(A[0]))] for row in U]
            assert all(v == 0 for row in UA[rank:] for v in row), A
            assert _rank_and_det(V)[1] in (1, -1)
            k = len(V)
            assert [[sum(r[l] * V[l][j] for l in range(k)) for j in range(k)]
                    for r in UA] == [[diag[i] if i == j else 0 for j in range(k)]
                                     for i in range(len(A))], A
        for A in an_cases:                      # primitive: the fan's rays are integral
            assert diagonalize(A)[1] == [1] * len(A[0])
        assert diagonalize(not_smith)[1] == [2, 3]


def _rank_and_det(rows):
    """Rank, and the determinant when square, by exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    det, rank = Fraction(1), 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, det


class TestS3:
    def test_j_gram_is_the_pairing_on_the_basis_monomials(self):
        """J_GRAM, built from equations.j_pairing, is the literal Gram."""
        literal = ((0, 0, 1), (0, Fraction(-1, 2), 0), (1, 0, 0))
        assert J_GRAM == Mat3([[QI.scalar(c) for c in row] for row in literal])

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

    @pytest.mark.parametrize("g", [
        Mat2(QI.i(), QI.zero(), QI.zero(), QI.one()),
        Mat2(QI.scalar(1, 1), QI.zero(), QI.zero(), QI.one()),
    ], ids=["diag_i_1", "diag_1_plus_i_1"])
    def test_gaussian_conjugate_keeps_its_reflections(self, g):
        """A reflection of g.p needs the cube root of a ratio with an
        imaginary part (here -i = i^3 and its analogue for 1 + i)."""
        stab = s3_stabilizer(s3_act(g, s3_base_point()))
        assert stab.order() == 6
        assert stab.order_profile() == {1: 1, 2: 3, 3: 2}
        for s in s3_stabilizer(s3_base_point()).elements:
            assert stab.index_of(g * s * g.inverse()) is not None

    def test_gaussian_conjugates_sweep(self):
        rng = random.Random(1)
        base = s3_stabilizer(s3_base_point()).elements
        done = 0
        while done < 12:
            g = Mat2(*[QI.scalar(rng.randint(-3, 3), rng.randint(-2, 2))
                       for _ in range(4)])
            if g.det().is_zero():
                continue
            done += 1
            stab = s3_stabilizer(s3_act(g, s3_base_point()))
            assert stab.order_profile() == {1: 1, 2: 3, 3: 2}, g
            assert all(stab.index_of(g * s * g.inverse()) is not None for s in base)

    def test_rational_cbrt_over_gaussian_rationals(self):
        from fractions import Fraction
        from d4vgit.cyclic_s3 import _rational_cbrt
        assert _rational_cbrt(-QI.i()) == QI.i()
        assert _rational_cbrt(QI.scalar(-2, 11)) == QI.scalar(-2, 1)
        w = QI.scalar(Fraction(10 ** 30 + 7, 3 ** 40), Fraction(-5, 2 ** 70))
        assert _rational_cbrt(w ** 3) == w
        assert _rational_cbrt(QI.scalar(-2, 10)) is None
        assert _rational_cbrt(QI.scalar(0, 2)) is None      # norm 4 is no cube
        # norm 5^3, but 10 + 5i = (2 + i)^2 (2 - i) is no cube
        assert _rational_cbrt(QI.scalar(10, 5)) is None

    def test_degenerate_rejected(self):
        p = S3Point.make(((0, 0, 0), (0, 0, 0)), (0, 0, 0))
        with pytest.raises(DegenerateS3Point):
            s3_stabilizer(p)
