"""Small self-contained verifiers: the cyclic-group toric construction and
the S3 presentation.

For the cyclic group of order n the minimal data is one map of torus weight
-n together with the two coordinates of weights (1, n-1); the redundant
presentation uses all nontrivial characters U_1 ... U_{n-1} with the maps

    B_i : U_1 (x) U_i -> U_{i+1}  (i < n-1),      B_{n-1} : U_1 (x) U_{n-1} -> C

plus the two singularity coordinates x in U_1 and y in U_{n-1}.  The
resulting torus weight matrix (one column per coordinate, rows indexed by
the characters) is

    B_1 = -2 e_1 + e_2,  B_i = -e_1 - e_i + e_{i+1},  B_{n-1} = -e_1 - e_{n-1},
    x = e_1,  y = e_{n-1}.

Both presentations have N = k + 2 coordinates, so every quotient is a
surface, and each fan and each semistability verdict is read off one pass
over the Gale-dual rays of the weights, cyclic_s3._gale_pairs.

The S3 part stores a map B: Sym^2 U -> U + C in basis coordinates on
(u1^2, u1u2, u2^2) and verifies the isometry relation
B^dual o (b, 1) o B = (det B) J against the same pairing normalization used
by the main construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

from .equations import ContractViolation
from .gitcore import split_form
from .linalg import Mat2, Mat3, sym_square
from .mckay import FiniteSubgroup
from .scalars import (
    ExtensionLimitError, QI, Scalar, adjoin_sqrt, as_scalar, deepest_field,
    lower,
)


class WallError(Exception):
    """chi lies on a GIT wall: in the cone of the fewer than k `witness` weights."""

    def __init__(self, chi, witness):
        super().__init__("character %r lies on a wall (weight subset %r)"
                         % (chi, witness))
        self.witness = witness


class DegenerateS3Point(ContractViolation):
    """An S3 point off the relation or outside its nondegenerate orbit."""


# -- integer linear algebra -----------------------------------------------------


def diagonalize(A):
    """(U, diag, V) with U, V unimodular and U*A*V diagonal.

    A is a list of rows of integers, size N x k.  Returns U as a list of N
    rows, the list of diagonal entries and V as a list of k rows.  This is a
    unimodular diagonalization, not the Smith normal form: the entries need
    not divide each other ([[2, 0], [0, 3], [0, 0]] gives [2, 3], where the
    invariant factors are [1, 6]).
    """
    A = [list(map(int, row)) for row in A]
    n = len(A)
    k = len(A[0]) if n else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    V = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def row_op(i, j, f):
        A[i] = [a - f * b for a, b in zip(A[i], A[j])]
        U[i] = [a - f * b for a, b in zip(U[i], U[j])]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_op(i, j, f):
        for row in A + V:
            row[i] -= f * row[j]

    def col_swap(i, j):
        for row in A + V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(n, k):
        # find a nonzero pivot
        piv = None
        for i in range(t, n):
            for j in range(t, k):
                if A[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # clear the pivot column, then the pivot row
            progress = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    f = A[i][t] // A[t][t]
                    row_op(i, t, f)
                    if A[i][t] != 0:
                        row_swap(t, i)
                    progress = True
            for j in range(t + 1, k):
                if A[t][j] != 0:
                    f = A[t][j] // A[t][t]
                    col_op(j, t, f)
                    if A[t][j] != 0:
                        col_swap(t, j)
                    progress = True
            if not progress:
                break
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    diag = [A[i][i] for i in range(min(n, k))]
    return U, diag, V


def _cross(u, v):
    """The 2x2 determinant u x v, the only one this module writes: the
    pair test and both Cramer numerators of _gale_pairs, the fan's interior
    rays and multiplicities and the (i, 1) normal form of its rays all
    read it."""
    return u[0] * v[1] - u[1] * v[0]


def _primitive(v):
    g = gcd(*v)
    return (v[0] // g, v[1] // g)


# -- toric GIT problems ---------------------------------------------------------


@dataclass(frozen=True)
class ToricGITProblem:
    """A torus (C*)^k acting on C^N by the columns of an integer matrix."""

    weights: tuple          # k rows, each of length N

    @property
    def k(self):
        return len(self.weights)

    @property
    def n_coords(self):
        return len(self.weights[0])

    def column(self, j):
        return tuple(row[j] for row in self.weights)

    def columns(self):
        return [self.column(j) for j in range(self.n_coords)]


def an_minimal_problem(n: int) -> ToricGITProblem:
    """C^3 with the single-character weights (-n, 1, n-1)."""
    return ToricGITProblem(((-n, 1, n - 1),))


def an_redundant_problem(n: int) -> ToricGITProblem:
    """The redundant presentation: (C*)^(n-1) acting on C^(n+1).

    Generators are the nontrivial characters U_1 ... U_{n-1} of the cyclic
    group; the isomorphisms supplying the map coordinates are

        B_i : U_i (x) U_i  ->  U_{i-1} (x) U_{i+1}     (U_0 = U_n = C),

    the direct cyclic analogue of the a_i-maps of the main construction, so
    the weight of B_i is the i-th column of the (negated) extended Cartan
    pattern e_{i-1} - 2 e_i + e_{i+1}.  The two singularity coordinates sit
    in U_1 and U_{n-1}.  The resulting weight matrix is Gale-dual to the ray
    presentation of the minimal resolution, so the character (1,...,1) gives
    the resolution and -(1,...,1) the orbifold chart with its order-n
    stabilizer.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k = n - 1
    cols = []
    for i in range(1, n):                      # maps B_1 ... B_{n-1}
        w = [0] * k
        w[i - 1] -= 2
        if i - 2 >= 0:
            w[i - 2] += 1
        if i <= n - 2:
            w[i] += 1
        cols.append(tuple(w))
    x = [0] * k
    x[0] = 1
    cols.append(tuple(x))
    y = [0] * k
    y[k - 1] = 1
    cols.append(tuple(y))
    rows = tuple(tuple(c[i] for c in cols) for i in range(k))
    return ToricGITProblem(rows)


def _gale_pairs(problem: ToricGITProblem, chi):
    """The Gale-dual rays v_j of a problem with N = k + 2 coordinates, and
    for each pair (a, b) with v_a x v_b != 0, in combinations order, the
    unique solution c of sum_j c_j w_j = chi with c_a = c_b = 0, as (a, b, c).

    The rays, rows k and k+1 of the unimodular diagonalization U*A*V = D
    of the transposed weights A, span their kernel: every solution is
    c = x - (<u, v_j>)_j for one lift x of chi and some u in Q^2, so
    c_a = c_b = 0 is a 2x2 system in u, solved by Cramer's rule.  The lift
    is x = U^T y with y_i = (V^T chi)_i / d_i, as U*A = D*V^-1.  Cost: one
    unimodular diagonalization, then O(N^3).
    """
    k, N = problem.k, problem.n_coords
    if N != k + 2:
        raise ValueError("need N = k + 2 coordinates")
    if len(chi) != k:
        raise ValueError("character has wrong rank")
    U, diag, V = diagonalize(problem.columns())
    if 0 in diag:
        raise ValueError("weights have rank below k")
    rays = [(U[k][j], U[k + 1][j]) for j in range(N)]
    y = [Fraction(sum(V[l][i] * chi[l] for l in range(k)), diag[i]) for i in range(k)]
    x = [sum(U[i][j] * y[i] for i in range(k)) for j in range(N)]

    def pairs():
        for a, b in combinations(range(N), 2):
            (p, q), (r, s) = rays[a], rays[b]
            det = _cross(rays[a], rays[b])
            if det == 0:
                continue
            u0 = _cross((x[a], q), (x[b], s)) / det
            u1 = _cross((p, x[a]), (r, x[b])) / det
            yield a, b, [xj - u0 * v0 - u1 * v1 for xj, (v0, v1) in zip(x, rays)]

    return rays, pairs()


def an_semistable(problem: ToricGITProblem, chi, point) -> bool:
    """A point is semistable for chi iff chi lies in the rational cone
    spanned by the weights of its nonzero coordinates.

    That is, iff the polyhedron {u in Q^2 : <u, v_j> = x_j off the support,
    <= x_j on it} is nonempty (x a lift of chi, v_j the Gale-dual rays).
    The v_j span Q^2, so it is pointed, and nonempty exactly when it has a
    vertex: a pair of independent tight constraints, whose solution c of
    sum c_j w_j = chi is >= 0 and zero off the support.  Needs
    N = k + 2 coordinates; cost O(N^3) rational operations.
    """
    chi = tuple(chi)
    if len(point) != problem.n_coords:
        raise ValueError("point has the wrong number of coordinates")
    _, pairs = _gale_pairs(problem, chi)
    return any(all(cj >= 0 if pj != 0 else cj == 0 for cj, pj in zip(c, point))
               for _, _, c in pairs)


@dataclass(frozen=True)
class FanData:
    rays: tuple             # primitive ray generators in Z^2
    maximal_cones: tuple    # pairs of ray indices
    multiplicities: tuple   # |det| per maximal cone
    normalized_rays: tuple  # rays in the (i, 1) normal form when smooth

    @property
    def interior_ray_count(self):
        """Rays with other rays strictly on both sides: the signs of their
        nonzero cross products take both values."""
        return sum({c > 0 for s in self.rays if (c := _cross(r, s))} == {True, False}
                   for r in self.rays)


def an_quotient_fan(n: int, chi) -> FanData:
    """The quotient fan of the redundant presentation at the character chi.

    chi may be a single integer (replicated across the torus factors) or a
    full (n-1)-tuple.  Wall characters raise WallError naming fewer than k
    weights whose cone contains chi.

    By Gale duality the k = n-1 weights off a pair (a, b) of rays form a
    basis exactly when v_a x v_b != 0, and the solution c of
    sum c_j w_j = chi that vanishes at a and b decides the pair: c > 0 off
    the pair is a maximal cone, c >= 0 with a zero a wall, a negative c_j
    no cone.  Every wall shows so: chi in the cone of fewer than k weights
    is in the cone of independent ones (Caratheodory), and these extend to
    a basis.  Cost: one lift of chi and C(n+1, 2) 2x2 solves, O(n^3)
    rational operations.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    problem = an_redundant_problem(n)
    if isinstance(chi, int):
        chi = (chi,) * problem.k
    chi = tuple(chi)
    rays_raw, pairs = _gale_pairs(problem, chi)
    if not any(chi):
        raise WallError(chi, ("zero character",))
    cones = []
    for a, b, c in pairs:
        if any(x < 0 for x in c):
            continue
        if c.count(0) > 2:                  # a zero off the pair
            raise WallError(chi, tuple(j for j, x in enumerate(c) if x > 0))
        cones.append((a, b))
    if not cones:
        raise AssertionError("character admits no two-dimensional cones")
    # the rays that actually appear, primitivized, numbered in index order
    prim = {j: _primitive(rays_raw[j]) for j in sorted({j for c in cones for j in c})}
    index = {v: i for i, v in enumerate(dict.fromkeys(prim.values()))}
    rays = tuple(index)
    max_cones = tuple(sorted({tuple(sorted((index[prim[a]], index[prim[b]])))
                              for a, b in cones}))
    mults = tuple(abs(_cross(rays[a], rays[b])) for a, b in max_cones)
    return FanData(rays, max_cones, mults, _normalize_rays(rays, max_cones))


def _normalize_rays(rays, cones):
    """Present the rays as (i, 1) with smallest i equal to 0, when some cone
    is unimodular; otherwise return the raw rays.

    For a cone (p, q) with d = p x q = +-1, the integer map
    r -> d (p x r, p x r + r x q) sends p to (0, 1) and q to (1, 1).
    """
    for a, b in cones:
        for p, q in ((rays[a], rays[b]), (rays[b], rays[a])):
            d = _cross(p, q)
            if abs(d) != 1:
                continue
            imgs = [(d * _cross(p, r), d * (_cross(p, r) + _cross(r, q))) for r in rays]
            if all(w[1] == 1 for w in imgs):
                shift = min(w[0] for w in imgs)
                return tuple(sorted((w[0] - shift, 1) for w in imgs))
    return tuple(sorted(rays))


# -- the S3 example --------------------------------------------------------------


J_GRAM = Mat3([[QI.scalar(c) for c in row]
               for row in ((0, 0, 1), (0, Fraction(-1, 2), 0), (1, 0, 0))])


def _plus_one(m: Mat2) -> Mat3:
    """m + 1 on U + C."""
    zero = QI.zero()
    return Mat3(((m.a, m.b, zero), (m.c, m.d, zero), (zero, zero, QI.one())))


@dataclass(frozen=True)
class S3Point:
    """A map B: Sym^2 U -> U + C in basis coordinates on (u1^2, u1u2, u2^2).

    BU holds the six coefficients of the U-component (two rows); bC the
    three of the C-component, from which the inner product b on U is
    derived.
    """

    BU: tuple               # two rows of three Scalars
    bC: tuple               # three Scalars

    @staticmethod
    def make(BU, bC):
        BU = tuple(tuple(as_scalar(c) for c in row) for row in BU)
        bC = tuple(as_scalar(c) for c in bC)
        return S3Point(BU, bC)

    def matrix(self) -> Mat3:
        return Mat3([self.BU[0], self.BU[1], self.bC])

    def det(self) -> Scalar:
        return self.matrix().det()

    def b_matrix(self) -> Mat2:
        """The symmetric inner product on U induced by the C-component."""
        return Mat2(self.bC[0], self.bC[1], self.bC[1], self.bC[2])


def s3_base_point() -> S3Point:
    """Built from the standard 2-dimensional irrep: the U-component swaps
    the outer basis lines and the C-component is the invariant u1u2-line."""
    return S3Point.make(((0, 0, 2), (2, 0, 0)), (0, -2, 0))


def s3_residual(p: S3Point):
    """The six entries of B^dual o (b, 1) o B - (det B) J (upper triangle)."""
    M = p.matrix()
    R = Mat3(zip(*M.rows)) * _plus_one(p.b_matrix()) * M - J_GRAM * M.det()
    return tuple(R[m, n] for m in range(3) for n in range(m, 3))


def s3_on_z(p: S3Point) -> bool:
    return all(e.is_zero() for e in s3_residual(p))


def s3_act(g: Mat2, p: S3Point) -> S3Point:
    """The GL(U)-action: B -> (g + 1) o B o Sym^2(g)^-1."""
    rows = (_plus_one(g) * p.matrix() * sym_square(g.inverse())).rows
    return S3Point(rows[:2], rows[2])


def _icbrt(m):
    """floor(cbrt(m)) for an int m >= 0: integer Newton from 2^ceil(bits/3)."""
    if m == 0:
        return 0
    r = 1 << -(-m.bit_length() // 3)
    while True:
        s = (2 * r + m // (r * r)) // 3
        if s >= r:
            return r
        r = s


def _rational_cbrt(x: Scalar):
    """Exact cube root in Q(i) of a base-level Scalar, or None.

    For x = (a + b i)/d the root is g/d, g = u + v i the Gaussian integer with
    g^3 = z = (a + b i) d^2.  Its norm m = u^2 + v^2 is the cube root of
    N(z), and Re z = 4u^3 - 3mu, which bisection solves on each of the three
    pieces where that cubic is monotone; Im z = v (3u^2 - v^2) then picks v.
    """
    if not x.field.is_base:
        return None
    a, b, d = x.triple
    a, b = a * d * d, b * d * d
    norm = a * a + b * b
    m = _icbrt(norm)
    if m ** 3 != norm:
        return None
    r = isqrt(m)
    t = r // 2
    for lo, hi, sign in ((-r, -t - 1, 1), (-t, t, -1), (t + 1, r, 1)):
        if lo > hi:
            continue
        while lo < hi:                      # first u with sign (Re z - a) >= 0
            mid = (lo + hi) // 2
            if sign * (4 * mid ** 3 - 3 * m * mid - a) < 0:
                lo = mid + 1
            else:
                hi = mid
        u, v = lo, isqrt(m - lo * lo)
        if 4 * u ** 3 - 3 * m * u != a or u * u + v * v != m:
            continue
        for v in (v, -v):
            if v * (3 * u * u - v * v) == b:
                return QI.scalar(u, v) / d
    return None


def s3_stabilizer(p: S3Point) -> FiniteSubgroup:
    """The stabilizer of a nondegenerate S3 point inside GL(U).

    Splits the inner product into its two isotropic directions (one square
    root), conjugates the torus/reflection candidates back, and keeps the
    elements that fix the point exactly.  The cube roots are exact in Q(i)
    (_rational_cbrt).  At the base point the result has order 6 with the S3
    profile: two elements of order 3 and three of order 2.
    """
    if not s3_on_z(p):
        raise DegenerateS3Point("point does not satisfy the defining relation")
    if p.det().is_zero():
        raise DegenerateS3Point("det B = 0")
    # split Q_b, with form coefficients (bC0, 2 bC1, bC2); its discriminant
    # is -4 det b
    roots = split_form((p.bC[0], p.bC[1] * 2, p.bC[2]),
                       deepest_field(p.bC + p.BU[0] + p.BU[1]))
    if roots is None:
        raise DegenerateS3Point("inner product degenerate")
    field, T = roots
    T_inv = T.inverse()
    split = s3_act(T_inv, p)
    # shape: rows proportional to (0,0,*) and (*,0,0)
    if not (split.BU[0][0].is_zero() and split.BU[1][2].is_zero()):
        raise DegenerateS3Point("point is not in the split normal form orbit")
    x3 = split.BU[0][2]
    y1 = split.BU[1][0]
    if x3.is_zero() or y1.is_zero():
        raise DegenerateS3Point("split form degenerate")
    # cube roots of unity (adjoined on demand)
    try:
        field2, root3 = adjoin_sqrt(field, field.scalar(-3))
    except ExtensionLimitError:
        field2, root3 = None, None
    candidates = [Mat2.identity()]
    if root3 is not None:
        zeta = (field2.scalar(-1) + root3) / 2
        for z in (zeta, zeta * zeta):
            candidates.append(Mat2.diagonal(z * z, z))
    ratio = lower(x3 / y1)
    w0 = _rational_cbrt(ratio)
    if w0 is not None:
        ws = [w0]
        if root3 is not None:
            ws += [w0 * zeta, w0 * zeta * zeta]
        for w in ws:
            candidates.append(Mat2(w.field.zero(), w, w.inverse(), w.field.zero()))
    elements = []
    for cand in candidates:
        g = T * cand * T_inv
        moved = s3_act(g, p)
        if moved.BU == p.BU and moved.bC == p.bC:
            elements.append(g)
    return FiniteSubgroup(elements, Mat2.identity())
