"""Exact matrix helpers and the symmetric-square functor."""

import random

import sympy as sp

from d4vgit.linalg import Mat2, Mat3, Vec2, sym_square
from d4vgit.scalars import QI


def rand_mat2(rng, invertible=False):
    while True:
        m = Mat2(*[QI.scalar(rng.randint(-4, 4), rng.randint(-2, 2))
                   for _ in range(4)])
        if not invertible or not m.det().is_zero():
            return m


def test_mat2_inverse():
    rng = random.Random(1)
    for _ in range(30):
        m = rand_mat2(rng, invertible=True)
        assert m * m.inverse() == Mat2.identity()


def test_sym_square_identity():
    assert sym_square(Mat2.identity()) == Mat3(
        [[QI.scalar(int(m == n)) for n in range(3)] for m in range(3)])


def test_sym_square_diagonal():
    t = QI.scalar(5)
    got = sym_square(Mat2.diagonal(QI.one(), t))
    assert got == Mat3([[1, 0, 0], [0, 5, 0], [0, 0, 25]])


def test_sym_square_functorial():
    rng = random.Random(2)
    for _ in range(40):
        g = rand_mat2(rng)
        h = rand_mat2(rng)
        assert sym_square(g * h) == sym_square(g) * sym_square(h)


def test_sym_square_det_cubed():
    rng = random.Random(3)
    for _ in range(100):
        g = rand_mat2(rng, invertible=True)
        assert sym_square(g).det() == g.det() ** 3


def test_sym_square_against_direct_expansion():
    """Independent oracle: expand (a e1 + c e2)-images symbolically."""
    a, b, c, d = sp.symbols("a b c d")
    e1sq = sp.Matrix([a**2, 2*a*c, c**2])
    e1e2 = sp.Matrix([a*b, a*d + b*c, c*d])
    e2sq = sp.Matrix([b**2, 2*b*d, d**2])
    expected = sp.Matrix.hstack(e1sq, e1e2, e2sq)
    rng = random.Random(4)
    for _ in range(10):
        vals = {a: rng.randint(-3, 3), b: rng.randint(-3, 3),
                c: rng.randint(-3, 3), d: rng.randint(-3, 3)}
        g = Mat2(vals[a], vals[b], vals[c], vals[d])
        got = sym_square(g)
        ref = expected.subs(vals)
        for i in range(3):
            for j in range(3):
                assert got[i, j] == QI.scalar(int(ref[i, j]))


def test_vec_wedge():
    u = Vec2(QI.scalar(2), QI.scalar(3))
    v = Vec2(QI.scalar(1), QI.scalar(4))
    assert u.wedge(v) == QI.scalar(5)
    assert u.wedge(u).is_zero()
