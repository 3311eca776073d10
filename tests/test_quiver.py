"""The attached quiver representations: construction, relations, stability."""

import json
import random

import pytest

from d4vgit.equations import residuals, witness_E2_not_E1
from d4vgit.gitcore import PointHV, act
from d4vgit.linalg import Mat2, Vec2
from d4vgit.mckay import base_point
from d4vgit.quiver import (
    build_rep, central_quadratic, king_stable, preprojective_holds,
    preprojective_residual,
)
from d4vgit.sampling import (
    rand_chart_point, rand_group_element, rand_point_hv, rand_z_point,
)
from d4vgit.scalars import QI


def test_zero_x_gives_zero_rep():
    rng = random.Random(0)
    p = rand_point_hv(rng).with_x((0, 0))
    r = build_rep(p)
    assert r.E0.is_zero() and r.D0.is_zero()
    assert all(d.is_zero() for d in r.D)
    assert all(e.is_zero() for e in r.E)


def test_chart_normalized_rep():
    p = rand_chart_point(random.Random(1))
    r = build_rep(p)
    assert r.E0 == Vec2(QI.one(), QI.zero())
    assert (r.D[0].a, r.D[0].b) == (QI.one(), QI.zero())
    assert r.E[0] == Vec2(QI.zero(), QI.one())


def test_preprojective_at_base_point():
    p = base_point(x=(2, 3))
    assert preprojective_holds(build_rep(p))


def test_legs_vanish_everywhere():
    rng = random.Random(2)
    for _ in range(60):
        p = rand_point_hv(rng)
        legs, _ = preprojective_residual(build_rep(p))
        assert all(s.is_zero() for s in legs)


def test_central_trace_free_everywhere():
    rng = random.Random(3)
    for _ in range(60):
        p = rand_point_hv(rng)
        _, central = preprojective_residual(build_rep(p))
        assert central.trace().is_zero()


def test_central_residual_is_e1_contraction():
    """v ^ (M v) equals the first equation's residual form at x.v, exactly."""
    rng = random.Random(4)
    for _ in range(40):
        p = rand_point_hv(rng)
        res = residuals(p)
        e1 = res.e1
        gram = {(0, 0): e1[0], (0, 1): e1[1], (0, 2): e1[2],
                (1, 1): e1[3], (1, 2): e1[4], (2, 2): e1[5]}

        def form(u, v):
            s = QI.zero()
            for m in range(3):
                for n in range(3):
                    key = (m, n) if m <= n else (n, m)
                    s = s + gram[key] * u[m] * v[n]
            return s

        central = preprojective_residual(build_rep(p))[1]
        x = p.x
        for vv in (Vec2(QI.one(), QI.zero()), Vec2(QI.zero(), QI.one()),
                   Vec2(QI.scalar(2), QI.scalar(-3))):
            t = (x.a * vv.a, x.a * vv.b + x.b * vv.a, x.b * vv.b)
            assert central_quadratic(central, vv) == form(t, t)


def test_preprojective_on_z_samples():
    rng = random.Random(5)
    for _ in range(50):
        p = rand_z_point(rng)
        assert preprojective_holds(build_rep(p))


def test_king_zero_rep():
    p = PointHV.make((0, 0, 0), 0, ((0, 0, 0),) * 3, (0, 0))
    assert not king_stable(build_rep(p))


def test_king_chart_rep():
    p = rand_chart_point(random.Random(6))
    assert king_stable(build_rep(p))


def test_king_fails_when_a_leg_dies():
    p = rand_chart_point(random.Random(7))
    B = (p.B[0], (QI.zero(),) * 3, p.B[2])
    broken = PointHV(p.alpha, p.beta, B, p.x)
    assert not king_stable(build_rep(broken))


def test_witness_king_stable_but_not_preprojective():
    w = witness_E2_not_E1().with_x(Vec2(QI.scalar(1), QI.scalar(2)))
    r = build_rep(w)
    assert king_stable(r)
    assert not preprojective_holds(r)
    _, central = preprojective_residual(r)
    assert not central.is_zero()


def test_equivariance_of_build_rep():
    """build_rep(act(h, p)) is the transported representation."""
    rng = random.Random(8)
    for _ in range(20):
        p = rand_point_hv(rng)
        h = rand_group_element(rng)
        q = act(h, p)
        r_p = build_rep(p)
        r_q = build_rep(q)
        g = h.g
        det_inv = g.det().inverse()
        # E0 -> g E0
        assert r_q.E0 == g * r_p.E0
        # D_i -> t_i D_i o g^-1 and E_i -> t_i^-1 g E_i
        ginv = g.inverse()
        for i in range(3):
            moved = (r_p.D[i](Vec2(ginv.a, ginv.c)) * h.t[i],
                     r_p.D[i](Vec2(ginv.b, ginv.d)) * h.t[i])
            assert (r_q.D[i].a, r_q.D[i].b) == moved
            assert r_q.E[i] == (g * r_p.E[i]).scale(h.t[i].inverse())
        # D0 -> D0 o g^-1
        moved0 = (r_p.D0(Vec2(ginv.a, ginv.c)), r_p.D0(Vec2(ginv.b, ginv.d)))
        assert (r_q.D0.a, r_q.D0.b) == moved0
        del det_inv


def _flip_legs(result):
    legs, central = result
    return (QI.one(),) + tuple(legs[1:]), central


def _flip_trace(result):
    legs, central = result
    return legs, central + Mat2.identity()


@pytest.mark.parametrize("check_id, module, name, flip, bad_call", [
    ("qv.legs_always_zero", "quiver", "preprojective_residual", _flip_legs, 7),
    ("qv.central_trace_free", "quiver", "preprojective_residual", _flip_trace, 3),
    ("qv.central_equals_E1_contraction", "suites", "_central_matches_e1",
     lambda ok: not ok, 11),
    ("qv.preprojective_on_Z", "quiver", "preprojective_holds", lambda ok: not ok, 4),
])
def test_suite_quiver_names_the_first_failing_sample(monkeypatch, check_id, module,
                                                     name, flip, bad_call):
    """A sampled quiver check that fails reports its first failing sample
    (index and point JSON); every other check passes with empty details."""
    import d4vgit.quiver
    import d4vgit.sampling
    import d4vgit.suites
    from d4vgit.gitcore import point_to_json
    from d4vgit.suites import run_suite
    target = {"quiver": d4vgit.quiver, "suites": d4vgit.suites}[module]
    real = getattr(target, name)
    flipped_samples = set()
    drawn = []
    sampler = "rand_z_point" if check_id == "qv.preprojective_on_Z" else "rand_point_hv"
    real_sampler = getattr(d4vgit.sampling, sampler)

    def drawing(rng):
        drawn.append(real_sampler(rng))
        return drawn[-1]

    def flipped(*args):
        # the first call made for samples bad_call and bad_call + 2 fails
        k = len(drawn) - 1
        if k in (bad_call, bad_call + 2) and k not in flipped_samples:
            flipped_samples.add(k)
            return flip(real(*args))
        return real(*args)

    monkeypatch.setattr(d4vgit.sampling, sampler, drawing)
    monkeypatch.setattr(target, name, flipped)
    checks = {c.check_id: c for c in run_suite("quiver", 7).checks}
    assert not checks[check_id].passed
    index, text = checks[check_id].details.split(": ", 1)
    assert index == "sample %d" % bad_call
    assert text == json.dumps(point_to_json(drawn[bad_call]), sort_keys=True)
    for other, check in checks.items():
        if other != check_id:
            assert check.passed and check.details == "", other
    monkeypatch.undo()
    passing = {c.check_id: c for c in run_suite("quiver", 7).checks}
    assert all(c.passed and c.details == "" for c in passing.values())


def test_suite_quiver_builds_each_sample_once(monkeypatch):
    """suite_quiver hands the rep it built to the E1 contraction check
    instead of building it again."""
    import d4vgit.quiver
    from d4vgit.suites import run_suite
    real = d4vgit.quiver.build_rep
    built = []

    def counting(p):
        built.append(p)
        return real(p)

    monkeypatch.setattr(d4vgit.quiver, "build_rep", counting)
    assert run_suite("quiver", 7).passed
    assert len(built) > 50 and len({id(p) for p in built}) == len(built)
