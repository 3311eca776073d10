"""Work budgets: pinned counts of the reduced values and products each
operation of the point pipeline and the stabilizer closure proof makes.

scalars._qi is the one builder of a reduced base-level Scalar, so its calls
count the gcds an operation takes.  The points are those of the
point_stream benchmark: stable Z-points of height 2^8, translated by a
group element of height 2^8 and read back from point JSON.
"""

import json
import random

import pytest

import d4vgit.charts as charts
import d4vgit.scalars as scalars
from d4vgit.charts import from_quiver_chart, normalize, to_quiver_chart
from d4vgit.cyclic_s3 import s3_base_point, s3_stabilizer
from d4vgit.equations import residuals
from d4vgit.gitcore import GroupElement, act, point_from_json, point_to_json
from d4vgit.linalg import Mat2
from d4vgit.mckay import FiniteSubgroup, base_point, stabilizer
from d4vgit.quiver import build_rep
from d4vgit.sampling import rand_group_element, rand_z_point
from d4vgit.stability import semistable_minus_theta, semistable_theta


def _stable_stream_points(seed, n=6):
    """(point, theta verdict) for n stable height-2^8 translates, with their
    residuals already kept, so a count sees only the operation itself."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        p = act(rand_group_element(rng, 1 << 8), rand_z_point(rng, 1 << 8))
        p = point_from_json(json.loads(json.dumps(point_to_json(p))))
        residuals(p)
        v = semistable_theta(p)
        if v.is_stable:
            out.append((p, v))
    return out


@pytest.fixture
def reduced(monkeypatch):
    """A list that records every scalars._qi call from now on."""
    calls = []
    real = scalars._qi
    monkeypatch.setattr(scalars, "_qi", lambda *args: calls.append(args) or real(*args))
    return calls


def _count(calls, run):
    calls.clear()
    run()
    return len(calls)


# at most this many reduced values per call: 19, 22, 94 and 44 when each
# product chain reduced after every binary product.  to_quiver_chart halves
# three coordinates, from_quiver_chart doubles one and builds the five
# dependent coordinates, and the validations are zero tests.
# semistable_theta reduced 11 when it built each contraction B_i(x, -): now
# each is two lazy zero tests, and the witness a_i B_i(x, x) one sum (these
# points all take the witness at i = 1).
BUDGETS = {"semistable_minus_theta": 5, "build_rep": 17, "normalize": 37,
           "hat round trip": 9, "semistable_theta": 1}


@pytest.mark.parametrize("seed", [0, 1])
def test_stable_point_operations_stay_within_their_budgets(reduced, seed):
    for p, v in _stable_stream_points(seed):
        index = v.witness_index + 1
        c = normalize(p, index)
        counts = {name: _count(reduced, run) for name, run in (
            ("semistable_theta", lambda: semistable_theta(p)),
            ("semistable_minus_theta", lambda: semistable_minus_theta(p)),
            ("build_rep", lambda: build_rep(p)),
            ("normalize", lambda: normalize(p, index)),
            ("hat round trip", lambda: from_quiver_chart(to_quiver_chart(c))))}
        assert all(counts[name] <= bound for name, bound in BUDGETS.items()), counts


def test_normalize_evaluates_the_chart_relations_once(monkeypatch):
    """The ChartPoint's own dependent coordinates are the ones normalize
    checks the moved point against."""
    calls = []
    real = charts.dependent_coordinates
    monkeypatch.setattr(charts, "dependent_coordinates",
                        lambda *free: calls.append(free) or real(*free))
    for p, v in _stable_stream_points(2, n=3):
        calls.clear()
        normalize(p, v.witness_index + 1)
        assert len(calls) == 1


def _count_products(monkeypatch, cls, build):
    """The products cls.__mul__ makes while build() runs."""
    calls = []
    real = cls.__mul__

    def counting(a, b):
        if isinstance(b, cls):
            calls.append(b)
        return real(a, b)

    monkeypatch.setattr(cls, "__mul__", counting)
    if cls is GroupElement:
        monkeypatch.setattr(cls, "compose", counting)
    build()
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("fix_beta, order, products", [(True, 8, 16), (False, 16, 48)])
def test_stabilizer_closure_proof_takes_the_central_sign_last(monkeypatch, fix_beta,
                                                              order, products):
    """Two generators prove the quaternion group closed and three the
    relaxed group of order 16: |G| products each (24 and 64 when the
    central -1 was taken first)."""
    G = stabilizer(base_point(), fix_beta)
    assert G.order() == order
    assert _count_products(monkeypatch, GroupElement,
                           lambda: stabilizer(base_point(), fix_beta)) == products
    assert _count_products(monkeypatch, GroupElement,
                           lambda: FiniteSubgroup(G.elements, G.identity)) == products


def test_s3_closure_proof_uses_two_generators(monkeypatch):
    S = s3_stabilizer(s3_base_point())
    assert _count_products(monkeypatch, Mat2,
                           lambda: FiniteSubgroup(S.elements, Mat2.identity())) == 12
