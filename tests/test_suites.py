"""The sampled-check runner: a suite is fixed checks plus sample streams with
named predicates, and a failing sampled check names its first failing sample
as `sample k: <JSON>`."""

import dataclasses
import json

import pytest

from d4vgit import cyclic_s3, equations, mckay, sampling, stability, suites
from d4vgit.cli import main
from d4vgit.gitcore import PointHV, point_to_json
from d4vgit.suites import Report, run_suite


def _details(k, x):
    if isinstance(x, PointHV):
        x = point_to_json(x)
    return "sample %d: %s" % (k, json.dumps(x, sort_keys=True))


def test_every_predicate_sees_every_sample_and_the_first_failure_is_named():
    drawn, seen = [], []

    def samples():
        for k in range(5):
            drawn.append(k)
            yield k, ({"k": k}, k)

    def a(at, k):
        seen.append(k)
        return k not in (1, 3)

    rep = Report("runner", 0)
    rep.add_sampled(samples(), {"a": a, "b": lambda at, k: True},
                    passed_details={"a": "unused", "b": "a note"})
    assert drawn == seen == [0, 1, 2, 3, 4]
    assert [(c.check_id, c.passed, c.details) for c in rep.checks] == [
        ("a", False, 'sample 1: {"k": 1}'), ("b", True, "a note")]


def _translates(monkeypatch):
    """The orbit samples h.p of suite_equations, as its act makes them."""
    real, acted = suites.act, []

    def acting(h, p):
        acted.append(real(h, p))
        return acted[-1]

    monkeypatch.setattr(suites, "act", acting)
    return acted


def _fail_equations(name):
    def install(monkeypatch):
        acted = _translates(monkeypatch)
        real = getattr(equations, name)

        def off_by_one(p, *args):
            # the calls at the translates of samples 4 and 6 come out wrong
            wrong = any(p is q for q in acted[4:7:2])
            return real(p, *args) + 1 if wrong else real(p, *args)

        monkeypatch.setattr(equations, name, off_by_one)
        return lambda: (4, acted[4])
    return install


def _fail_engineered(monkeypatch):
    real_points = sampling.engineered_unstable_points
    real_theta = stability.semistable_theta
    lists = []

    def recording(rng):
        lists.append(real_points(rng))
        return lists[-1]

    def flipped(p):
        # engineered points 3 and 5 of the first list come out stable
        v = real_theta(p)
        if lists and any(p is lists[0][m][1] for m in (3, 5)):
            return dataclasses.replace(v, status="stable")
        return v

    monkeypatch.setattr(sampling, "engineered_unstable_points", recording)
    monkeypatch.setattr(stability, "semistable_theta", flipped)
    return lambda: (3, lists[0][3][1])


def _fail_fan(chi):
    def install(monkeypatch):
        real = cyclic_s3.an_quotient_fan

        def swapped(n, c):
            # for n = 4 and 5 the character chi gets the other fan
            return real(n, -c) if n in (4, 5) and c == chi else real(n, c)

        monkeypatch.setattr(cyclic_s3, "an_quotient_fan", swapped)
        return lambda: (2, {"n": 4})
    return install


@pytest.mark.parametrize("suite, check_id, install", [
    ("equations", "eq.omega_weight", _fail_equations("omega")),
    ("equations", "eq.semi_invariant_weight",
     _fail_equations("semi_invariant_minus_theta")),
    ("stability", "st.engineered_unstable", _fail_engineered),
    ("examples", "ex.an_resolution_fans", _fail_fan(1)),
    ("examples", "ex.an_orbifold_charts", _fail_fan(-1)),
], ids=["omega", "semi_invariant", "engineered", "resolution_fans", "orbifold_fans"])
def test_check_names_its_first_failing_sample(monkeypatch, suite, check_id, install):
    """A check that reported fixed text, a list of descriptors or nothing
    on failure names its first failing sample (for the fans, the first
    failing n); every other check reports as it does when all pass."""
    passing = {c.check_id: c for c in run_suite(suite, 7).checks}
    named = install(monkeypatch)
    checks = {c.check_id: c for c in run_suite(suite, 7).checks}
    check = checks.pop(check_id)
    assert not check.passed
    assert check.details == _details(*named())
    assert all(c == passing[other] for other, c in checks.items())
    assert passing[check_id].passed


@pytest.mark.parametrize("error", [AssertionError, KeyError])
def test_a_failed_reverification_fails_its_check(monkeypatch, capsys, error):
    """An AssertionError raised by connect on sample 2 fails
    orb.connect_roundtrip, which names sample 2, and the suite exits 1;
    any other exception propagates."""
    real = mckay.connect
    targets = []

    def raising(p, q):
        targets.append(q)
        if len(targets) == 3:
            raise error("connect verification failed")
        return real(p, q)

    monkeypatch.setattr(mckay, "connect", raising)
    if error is not AssertionError:
        with pytest.raises(error):
            run_suite("orbit", 7)
        return
    checks = {c.check_id: c for c in run_suite("orbit", 7).checks}
    check = checks.pop("orb.connect_roundtrip")
    assert not check.passed and check.details == _details(2, targets[2])
    assert all(c.passed and c.details == "" for c in checks.values())
    targets.clear()
    assert main(["suite", "orbit"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  [FAIL] orb.connect_roundtrip - %s" % _details(2, targets[2]) in out
