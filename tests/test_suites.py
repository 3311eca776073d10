"""The sampled-check runner: a suite is fixed checks plus sample streams with
named predicates, and a failing sampled check names its first failing sample
as `sample k: <JSON>`."""

import dataclasses
import json

import pytest

from d4vgit import cyclic_s3, equations, mckay, sampling, stability, suites
from d4vgit.cli import main
from d4vgit.gitcore import PointHV, group_to_json, point_to_json
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


# -- fixed checks behind the same guard ------------------------------------------


def test_a_fixed_check_whose_work_raises_fails_with_the_message(monkeypatch, capsys):
    """The determinant identity failing at b*, the first call of
    open_locus_det, fails eq.base_point_open_locus with the error's message;
    the run exits 1 with no traceback, and eq.det_identity, which asks for
    the same work again, gets it."""
    real, calls = equations.open_locus_det, []
    message = "determinant identity 2 det B = beta^3 a1 a2 a3 failed"

    def raising(p):
        calls.append(p)
        if len(calls) == 1:
            raise AssertionError(message)
        return real(p)

    monkeypatch.setattr(equations, "open_locus_det", raising)
    assert main(["suite", "equations", "--seed", "7"]) == 1
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if "[FAIL]" in line] == [
        "  [FAIL] eq.base_point_open_locus - " + message]
    assert err == ""


def test_a_refused_stabilizer_fails_every_fixed_orbit_check(monkeypatch):
    """mckay.stabilizer raising fails the five fixed orb.* checks that use
    it, each with the message; orb.connect_roundtrip does not use it and
    passes."""
    def refuse(p, fix_beta=True):
        raise AssertionError("stabilizer refused")

    monkeypatch.setattr(mckay, "stabilizer", refuse)
    checks = {c.check_id: c for c in run_suite("orbit", 7).checks}
    assert checks.pop("orb.connect_roundtrip").passed
    assert sorted(checks) == [
        "orb.conjugate_stabilizer", "orb.connect_self_in_stabilizer",
        "orb.quaternion_signature", "orb.relaxed_order_16", "orb.stabilizer_order_8"]
    assert all(not c.passed and c.details == "stabilizer refused"
               for c in checks.values())


def test_a_degenerate_s3_point_fails_one_check_of_the_whole_run(monkeypatch):
    """s3_stabilizer refusing its point fails ex.s3_stabilizer_order_6 and
    nothing else: suite all still reports its 44 checks."""
    def refuse(p):
        raise cyclic_s3.DegenerateS3Point("split form degenerate")

    passing = run_suite("all", 7).checks
    monkeypatch.setattr(cyclic_s3, "s3_stabilizer", refuse)
    checks = run_suite("all", 7).checks
    assert len(checks) == len(passing) == 44
    assert [(c.check_id, c.details) for c in checks if not c.passed] == [
        ("ex.s3_stabilizer_order_6", "split form degenerate")]
    assert all(c == p for c, p in zip(checks, passing)
               if c.check_id != "ex.s3_stabilizer_order_6")


@pytest.mark.parametrize("error", [AssertionError, equations.ContractViolation])
def test_subset_certificates_fail_with_the_error_message(monkeypatch, error):
    """A certificate table that refuses to build fails
    st.subset_certificates with the error's message, and the suite still
    reports every check (st.engineered_unstable, whose plus-theta verdicts
    read the same table, fails too)."""
    def refuse():
        raise error("certificate for {x=0} does not re-verify")

    count = len(run_suite("stability", 7).checks)
    monkeypatch.setattr(stability, "unstable_subset_certificates", refuse)
    checks = {c.check_id: c for c in run_suite("stability", 7).checks}
    check = checks["st.subset_certificates"]
    assert not check.passed
    assert check.details == "certificate for {x=0} does not re-verify"
    assert len(checks) == count


def test_closure_failure_names_the_failing_components(monkeypatch):
    from d4vgit import charts
    real = charts.chart_closure_check

    def two_failing():
        components = list(real().components)
        for m in (0, 5):
            components[m] = dataclasses.replace(components[m], remainder_zero=False)
        return charts.ClosureReport(tuple(components))

    monkeypatch.setattr(charts, "chart_closure_check", two_failing)
    checks = {c.check_id: c for c in run_suite("charts", 7).checks}
    failed = checks.pop("ch.closure_all_remainders_zero")
    assert not failed.passed and failed.details == "E1[0,0],E1[2,2]"
    assert checks["ch.closure_24_components"].passed


@pytest.mark.parametrize("suite, failing", [
    ("equations", ["eq.base_point_on_Z", "eq.base_point_open_locus",
                   "eq.beta_flip_breaks_only_E3", "eq.det_identity"]),
    ("orbit", ["orb.conjugate_stabilizer", "orb.connect_roundtrip",
               "orb.connect_self_in_stabilizer", "orb.quaternion_signature",
               "orb.relaxed_order_16", "orb.stabilizer_order_8"]),
])
def test_a_raising_base_point_fails_the_checks_that_read_it(monkeypatch, capsys,
                                                            suite, failing):
    """b* failing its residual re-check fails every check that reads it,
    with the message, also the sampled orb.connect_roundtrip, whose sample
    stream acts on b*; the run exits 1 with no traceback."""
    message = "base point failed residual check"

    def raising(x=(0, 0)):
        raise AssertionError(message)

    monkeypatch.setattr(mckay, "base_point", raising)
    assert main(["suite", suite, "--seed", "7"]) == 1
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if "[FAIL]" in line] == [
        "  [FAIL] %s - %s" % (check_id, message) for check_id in failing]
    assert err == ""


def test_a_raising_sample_stream_fails_the_checks_not_yet_failed():
    def samples():
        yield 0, ({"k": 0},)
        yield 1, ({"k": 1},)
        raise equations.ContractViolation("stream refused")

    rep = Report("runner", 0)
    rep.add_sampled(samples(), {"a": lambda at: at["k"] != 1, "b": lambda at: True})
    assert [(c.check_id, c.passed, c.details) for c in rep.checks] == [
        ("a", False, 'sample 1: {"k": 1}'), ("b", False, "stream refused")]


def test_a_theta_unstable_chart_sample_fails_its_checks(monkeypatch):
    """A chart sample the theta oracle calls unstable is not left out: it
    fails the three checks it feeds, which name it."""
    real, seen = stability.semistable_theta, []

    def unstable_third(p):
        # one call per chart sample, so call 3 is sample 2
        seen.append(p)
        v = real(p)
        return dataclasses.replace(v, status="unstable") if len(seen) == 3 else v

    monkeypatch.setattr(stability, "semistable_theta", unstable_third)
    checks = {c.check_id: c for c in run_suite("charts", 7).checks}
    assert [(c.check_id, c.details) for c in checks.values() if not c.passed] == [
        (check_id, _details(2, seen[2])) for check_id in (
            "ch.hat_roundtrip", "ch.normalize_invariants", "ch.quiver_side_composition")]


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_suites_draw_disjoint_samples(monkeypatch, seed):
    """Each suite seeds its own stream from its name and the seed, so the
    charts and stability suites test different points, and the equations and
    orbit suites different group elements."""
    drawn = []

    def recording(draw, to_json):
        def wrapped(rng, *args):
            x = draw(rng, *args)
            drawn.append(json.dumps(to_json(x), sort_keys=True))
            return x
        return wrapped

    monkeypatch.setattr(sampling, "rand_z_point",
                        recording(sampling.rand_z_point, point_to_json))
    monkeypatch.setattr(sampling, "rand_group_element",
                        recording(sampling.rand_group_element, group_to_json))

    def draws(suite):
        drawn.clear()
        suites.SUITES[suite](seed)
        assert drawn
        return set(drawn)

    assert draws("charts").isdisjoint(draws("stability"))
    assert draws("equations").isdisjoint(draws("orbit"))
