"""The towers suite and tools/sweep.py, which CI runs over seeds 0-99 for
the suites all and towers, here on a few seeds.

point_sample and tower_sample are the draws the towers suite must make,
kept here as written before the suite existed: the suite is checked to draw
exactly these points, in order."""

import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from d4vgit import mckay, quiver
from d4vgit.gitcore import act, point_to_json
from d4vgit.mckay import base_point
from d4vgit.sampling import (
    engineered_unstable_points, rand_chart_point, rand_group_element, rand_tower_group_element,
    rand_z_point,
)
from d4vgit.scalars import QI, FieldError
from d4vgit.suites import Check, Report, run_suite

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "sweep.py"
_spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

HEIGHT = 1 << 8


def point_sample(rng):
    """(point, engineered) for the points mode."""
    points = [(act(rand_group_element(rng, HEIGHT), rand_z_point(rng, HEIGHT)), False)
              for _ in range(8)]
    engineered = engineered_unstable_points(rng)
    unstable = [p for _, p in engineered if not p.x.is_zero()]
    points += [(act(rand_group_element(rng, HEIGHT), rng.choice(unstable)), True)
               for _ in range(4)]
    both_moved = dict(engineered)["{p1=p2=p3=0}"]
    points += [(act(rand_tower_group_element(rng, depth), both_moved), True)
               for depth in (1, 2)]
    return points + [(act(rand_tower_group_element(rng, depth), rand_z_point(rng, HEIGHT)),
                      False) for depth in (1, 2)]


def tower_sample(rng):
    """(point, moved_base_point) for the towers mode."""
    b = base_point()
    points = [(act(rand_tower_group_element(rng, depth), b), True) for depth in (1, 2)]
    return points + [(act(rand_group_element(rng), rand_chart_point(rng, 16)), False)]


def _oracle_draws(seed):
    """[(k, point JSON, flag)] of point_sample, then of tower_sample."""
    return [[(k, point_to_json(p), flag) for k, (p, flag) in enumerate(
        sample(random.Random("%s/%d" % (name, seed))))]
        for name, sample in (("point-sweep", point_sample), ("tower-sweep", tower_sample))]


TOWER_CHECK_IDS = [
    "tw.charts", "tw.connect_roundtrip", "tw.engineered_unstable", "tw.minus_theta_stable",
    "tw.on_Z", "tw.orbit_json_roundtrip", "tw.point_json_roundtrip", "tw.stabilizer_acts",
    "tw.stabilizer_orders", "tw.theta_matches_king", "tw.unstable_reverified",
]


@pytest.mark.parametrize("seed", [0, 7])
def test_towers_draws_the_oracle_points_in_order(monkeypatch, seed):
    drawn, real = [], Report.add_sampled

    def recording(self, samples, *args, **kwargs):
        samples = list(samples)
        drawn.append([(k, point_to_json(p), flag) for k, (p, flag) in samples])
        return real(self, samples, *args, **kwargs)

    monkeypatch.setattr(Report, "add_sampled", recording)
    report = run_suite("towers", seed)
    assert report.passed and [c.check_id for c in report.checks] == TOWER_CHECK_IDS
    assert drawn == _oracle_draws(seed)


def _failed(report):
    return {c.check_id: c.details for c in report.checks if not c.passed}


def test_odd_patterns_with_the_trivial_torus_part_fail_towers(monkeypatch, capsys):
    """The odd sign patterns of the relaxed stabilizer given torus part
    (1, 1, 1): the list and its orders stay, and one act per element finds
    that the odd half no longer sends b*'s H-part to (-alpha, -beta, B)."""
    real, one = mckay.GroupElement, QI.one()

    def odd_as_trivial(t, g):
        odd = all(c in (one, -one) for c in t) and t[0] * t[1] * t[2] == -one
        return real((one,) * 3 if odd else t, g)

    odd_as_trivial.identity = real.identity
    monkeypatch.setattr(mckay, "GroupElement", odd_as_trivial)
    failed = _failed(run_suite("towers", 0))
    b0 = _oracle_draws(0)[1][0][1]
    assert failed == {"tw.stabilizer_acts": "sample 0: " + json.dumps(b0, sort_keys=True)}
    assert sweep.main(["towers", "--seeds", "0"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed 0: tw.stabilizer_acts - sample 0: " + json.dumps(b0, sort_keys=True),
        "failing seeds: [0]"]


def test_a_check_false_on_one_sample_names_it(monkeypatch, capsys):
    """King stability read wrong on the third pipeline sample fails
    tw.theta_matches_king alone, named with that sample's point."""
    real, calls = quiver.king_stable, []

    def wrong_once(r):
        calls.append(r)
        return real(r) != (len(calls) == 3)

    monkeypatch.setattr(quiver, "king_stable", wrong_once)
    p2 = json.dumps(_oracle_draws(0)[0][2][1], sort_keys=True)
    assert _failed(run_suite("towers", 0)) == {"tw.theta_matches_king": "sample 2: " + p2}
    calls.clear()
    assert sweep.main(["towers", "--seeds", "0"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed 0: tw.theta_matches_king - sample 2: " + p2, "failing seeds: [0]"]


@pytest.mark.parametrize("suite", ["all", "towers"])
def test_each_mode_passes_on_two_seeds(suite, capsys):
    assert sweep.main([suite, "--seeds", "0-1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["failing seeds: none"]


def test_points_pass_under_python_O():
    """The towers suite, whose point checks re-verify every unstable
    verdict, passes with asserts stripped."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-O", "-m", "d4vgit", "suite", "towers", "--seed", "5"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stdout


def test_a_failing_suite_seed_fails_the_sweep(monkeypatch, capsys):
    monkeypatch.setattr(sweep, "run_suite", lambda name, s: Report(name, s, [
        Check("x.y", s != 4, "sample 0: 1")]))
    assert sweep.main(["all", "--seeds", "3-5"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed 4: x.y - sample 0: 1", "failing seeds: [4]"]


def test_a_failing_or_raising_point_fails_the_sweep(monkeypatch, capsys):
    """A point whose pipeline raises an error no check guards (here a
    FieldError from connect) ends its seed's run: the sweep prints it once,
    goes on to the next seed and fails."""
    real, calls = mckay.connect, []

    def raising_once(source, target):
        calls.append(source)
        if len(calls) == 1:
            raise FieldError("broken")
        return real(source, target)

    monkeypatch.setattr(mckay, "connect", raising_once)
    assert sweep.main(["towers", "--seeds", "7-8"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed 7 raised FieldError('broken')", "failing seeds: [7]"]


def test_seed_ranges_are_inclusive():
    assert list(sweep.seed_range("0-99")) == list(range(100))
    assert list(sweep.seed_range("7")) == [7]


def test_a_reversed_seed_range_is_a_usage_error(capsys):
    """A reversed range sweeps nothing, so it would pass having checked
    nothing: it exits 2 with one line on stderr and runs no seed."""
    with pytest.raises(SystemExit) as stop:
        sweep.main(["all", "--seeds", "5-3"])
    captured = capsys.readouterr()
    assert stop.value.code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "sweep: error: argument --seeds: empty seed range '5-3'"]
