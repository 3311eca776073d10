"""tools/sweep.py: the seed sweeps of the suites, of the point pipeline and
of the orbit layer over towers that CI runs at seeds 0-99, here on two
seeds."""

import importlib.util
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "sweep.py"
_spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

NONE_LINES = {"suites": "failing seeds: none", "points": "failing seed/point: none",
              "towers": "failing seed/point: none"}


@pytest.mark.parametrize("mode", ["suites", "points", "towers"])
def test_each_mode_passes_on_two_seeds(mode, capsys):
    assert sweep.main([mode, "--seeds", "0-1"]) == 0
    assert capsys.readouterr().out.splitlines() == [NONE_LINES[mode]]


def test_points_pass_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-O", str(SCRIPT), "points", "--seeds", "5-6"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout.splitlines()) == (0, [NONE_LINES["points"]])


def test_a_failing_suite_seed_fails_the_sweep(monkeypatch, capsys):
    monkeypatch.setattr(sweep, "run_suite", lambda name, s: SimpleNamespace(passed=s != 4))
    assert sweep.main(["suites", "--seeds", "3-5"]) == 1
    assert capsys.readouterr().out.splitlines() == ["failing seeds: [4]"]


def test_a_failing_or_raising_point_fails_the_sweep(monkeypatch, capsys):
    """A point whose pipeline raises is named with its error, every failing
    point as seed/point."""
    calls = []

    def holds(p, engineered):
        calls.append(p)
        if len(calls) == 2:
            raise ValueError("broken")
        return not engineered

    monkeypatch.setattr(sweep, "holds", holds)
    assert sweep.main(["points", "--seeds", "7"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed 7 point 1 raised ValueError('broken')",
        "failing seed/point: 7/1, 7/8, 7/9, 7/10, 7/11, 7/12, 7/13"]


def test_seed_ranges_are_inclusive():
    assert list(sweep.seed_range("0-99")) == list(range(100))
    assert list(sweep.seed_range("7")) == [7]


def test_a_reversed_seed_range_is_a_usage_error(capsys):
    """A reversed range sweeps nothing, so it would pass having checked
    nothing: it exits 2 with one line on stderr and runs no seed."""
    with pytest.raises(SystemExit) as stop:
        sweep.main(["suites", "--seeds", "5-3"])
    captured = capsys.readouterr()
    assert stop.value.code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "sweep: error: argument --seeds: empty seed range '5-3'"]
