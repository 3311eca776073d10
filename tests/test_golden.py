"""CLI stdout against recorded fixtures: the stabilizer tables and the S3
report, recorded before the closure proof moved from |G|^2 products to a
generating set; the full suite report for seeds 0, 7 and 42, recorded
before connect read its transport off the forms; and the chart closure
check (its 24 quotients) and the base point's charts 2 and 3, recorded
before the chart relations moved into one function; and three A_n quotient
fans (the resolution, a mixed chamber and the orbifold chart), recorded
before the fan moved from subset enumeration to one solve per pair of
rays; and a wall character's error report with its witness weights,
recorded before the fan and the semistability test moved to one Gale-dual
pass; and the plain-text report of the seed-7 suite, recorded before the
sampled checks moved to one runner; and every refused-input report that
exits 3 (a chart index that does not witness, and a point off Z or outside
the open locus for chart, orbit and both stability characters), recorded
before the CLI mapped a refused precondition to exit 3 in one place; and
the plain-text closure check and stabilizer table (a list of dicts and a
list of lists), recorded before `_inline` was rewritten; and every unstable
report that exits 2 (both stability characters at the {beta=0, B1=0} point
and at a translate of the {p1=p2=p3=0} point, where both oracles move the
point by a nontrivial adapting element), recorded before the certificate
search became the re-verification; and the stabilizer tables, strict and
relaxed, of a depth-2 translate of b* and of two Z-points whose groups have
orders 4 and 2 (8 and 4 relaxed), so that some sign patterns are refused,
recorded before stabilizer elements took their closed form.  Each must stay
byte-identical and exit with its recorded code.

connect_transports.json holds group_to_json(connect(b*, q)) for three
height-16 chart-point translates and for base-point translates over depth-1
and depth-2 towers, recorded before the invariant pairing moved into one
function (split_form, which starts every transport, reads it).

Each fixture under tests/data is the stdout of one command, for example
    PYTHONPATH=src python -m d4vgit orbit --point tests/data/base_point.json --json
The point files are written by point_to_json: off_z_point.json is
equations.witness_E1_not_E2() (off Z) and beta0_B1_0_point.json the
{beta=0, B1=0} point of sampling.engineered_unstable_points (on Z, outside
the open locus); p_zero_translate_point.json is the {p1=p2=p3=0} point of
engineered_unstable_points(random.Random(0)) moved by
rand_group_element(random.Random(0)).  translate_depth2_point.json is b*
moved by rand_tower_group_element(random.Random(6), 2), and
z_point_seed0_point.json and z_point_seed2_point.json are
rand_z_point(random.Random(0)) and rand_z_point(random.Random(2)); each is
written as json.dumps(point_to_json(p), indent=2, sort_keys=True) plus a
newline, and its tables are recorded by
    PYTHONPATH=src python -m d4vgit orbit --point tests/data/z_point_seed0_point.json --json
    PYTHONPATH=src python -m d4vgit orbit --point tests/data/z_point_seed0_point.json --json --relax-beta
and likewise for the other two points.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from d4vgit.gitcore import act, group_to_json
from d4vgit.mckay import base_point, connect
from d4vgit.sampling import rand_chart_point, rand_group_element, rand_tower_group_element

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parent.parent / "src"

# name -> (expected exit code, argv)
CASES = {
    "orbit_base": (0, ["orbit", "--point", "base_point.json", "--json"]),
    "orbit_base_relaxed": (0, ["orbit", "--point", "base_point.json", "--json",
                               "--relax-beta"]),
    "orbit_translate_depth1": (0, ["orbit", "--point",
                                   "translate_depth1_point.json", "--json"]),
    "orbit_translate_depth1_relaxed": (0, ["orbit", "--point",
                                           "translate_depth1_point.json",
                                           "--json", "--relax-beta"]),
    "orbit_translate_depth2": (0, ["orbit", "--point",
                                   "translate_depth2_point.json", "--json"]),
    "orbit_translate_depth2_relaxed": (0, ["orbit", "--point",
                                           "translate_depth2_point.json",
                                           "--json", "--relax-beta"]),
    "orbit_z_point_seed0": (0, ["orbit", "--point", "z_point_seed0_point.json",
                                "--json"]),
    "orbit_z_point_seed0_relaxed": (0, ["orbit", "--point",
                                        "z_point_seed0_point.json", "--json",
                                        "--relax-beta"]),
    "orbit_z_point_seed2": (0, ["orbit", "--point", "z_point_seed2_point.json",
                                "--json"]),
    "orbit_z_point_seed2_relaxed": (0, ["orbit", "--point",
                                        "z_point_seed2_point.json", "--json",
                                        "--relax-beta"]),
    "examples_s3": (0, ["examples", "s3", "--json"]),
    "suite_all_seed0": (0, ["suite", "all", "--seed", "0", "--json"]),
    "suite_all_seed7": (0, ["suite", "all", "--seed", "7", "--json"]),
    "suite_all_seed42": (0, ["suite", "all", "--seed", "42", "--json"]),
    "suite_all_seed7_text": (0, ["suite", "all", "--seed", "7"]),
    "chart_closure_check": (0, ["chart", "--closure-check", "--json"]),
    "chart_base_index2": (0, ["chart", "--point", "base_point.json", "--index",
                              "2", "--json"]),
    "chart_base_index3": (0, ["chart", "--point", "base_point.json", "--index",
                              "3", "--json"]),
    "examples_an_n5": (0, ["examples", "an", "--n", "5", "--json"]),
    "examples_an_n5_chi_mixed": (0, ["examples", "an", "--n", "5", "--chi",
                                     "1,-1,2,1", "--json"]),
    "examples_an_n6_orbifold": (0, ["examples", "an", "--n", "6",
                                    "--chi=-1,-1,-1,-1,-1", "--json"]),
    "examples_an_n5_wall": (1, ["examples", "an", "--n", "5", "--chi",
                                "0,1,1,0", "--json"]),
    "chart_base_index1_refused": (3, ["chart", "--point", "base_point.json",
                                      "--index", "1", "--json"]),
    "chart_off_z": (3, ["chart", "--point", "off_z_point.json", "--json"]),
    "orbit_off_z": (3, ["orbit", "--point", "off_z_point.json", "--json"]),
    "orbit_beta0_B1_0_text": (3, ["orbit", "--point", "beta0_B1_0_point.json"]),
    "stability_minus_theta_off_z": (3, ["stability", "--point", "off_z_point.json",
                                        "--character", "minus-theta", "--json"]),
    "stability_theta_off_z_text": (3, ["stability", "--point", "off_z_point.json",
                                       "--character", "theta"]),
    "chart_closure_check_text": (0, ["chart", "--closure-check"]),
    "orbit_base_text": (0, ["orbit", "--point", "base_point.json"]),
    "stability_theta_beta0_B1_0": (2, ["stability", "--point",
                                       "beta0_B1_0_point.json", "--character",
                                       "theta", "--json"]),
    "stability_minus_theta_beta0_B1_0": (2, ["stability", "--point",
                                             "beta0_B1_0_point.json",
                                             "--character", "minus-theta",
                                             "--json"]),
    "stability_theta_p_zero_translate": (2, ["stability", "--point",
                                             "p_zero_translate_point.json",
                                             "--character", "theta", "--json"]),
    "stability_minus_theta_p_zero_translate": (2, [
        "stability", "--point", "p_zero_translate_point.json", "--character",
        "minus-theta", "--json"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_fixture(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    optimize = ["-O"] * sys.flags.optimize      # under python -O, so is the CLI
    code, argv = CASES[case]
    run = subprocess.run([sys.executable, *optimize, "-m", "d4vgit", *argv],
                         cwd=DATA, env=env, capture_output=True, timeout=120)
    assert run.returncode == code, run.stderr
    assert run.stdout == (DATA / (case + ".stdout")).read_bytes()


def _chart_translate(seed):
    rng = random.Random(seed)
    c = rand_chart_point(rng, 16)
    return act(rand_group_element(rng), c)


def _tower_translate(depth, seed):
    return act(rand_tower_group_element(random.Random(seed), depth), base_point())


CONNECT_TARGETS = {
    "chart_16_seed0": lambda: _chart_translate(0),
    "chart_16_seed1": lambda: _chart_translate(1),
    "chart_16_seed2": lambda: _chart_translate(2),
    "tower_depth1_seed5": lambda: _tower_translate(1, 5),
    "tower_depth2_seed6": lambda: _tower_translate(2, 6),
}


@pytest.mark.parametrize("target", sorted(CONNECT_TARGETS))
def test_connect_transport_matches_fixture(target):
    recorded = json.loads((DATA / "connect_transports.json").read_text())
    h = connect(base_point(), CONNECT_TARGETS[target]())
    assert group_to_json(h) == recorded[target]
