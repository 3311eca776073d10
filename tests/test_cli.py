"""End-to-end command-line checks, including exit codes and determinism."""

import json
import os
import pathlib
import random
import shlex
import subprocess
import sys

import pytest

from d4vgit.cli import main
from d4vgit.equations import witness_E1_not_E2
from d4vgit.gitcore import point_to_json
from d4vgit.mckay import base_point
from d4vgit.sampling import rand_chart_point, rand_orbit_point
from d4vgit.scalars import scalar_from_json
from d4vgit.stability import semistable_minus_theta


@pytest.fixture
def base_file(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(point_to_json(base_point(x=(1, 2)))))
    return str(path)


@pytest.fixture
def off_z_file(tmp_path):
    path = tmp_path / "off.json"
    path.write_text(json.dumps(point_to_json(witness_E1_not_E2())))
    return str(path)


@pytest.fixture
def unstable_file(tmp_path):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(point_to_json(base_point(x=(0, 0)))))
    return str(path)


def test_verify_point(base_file, capsys):
    assert main(["verify-point", "--point", base_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["on_Z"] is True and out["in_Zo"] is True


def test_verify_point_off_z(off_z_file, capsys):
    assert main(["verify-point", "--point", off_z_file, "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["on_Z"] is False
    assert any(lab.startswith("E2") for lab in out["nonzero_components"])


def test_stability_exit_codes(base_file, unstable_file, off_z_file, capsys):
    assert main(["stability", "--point", base_file,
                 "--character", "theta", "--json"]) == 0
    capsys.readouterr()
    assert main(["stability", "--point", unstable_file,
                 "--character", "theta", "--json"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"]["subset"] == "{x=0}"
    assert main(["stability", "--point", off_z_file,
                 "--character", "minus-theta", "--json"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["off_Z_flags"]["strictly_semistable_behavior"] is True


def test_quiver_command(base_file, capsys):
    assert main(["quiver", "--point", base_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["preprojective"] is True
    assert out["king_stable"] is True


def test_chart_commands(base_file, capsys):
    assert main(["chart", "--closure-check", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and len(out["components"]) == 24
    assert main(["chart", "--point", base_file, "--index", "1", "--json"]) == 0


def test_orbit_command(base_file, capsys):
    assert main(["orbit", "--point", base_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 8 and out["quaternion_signature"] is True
    capsys.readouterr()
    assert main(["orbit", "--point", base_file, "--relax-beta", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 16


def test_examples_commands(capsys):
    assert main(["examples", "an", "--n", "4", "--chi", "1,1,1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["interior_rays"] == 3
    assert main(["examples", "s3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stabilizer_order"] == 6


def test_examples_an_accepts_a_spaced_negative_chi(capsys):
    """argparse alone reads "-1,-1,-1,-1" after --chi as an option."""
    assert main(["examples", "an", "--n", "5", "--chi", "-1,-1,-1,-1", "--json"]) == 0
    spaced = capsys.readouterr().out
    assert main(["examples", "an", "--n", "5", "--chi=-1,-1,-1,-1", "--json"]) == 0
    assert capsys.readouterr().out == spaced
    assert json.loads(spaced)["multiplicities"] == [5]


def _cli(*argv):
    """The command line and environment that run the CLI from this tree (under
    -O when the tests run so)."""
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    optimize = ["-O"] * sys.flags.optimize
    return [sys.executable, *optimize, "-m", "d4vgit", *argv], env


def test_examples_an_n30_finishes():
    """The fan is polynomial in n; subset enumeration never finished n = 15."""
    cmd, env = _cli("examples", "an", "--n", "30", "--json")
    run = subprocess.run(cmd, env=env, capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["interior_rays"] == 29


@pytest.mark.parametrize("argv", [["make-point"], ["suite", "examples", "--seed", "3"],
                                  ["chart", "--closure-check"]])
def test_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    """A reader that closes stdout before the command writes ends it with
    128 + SIGPIPE and no traceback, not with the failed-check code."""
    cmd, env = _cli(*argv)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_suite_determinism(capsys):
    assert main(["suite", "examples", "--seed", "11", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["suite", "examples", "--seed", "11", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_failed_suite_check_prints_its_sample_in_the_summary(monkeypatch, capsys):
    """The plain-text report of a failing suite exits 1 and prints the
    failed check with its first failing sample's index and point JSON."""
    from d4vgit import sampling, suites
    real_sampler, real = sampling.rand_point_hv, suites._central_matches_e1
    drawn = []

    def drawing(rng):
        drawn.append(real_sampler(rng))
        return drawn[-1]

    monkeypatch.setattr(sampling, "rand_point_hv", drawing)
    monkeypatch.setattr(suites, "_central_matches_e1",
                        lambda p, r: len(drawn) - 1 not in (3, 5) and real(p, r))
    assert main(["suite", "quiver", "--seed", "7"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "suite quiver (seed 7)"
    assert ("  [FAIL] qv.central_equals_E1_contraction - sample 3: %s"
            % json.dumps(point_to_json(drawn[3]), sort_keys=True)) in lines
    assert "  [pass] qv.central_trace_free" in lines
    assert lines[-1] == "  5 passed, 1 failed"


def test_usage_errors(capsys):
    assert main(["suite", "nonsense"]) == 64
    capsys.readouterr()
    assert main([]) == 64


def test_unknown_suite_is_one_clean_line_and_runs_nothing(monkeypatch, capsys):
    from d4vgit import suites
    ran = []
    monkeypatch.setattr(suites, "run_suite", lambda *args: ran.append(args))
    assert main(["suite", "nope"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "d4vgit suite: unknown suite 'nope'\n"
    assert ran == []


def test_key_error_inside_a_suite_is_not_a_usage_error(monkeypatch, capsys):
    """A KeyError raised while a known suite runs is a fault of the program,
    not of the command line: it propagates instead of exiting 64."""
    from d4vgit import suites

    def broken(seed):
        raise KeyError("inner")

    monkeypatch.setitem(suites.SUITES, "examples", broken)
    for name in ("examples", "all"):
        with pytest.raises(KeyError, match="inner"):
            main(["suite", name])
    assert capsys.readouterr().err == ""


def test_orbit_sample_file_roundtrip(tmp_path, capsys):
    p = rand_orbit_point(random.Random(9))
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(point_to_json(p)))
    assert main(["verify-point", "--point", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["on_Z"] is True


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="int <-> decimal text past 4300 digits hits the "
                          "interpreter's conversion limit: the witness value "
                          "has 4583 digits and cannot be printed")
def test_stability_prints_a_witness_of_any_height(tmp_path, capsys):
    """A valid chart point of height 10^80 (ints of up to 1740 digits)
    gets its verdict, and the printed witness parses back exactly."""
    p = rand_chart_point(random.Random(1), 10 ** 80)
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(point_to_json(p)))
    assert main(["stability", "--point", str(path),
                 "--character", "minus-theta", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    witness = semistable_minus_theta(p).witness_value
    assert scalar_from_json(out["witness_value"]) == witness


def _point_file(tmp_path, edit):
    data = point_to_json(base_point(x=(1, 2)))
    edit(data)
    path = tmp_path / "point.json"
    path.write_text(json.dumps(data))
    return str(path)


def _text_file(tmp_path, text):
    path = tmp_path / "point.json"
    path.write_text(text)
    return str(path)


def _set_alpha(value):
    def edit(data):
        data["alpha"][0] = value
    return edit


def _mixed_towers(tmp, *command):
    """A point whose scalars each parse, over sqrt 2 and over sqrt 3, but
    share no tower."""
    def edit(data):
        data["alpha"][:2] = [{"gens": ["2"], "coeffs": ["1", "1"]},
                             {"gens": ["3"], "coeffs": ["1", "1"]}]
    return [*command, "--point", _point_file(tmp, edit)]


USAGE_CASES = {
    "scalar_abc": lambda tmp: ["verify-point", "--point",
                               _point_file(tmp, _set_alpha("abc"))],
    "scalar_1_over_0": lambda tmp: ["stability", "--point",
                                    _point_file(tmp, _set_alpha("1/0"))],
    "scalar_exponent": lambda tmp: ["verify-point", "--point",
                                    _point_file(tmp, _set_alpha("1e10000000"))],
    "scalar_space_in_number": lambda tmp: ["verify-point", "--point",
                                           _point_file(tmp, _set_alpha("1 2"))],
    "scalar_tower_too_shallow": lambda tmp: [
        "verify-point", "--point",
        _point_file(tmp, _set_alpha({"gens": [], "coeffs": ["1", "2"]}))],
    "scalar_tower_sqrt_0": lambda tmp: [
        "verify-point", "--point",
        _point_file(tmp, _set_alpha({"gens": ["0"], "coeffs": ["1", "2"]}))],
    "deeply_nested_json": lambda tmp: ["verify-point", "--point",
                                       _text_file(tmp, "[" * 100000 + "]" * 100000)],
    "point_arity": lambda tmp: ["orbit", "--point",
                                _point_file(tmp, lambda d: d["alpha"].pop())],
    "point_incompatible_towers": lambda tmp: _mixed_towers(tmp, "orbit"),
    "point_incompatible_towers_verify": lambda tmp: _mixed_towers(
        tmp, "verify-point"),
    "point_incompatible_towers_stability": lambda tmp: _mixed_towers(
        tmp, "stability", "--character", "theta"),
    "point_incompatible_towers_quiver": lambda tmp: _mixed_towers(tmp, "quiver"),
    "point_incompatible_towers_chart": lambda tmp: _mixed_towers(
        tmp, "chart", "--index", "1"),
    "missing_point_file": lambda tmp: ["quiver", "--point", str(tmp / "absent.json")],
    "an_n_1": lambda tmp: ["examples", "an", "--n", "1"],
    "an_n_past_an_index": lambda tmp: ["examples", "an", "--n",
                                       "100000000000000000000"],
    "an_chi_rank": lambda tmp: ["examples", "an", "--n", "4", "--chi", "1,1"],
    "argparse_missing_point": lambda tmp: ["verify-point"],
    "argparse_bad_index": lambda tmp: ["chart", "--point", "p.json", "--index", "5"],
}


@pytest.mark.parametrize("case", sorted(USAGE_CASES))
def test_usage_error_exit_code(case, tmp_path, capsys):
    """Malformed input exits 64 with one line on stderr and no traceback;
    2 stays reserved for an unstable verdict."""
    assert main(USAGE_CASES[case](tmp_path)) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1



@pytest.mark.parametrize("argv", [["--help"], ["suite", "--help"]])
def test_closed_stdout_exits_141_for_help_with_unbuffered_output(argv):
    """argparse swallows an error writing its help; with unbuffered stdout
    no later flush could raise, so help that never arrived exited 0."""
    cmd, env = _cli(*argv)
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_a_refused_s3_point_exits_3(monkeypatch, capsys):
    """Every command maps a ContractViolation to exit 3 and one error
    report, the S3 example included."""
    from d4vgit import cyclic_s3

    def refuse(p):
        raise cyclic_s3.DegenerateS3Point("inner product degenerate")

    monkeypatch.setattr(cyclic_s3, "s3_stabilizer", refuse)
    assert main(["examples", "s3", "--json"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "inner product degenerate"} and err == ""


def test_make_point_reports_a_refusal_as_text(monkeypatch, capsys):
    """make-point has no --json: its refusal is the plain-text report."""
    from d4vgit import mckay
    from d4vgit.equations import ContractViolation

    def refuse(x=(0, 0)):
        raise ContractViolation("base point refused")

    monkeypatch.setattr(mckay, "base_point", refuse)
    assert main(["make-point"]) == 3
    assert capsys.readouterr() == ("error: base point refused\n", "")


def test_every_readme_command_line_exits_0(tmp_path, monkeypatch, capsys):
    """Each line of the README's command-line block, run in-process in an
    empty directory, exits 0; `make-point > point.json` writes the point
    file the other lines read."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        assert argv[0] == "d4vgit", line
        argv, target = argv[1:], None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[-1]
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if target:
            pathlib.Path(target).write_text(out)
        ran += 1
    assert ran == 14
