"""The README promises exact arithmetic with no floating point.  Two guards
keep that literal: a syntax scan of every module under src/ for the ways a
float can enter (a float or complex literal, the float and complex types,
cmath and decimal, math beyond its integer functions, and the float draws
of random), and runs of the full suite and of every golden CLI command,
in-process, that check every Scalar they build holds int payloads only.
The same runs check that the linalg constructors, which store what they
are given, are given Scalars only: outside data is converted at its
boundary."""

import ast
import pathlib

import pytest
from test_golden import CASES, DATA

from d4vgit import cli, linalg, scalars
from d4vgit.suites import run_suite

SRC = pathlib.Path(__file__).parent.parent / "src"

FLOAT_NAMES = {"float", "complex"}
FLOAT_MODULES = {"cmath", "decimal"}
MATH_ALLOWED = {"gcd", "isqrt", "lcm"}
# the draws of random.Random that return a float
RANDOM_FLOAT_DRAWS = {
    "random", "uniform", "triangular", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "vonmisesvariate", "gammavariate",
    "betavariate", "paretovariate", "weibullvariate",
}


def float_entries(tree):
    """(line, reason) for each place in the module's syntax tree where a
    float can enter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, "%s literal %r" % (type(node.value).__name__, node.value)
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            yield node.lineno, "name %s" % node.id
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in FLOAT_MODULES:
                    yield node.lineno, "import %s" % alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[0]
            names = {alias.name for alias in node.names}
            if (module in FLOAT_MODULES
                    or module == "math" and names - MATH_ALLOWED
                    or module == "random" and names & RANDOM_FLOAT_DRAWS):
                yield node.lineno, "from %s import %s" % (module, ", ".join(sorted(names)))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner == "math" and node.attr not in MATH_ALLOWED:
                yield node.lineno, "math.%s" % node.attr
            elif owner in FLOAT_MODULES:
                yield node.lineno, "%s.%s" % (owner, node.attr)
            elif node.attr in RANDOM_FLOAT_DRAWS:
                yield node.lineno, "float draw .%s" % node.attr


SOURCES = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_syntax(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = ["%s:%d: %s" % (path.name, line, why) for line, why in float_entries(tree)]
    assert not found, found


@pytest.mark.parametrize("snippet", [
    "x = 0.5", "x = 2j", "x = float(1)", "complex", "import cmath",
    "from decimal import Decimal", "import math\nmath.sqrt(2)",
    "from math import floor", "rng.random() < 0.5", "rng.gauss(0, 1)",
    "from random import uniform",
])
def test_the_scan_rejects(snippet):
    assert list(float_entries(ast.parse(snippet)))


@pytest.mark.parametrize("snippet", [
    "from math import gcd, isqrt, lcm", "import math\nmath.gcd(4, 6)",
    "rng.randint(0, 3)", "rng.getrandbits(32) < 2 ** 31", "random.Random(7)",
    "from fractions import Fraction",
])
def test_the_scan_accepts(snippet):
    assert not list(float_entries(ast.parse(snippet)))


@pytest.fixture
def non_int_payloads(monkeypatch):
    """A list that records the slots of every Scalar built from now on that
    are not all ints: (re, im, den) at the base level, (numerators, den,
    None) above it."""
    real = scalars.Scalar.__init__
    bad = []

    def checking(self, field, x, y, den):
        ints = (x, y, den) if den is not None else (*x, y)
        if not all(type(v) is int for v in ints):
            bad.append((x, y, den))
        real(self, field, x, y, den)

    monkeypatch.setattr(scalars.Scalar, "__init__", checking)
    return bad


@pytest.fixture
def non_scalar_entries(monkeypatch):
    """A list that records every entry of a Vec2, Mat2 or Mat3 built from
    now on that is not a Scalar, with its class name."""
    bad = []

    def guard(cls):
        real = cls.__init__

        def checking(self, *entries):
            if cls is linalg.Mat3:
                entries = ([tuple(r) for r in entries[0]],)   # rows may be an iterator
                flat = [x for r in entries[0] for x in r]
            else:
                flat = entries
            bad.extend((cls.__name__, x) for x in flat if not isinstance(x, scalars.Scalar))
            real(self, *entries)

        monkeypatch.setattr(cls, "__init__", checking)

    for cls in (linalg.Vec2, linalg.Mat2, linalg.Mat3):
        guard(cls)
    return bad


def test_suite_builds_int_payloads_only(non_int_payloads, non_scalar_entries):
    """suite all at seeds 0-2."""
    for seed in range(3):
        report = run_suite("all", seed)
        assert all(c.passed for c in report.checks), seed
    assert non_int_payloads == []
    assert non_scalar_entries == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_command_builds_int_payloads_only(monkeypatch, capsys, non_int_payloads,
                                                 non_scalar_entries, case):
    """Each command of the golden fixtures run through cli.main in this
    process, from the fixtures' directory: the recorded exit code and
    stdout, with int payloads only and Scalar linalg entries only."""
    code, argv = CASES[case]
    monkeypatch.chdir(DATA)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == (DATA / (case + ".stdout")).read_text()
    assert non_int_payloads == []
    assert non_scalar_entries == []
