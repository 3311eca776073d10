"""Command-line front end: point I/O, individual checks, verification suites.

Exit codes: 0 on success, 1 when a suite or check fails, 2 for an unstable
stability verdict, 3 for a precondition violation, 64 for usage errors, 141
(128 + SIGPIPE) when the reader closes stdout early.  `_run` reports any
ContractViolation a command raises as {"error": <message>} and exits 3.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from . import charts, cyclic_s3, equations, mckay, quiver, stability, suites
from .equations import ContractViolation
from .gitcore import point_from_json, point_to_json
from .scalars import FieldError, scalar_to_json

REFUSED = 3                             # a ContractViolation: input outside a precondition
USAGE_ERROR = 64
BROKEN_PIPE = 141                       # 128 + SIGPIPE, as a shell reports it


def _usage(message):
    print(message, file=sys.stderr)
    return USAGE_ERROR


def _emit(data, as_json):
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        _pretty(data)


def _inline(value):
    """Whether value prints on one line: it holds no dict at any depth."""
    if isinstance(value, list):
        return all(map(_inline, value))
    return not isinstance(value, dict)


def _render(value):
    if isinstance(value, list):
        return "[%s]" % ", ".join(_render(v) for v in value)
    return str(value)


def _pretty(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for k, v in data.items():
            if _inline(v):
                print("%s%s: %s" % (pad, k, _render(v)))
            else:
                print("%s%s:" % (pad, k))
                _pretty(v, indent + 1)
    elif isinstance(data, list):
        for v in data:
            if _inline(v):
                print("%s- %s" % (pad, _render(v)))
            else:
                _pretty(v, indent)
    else:
        print("%s%s" % (pad, data))


def cmd_verify_point(args):
    p = args.point
    res = equations.residuals(p)
    report = {
        "on_Z": res.is_zero(),
        "nonzero_components": res.nonzero_components(),
    }
    if res.is_zero():
        report["in_Zo"] = equations.in_Zo(p)
        report["det_B"] = scalar_to_json(equations.det_b(p))
        report["omega"] = scalar_to_json(equations.omega(p))
    _emit(report, args.json)
    return 0 if res.is_zero() else 1


def cmd_stability(args):
    p = args.point
    oracle = (stability.semistable_theta if args.character == "theta"
              else stability.semistable_minus_theta)
    try:
        verdict = oracle(p)
    except ContractViolation as err:
        report = {"error": str(err)}
        if args.character == "minus-theta":
            report["off_Z_flags"] = stability.off_z_minus_theta_flags(p)
        _emit(report, args.json)
        return REFUSED
    report = {"character": args.character, "status": verdict.status}
    if verdict.is_stable:
        if verdict.witness_index is not None:
            report["witness_index"] = verdict.witness_index + 1
        if verdict.witness_value is not None:
            report["witness_value"] = scalar_to_json(verdict.witness_value)
    else:
        report["certificate"] = {
            "name": verdict.certificate.name,
            "torus": list(verdict.certificate.a),
            "gl2_diagonal": list(verdict.certificate.w),
            "subset": verdict.subset,
        }
    _emit(report, args.json)
    return 0 if verdict.is_stable else 2


def cmd_quiver(args):
    p = args.point
    r = quiver.build_rep(p)
    legs, central = quiver.preprojective_residual(r)
    report = {
        "E0": [scalar_to_json(r.E0.a), scalar_to_json(r.E0.b)],
        "D0": [scalar_to_json(r.D0.a), scalar_to_json(r.D0.b)],
        "D": [[scalar_to_json(d.a), scalar_to_json(d.b)] for d in r.D],
        "E": [[scalar_to_json(e.a), scalar_to_json(e.b)] for e in r.E],
        "leg_residuals": [scalar_to_json(s) for s in legs],
        "central_residual_zero": central.is_zero(),
        "king_stable": quiver.king_stable(r),
        "preprojective": quiver.preprojective_holds(r),
    }
    _emit(report, args.json)
    return 0


def cmd_chart(args):
    if args.closure_check:
        rep = charts.chart_closure_check()
        report = {
            "components": [{"label": c.label, "remainder_zero": c.remainder_zero,
                            "quotient": c.quotient} for c in rep.components],
            "ok": rep.ok,
        }
        _emit(report, args.json)
        return 0 if rep.ok else 1
    if not args.point:
        return _usage("d4vgit chart: need --point or --closure-check")
    c = charts.normalize(args.point, args.index)
    report = {
        "index": c.index,
        "alpha_j": scalar_to_json(c.alpha_j), "alpha_k": scalar_to_json(c.alpha_k),
        "beta": scalar_to_json(c.beta),
        "p_j": scalar_to_json(c.p_j), "q_j": scalar_to_json(c.q_j),
        "p_k": scalar_to_json(c.p_k), "q_k": scalar_to_json(c.q_k),
        "r": scalar_to_json(c.r),
        "torus_invariants": [scalar_to_json(v) for v in c.torus_invariants()],
    }
    _emit(report, args.json)
    return 0


def cmd_orbit(args):
    stab = mckay.stabilizer(args.point, fix_beta=not args.relax_beta)
    report = {
        "order": stab.order(),
        "order_profile": {str(k): v for k, v in stab.order_profile().items()},
        "quaternion_signature": stab.is_quaternion(),
        "multiplication_table": stab.multiplication_table(),
    }
    _emit(report, args.json)
    return 0


def cmd_examples(args):
    if args.which == "an":
        try:
            chi = tuple(int(c) for c in args.chi.split(",")) if args.chi else 1
            if isinstance(chi, tuple) and len(chi) == 1:
                chi = chi[0]
            fan = cyclic_s3.an_quotient_fan(args.n, chi)
        except ValueError as err:
            return _usage("d4vgit examples an: %s" % err)
        except OverflowError:
            return _usage("d4vgit examples an: n is too large")
        except cyclic_s3.WallError as err:
            _emit({"error": str(err)}, args.json)
            return 1
        report = {
            "rays": [list(r) for r in fan.rays],
            "normalized_rays": [list(r) for r in fan.normalized_rays],
            "maximal_cones": [list(c) for c in fan.maximal_cones],
            "multiplicities": list(fan.multiplicities),
            "interior_rays": fan.interior_ray_count,
        }
        _emit(report, args.json)
        return 0
    p = cyclic_s3.s3_base_point()
    stab = cyclic_s3.s3_stabilizer(p)
    report = {
        "residual_zero": cyclic_s3.s3_on_z(p),
        "stabilizer_order": stab.order(),
        "order_profile": {str(k): v for k, v in stab.order_profile().items()},
        "abelian": stab.is_abelian(),
    }
    _emit(report, args.json)
    return 0 if cyclic_s3.s3_on_z(p) and stab.order() == 6 else 1


def cmd_suite(args):
    if args.name != "all" and args.name not in suites.SUITES:
        return _usage("d4vgit suite: unknown suite %r" % (args.name,))
    report = suites.run_suite(args.name, args.seed)
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else 1


def cmd_make_point(args):
    """Write the base point (or an orbit sample) as JSON, for experimenting."""
    import random

    from . import sampling
    if args.sample:
        p = sampling.rand_orbit_point(random.Random(args.seed))
    else:
        p = mckay.base_point(x=(1, 0))
    print(json.dumps(point_to_json(p), indent=2, sort_keys=True))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="d4vgit",
        description="Exact verification of the D4 Kleinian GIT construction.")
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("verify-point", help="residuals and locus membership")
    sp.add_argument("--point", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify_point)

    sp = sub.add_parser("stability", help="stability verdict and certificate")
    sp.add_argument("--point", required=True)
    sp.add_argument("--character", choices=("theta", "minus-theta"),
                    default="theta")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("quiver", help="attached quiver representation")
    sp.add_argument("--point", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_quiver)

    sp = sub.add_parser("chart", help="chart normalization / closure check")
    sp.add_argument("--point")
    sp.add_argument("--index", type=int, default=1, choices=(1, 2, 3))
    sp.add_argument("--closure-check", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_chart)

    sp = sub.add_parser("orbit", help="stabilizer enumeration")
    sp.add_argument("--point", required=True)
    sp.add_argument("--relax-beta", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("examples", help="cyclic-group fans and the S3 case")
    sp.add_argument("which", choices=("an", "s3"))
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--chi", default="")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_examples)

    sp = sub.add_parser("suite", help="run a verification suite")
    sp.add_argument("name")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_suite)

    sp = sub.add_parser("make-point", help="emit a sample point as JSON")
    sp.add_argument("--sample", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_make_point)
    return ap


def main(argv=None):
    """Run one command; usage errors, argparse's included, exit 64 with one
    line on stderr.  A reader that closes stdout early ends the run with
    exit 141 and nothing on stderr."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout goes to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    return code


def _run(argv):
    ap = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--chi" in argv[:-1]:                # argparse reads "-1,..." as an option
        i = argv.index("--chi")
        argv[i:i + 2] = ["--chi=" + argv[i + 1]]
    # argparse swallows an error writing --help, so its text is written here
    argparse_out, argparse_err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(argparse_out), \
                contextlib.redirect_stderr(argparse_err):
            args = ap.parse_args(argv)
    except SystemExit as stop:
        if stop.code == 0:                       # --help
            sys.stdout.write(argparse_out.getvalue())
            return 0
        return _usage(argparse_err.getvalue().strip().splitlines()[-1])
    if not getattr(args, "func", None):
        return _usage("d4vgit: missing command (see d4vgit --help)")
    if getattr(args, "point", None):
        # every command reads its point here, once, replacing the path
        path = args.point
        try:
            with open(path) as fh:
                args.point = point_from_json(json.load(fh))
        except (OSError, ValueError, ArithmeticError, LookupError, TypeError,
                AttributeError, FieldError, RecursionError) as err:
            return _usage("d4vgit: cannot read point %s: %s" % (path, err))
    try:
        return args.func(args)
    except ContractViolation as err:
        _emit({"error": str(err)}, getattr(args, "json", False))
        return REFUSED


if __name__ == "__main__":
    sys.exit(main())
