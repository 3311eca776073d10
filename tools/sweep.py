"""Run one suite over a range of seeds.

    PYTHONPATH=src python tools/sweep.py all --seeds 0-99
    PYTHONPATH=src python tools/sweep.py towers --seeds 0-99

The suite is any name `d4vgit suite` accepts.  Each failing check is
printed as "seed s: <check id> - <details>", and a seed whose run raises as
"seed s raised <error>", after which the sweep goes on to the next seed.
Then the failing seeds, "none" when there are none; the exit code is 1 when
any seed fails.  A usage error, an empty or reversed --seeds range included,
exits 2 with one line on stderr.  The sweep also runs under python -O.
"""

import argparse
import sys

from d4vgit.suites import SUITES, run_suite


def sweep(name, seeds):
    """The seeds at which run_suite(name, seed) fails or raises."""
    bad = []
    for seed in seeds:
        try:
            report = run_suite(name, seed)
        except Exception as err:
            print("seed %d raised %r" % (seed, err))
            bad.append(seed)
            continue
        for c in report.checks:
            if not c.passed:
                print("seed %d: %s - %s" % (seed, c.check_id, c.details))
        if not report.passed:
            bad.append(seed)
    print("failing seeds: %s" % (bad or "none"))
    return bad


def seed_range(text):
    """An inclusive range "first-last", or one seed; an empty (reversed)
    range is a usage error, so a sweep never passes having run nothing."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed range %r" % text)
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # a usage error is one line on stderr, exit 2
    parser.error = lambda message: parser.exit(2, "sweep: error: %s\n" % message)
    parser.add_argument("suite", choices=("all", *SUITES))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-99"),
                        help="inclusive seed range first-last (default 0-99)")
    args = parser.parse_args(argv)
    return 1 if sweep(args.suite, args.seeds) else 0


if __name__ == "__main__":
    sys.exit(main())
