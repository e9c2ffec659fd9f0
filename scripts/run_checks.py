#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per suite.

Sizes are the acceptance defaults of `ramapoly.verify.SUITES`; pass --fast
for a quick smoke pass or tune individual bounds.  Exit status is 0 iff
everything passed.
"""

import argparse
import sys

from ramapoly import verify


def main() -> int:
    size = {name: nmax for name, (_, nmax) in verify.SUITES.items()}
    ap = argparse.ArgumentParser()
    ap.add_argument("--fast", action="store_true", help="small sizes, a few seconds")
    ap.add_argument("--recurrence-nmax", type=int, default=size["recurrences"])
    ap.add_argument("--identity-nmax", type=int, default=size["identities"])
    ap.add_argument("--bijection-nmax", type=int, default=size["bijections"])
    ap.add_argument("--conjecture-nmax", type=int, default=size["conjecture"])
    ap.add_argument("--verbose", action="store_true", help="print failing checks")
    args = ap.parse_args()
    if args.fast:
        args.identity_nmax = min(args.identity_nmax, 5)
        args.bijection_nmax = min(args.bijection_nmax, 5)
        args.conjecture_nmax = min(args.conjecture_nmax, 5)

    reports = [
        verify.reproduce_tables(),
        verify.check_recurrences(args.recurrence_nmax),
        verify.check_genfun(size["genfun"]),
        verify.check_identities(args.identity_nmax),
        verify.check_bijections(args.bijection_nmax),
        verify.check_conjecture(args.conjecture_nmax),
    ]
    ok = True
    for rep in reports:
        print(rep.summary())
        if args.verbose or not rep.ok:
            for line in rep.lines(only_failures=True)[:-1]:
                print("  " + line)
        ok &= rep.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
