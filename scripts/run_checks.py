#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per suite.

Sizes are the acceptance defaults of `ramapoly.verify.SUITES`; pass --fast
for a quick smoke pass.  To run one suite at another size, use
`ramapoly verify --suite NAME --nmax N`.  Exit status is 0 iff everything
passed.
"""

import argparse
import sys

from ramapoly import verify


def main() -> int:
    size = {name: nmax for name, (_, nmax) in verify.SUITES.items()}
    ap = argparse.ArgumentParser()
    ap.add_argument("--fast", action="store_true", help="small sizes, a few seconds")
    ap.add_argument("--verbose", action="store_true", help="print failing checks")
    args = ap.parse_args()
    if args.fast:
        for name in ("identities", "bijections", "conjecture"):
            size[name] = min(size[name], 5)

    reports = [
        verify.reproduce_tables(),
        verify.check_recurrences(size["recurrences"]),
        verify.check_genfun(size["genfun"]),
        verify.check_identities(size["identities"]),
        verify.check_bijections(size["bijections"]),
        verify.check_conjecture(size["conjecture"]),
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
