#!/usr/bin/env python3
"""Scan the lambda-class recurrence

    |R_{n,k}[lambda=i]| = (n-2) |R_{n-1,k}[lambda=i]| + (n+k-3) |R_{n-1,k-1}[lambda=i]|

to as high an n as patience allows, printing per-n timing and the table for
the last size.  The identity is only verified finitely; this script is the
experiment for pushing the frontier (n=9 is ~4.3e7 trees and takes 139 s on
a 2-vCPU 2.1 GHz Xeon with Python 3.11, reading the trees in batches that
share the max label's subtree; 301 s reading them one by one, 474 s before
the position-indexed tree core).  Exits 1 when any size breaks the
recurrence.
"""

import argparse
import sys
import time

from ramapoly.polynomials import f
from ramapoly.verify import lambda_recurrence_mismatches, lambda_table


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--show-table", action="store_true")
    args = ap.parse_args()

    prev: dict = {}  # no recurrence cells below n = 3
    ok = True
    for n in range(2, args.nmax + 1):
        t0 = time.perf_counter()
        tab = lambda_table(n)
        dt = time.perf_counter() - t0
        bad = lambda_recurrence_mismatches(prev, tab, n)
        edge = all(tab.get((k, n - 1), 0) == f(n - 1, k - 1) for k in range(1, n))
        status = "ok" if not bad and edge else f"MISMATCH {bad[:3]}"
        ok &= status == "ok"
        print(f"n={n}: {sum(tab.values())} trees with an internal max, "
              f"{dt:.1f}s, recurrence {status}")
        if args.show_table and n == args.nmax:
            for i in range(1, n):
                row = [str(tab.get((k, i), 0)) for k in range(1, n)]
                print(f"  lambda={i}: " + " ".join(row))
        prev = tab
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
