"""Command-line surface: polynomials, tables, enumeration, tree maps, and
the verification suites.

Trees travel through stdin/stdout in the ptree v1 format (one line of
parent entries with 0 at the root; arbitrary label sets add a leading
"labels:" line).  Plane trees use nested parentheses.  Colored trees add a
"black: ..." line after the tree.  All map subcommands are pipeable:
`bij --map X --dir fwd | bij --map X --dir inv` reproduces the input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections as bj
from . import verify as vf
from .polynomials import ROUTES, IntPoly, poly_table
from .series import genfun_mismatch
from .trees import (ClassFilter, _check_labels, _ints, enumerate_rooted, enumerate_unrooted,
                    plane_from_text, plane_to_text, tree_from_text, tree_to_text)

# [10] has 10^9 rooted trees, hours of enumeration
_ENUMERATE_LIMIT = 10

# the suites whose size bound is the number of labels they enumerate
_ENUMERATING_SUITES = ("identities", "bijections", "conjecture")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ramapoly")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print one polynomial or number")
    p.add_argument("--family", choices=list(ROUTES), required=True)
    p.add_argument("--method", choices=list(dict.fromkeys(
        method for methods in ROUTES.values() for method in methods)))
    p.add_argument("--n", type=int, required=True,
                   help="n for q/f; the first index r for psi")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true", help="coefficients low-to-high")

    p = sub.add_parser("table", help="print a whole table")
    p.add_argument("--which", choices=["psi", "q", "lambda"], required=True)
    p.add_argument("--max", type=int, required=True, dest="maximum")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enumerate", help="count or list filtered trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--deg1", help="degree spec for the min label: 0, =m, >0, >=m")
    p.add_argument("--deg2", help="degree spec for the second-smallest label")
    p.add_argument("--degmax", help="degree spec for the max label")
    p.add_argument("--lambda", type=int, dest="lam", help="lower critical node")
    p.add_argument("--mu", type=int)
    p.add_argument("--beta-star", type=int, dest="beta_star")
    p.add_argument("--i", type=int, dest="path_proper",
                   help="proper edges on the max-to-root path")
    p.add_argument("--unrooted", action="store_true",
                   help="enumerate trees rooted at 1 (the unrooted convention)")
    p.add_argument("--force", action="store_true",
                   help=f"run even when n >= {_ENUMERATE_LIMIT} (hours or more)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--list", action="store_true", dest="list_them")

    p = sub.add_parser("bij", help="map a tree from stdin to stdout")
    p.add_argument("--map", choices=["lower", "lift", "lemma36", "rooted",
                                     "unrooted", "color", "cor22", "plane"],
                   required=True, dest="which")
    p.add_argument("--dir", choices=["fwd", "inv"], required=True, dest="direction")
    p.add_argument("--audit", action="store_true",
                   help="print the dispatch trace on stderr")

    p = sub.add_parser("verify", help="run an oracle suite, or all of them")
    p.add_argument("--suite", choices=sorted([*vf.SUITES, "all"]), required=True)
    p.add_argument("--nmax", type=int, help="size of every sized suite")
    p.add_argument("--json", action="store_true", help="one JSON record per check")
    p.add_argument("--verbose", action="store_true", help="print every check")

    p = sub.add_parser("genfun", help="check the generating-function identity")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--order", type=int, required=True)

    return top


_PARSER = _build_parser()  # built once: ROUTES and the SUITES keys never change


def _refuse_huge(n: int, force: bool | None = None) -> None:
    # Refuse before any enumeration; `force` is the override of `enumerate`,
    # None for the commands that have none.
    if n >= _ENUMERATE_LIMIT and not force:
        hint = "; pass --force to run it anyway" if force is not None else ""
        raise ValueError(f"n >= {_ENUMERATE_LIMIT} enumerates 10^8 trees or more "
                         f"and runs for hours{hint}")


def _cmd_poly(args) -> int:
    methods = ROUTES[args.family]
    method = args.method or next(iter(methods))
    if method not in methods:
        raise ValueError(f"method {method!r} does not generate family {args.family!r}")
    value = methods[method](args.n, args.k)
    if args.json:
        if isinstance(value, IntPoly):
            print(json.dumps({"coefficients": [str(c) for c in value.coeffs]}))
        else:
            print(json.dumps({"value": str(value)}))
    else:
        print(value)
    return 0


def _cmd_table(args) -> int:
    if args.which in ("psi", "q"):
        cells = poly_table(args.which, args.maximum)
        first = "r" if args.which == "psi" else "n"
        if args.json:
            for (a, k), poly in sorted(cells.items()):
                print(json.dumps({first: a, "k": k,
                                  "coefficients": [str(c) for c in poly.coeffs]}))
            return 0
        ks = sorted({k for _, k in cells})
        for k in ks:
            row = [str(cells[(a, k)]) for a in sorted({a for a, kk in cells if kk == k})]
            print(f"k={k}: " + " | ".join(row))
        return 0
    if args.maximum < 2:
        raise ValueError("lambda tables need --max at least 2")
    _refuse_huge(args.maximum)
    tabs = {n: vf.lambda_table(n) for n in range(2, args.maximum + 1)}
    for i in range(1, args.maximum):
        if args.json:
            for n, tab in tabs.items():
                for k in range(1, n):
                    if tab.get((k, i)):
                        print(json.dumps({"lambda": i, "n": n, "k": k,
                                          "count": tab[(k, i)]}))
            continue
        print(f"lambda={i}:")
        for k in range(1, args.maximum):
            cells = [str(tabs[n].get((k, i), "")) for n in range(2, args.maximum + 1)]
            print(f"  k={k}: " + " | ".join(c or "." for c in cells))
    return 0


def _cmd_enumerate(args) -> int:
    _refuse_huge(args.n, args.force)
    filt = ClassFilter(k=args.k, deg_min=args.deg1, deg_second=args.deg2,
                       deg_max=args.degmax, lam=args.lam, mu=args.mu,
                       beta_star=args.beta_star, path_proper=args.path_proper)
    if args.count:
        print(vf.count_class(args.n, filt, args.unrooted))
        return 0
    for t in (enumerate_unrooted if args.unrooted else enumerate_rooted)(args.n, filt):
        print(tree_to_text(t))
    return 0


def _read_colored(text: str) -> bj.ColoredRootedTree:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    black: list[int] = []
    if lines and lines[-1].lstrip().startswith("black:"):
        black = _ints(lines[-1].split(":", 1)[1].split())
        _check_labels(black)
        lines = lines[:-1]
    return bj.ColoredRootedTree(tree_from_text("\n".join(lines)), frozenset(black))


def _cmd_bij(args) -> int:
    text = sys.stdin.read()
    trace: list | None = [] if args.audit else None
    which, fwd = args.which, args.direction == "fwd"
    if which == "plane":
        if fwd:
            out = plane_to_text(bj.plane_fwd(tree_from_text(text)))
        else:
            out = tree_to_text(bj.plane_inv(plane_from_text(text)))
    elif which == "color":
        if fwd:
            out = tree_to_text(bj.color_split(_read_colored(text)))
        else:
            colored = bj.color_merge(tree_from_text(text))
            out = tree_to_text(colored.tree)
            if colored.black:
                out += "\nblack: " + " ".join(str(v) for v in sorted(colored.black))
    elif which == "cor22":
        fn = bj.insert_root if fwd else bj.extract_root
        out = tree_to_text(fn(tree_from_text(text)))
    else:
        pair = {"lower": (bj.lower, bj.lift),
                "lift": (bj.lift, bj.lower),
                "lemma36": (bj.fold_stem, bj.unfold_stem),
                "rooted": (bj.rooted_fwd, bj.rooted_inv),
                "unrooted": (bj.unrooted_fwd, bj.unrooted_inv)}[which]
        fn = pair[0] if fwd else pair[1]
        out = tree_to_text(fn(tree_from_text(text), trace))
    if trace:
        for entry in trace:
            print(f"audit: {entry}", file=sys.stderr)
    print(out)
    return 0


def _cmd_verify(args) -> int:
    names = list(vf.SUITES) if args.suite == "all" else [args.suite]
    runs = []
    for name in names:  # size and refuse every suite before any of them runs
        fn, nmax, least = vf.SUITES[name]
        if nmax is not None and args.nmax is not None:
            nmax = args.nmax
        if nmax is not None:
            vf._require_size(nmax, least)
        if name in _ENUMERATING_SUITES:
            _refuse_huge(nmax)
        runs.append((fn, nmax))
    ok = True
    for fn, nmax in runs:
        rep = fn() if nmax is None else fn(nmax)
        if args.json:
            for line in rep.json_lines():
                print(line)
        else:
            for line in rep.lines(only_failures=not args.verbose):
                print(line)
        ok &= rep.ok
    return 0 if ok else 1


def _cmd_genfun(args) -> int:
    bad = genfun_mismatch(args.r, args.x, args.order)
    verdict = "PASS" if bad is None else f"FAIL(coeff {bad})"
    print(f"genfun r={args.r} x={args.x} M={args.order}: {verdict}")
    return 0 if bad is None else 1


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {"poly": _cmd_poly, "table": _cmd_table, "enumerate": _cmd_enumerate,
                "bij": _cmd_bij, "verify": _cmd_verify, "genfun": _cmd_genfun}
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values print in full, however long
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # TreeError and DomainError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except (OSError, RuntimeError) as exc:  # a fork or a forked shard failed: nothing verified
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
