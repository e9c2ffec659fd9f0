import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import factorial
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import ramapoly.cli as cli
from ramapoly import bijections as bj, trees, verify
from ramapoly.cli import main
from ramapoly.polynomials import ROUTES
from ramapoly.trees import (ClassFilter, enumerate_rooted, enumerate_unrooted,
                            plane_from_text, tree_from_text, tree_to_text)
from ramapoly.verify import VerificationReport

from conftest import rooted_trees


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_q(capsys):
    code, out, _ = run(capsys, ["poly", "--family", "q", "--method", "shor",
                                "--n", "5", "--k", "2"])
    assert code == 0 and out.strip() == "45x^2+195x+190"


def test_poly_psi_and_f(capsys):
    code, out, _ = run(capsys, ["poly", "--family", "psi", "--n", "3", "--k", "2"])
    assert code == 0 and out.strip() == "6x^2-26x+26"
    code, out, _ = run(capsys, ["poly", "--family", "f", "--n", "4", "--k", "3"])
    assert code == 0 and out.strip() == "15"


def test_poly_json(capsys):
    code, out, _ = run(capsys, ["poly", "--family", "q", "--method", "zeng-b",
                                "--n", "3", "--k", "1", "--json"])
    assert code == 0
    assert json.loads(out) == {"coefficients": ["4", "3"]}


def test_poly_method_family_mismatch(capsys):
    code, _, err = run(capsys, ["poly", "--family", "psi", "--method", "shor",
                                "--n", "3", "--k", "1"])
    assert code == 2 and "does not generate" in err


def test_poly_walks_every_route(capsys):
    # each family answers for its listed methods and refuses every other one
    all_methods = dict.fromkeys(m for methods in ROUTES.values() for m in methods)
    for family, methods in ROUTES.items():
        for method in all_methods:
            code, out, err = run(capsys, ["poly", "--family", family, "--method", method,
                                          "--n", "6", "--k", "2"])
            if method in methods:
                assert (code, out, err) == (0, f"{methods[method](6, 2)}\n", "")
            else:
                assert (code, out) == (2, "")
                assert err == f"error: method {method!r} does not generate family {family!r}\n"


@pytest.mark.parametrize("family", ["psi", "q"])
def test_first_route_is_the_default_everywhere(capsys, monkeypatch, family):
    # reordering ROUTES moves the default of poly, table and the table suite together
    first = next(iter(ROUTES[family].values()))
    asked = []

    def spy(a, k):
        asked.append((a, k))
        return first(a, k)

    monkeypatch.setitem(ROUTES, family, {"spy": spy, **ROUTES[family]})
    code, out, _ = run(capsys, ["poly", "--family", family, "--n", "3", "--k", "1"])
    assert code == 0 and out == f"{first(3, 1)}\n" and asked == [(3, 1)]
    code, _, _ = run(capsys, ["table", "--which", family, "--max", "4"])
    assert code == 0 and (4, 1) in asked
    asked.clear()
    assert verify.reproduce_tables().ok and len(asked) > 20


def test_table_q(capsys):
    code, out, _ = run(capsys, ["table", "--which", "q", "--max", "5"])
    assert code == 0
    assert "45x^2+195x+190" in out
    assert out.splitlines()[0].startswith("k=0: 1 | x+1")


def test_table_lambda(capsys):
    code, out, _ = run(capsys, ["table", "--which", "lambda", "--max", "5"])
    assert code == 0 and "lambda=1:" in out and "29" in out


def test_enumerate_count_and_list(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "4", "--k", "1",
                                "--deg1", ">0", "--count"])
    assert code == 0 and out.strip() == "16"
    code, out, _ = run(capsys, ["enumerate", "--n", "3", "--list"])
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 9
    assert lines == sorted(lines)


def test_enumerate_unrooted_and_lambda(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "4", "--unrooted", "--count"])
    assert code == 0 and out.strip() == "16"
    code, out, _ = run(capsys, ["enumerate", "--n", "5", "--k", "2",
                                "--lambda", "1", "--count"])
    assert code == 0 and out.strip() == "29"


def test_bij_lower_pipe(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bij", "--map", "lower", "--dir", "fwd"],
                       stdin="2 0 4 2 9 4 2 9 6", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "2 0 4 6 9 9 2 9 2"
    code, out, _ = run(capsys, ["bij", "--map", "lower", "--dir", "inv"],
                       stdin=out, monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "2 0 4 2 9 4 2 9 6"


def test_bij_plane(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bij", "--map", "plane", "--dir", "fwd"],
                       stdin="9 6 7 0 9 4 4 9 6", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "1(5(8(9)) 2(6) 3(7 4))"
    code, out, _ = run(capsys, ["bij", "--map", "plane", "--dir", "inv"],
                       stdin=out, monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "9 6 7 0 9 4 4 9 6"


def test_bij_color_round_trip(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bij", "--map", "color", "--dir", "fwd"],
                       stdin="0 1\nblack: 2", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "0 1 1"
    code, out, _ = run(capsys, ["bij", "--map", "color", "--dir", "inv"],
                       stdin=out, monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "0 1\nblack: 2"


def test_bij_audit_goes_to_stderr(capsys, monkeypatch):
    code, out, err = run(capsys, ["bij", "--map", "rooted", "--dir", "fwd",
                                  "--audit"],
                         stdin="2 0 1", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "3 0 2"
    assert "audit:" in err


def test_bij_domain_error_exit(capsys, monkeypatch):
    code, _, err = run(capsys, ["bij", "--map", "lower", "--dir", "fwd"],
                       stdin="3 1 0", monkeypatch=monkeypatch)
    assert code == 2 and "error:" in err


def test_bij_labeled_form(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bij", "--map", "lift", "--dir", "fwd"],
                       stdin="labels: 4 7 9\n9 4 0", monkeypatch=monkeypatch)
    assert code == 0 and out.startswith("labels: 4 7 9")


@pytest.mark.parametrize("which,filt", [
    ("lower", ClassFilter(path_proper=1)),
    ("lift", ClassFilter(deg_max=">0")),
    ("lemma36", ClassFilter(deg_min="=1")),
    ("rooted", ClassFilter(deg_min=">0")),
    ("cor22", ClassFilter()),
    ("plane", ClassFilter(k=3)),
])
def test_bij_pipe_round_trip_over_enumeration(capsys, monkeypatch, which, filt):
    for t in enumerate_rooted(4, filt):
        text = tree_to_text(t)
        _, fwd_out, _ = run(capsys, ["bij", "--map", which, "--dir", "fwd"],
                            stdin=text, monkeypatch=monkeypatch)
        _, back, _ = run(capsys, ["bij", "--map", which, "--dir", "inv"],
                         stdin=fwd_out, monkeypatch=monkeypatch)
        assert back.strip("\n") == text


def test_bij_unrooted_pipe_round_trip(capsys, monkeypatch):
    for t in enumerate_unrooted(5, ClassFilter(deg_second=">0")):
        text = tree_to_text(t)
        _, fwd_out, _ = run(capsys, ["bij", "--map", "unrooted", "--dir", "fwd"],
                            stdin=text, monkeypatch=monkeypatch)
        _, back, _ = run(capsys, ["bij", "--map", "unrooted", "--dir", "inv"],
                         stdin=fwd_out, monkeypatch=monkeypatch)
        assert back.strip("\n") == text


def test_verify_suite_ok(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "tables"])
    assert code == 0 and "suite tables: PASS" in out


def test_verify_suite_json(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "genfun", "--nmax", "1"])
    assert code == 0
    code, out, _ = run(capsys, ["verify", "--suite", "conjecture", "--nmax", "4",
                                "--json"])
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert records[-1]["suite"] == "conjecture" and records[-1]["ok"] is True


def test_verify_failure_exit_status(capsys, monkeypatch):
    broken = VerificationReport("tables")
    broken.check("forced", 1, 2)
    monkeypatch.setitem(verify.SUITES, "tables", (lambda: broken, None, None))
    code, out, _ = run(capsys, ["verify", "--suite", "tables"])
    assert code == 1 and "FAIL" in out


def test_verify_conjecture_fails_on_a_recurrence_mismatch(capsys, monkeypatch):
    code, out, _ = run(capsys, ["verify", "--suite", "conjecture", "--nmax", "5"])
    assert code == 0 and "suite conjecture: PASS" in out
    monkeypatch.setattr(verify, "lambda_recurrence_mismatches",
                        lambda prev, cur, n: [(2, 1, 29, 30)] if n == 5 else [])
    code, out, _ = run(capsys, ["verify", "--suite", "conjecture", "--nmax", "5"])
    assert code == 1 and "suite conjecture: FAIL" in out
    assert "lambda recurrence n=5" in out and "lambda recurrence n=4" not in out


@pytest.mark.parametrize("name", ["plane_inv", "extract_root"])
def test_verify_map_rejecting_its_class_fails_the_record(capsys, monkeypatch, name):
    # a map that raises on a tree of its own class is a verification
    # failure (exit 1), not a usage error (exit 2)
    def reject(*args, **kwargs):
        raise bj.DomainError("injected")

    monkeypatch.setattr(bj, name, reject)
    code, out, err = run(capsys, ["verify", "--suite", "bijections", "--nmax", "3"])
    assert code == 1 and err == ""
    assert any(ln.startswith("[FAIL] ") for ln in out.splitlines())
    assert "suite bijections: FAIL" in out


@pytest.mark.parametrize("fault", ["fork", "shard"])
@pytest.mark.parametrize("suite, nmax", [("bijections", 6), ("conjecture", 7)])
def test_verify_reports_a_failed_shard_as_an_error(capsys, monkeypatch, fault, suite, nmax):
    # a fork that fails (OSError) or a shard that raises (RuntimeError) is
    # one error line and exit 1: the suite did not verify
    monkeypatch.setattr(trees, "_usable_cpus", lambda: 2)
    parent = os.getpid()
    if fault == "fork":
        def fork():
            raise OSError("injected fork failure")

        monkeypatch.setattr(os, "fork", fork)
    else:
        def in_child(real):
            def work(*args, **kwargs):
                if os.getpid() != parent:
                    raise ZeroDivisionError("injected")
                return real(*args, **kwargs)
            return work

        monkeypatch.setattr(bj, "rooted_fwd", in_child(bj.rooted_fwd))
        monkeypatch.setattr(trees, "_k_lambda_rows", in_child(trees._k_lambda_rows))
    code, out, err = run(capsys, ["verify", "--suite", suite, "--nmax", str(nmax)])
    assert code == 1 and "suite " not in out
    what = {"bijections": "bijection certifier n=6", "conjecture": "lambda census n=7"}[suite]
    want = ("error: injected fork failure" if fault == "fork"
            else f"error: {what}: shard 0 exited 1 with no result")
    assert len(err.splitlines()) == 1 and err.startswith(want)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_enumerate_count_reports_a_failed_shard_as_an_error(capsys, monkeypatch):
    # count_class tabulates [7] on forked shards: a key that raises on the trees
    # of one head fails its shard, so nothing is counted
    monkeypatch.setattr(trees, "_usable_cpus", lambda: 2)
    matches = ClassFilter.matches

    def fail_on_one_head(self, t):
        if t.parents[:2] == (3, 1):
            raise ZeroDivisionError("injected")
        return matches(self, t)

    monkeypatch.setattr(ClassFilter, "matches", fail_on_one_head)
    code, out, err = run(capsys, ["enumerate", "--n", "7", "--count"])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: tabulate n=7: shard ")
    assert err.rstrip().endswith(" exited 1 with no result")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_all_runs_every_suite_in_table_order(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--nmax", "4"])
    summaries = [ln for ln in out.splitlines() if ln.startswith("suite ")]
    assert code == 0 and all(": PASS (" in ln for ln in summaries)
    assert [ln.split(":")[0] for ln in summaries] == [f"suite {name}" for name in verify.SUITES]


def test_verify_all_fails_when_one_suite_fails(capsys, monkeypatch):
    broken = VerificationReport("identities")
    broken.check("forced", 1, 2)
    monkeypatch.setitem(verify.SUITES, "identities", (lambda nmax: broken, 7, 2))
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--nmax", "3"])
    summaries = [ln for ln in out.splitlines() if ln.startswith("suite ")]
    assert code == 1 and len(summaries) == len(verify.SUITES)
    assert [ln for ln in summaries if "FAIL" in ln] == [broken.summary()]


def test_genfun_command(capsys):
    code, out, _ = run(capsys, ["genfun", "--r", "2", "--x", "3", "--order", "6"])
    assert code == 0 and out.strip() == "genfun r=2 x=3 M=6: PASS"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "0", "--count"],
    ["enumerate", "--n", "3", "--deg1", "abc", "--count"],
    ["genfun", "--r", "-1", "--x", "0", "--order", "3"],
    ["genfun", "--r", "1", "--x", "0", "--order", "-1"],
    ["verify", "--suite", "conjecture", "--nmax", "2"],
    # sizes below the smallest each suite checks, which used to pass vacuously
    ["verify", "--suite", "bijections", "--nmax", "0"],
    ["verify", "--suite", "recurrences", "--nmax", "-3"],
    ["verify", "--suite", "genfun", "--nmax", "-1"],
    ["verify", "--suite", "identities", "--nmax", "1"],
    ["poly", "--family", "psi", "--method", "shor", "--n", "3", "--k", "1"],
    ["table", "--which", "lambda", "--max", "1"],
    # tables with no row, which used to print nothing and exit 0
    ["table", "--which", "q", "--max", "0"],
    ["table", "--which", "psi", "--max", "-1"],
    # refused before the first suite prints its report
    ["verify", "--suite", "all", "--nmax", "2"],
])
def test_library_value_error_exit_code(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_deep_polynomials_answer(capsys):
    # q_shor keeps every row of its table, so the deep request runs in its
    # own interpreter; its value at 0 is f(1200, 0) = 1199!
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "ramapoly.cli", "poly", "--family", "q",
                           "--n", "1200", "--k", "0", "--json"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0 and proc.stderr == ""
    coeffs = json.loads(proc.stdout)["coefficients"]
    assert len(coeffs) == 1200 and coeffs[0] == str(factorial(1199)) and coeffs[-1] == "1"
    # f(3000, 2) has more decimal digits than int-to-str conversion allows
    # by default; the limit is lifted for the command and restored after it
    digits = sys.get_int_max_str_digits()
    code, out, err = run(capsys, ["poly", "--family", "f", "--n", "3000", "--k", "2"])
    assert code == 0 and err == "" and out.strip().isdigit() and len(out.strip()) > 4300
    assert sys.get_int_max_str_digits() == digits


def test_bij_plane_round_trips_a_deep_path(capsys, monkeypatch):
    n = 5000
    path = "(".join(map(str, range(1, n + 1))) + ")" * (n - 1)
    code, tree, err = run(capsys, ["bij", "--map", "plane", "--dir", "inv"], path, monkeypatch)
    assert code == 0 and err == "" and tree.split() == [str(n)] * (n - 1) + ["0"]
    code, back, err = run(capsys, ["bij", "--map", "plane", "--dir", "fwd"], tree, monkeypatch)
    assert code == 0 and err == "" and back.strip() == path
    # the all-improper chain 2 -> 3 -> ... -> n -> 1 is as deep as a tree on [n] gets
    chain = " ".join(map(str, [n, 0, *range(2, n)]))
    code, plane, err = run(capsys, ["bij", "--map", "plane", "--dir", "fwd"], chain, monkeypatch)
    assert code == 0 and err == ""
    assert plane.strip() == "1(" + " ".join(map(str, range(n, 1, -1))) + ")"
    code, back, err = run(capsys, ["bij", "--map", "plane", "--dir", "inv"], plane, monkeypatch)
    assert code == 0 and err == "" and back.strip() == chain


@pytest.mark.parametrize("mode", [["--count"], ["--list"], ["--list", "--unrooted"]])
def test_enumerate_refuses_ten_labels_without_force(capsys, monkeypatch, mode):
    calls = []

    def spy(*args):
        # count_class(n, filt, unrooted) returns a count, the enumerations
        # (n, filt) an iterator
        calls.append(args)
        return 7 if len(args) == 3 else iter(())

    monkeypatch.setattr(verify, "count_class", spy)
    monkeypatch.setattr(cli, "enumerate_rooted", spy)
    monkeypatch.setattr(cli, "enumerate_unrooted", spy)
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["enumerate", "--n", "10", *mode])
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == "" and err.startswith("error: ") and "--force" in err
    assert calls == []
    code, _, _ = run(capsys, ["enumerate", "--n", "10", "--force", *mode])
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["table", "--which", "lambda", "--max", "{n}"],
    ["verify", "--suite", "conjecture", "--nmax", "{n}"],
    ["verify", "--suite", "bijections", "--nmax", "{n}"],
    ["verify", "--suite", "identities", "--nmax", "{n}"],
    ["verify", "--suite", "all", "--nmax", "{n}"],
])
def test_enumerating_commands_refuse_ten_labels(capsys, monkeypatch, argv):
    calls = []

    def spy(*args):
        calls.append(args)
        return iter(())

    # every enumeration, and the lambda census, draws its trees from the
    # prefix DFS
    monkeypatch.setattr(trees, "_prefixes", spy)
    t0 = time.perf_counter()
    code, out, err = run(capsys, [a.format(n=10) for a in argv])
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "--force" not in err  # only enumerate has the override
    assert calls == []
    # the spy sees a legal size, so the refusal is what kept it idle above
    run(capsys, [a.format(n=3) for a in argv])
    assert calls


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--family", "q", "--n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "3", "--count", "--bogus"])
    assert exc.value.code == 2


def test_in_process_calls_share_no_state(capsys, monkeypatch):
    # main parses with one parser built at import; no call may leave state
    # behind for the next one
    def rebuilt():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    cell = ["poly", "--family", "q", "--n", "5", "--k", "2"]
    code, out, _ = run(capsys, cell + ["--json"])
    assert code == 0 and json.loads(out) == {"coefficients": ["190", "195", "45"]}
    code, out, _ = run(capsys, cell)
    assert code == 0 and out == "45x^2+195x+190\n"

    audit = ["bij", "--map", "rooted", "--dir", "fwd"]
    code, out, err = run(capsys, audit + ["--audit"], stdin="2 0 1", monkeypatch=monkeypatch)
    assert code == 0 and err.startswith("audit: ")
    code, out2, err = run(capsys, audit, stdin="2 0 1", monkeypatch=monkeypatch)
    assert code == 0 and out2 == out and err == ""

    with pytest.raises(SystemExit) as exc:
        main(["bij", "--map", "nosuch", "--dir", "fwd"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    code, out, err = run(capsys, audit, stdin="2 0 1", monkeypatch=monkeypatch)
    assert code == 0 and out == "3 0 2\n" and err == ""

    # the parser holds the suite names; the suites are looked up per call
    broken = VerificationReport("tables")
    broken.check("forced", 1, 2)
    monkeypatch.setitem(verify.SUITES, "tables", (lambda: broken, None, None))
    code, out, _ = run(capsys, ["verify", "--suite", "tables"])
    assert code == 1 and out.splitlines()[-1] == broken.summary()


# -- fuzzing the bij pipe ----------------------------------------------------------

BIJ_MAPS = ["lower", "lift", "lemma36", "rooted", "unrooted", "color", "cor22", "plane"]


@st.composite
def plane_texts(draw):
    # an increasing plane tree on [n]: each label joins a smaller one at a
    # drawn slot among its children
    kids: dict[int, list[int]] = {1: []}
    for v in range(2, draw(st.integers(1, 6)) + 1):
        above = kids[draw(st.integers(1, v - 1))]
        above.insert(draw(st.integers(0, len(above))), v)
        kids[v] = []

    def text(v):
        return f"{v}({' '.join(map(text, kids[v]))})" if kids[v] else str(v)
    return text(1)


STDIN_TEXTS = st.one_of(
    st.text(max_size=16),
    st.text(alphabet="0123456789 ()\n-:labelsbck", max_size=24),
    rooted_trees(max_size=6).map(tree_to_text),
    st.builds(lambda t, black: tree_to_text(t) + "\nblack: " + " ".join(map(str, black)),
              rooted_trees(max_size=5, contiguous=True),
              st.lists(st.integers(0, 6), max_size=3)),
    plane_texts(),
)


def _bij(which, direction, text, *flags):
    # `run` needs capsys and monkeypatch, which hypothesis does not reset
    # between the examples of one test
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["bij", "--map", which, "--dir", direction, *flags])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _parsed(which, direction, text):
    # the value the map reads from `text`, so that equal inputs compare equal
    # however they were spaced
    if which == "plane" and direction == "inv":
        return plane_from_text(text)
    if which == "color" and direction == "fwd":
        return cli._read_colored(text)
    return tree_from_text(text)


@pytest.mark.parametrize("which", BIJ_MAPS)
@pytest.mark.parametrize("direction", ["fwd", "inv"])
@settings(max_examples=25, deadline=None)
@given(text=STDIN_TEXTS)
def test_bij_pipe_fuzz(which, direction, text):
    code, out, err = _bij(which, direction, text)
    if code == 2:
        assert out == "" and err.startswith("error: ")
        return
    assert code == 0 and err == ""
    back_dir = "inv" if direction == "fwd" else "fwd"
    code, back, err = _bij(which, back_dir, out)
    assert code == 0 and err == ""
    assert _parsed(which, direction, back) == _parsed(which, direction, text)


# -- golden outputs on large trees ---------------------------------------------------


def _golden_input(rng, which, n):
    # A random recursive tree on [n]: the labels in a shuffled order, each
    # hung under an earlier one; rooted at 1 for the min-rooted map, with a
    # random black subset of 1's children for the colour map.  For the plane
    # map, an increasing plane tree, grown as `plane_texts` grows one.
    if which == "plane":
        kids = [[] for _ in range(n + 1)]
        for v in range(2, n + 1):
            above = kids[rng.randrange(1, v)]
            above.insert(rng.randint(0, len(above)), v)

        def text(v):  # a random increasing tree is shallow: depth about e ln n
            return f"{v}({' '.join(map(text, kids[v]))})" if kids[v] else str(v)
        return text(1) + "\n"
    order = list(range(1, n + 1))
    rng.shuffle(order)
    if which == "unrooted":
        order.remove(1)
        order.insert(0, 1)
    parent = [0] * (n + 1)
    for i in range(1, n):
        parent[order[i]] = order[rng.randrange(i)]
    text = " ".join(map(str, parent[1:]))
    if which == "color":
        black = [v for v in range(2, n + 1) if parent[v] == 1 and rng.random() < 0.5]
        if black:
            text += "\nblack: " + " ".join(map(str, black))
    return text + "\n"


# sha256 of every request below: outputs, audit lines, errors and exit codes
GOLDEN_BIJ_SHA256 = "eed0222b9de9a825d4cc03b4926e893a94338edac00ee2fd43a8eaec74122f05"


def test_bij_golden_outputs_on_large_trees():
    # Six inputs per map in each map's domain, 50 to 1,000 labels, through
    # the first direction and back with --audit; the rejected draws are
    # hashed too, so their errors and exit codes are pinned as well.
    rng = random.Random(18)
    digest = hashlib.sha256()
    audits = []
    for which in BIJ_MAPS:
        first, second = ("inv", "fwd") if which == "plane" else ("fwd", "inv")
        done = 0
        while done < 6:
            text = _golden_input(rng, which, rng.randint(50, 1000))
            result = _bij(which, first, text, "--audit")
            digest.update(repr((which, first, result)).encode())
            code, out, err = result
            if code:
                assert code == 2 and out == "" and err.startswith("error: ")
                continue
            back = _bij(which, second, out, "--audit")
            digest.update(repr((which, second, back)).encode())
            assert back[0] == 0 and back[1] == text
            audits += result[2].splitlines() + back[2].splitlines()
            done += 1
    # every dispatch case of the rooted and min-rooted maps is in the digest
    for case in ("-> lower", "route: flatten", "route: lift", "lowers then unflatten",
                 "case: shared branch", "case: max already internal", "case: leaf max",
                 "max internal; recurse", "case: swapped roles"):
        assert any(case in line for line in audits), case
    assert digest.hexdigest() == GOLDEN_BIJ_SHA256
