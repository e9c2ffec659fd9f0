import io
import json
import sys

import pytest

from ramapoly.cli import main
from ramapoly.trees import ClassFilter, enumerate_rooted, enumerate_unrooted, tree_to_text
from ramapoly.verify import VerificationReport


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
    import ramapoly.cli as cli
    broken = VerificationReport("tables")
    broken.check("forced", 1, 2)
    monkeypatch.setitem(cli._SUITES, "tables", (lambda: broken, None))
    code, out, _ = run(capsys, ["verify", "--suite", "tables"])
    assert code == 1 and "FAIL" in out


def test_genfun_command(capsys):
    code, out, _ = run(capsys, ["genfun", "--r", "2", "--x", "3", "--order", "6"])
    assert code == 0 and out.strip() == "genfun r=2 x=3 M=6: PASS"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "0", "--count"],
    ["enumerate", "--n", "3", "--deg1", "abc", "--count"],
    ["genfun", "--r", "-1", "--x", "0", "--order", "3"],
    ["verify", "--suite", "conjecture", "--nmax", "2"],
])
def test_library_value_error_exit_code(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2 and err.startswith("error: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--family", "q", "--n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "3", "--count", "--bogus"])
    assert exc.value.code == 2
