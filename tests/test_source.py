"""Static guards over the package source."""

import ast
from pathlib import Path

import ramapoly

SRC = Path(ramapoly.__file__).resolve().parent

# A function that calls itself recurses once per level of its input, and
# Python's recursion limit then bounds the input instead of its cost.
RECURSION_ALLOWED: set[str] = set()


def _self_calls(path: Path) -> set[str]:
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for call in ast.walk(child):
                    if isinstance(call, ast.Call) and (
                            isinstance(call.func, ast.Name) and call.func.id == name
                            or isinstance(call.func, ast.Attribute) and call.func.attr == name):
                        found.add(f"{path.stem}.{prefix}{name}")
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def test_no_function_calls_itself():
    found = set().union(*map(_self_calls, sorted(SRC.glob("*.py"))))
    assert found == RECURSION_ALLOWED


def test_no_memoised_recursion():
    # the polynomial routes fill tables bottom-up instead
    for path in SRC.glob("*.py"):
        text = path.read_text()
        assert "lru_cache" not in text, path
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cache" not in {a.name for a in node.names}, path


def _forks(node: ast.AST) -> int:
    # the calls to os.fork within node
    return sum(isinstance(c, ast.Call) and ast.unparse(c.func) == "os.fork" for c in ast.walk(node))


def test_one_function_forks():
    # the census and the certifier share one fork driver, and nothing else forks
    found, forking = 0, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += _forks(tree)
        forking |= {f"{path.stem}.{node.name}" for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _forks(node)}
    assert found == 1 and forking == {"trees._run_shards"}
