"""Every function and class in `styletx` has a caller outside the tests.

A name counts as used when it appears as code (not in a comment or string)
in `src/`, `scripts/` or the benchmark harness, on any line other than its
own definition. Tests do not count: code that only tests reach is a second
path to delete or to wire in.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "styletx").glob("*.py"))
CALLERS = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_harness.py")

# kept without a non-test caller, each for a stated reason
ALLOWED = {
    "sentence_pairs": "the grammar's style collocations, kept for the style-accuracy oracle "
                      "of ROADMAP direction 3",
    "passed": "grad_check's verdict against the tol its callers pass",
}


def definitions(path: Path) -> list:
    """(name, line) of every function and class the module defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__")]


def code_names(path: Path) -> list:
    """(name, line) of every identifier token, comments and strings excluded."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
    return [(tok.string, tok.start[0]) for tok in tokens if tok.type == tokenize.NAME]


def callers_by_definition() -> tuple:
    """(names defined in `styletx`, those named anywhere in CALLERS outside
    their own definition line)."""
    defined = {(path, name, line) for path in MODULES for name, line in definitions(path)}
    used = {name for path in CALLERS for name, line in code_names(path)
            if (path, name, line) not in defined}
    return {name for _, name, _ in defined}, used


def test_every_definition_has_a_non_test_caller():
    defined, used = callers_by_definition()
    assert sorted(defined - used - set(ALLOWED)) == []


def test_allowlist_names_only_uncalled_definitions():
    # the allowlist can only shrink: an entry goes once its name is deleted
    # from `styletx` or gains a caller outside the tests
    defined, used = callers_by_definition()
    assert sorted(set(ALLOWED) - defined) == []
    assert sorted(set(ALLOWED) & used) == []
