"""Every function and class in `styletx` has a caller outside the tests.

A definition counts as used when code (not a comment or string) in `src/`,
`scripts/` or the benchmark harness refers to it. Each use is resolved:

- a bare name counts for the definition of that name in its own module,
  or in the module it was imported from;
- `mod.name` counts for `name` in `mod` when `mod` is a `styletx` module
  (`ad.tanh` is `autodiff.tanh`), and for nothing when it is another
  module (`np.tanh` is not);
- an attribute of any other object (`model.encode_style`) counts for every
  class member of that name.

Tests do not count: code that only tests reach is a second path to delete
or to wire in.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "styletx").glob("*.py"))
CALLERS = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_harness.py")
PACKAGE = "styletx"

# kept without a non-test caller, each for a stated reason
ALLOWED = {
    "corpus.sentence_pairs": "the grammar's style collocations, kept for the style-accuracy "
                             "oracle of ROADMAP direction 3",
    "autodiff.GradCheckReport.passed": "grad_check's verdict against the tol its callers pass",
    "autodiff.tanh": "`perfbench/tracing.py` `PRIMS` wraps it by name on every run",
}


def module_name(path: Path) -> str:
    return f"{PACKAGE}.{path.stem}" if path in MODULES else path.stem


def definitions(path: Path) -> list:
    """(qualified name, name, kind) of every function and class the module
    defines; kind is "module" for top-level ones, "member" for those in a
    class body and "local" for those inside a function."""
    short = path.stem
    out = []

    def visit(nodes, prefix: str, kind: str):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("__"):
                    out.append((f"{prefix}.{node.name}", node.name, kind))
                inner = "member" if isinstance(node, ast.ClassDef) else "local"
                visit(node.body, f"{prefix}.{node.name}", inner)
            else:
                visit(ast.iter_child_nodes(node), prefix, kind)

    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        visit([node], short, "module")
    return out


def imports(path: Path) -> tuple:
    """({alias: module}, {alias: (module, name)}) bound by the file's imports."""
    modules, names = {}, {}
    known = {module_name(p) for p in MODULES}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                modules[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = PACKAGE if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            for a in node.names:
                if f"{base}.{a.name}" in known:
                    modules[a.asname or a.name] = f"{base}.{a.name}"
                else:
                    names[a.asname or a.name] = (base, a.name)
    return modules, names


def uses() -> set:
    """Qualified names of the `styletx` definitions that CALLERS refer to."""
    defs = {module_name(p): definitions(p) for p in MODULES}
    tables = {module_name(p): imports(p) for p in MODULES}
    members = {}
    for found in defs.values():
        for qual, name, kind in found:
            if kind == "member":
                members.setdefault(name, set()).add(qual)

    def top_level(module: str, name: str, seen=()) -> set:
        """The definition `module.name` names, following re-exports."""
        if module not in defs or module in seen:
            return set()
        short = module.rsplit(".", 1)[1]
        if any(q == f"{short}.{name}" for q, _, _ in defs[module]):
            return {f"{short}.{name}"}
        imported = tables[module][1].get(name)
        return top_level(*imported, seen=(*seen, module)) if imported else set()

    def module_of(node, modules: dict):
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        if isinstance(node, ast.Attribute):
            parent = module_of(node.value, modules)
            if parent and f"{parent}.{node.attr}" in defs:
                return f"{parent}.{node.attr}"
        return None

    used = set()
    for path in CALLERS:
        here = module_name(path)
        modules, names = imports(path)
        local = {}
        for qual, name, kind in defs.get(here, []):
            if kind == "local":
                local.setdefault(name, set()).add(qual)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                if node.id in names:
                    used |= top_level(*names[node.id])
                else:
                    used |= top_level(here, node.id) | local.get(node.id, set())
            elif isinstance(node, ast.Attribute):
                owner = module_of(node.value, modules)
                if owner is not None:
                    used |= top_level(owner, node.attr)
                else:
                    used |= members.get(node.attr, set())
    return used


def callers_by_definition() -> tuple:
    """(qualified names defined in `styletx`, those CALLERS refer to)."""
    defined = {qual for path in MODULES for qual, _, _ in definitions(path)}
    return defined, uses()


def test_every_definition_has_a_non_test_caller():
    defined, used = callers_by_definition()
    assert sorted(defined - used - set(ALLOWED)) == []


def test_allowlist_names_only_uncalled_definitions():
    # the allowlist can only shrink: an entry goes once its name is deleted
    # from `styletx` or gains a caller outside the tests
    defined, used = callers_by_definition()
    assert sorted(set(ALLOWED) - defined) == []
    assert sorted(set(ALLOWED) & used) == []


def test_qualified_uses_resolve_to_their_module():
    # `np.tanh` in `autodiff.gru_sequence` is numpy's, not `autodiff.tanh`
    used = uses()
    assert "autodiff.tanh" not in used
    assert "autodiff.gru_sequence" in used      # `ad.gru_sequence` in model
    assert "corpus.encode" in used              # bare, imported from corpus
    assert "model.StyleEncoder.encode" in used  # `self.style_enc.encode`
