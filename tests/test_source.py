import ast
from collections import Counter
from pathlib import Path

import class_spectrum

SOURCES = sorted(Path(class_spectrum.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _loaded_names(node):
    # every way a module can use a name: read it, read it as an attribute of
    # another module, or import it from the module that defines it
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_no_assert_statements():
    # python -O strips assert statements, so invariants raise explicit errors
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "verify.py"}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_imports():
    # __init__.py imports to re-export; __future__ imports switch features on
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        loaded = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{name}:{node.lineno} {b}" for b in bound if b not in loaded]
    assert unused == []


def test_no_unreferenced_private_definitions():
    # a module-level _name that no source module uses is dead code; a
    # function's references to itself do not count
    loaded = Counter(n for tree in TREES.values() for n in _loaded_names(tree))
    dead = []
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = {node.name: Counter(_loaded_names(node))[node.name]}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = {t.id: 0 for t in targets if isinstance(t, ast.Name)}
            else:
                continue
            dead += [
                f"{name}:{node.lineno} {d}"
                for d, own in defined.items()
                if d.startswith("_") and not d.startswith("__") and loaded[d] == own
            ]
    assert dead == []


def test_only_the_lemma_checks_take_a_table():
    # every prime-data function reads primes.shared_table; check_omega_lemma
    # and omega_sweep keep a table parameter because the acceptance suite
    # (criterion 4) passes them one
    keep = {"check_omega_lemma", "omega_sweep"}
    knobs = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in keep
        and "table" in {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    ]
    assert knobs == []


def test_degree_facts_come_from_the_table_query():
    # p, r and |Omega(n)| reach verify.py and cli.py through
    # PrimalityTable.degree_primes alone, never through their own
    # prev_prime or count calls
    calls = [
        f"{name}:{node.lineno} .{node.func.attr}"
        for name in ("verify.py", "cli.py")
        for node in ast.walk(TREES[name])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"prev_prime", "count"}
    ]
    assert calls == []


def test_all_names_exactly_the_imported_names():
    # __init__.py imports only to re-export, so __all__ lists each imported
    # name once and nothing else, and every name resolves on the package
    imported = [
        alias.asname or alias.name
        for node in TREES["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(class_spectrum.__all__) == sorted(set(imported)) == sorted(imported)
    assert [name for name in class_spectrum.__all__ if not hasattr(class_spectrum, name)] == []
