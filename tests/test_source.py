import argparse
import ast
from collections import Counter
from pathlib import Path

import class_spectrum
from class_spectrum import GroupKind, cli, primes, scan_range, verify

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


# modules that only some commands need: the fork pool, the cache's hashing and
# temporary files, the CSV writers and jsonable's shared-factor path
DEFERRED_MODULES = ("multiprocessing", "concurrent.futures", "hashlib", "tempfile", "csv", "decimal")


def _import_time_imports(node):
    # every module an import statement names outside a function body: class
    # bodies and conditional blocks run when the module is imported
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
            yield from (f"{child.module}.{alias.name}" for alias in child.names)
        yield from _import_time_imports(child)


def test_deferred_modules_are_imported_only_where_used():
    # each of these costs every command's set-up, so each is imported inside
    # the function that needs it; the fresh-interpreter check is in test_cli.py
    found = [
        f"{name} {module}"
        for name, tree in TREES.items()
        for module in _import_time_imports(tree)
        if any(module == d or module.startswith(d + ".") for d in DEFERRED_MODULES)
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # records are named tuples: importing dataclasses (and with it inspect,
    # ast, dis and tokenize) costs every command's set-up about 10 ms, so no
    # module imports it, not even inside a function
    found = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] == "dataclasses"]
    assert found == []


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


def test_the_plan_for_a_degree_has_one_home():
    # verify._candidates alone decides which strategies a degree builds: it
    # makes verify.py's one degree_primes query besides check_omega_lemma's,
    # and it alone compares anything with SUPPORT_CAP
    queries, capped = set(), set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "degree_primes":
            queries.add(owner)
        elif isinstance(node, ast.Compare) and "SUPPORT_CAP" in _loaded_names(node):
            capped.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(TREES["verify.py"], None)
    assert queries == {"_candidates", "check_omega_lemma"}
    assert capped == {"_candidates"}


def test_longest_chain_callers_pass_only_values():
    # longest_chain finds its own common multiple, so no caller passes one
    # or divides one out by hand; the one keyword is the limit at check_case's
    # call, which stops the direct candidate's DP once it is taller than the
    # r-trick's
    calls = [
        (name, node)
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "longest_chain"
    ]
    assert {name for name, _ in calls} >= {"cli.py", "verify.py"}
    check_case = next(
        node for node in TREES["verify.py"].body if isinstance(node, ast.FunctionDef) and node.name == "check_case"
    )
    limited = [call for call in ast.walk(check_case) if any(call is node for _, node in calls)]
    assert len(limited) == 1
    for name, call in calls:
        keywords = ["limit"] if call is limited[0] else []
        where = f"{name}:{call.lineno} {ast.unparse(call)}"
        assert len(call.args) == 1 and [k.arg for k in call.keywords] == keywords, where
    for name in ("cli.py", "verify.py"):
        assert not {"lcm", "perm", "group_order"} & set(_loaded_names(TREES[name])), name


def _readers(tree, names):
    # the functions that read each of names; None stands for module level
    found = {name: set() for name in names}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in found:
            found[node.id].add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_only_the_witness_annotation_walks_partitions():
    # check_case and the psi, phi and moved families read class sizes from
    # the cached core states of classes._core_layers; cycle types come from
    # the partition walk behind psi_members and _fpf_cores, which only the
    # annotation of a kept witness chain reads
    readers = {"psi_members": set(), "_fpf_cores": set()}
    for tree in TREES.values():
        for name, owners in _readers(tree, list(readers)).items():
            readers[name] |= owners
    assert readers == {"psi_members": {"_witness_types"}, "_fpf_cores": {"psi_members"}}


def test_class_size_rule_has_one_home():
    # the class-size and Alt-split rule lives in classes._sizes: besides
    # group_order, only it tells the kinds apart, and only it reads the
    # parity of z, so the layer walk and the per-core entry points cannot
    # drift apart
    members = {member.name for member in GroupKind}
    kinds, parities = set(), set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Attribute) and node.attr in members and getattr(node.value, "id", None) == "GroupKind":
            kinds.add(owner)
        elif isinstance(node, ast.BinOp) and ast.unparse(node) == "z & 1":
            parities.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(TREES["classes.py"], None)
    assert kinds == {"group_order", "_sizes"}
    assert parities == {"_sizes"}


def test_bound_formulas_have_one_home():
    # bound_report and chebyshev_sweep both evaluate the envelope through
    # _envelope and the gap bound through _gap_holds, so the two cannot flag
    # different x; the sweep reads primality from primes_in, not per integer
    tree = TREES["primes.py"]
    assert _readers(tree, ["CHEBYSHEV_LOWER", "CHEBYSHEV_UPPER", "GAP_EXPONENT_NUM", "GAP_EXPONENT_DEN"]) == {
        "CHEBYSHEV_LOWER": {"_envelope"},
        "CHEBYSHEV_UPPER": {"_envelope"},
        "GAP_EXPONENT_NUM": {"_gap_holds"},
        "GAP_EXPONENT_DEN": {"_gap_holds"},
    }
    assert _readers(tree, ["_envelope", "_gap_holds"]) == {
        "_envelope": {"bound_report", "chebyshev_sweep"},
        "_gap_holds": {"bound_report", "chebyshev_sweep"},
    }
    sweep = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "chebyshev_sweep")
    assert "is_prime" not in set(_loaded_names(sweep))


def test_only_the_index_builder_touches_the_prime_index():
    # every query reads the prime index through _index, which checks the
    # range and builds it on first use, so no query can skip either
    found = {}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Attribute) and node.attr == "_primes":
            found.setdefault(type(node.ctx).__name__, set()).add(f"{name} {owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for name, tree in TREES.items():
        visit(tree, None)
    assert found == {"Load": {"primes.py _index"}, "Store": {"primes.py __init__", "primes.py _index"}}


def test_a_scan_builds_the_prime_index_before_its_first_case(monkeypatch):
    # the _candidates pre-pass reads degree_primes, so the index is built
    # before any check_case, and so before a pool forks its workers
    monkeypatch.setattr(primes, "_shared", None)
    built = []
    check_case = verify.check_case

    def spy(n, kind):
        built.append(primes._shared._primes is not None)
        return check_case(n, kind)

    monkeypatch.setattr(verify, "check_case", spy)
    report = scan_range(23, 200)
    table = primes._shared
    assert report.certificates and table.limit >= 200 and built and all(built)
    assert len(table._primes) == table.count(table.limit)


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


# every command-line option, by subcommand; an option added or removed must
# change this table, so it shows in review
OPTIONS = {
    "": ["--version"],
    "spectrum": ["--cache-dir", "--cap", "--family", "--format", "--kind", "--n", "--no-cache", "--t"],
    "height": ["--convention", "--input"],
    "omega": ["--format", "--n"],
    "hz-table": ["--format", "--kinds", "--max-m"],
    "verify": [],
    "verify case": ["--format", "--kind", "--n"],
    "verify scan": ["--from", "--jobs", "--kinds", "--out", "--to"],
    "bounds": ["--format", "--x"],
}


def _options(parser, command=""):
    found = {command: []}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= _options(sub, f"{command} {name}".strip())
        elif not isinstance(action, argparse._HelpAction):
            found[command] += action.option_strings
    return {name: sorted(options) for name, options in found.items()}


def test_command_line_options_are_pinned():
    assert _options(cli._build_parser()) == OPTIONS
