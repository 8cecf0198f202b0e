"""Rules on the package source that no behavioural test can see."""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vlpdual"
PERFBENCH = SRC.parent.parent / "perfbench"
# The standard-form layout and its phase-I basis stay behind lp.Region.
LP_INTERNALS = {"phase_one", "phase_two", "Basis", "to_standard_form"}
CACHES = {"lru_cache", "cache"}  # cached_property stays allowed
# The harness's pair loops compare cone coordinates taken once per vector,
# never a per-pair facet test.
PER_PAIR_ORDER = {"strictly_below", "contains"}
# The harness asks the polyhedra it holds (P, and one ReducedImage per
# sampled U), never the one-shot oracles that build a fresh one per call.
ONE_SHOT_ORACLES = {
    "is_efficient",
    "proper_efficiency_certificate",
    "check_feasible_U",
    "u_feasibility_multiplier",
    "h_H_value_membership",
    "minimize_over_image",
    "map_DH_to_D",
}

# Top-level names that nothing in `src/` calls but the benchmark looks up
# by name; each leaves this set once nothing in perfbench/ names it.
_CALLED_ONLY_BY_PERFBENCH = {
    "contains",
    "u_feasibility_multiplier",
    "h_H_value_membership",
    "minimize_over_image",
    "map_DH_to_D",
    "feasible_dual_point",
    "verify_outcome",
    "objective_J",
    "objective_L",
    "serialize_problem",
}


# A witness check confirms by products alone: it runs no LP, builds no
# polyhedron and eliminates nothing, so it never runs the code it checks.
SOLVING = {
    "solve_lp",
    "solve_general",
    "solve_feasibility",
    "Region",
    "DualPolyhedron",
    "ScalarizationPolyhedron",
    "ReducedImage",
    "phase_one",
    "phase_two",
    "multiplier",
    "pivot",
    "row_reduce",
    "solve_linear_system",
}


def _names(tree: ast.AST):
    """Every identifier the module binds, reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def _functools_caches(tree: ast.AST):
    """lru_cache or cache taken from functools, imported or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (alias.name for alias in node.names if alias.name in CACHES)
        elif isinstance(node, ast.Attribute) and node.attr in CACHES:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node.attr


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_source_has_no_assert_and_no_function_cache():
    # checks go through exact.require, which stays on under python -O;
    # shared results live on objects, not in a process-global cache
    for name, tree in _modules():
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{name}: assert statement at lines {asserts}"
        caches = sorted(_functools_caches(tree))
        assert not caches, f"{name}: uses functools {caches}"


def test_source_enumerates_no_subsets():
    # Facets and vertices come from the double-description kernel
    # exact.extreme_rays, whose cost follows its output, not C(n, r).
    for name, tree in _modules():
        found = sorted(set(_names(tree)) & {"combinations", "comb"})
        assert not found, f"{name} names {found}"


def test_only_lp_gives_up_a_v_form():
    # Region.ask is the one place that catches an over-limit V-form and
    # goes on with phase II; elsewhere VertexLimitError is an input error.
    for name, tree in _modules():
        caught = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type and "VertexLimitError" in set(_names(node.type))
        ]
        assert name == "lp.py" or not caught, f"{name} catches VertexLimitError at lines {caught}"


def test_lp_internals_are_named_only_in_lp():
    seen = {name: sorted(set(_names(tree)) & LP_INTERNALS) for name, tree in _modules() if name != "lp.py"}
    assert not any(seen.values()), {name: found for name, found in seen.items() if found}


def test_harness_compares_cone_coordinates_only():
    (tree,) = [tree for name, tree in _modules() if name == "harness.py"]
    found = sorted(set(_names(tree)) & PER_PAIR_ORDER)
    assert not found, found


def test_harness_names_no_one_shot_oracle():
    (tree,) = [tree for name, tree in _modules() if name == "harness.py"]
    found = sorted(set(_names(tree)) & ONE_SHOT_ORACLES)
    assert not found, found


def _on_ctx(node: ast.AST) -> bool:
    """Whether node is an attribute of ctx, or a part of one."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ctx":
            return True
        node = node.value
    return False


def test_campaign_checks_only_read_the_context():
    # A check takes the instance context alone and never writes it, so the
    # order of harness._CAMPAIGN_CHECKS cannot move a record.
    (tree,) = [tree for name, tree in _modules() if name == "harness.py"]
    checks = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")]
    assert len(checks) == 12, [node.name for node in checks]
    for check in checks:
        args = check.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        assert [a.arg for a in params] == ["ctx"], f"{check.name} takes {[a.arg for a in params]}"
        writes = []
        for node in ast.walk(check):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                flat = [t for target in targets for t in ast.walk(target) if isinstance(t, (ast.Attribute, ast.Subscript))]
                writes += [node.lineno for t in flat if _on_ctx(t)]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in {"append", "extend", "insert", "add", "update"} and _on_ctx(node.func.value):
                    writes.append(node.lineno)
        assert not writes, f"{check.name} writes the context at lines {writes}"


def test_witness_checks_never_solve():
    # lp.verify_* check LP outcomes and cone.verify_dominator checks every
    # domination witness, Farkas rows of Q_U and P included.
    trees = dict(_modules())
    verifiers = [
        (f"{module.removesuffix('.py')}.{node.name}", node)
        for module in ("lp.py", "cone.py")
        for node in trees[module].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_")
    ]
    assert len(verifiers) >= 5 and "cone.verify_dominator" in dict(verifiers), [name for name, _ in verifiers]
    for name, tree in [("checks.py", trees["checks.py"])] + verifiers:
        found = sorted(set(_names(tree)) & SOLVING)
        assert not found, f"{name} names {found}"


def test_efficiency_asks_domination_through_cone_dominator():
    # cone.dominator decodes every domination outcome in one place.
    (tree,) = [tree for name, tree in _modules() if name == "efficiency.py"]
    found = sorted(set(_names(tree)) & {"solve_general", "domination_program"})
    assert not found, found


def test_no_dominator_call_passes_a_zero_target():
    # U-feasibility and recession pointedness, the zero-target questions,
    # are the emptiness of Q_U and P; cone.dominator is asked only at the
    # image of a point.
    calls = [
        (name, node)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "dominator"
    ]
    assert len(calls) >= 2, calls
    zero = [(name, node.lineno) for name, node in calls if "zeros" in ast.unparse(node.args[2])]
    assert not zero, zero


def test_efficiency_builds_on_duality_never_the_reverse():
    # P is one class, duality.DualPolyhedron; efficiency imports it, so
    # duality names nothing from efficiency.
    (tree,) = [tree for name, tree in _modules() if name == "duality.py"]
    sources = {(node.module or "").rpartition(".")[2] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "efficiency" not in sources and "efficiency" not in set(_names(tree))


def test_only_duality_subclasses_region():
    # One class per polyhedron: P is DualPolyhedron; Q_U and the sampler's
    # sets are plain Regions.
    for name, tree in _modules():
        subclasses = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(ast.unparse(base).rpartition(".")[2] == "Region" for base in node.bases)
        ]
        if name == "duality.py":
            assert subclasses == ["DualPolyhedron"], subclasses
        else:
            assert not subclasses, f"{name} subclasses Region: {subclasses}"


def test_imports_follow_the_command():
    # `import vlpdual` resolves its names on first use, and the CLI loads
    # harness, sampling and efficiency only inside the subcommands that call them.
    trees = dict(_modules())
    eager = [node.lineno for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom) and node.level]
    assert not eager, f"__init__.py: module-level relative imports at lines {eager}"
    named = set()
    for node in trees["cli.py"].body:
        if isinstance(node, ast.ImportFrom):
            named |= {(node.module or "").rpartition(".")[2]} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            named |= {alias.name.rpartition(".")[2] for alias in node.names}
    found = sorted(named & {"harness", "sampling", "efficiency"})
    assert not found, f"cli.py imports {found} at module level"


def test_every_top_level_name_has_a_caller():
    # A function or class is named outside its own definition somewhere in
    # src/, or the benchmark alone calls it; the export table's strings do
    # not count.
    nodes = [(node, set(_names(node))) for _, tree in _modules() for node in tree.body]
    spread = Counter(name for _, names in nodes for name in names)
    uncalled = {
        node.name
        for node, names in nodes
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
        and spread[node.name] == (node.name in names)
    }
    assert uncalled == _CALLED_ONLY_BY_PERFBENCH, {
        "uncalled": sorted(uncalled - _CALLED_ONLY_BY_PERFBENCH),
        "called, or gone": sorted(_CALLED_ONLY_BY_PERFBENCH - uncalled),
    }
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    missing = sorted(name for name in _CALLED_ONLY_BY_PERFBENCH if not re.search(rf"\b{name}\b", bench))
    assert not missing, f"not named in perfbench/: {missing}"
