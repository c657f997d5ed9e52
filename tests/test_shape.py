"""The package's shape, read from its source with `ast`: no dead code, exact values
and bounded caches.

Every function, class and method is named somewhere else in the package, or
is one of a few named maps of the paper that the tests call.  Values are
exact integers and fractions, so no floating point may enter the code apart
from a few named reporting functions.  A cache with no size limit is allowed
only where a guard constant bounds its key; the guard is imported here, so
deleting it fails this module.  No `global` statement rebinds module state, so
no call's result depends on what an earlier call left behind.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import reconfcsp
from reconfcsp.hadamard import MAX_N
from reconfcsp.robustize import MICRO_MAX_N

PACKAGE = Path(reconfcsp.__file__).parent
TESTS = Path(__file__).parent

# (module, function, class or Class.method) that no code in the package names: what
# each is in the paper or to its users, and a test that calls it.
UNCALLED = {
    ("compose", "staged_sequence"): (
        "composition's completeness map: a satisfying sigma walk lifted through the twins",
        "test_staged_sequence_keeps_value_one"),
    ("compose", "restrict_to_blocks"): (
        "composition's back-map from a composed sequence to block assignments",
        "test_restriction_is_valid_sigma_sequence"),
    ("compose", "arity_reduce_sequence"): (
        "arity reduction's completeness map: a 4-ary walk lifted by the pair schedule",
        "test_arity_reduce_sequence_lifts_satisfying_paths"),
    ("core", "ConstraintGraph.edge_satisfied"): (
        "one constraint's verdict, read by the per-hyperedge soundness checks",
        "test_arity_reduction_soundness_along_adversarial_walks"),
    ("core", "ReconfigSequence.reversed"): (
        "reversibility of reconfiguration: a sequence read backwards keeps its value",
        "test_sequence_value_bounds_and_reversal"),
    ("core", "ReconfInstance.swapped"): (
        "the same symmetry on instances: maxmin is unchanged when the endpoints swap",
        "test_maxmin_swap_symmetry"),
    ("hadamard", "rel_distance"): (
        "relative distance, in which the paper states every decoding radius",
        "test_soundness_triangle_inequality_witnesses_at_n9"),
    ("hadamard", "min_partial_sum"): (
        "the minimum prefix sum of the paper's +-1 sequence lemma, the exhaustive count's oracle",
        "test_min_partial_sum_matches_prefix_oracle"),
    ("robustize", "eval_circuit"): (
        "the circuit definition by list decoding that `count_satisfied` sums",
        "test_eval_circuit_on_codeword_pairs"),
    ("robustize", "extract_psi_sequence"): (
        "robustization's soundness back-map, also run by the n9-completeness benchmark",
        "test_criterion_06_soundness_extraction"),
    ("robustize", "adversarial_block_sequence"): (
        "seeded bit-level walks for the soundness checks and the n9-completeness benchmark",
        "test_extract_valid_for_arbitrary_single_bit_walks"),
    ("robustize", "micro_distance_to_sat"): (
        "the exact distance to a circuit's satisfying set at n <= 3, the testers' oracle",
        "test_micro_distance_positive_example"),
    ("robustize", "four_phase_block_path"): (
        "the walk on which the weakened circuits fail (criterion 7)",
        "test_criterion_07_weakened_circuit_regression"),
    ("solver", "dfs_maxmin"): (
        "the independent exact cross-check of the solver, exported by the package",
        "test_criterion_11_solver_self_consistency"),
    ("solver", "random_adversarial_sequence"): (
        "seeded walks on which arity reduction's soundness is checked",
        "test_arity_reduction_soundness_along_adversarial_walks"),
}

# (module, function or module-level variable) pairs that may use floats, and why.
FLOAT_ALLOWED = {
    ("hadamard", "generate_codeword_path"): "the 2^n * 0.9^(2^(n-2)) failure-probability bound",
    ("hadamard", "partial_sum_experiment"): "the partial-sum tail bound 0.9^N",
    ("cli", "_cmd_hadamard_partial_sum"): "prints the hit frequency with %g",
    ("cli", "_THEORY_COMMENTS"): "prints the theoretical amplified gap with %g",
}

# (module, function) pairs cached without a size limit, and the constant that bounds the key.
UNBOUNDED_CACHES = {
    ("hadamard", "codeword_table"): MAX_N,
    ("hadamard", "codeword_words"): MAX_N,
    ("hadamard", "hadamard_signs"): MAX_N,
    ("robustize", "_side_profiles"): MICRO_MAX_N,
}

_FLOAT_DTYPES = {"float16", "float32", "float64", "float128", "floating", "double", "half",
                 "single", "longdouble", "float_"}
_FLOAT_DTYPE_CODE = r"[<>=|]?(f[248]|float(16|32|64)?|double)"


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _functions(tree):
    """(name, node) of every function, methods named Class.method, outermost first."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _uncalled(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of each top-level function and class, and each method other than a
    dunder, that nothing in `trees` names outside its own body.  A function or class
    counts as named by a bare name or an attribute, a method by an attribute alone."""

    def references(node):
        names, attrs = Counter(), Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                attrs[sub.attr] += 1
        return names, attrs

    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = references(tree)
        names, attrs = names + n, attrs + a
    found = set()
    for module, tree in trees.items():
        defined = [(node.name, node) for node in tree.body if isinstance(node, ast.ClassDef)]
        for name, node in defined + list(_functions(tree)):
            short = name.rpartition(".")[2]
            if short.startswith("__") and short.endswith("__"):
                continue
            own_names, own_attrs = references(node)
            outside = attrs[short] - own_attrs[short]
            if "." not in name:
                outside += names[short] - own_names[short]
            if not outside:
                found.add((module, name))
    return found


def _annotations(tree) -> set[int]:
    """ids of every node inside a type annotation, where `float` names a type only."""
    found = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            notes.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            notes.append(node.returns)
        for note in notes:
            found.update(id(n) for n in ast.walk(note))
    return found


def _is_float(node, annotations: set[int]) -> bool:
    """A float literal, the name `float` outside an annotation, or a float dtype."""
    if isinstance(node, ast.Constant):
        if type(node.value) in (float, complex):
            return True
        return isinstance(node.value, str) and re.fullmatch(_FLOAT_DTYPE_CODE, node.value) is not None
    if isinstance(node, ast.Name):
        return node.id == "float" and id(node) not in annotations
    return isinstance(node, ast.Attribute) and node.attr in _FLOAT_DTYPES


def _float_users(tree) -> set[str]:
    annotations = _annotations(tree)
    users = set()
    for name, func in _functions(tree):
        if any(_is_float(node, annotations) for node in ast.walk(func)):
            users.add(name)
    for stmt in tree.body:  # module-level statements, named by the variable they assign
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if any(_is_float(node, annotations) for node in ast.walk(stmt)):
            targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
            users.add(targets[0].id if isinstance(targets[0], ast.Name) else "<module>")
    return users


def _unbounded_caches(tree) -> set[str]:
    """Functions decorated with `cache` or `lru_cache(maxsize=None)`."""
    found = set()
    for name, func in _functions(tree):
        for deco in func.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            called = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if called == "cache":
                found.add(name)
            elif called == "lru_cache" and isinstance(deco, ast.Call):
                limits = [k.value for k in deco.keywords if k.arg == "maxsize"] + deco.args[:1]
                if any(isinstance(v, ast.Constant) and v.value is None for v in limits):
                    found.add(name)
    return found


def _global_statements(tree) -> list[tuple[int, tuple[str, ...]]]:
    """(line, names) of every `global` statement."""
    return [(node.lineno, tuple(node.names)) for node in ast.walk(tree)
            if isinstance(node, ast.Global)]


def test_every_definition_is_named_in_the_package_or_allowed():
    assert _uncalled(dict(_modules())) == set(UNCALLED)
    tests = {node.name for path in TESTS.glob("test_*.py")
             for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}
    assert {test for _, test in UNCALLED.values()} <= tests


def test_no_float_outside_the_allowed_reporting_functions():
    found = {(module, name) for module, tree in _modules() for name in _float_users(tree)}
    assert found == set(FLOAT_ALLOWED)


def test_every_unbounded_cache_is_keyed_below_an_imported_guard():
    found = {(module, name) for module, tree in _modules() for name in _unbounded_caches(tree)}
    assert found == set(UNBOUNDED_CACHES)
    assert all(type(guard) is int and guard > 0 for guard in UNBOUNDED_CACHES.values())


def test_no_global_statement_rebinds_module_state():
    found = {module: _global_statements(tree) for module, tree in _modules()}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_the_scans_see_what_they_look_for():
    probe = ast.parse(
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(n): return float(n)\n"
        "@functools.lru_cache(None)\n"
        "def b(n): return n * 0.5\n"
        "def c(n): return np.zeros(n, dtype=np.float64)\n"
        "def d(n): return np.zeros(n).astype('f8')\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def e(n: float) -> float:\n"
        "    x: float = n\n"
        "    return x\n"
        "LIMIT = 2.5\n"
        "class K:\n"
        "    @functools.cache\n"
        "    def f(self): return 1e3\n"
    )
    assert _float_users(probe) == {"a", "b", "c", "d", "LIMIT", "K.f"}
    assert _unbounded_caches(probe) == {"a", "b", "K.f"}
    probe = ast.parse(
        "def used(n): return n\n"
        "def unused(n): return unused(n - 1) if n else used(n)\n"
        "class K:\n"
        "    def __init__(self): self.steps = reversed(self.also_unused)\n"
        "    def reversed(self): return K()\n"
        "    def called(self): return self.called\n"
        "    def named(self): return 1\n"
        "def caller(): return K().named()\n"
    )
    assert _uncalled({"probe": probe}) == {("probe", "unused"), ("probe", "caller"),
                                           ("probe", "K.reversed"), ("probe", "K.called")}
    probe = ast.parse(
        "def f():\n"
        "    global LAST, SEEN\n"
        "    def g():\n"
        "        global LAST\n"
    )
    assert _global_statements(probe) == [(2, ("LAST", "SEEN")), (4, ("LAST",))]
