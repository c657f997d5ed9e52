import itertools
import json
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from reconfcsp import core
from reconfcsp.core import (
    AcceptSet,
    Assignment,
    ConstraintGraph,
    InstanceError,
    ReconfInstance,
    ReconfigSequence,
    Value,
    deserialize,
    sequence_value,
    serialize,
    validate_sequence,
    value,
)

from conftest import single_edge, triangle_equality


def test_value_single_edge_satisfied():
    inst = single_edge({(0, 0)}, 2, (0, 0), (0, 0))
    assert value(inst.graph, inst.psi_ini) == Value(1, 1)


def test_value_triangle_enumerated(triangle):
    psi = Assignment({"a": 0, "b": 0, "c": 1})
    # independent oracle: count the three edges directly
    expected = sum(
        1 for u, w in [("a", "b"), ("b", "c"), ("c", "a")] if psi.values[u] == psi.values[w]
    )
    assert expected == 1
    assert value(triangle.graph, psi) == Value(1, 3)


def test_value_vacuous_constraints():
    full = frozenset(itertools.product(range(3), repeat=2))
    graph = ConstraintGraph(2, ("x", "y"), (("x", "y"), ("y", "x")), 3, (full, full))
    psi = Assignment({"x": 2, "y": 1})
    assert value(graph, psi) == Value(2, 2) == 1


def test_value_errors(triangle):
    with pytest.raises(InstanceError, match="incomplete assignment"):
        value(triangle.graph, Assignment({"a": 0, "b": 0}))
    empty = ConstraintGraph(2, ("a", "b"), (), 2, ())
    with pytest.raises(InstanceError, match="no constraints"):
        value(empty, Assignment({"a": 0, "b": 0}))


def test_sequence_value_single_satisfying_step(triangle):
    seq = ReconfigSequence((triangle.psi_ini,))
    assert sequence_value(triangle.graph, seq) == 1


def test_sequence_value_triangle_flip_path(triangle):
    steps = [Assignment({"a": 0, "b": 0, "c": 0})]
    steps.append(steps[-1].with_value("a", 1))
    steps.append(steps[-1].with_value("b", 1))
    steps.append(steps[-1].with_value("c", 1))
    per_step = [value(triangle.graph, s) for s in steps]
    assert [v.satisfied for v in per_step] == [3, 1, 1, 3]
    assert sequence_value(triangle.graph, ReconfigSequence(tuple(steps))) == Value(1, 3)


def test_sequence_value_idempotent_repeat(triangle):
    psi = Assignment({"a": 0, "b": 1, "c": 0})
    seq = ReconfigSequence((psi, psi))
    assert sequence_value(triangle.graph, seq) == value(triangle.graph, psi)


def test_sequence_value_rejects_double_move(triangle):
    seq = ReconfigSequence(
        (Assignment({"a": 0, "b": 0, "c": 0}), Assignment({"a": 1, "b": 1, "c": 0}))
    )
    with pytest.raises(InstanceError, match="steps 0 and 1"):
        sequence_value(triangle.graph, seq)


def test_validate_sequence():
    a = Assignment({"x": 0, "y": 0})
    b = Assignment({"x": 0, "y": 1})
    c = Assignment({"x": 1, "y": 1})
    assert validate_sequence(ReconfigSequence((a, b, c))) == []
    assert validate_sequence(ReconfigSequence((a, c))) == [0]
    assert validate_sequence(ReconfigSequence((a,))) == []


def test_value_comparisons_are_exact():
    assert Value(1, 3) == Value(2, 6)
    assert Value(1, 3) < Value(1, 2)
    big = 8000**4
    assert Value(big - 1, big) < Value(1, 1)
    assert Value(big - 1, big) >= Fraction(big - 1, big)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_serialize_round_trip(triangle):
    assert deserialize(serialize(triangle)) == triangle


def test_serialize_round_trip_with_overrides():
    graph = ConstraintGraph(
        2,
        ("x", "y"),
        (("y", "x"),),
        2,
        (frozenset({(3, 1), (0, 0)}),),
        vertex_alphabets={"y": 5},
    )
    inst = ReconfInstance(graph, Assignment({"x": 1, "y": 4}), Assignment({"x": 0, "y": 0}))
    assert deserialize(serialize(inst)) == inst


def _serialize_oracle(instance: ReconfInstance) -> str:
    """The instance writer as it was: one object, written whole by `json.dumps`."""
    graph = instance.graph
    vertices = []
    for v in graph.vertices:
        if v in graph.vertex_alphabets:
            vertices.append({"name": v, "alphabet": graph.vertex_alphabets[v]})
        else:
            vertices.append(v)
    obj = {
        "arity": graph.q,
        "alphabet": graph.alphabet,
        "vertices": vertices,
        "edges": [
            {"vertices": list(edge), "accept": [list(t) for t in acc]}
            for edge, acc in zip(graph.edges, graph.accepts)
        ],
    }
    obj["psi_ini"] = {v: instance.psi_ini.values[v] for v in graph.vertices}
    obj["psi_tar"] = {v: instance.psi_tar.values[v] for v in graph.vertices}
    return json.dumps(obj, indent=2) + "\n"


_NAMES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"accept": []', '"accept": [', "accept", '"', "\\", "\n", "é"]),
)


@st.composite
def writer_instances(draw):
    """Instances over q = 1, 2, 4 with symbols of 1 to 5 digits, odd names and overrides."""
    q = draw(st.sampled_from([1, 2, 4]))
    # four 5-digit coordinates would overflow int64 codes, so q = 4 stops at 4 digits
    size = st.one_of(st.integers(1, 3), st.integers(1, 9999 if q == 4 else 99999))
    names = draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True))
    alphabet = draw(size)
    overrides = draw(st.dictionaries(st.sampled_from(names), size, max_size=len(names)))
    sizes = {v: overrides.get(v, alphabet) for v in names}
    edges, accepts = [], []
    for _ in range(draw(st.integers(0, 4))):
        edge = tuple(draw(st.sampled_from(names)) for _ in range(q))
        row = st.tuples(*(st.integers(0, sizes[v] - 1) for v in edge))
        # an earlier edge's set object over the same alphabets, or a set of its own
        alphabets = [sizes[v] for v in edge]
        alike = [acc for e, acc in zip(edges, accepts) if [sizes[v] for v in e] == alphabets]
        edges.append(edge)
        if alike and draw(st.booleans()):
            accepts.append(draw(st.sampled_from(alike)))
        else:
            accepts.append(draw(st.sets(row, max_size=8)))
    graph = ConstraintGraph(q, tuple(names), tuple(edges), alphabet, tuple(accepts), overrides)

    def psi():
        return Assignment({v: draw(st.integers(0, sizes[v] - 1)) for v in names})

    return ReconfInstance(graph, psi(), psi())


_MANY_SMALL = ReconfInstance(
    ConstraintGraph(2, ("a", "b"), (("a", "b"), ("b", "a")), 3,
                    (frozenset(itertools.product(range(3), repeat=2)), frozenset())),
    Assignment({"a": 0, "b": 2}),
    Assignment({"a": 1, "b": 1}),
)


@settings(max_examples=200)
@given(writer_instances())
@example(_MANY_SMALL)  # symbols below the entry count: the table is marked, not sorted
def test_serialize_matches_json_dumps(inst):
    text = serialize(inst)
    assert text == _serialize_oracle(inst)
    assert deserialize(text) == inst


@settings(max_examples=200)
@given(writer_instances(), st.data())
def test_value_and_in_count_as_a_set_of_tuples_does(inst, data):
    """`value` and `in` against membership in `set(acc)`, as `dfs_maxmin` counts,
    over mixed and unit alphabets, repeated vertices and empty accept sets."""
    graph = inst.graph
    assume(graph.edges)
    accepted = [set(acc) for acc in graph.accepts]
    for psi in (inst.psi_ini, inst.psi_tar):
        hit = sum(tuple(psi.values[v] for v in e) in acc for e, acc in zip(graph.edges, accepted))
        got = value(graph, psi)
        assert (got.satisfied, got.total) == (hit, len(graph.edges))
    for acc, tuples in zip(graph.accepts, accepted):
        probe = data.draw(st.tuples(*(st.integers(-1, size) for size in acc.sizes)))
        assert (probe in acc) == (probe in tuples)
        for tup in tuples:
            assert tup in acc


def test_serialize_huge_alphabet_builds_no_symbol_table():
    big = 1 << 40
    graph = ConstraintGraph(
        2, ("x", "y"), (("x", "y"), ("y", "x")), big,
        (frozenset({(0, 1), (12345678901, 2), (big - 1, 3)}), frozenset({(3, big - 1)})),
        vertex_alphabets={"y": 4},
    )
    inst = ReconfInstance(graph, Assignment({"x": big - 1, "y": 3}), Assignment({"x": 0, "y": 0}))
    tracemalloc.start()
    try:
        text = serialize(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _serialize_oracle(inst)
    assert peak < 1 << 20


def test_deserialize_missing_endpoint(triangle):
    import json

    obj = json.loads(serialize(triangle))
    del obj["psi_tar"]
    with pytest.raises(InstanceError, match="missing endpoint"):
        deserialize(json.dumps(obj))


def test_deserialize_arity_mismatch(triangle):
    import json

    obj = json.loads(serialize(triangle))
    obj["edges"][0]["accept"] = [[0, 0, 0]]
    with pytest.raises(InstanceError, match="arity mismatch"):
        deserialize(json.dumps(obj))


def test_deserialize_out_of_range_symbol(triangle):
    import json

    obj = json.loads(serialize(triangle))
    obj["edges"][1]["accept"] = [[0, 7]]
    with pytest.raises(InstanceError, match="out of range"):
        deserialize(json.dumps(obj))


def test_deserialize_unknown_vertex(triangle):
    import json

    obj = json.loads(serialize(triangle))
    obj["edges"][0]["vertices"] = ["a", "zzz"]
    with pytest.raises(InstanceError, match="unknown vertex"):
        deserialize(json.dumps(obj))


def test_check_total_names_an_assigned_vertex_the_graph_lacks(triangle):
    psi = Assignment({**triangle.psi_ini.values, "zz": 0})
    with pytest.raises(InstanceError, match="^psi: unknown vertex id 'zz'$"):
        core.check_total(triangle.graph, psi, where="psi")
    with pytest.raises(InstanceError, match="^assignment: unknown vertex id 'zz'$"):
        value(triangle.graph, psi)


# ---------------------------------------------------------------------------
# The reader's fast path for the layout `serialize` writes
# ---------------------------------------------------------------------------

_SYMBOL = re.compile(r"\n {10}(\d+)")

# Replacements for one written symbol; "{}" is the symbol's digits.
_SYMBOL_EDITS = ["0{}", "-{}", "{}.0", "{}e0", "true", "null", '"{}"', "", "{} 1", "[{}]",
                 "9" * 18, "1" * 19, "9" * 19, "9" * 25]


@st.composite
def reader_documents(draw):
    """Instance text that one reader or the other may take: written, re-dumped or edited."""
    inst = draw(writer_instances())
    text = serialize(inst)
    obj = json.loads(text)
    q, edges = obj["arity"], obj["edges"]
    full = [edge for edge in edges if edge["accept"]]
    assume(full)  # a document without a written accept list never takes the fast path
    kind = draw(st.sampled_from([
        "written", "dumped", "symbol", "row length", "key order", "vertex key",
        "top-level key", "cut marker", "duplicate key", "text edit", "moved symbol",
        "truncated", "repeated list",
    ]))
    if kind == "written":
        return text
    if kind == "dumped":
        indent = draw(st.sampled_from([None, 0, 1, 2, 4, "\t"]))
        return json.dumps(obj, indent=indent, ensure_ascii=draw(st.booleans()))
    if kind == "duplicate key":
        first = re.search(r'\n      "accept": \[\n.*?\n      \]', text, re.S)
        return text[: first.end()] + "," + first.group(0) + text[first.end() :]
    if kind == "text edit":
        symbol = draw(st.sampled_from(list(_SYMBOL.finditer(text))))
        edit = draw(st.sampled_from(_SYMBOL_EDITS)).format(symbol.group(1))
        return text[: symbol.start(1)] + edit + text[symbol.end(1) :]
    if kind == "moved symbol":  # from its line to just after the row's "]"
        symbol = draw(st.sampled_from(list(_SYMBOL.finditer(text))))
        text = text[: symbol.start(1)] + text[symbol.end(1) :]
        at = text.index("]", symbol.start(1)) + 1
        return text[:at] + symbol.group(1) + text[at:]
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text)))]
    if kind == "symbol":
        row = draw(st.sampled_from(draw(st.sampled_from(full))["accept"]))
        row[draw(st.integers(0, q - 1))] = draw(st.sampled_from(
            [True, False, 1.5, -1, 2**63, 2**64, 10**18, 10**18 - 1, None, "0", [0]]
        ))
    elif kind == "row length":
        row = draw(st.sampled_from(draw(st.sampled_from(full))["accept"]))
        if draw(st.booleans()):
            row.append(0)
        else:
            row.pop()
    elif kind == "key order":
        i = draw(st.integers(0, len(edges) - 1))
        if draw(st.booleans()):
            edges[i] = {"accept": edges[i]["accept"], "vertices": edges[i]["vertices"]}
        edges[i]["note"] = draw(st.sampled_from(['"accept": [', "}", [[1] * q], 7]))
    elif kind == "vertex key":
        i = draw(st.integers(0, len(obj["vertices"]) - 1))
        entry = obj["vertices"][i]
        entry = dict(entry) if type(entry) is dict else {"name": entry}
        obj["vertices"][i] = {**entry, "accept": [[0] * q]}
    elif kind == "top-level key":
        obj["notes"] = [{"accept": [[1] * q]}, {"name": '"accept": ['}]
    elif kind == "cut marker":
        edges[draw(st.integers(0, len(edges) - 1))]["accept"] = "\0"
    elif kind == "repeated list":  # onto another edge or a new one, over any alphabets
        copy = json.loads(json.dumps(draw(st.sampled_from(full))["accept"]))
        j = draw(st.integers(0, len(edges)))
        if j == len(edges):
            names = [v if type(v) is str else v["name"] for v in obj["vertices"]]
            edges.append({"vertices": [draw(st.sampled_from(names)) for _ in range(q)]})
        edges[j]["accept"] = copy
    return json.dumps(obj, indent=2)


def _read(text: str):
    try:
        return deserialize(text)
    except InstanceError as exc:
        return f"InstanceError: {exc}"


def _repeated_out_of_range() -> str:
    """One written list twice, the second time under a vertex whose alphabet it overflows."""
    psi = Assignment({"a": 0, "b": 3, "c": 1})
    graph = ConstraintGraph(2, ("a", "b", "c"), (("a", "b"), ("a", "c")), 4,
                            ({(0, 3), (1, 2)}, {(0, 1)}), {"c": 2})
    obj = json.loads(serialize(ReconfInstance(graph, psi, psi)))
    obj["edges"][1]["accept"] = obj["edges"][0]["accept"]
    return json.dumps(obj, indent=2) + "\n"


def test_repeated_list_is_range_checked_per_edge():
    text = _repeated_out_of_range()
    assert core._written_layout(text.encode()) is not None
    with pytest.raises(InstanceError, match=r"edges\[1\]\.accept\[0\]: symbol 3 out of range "
                       r"for vertex 'c' \(alphabet 2\)"):
        deserialize(text)


@settings(deadline=None)  # max_examples comes from the Hypothesis profile
@given(reader_documents())
@example(_repeated_out_of_range())
def test_fast_and_slow_readers_agree(text):
    data = text.encode()
    event("fast path" if core._written_layout(data) is not None else "slow path")
    with mock.patch.object(core, "_written_layout", lambda data: None):
        slow = _read(text)
        assert _read(data) == slow
    assert _read(text) == _read(data) == slow


def test_written_pipeline_instances_take_the_fast_path():
    from reconfcsp.compose import arity_reduce, compose_system
    from reconfcsp.robustize import robustize

    composed = compose_system(robustize(single_edge({(0, 1), (1, 1)}, 4, (0, 1), (1, 1))))
    binary = arity_reduce(composed.instance).instance
    with mock.patch.object(core, "_tuple_rows", side_effect=AssertionError("slow path")):
        for inst in (composed.instance, binary):
            text = serialize(inst)
            back = deserialize(text)
            assert back == inst and serialize(back) == text
    # equal lists are read once: one AcceptSet object per distinct written list
    lists = {json.dumps(edge["accept"]) for edge in json.loads(text)["edges"]}
    assert len(lists) < len(back.graph.edges)
    assert len({id(acc) for acc in back.graph.accepts}) == len(lists)


def test_graph_packs_one_object_once_per_alphabets():
    rows = np.array([[0, 1], [1, 3]])
    edges = (("a", "b"), ("b", "a"), ("a", "b"), ("a", "c"))
    graph = ConstraintGraph(2, ("a", "b", "c"), edges, 4, (rows,) * 4, {"c": 5})
    shared, _, again, own = graph.accepts
    assert shared is again and shared is not own
    assert list(shared) == list(own) == [(0, 1), (1, 3)] and own.sizes == (4, 5)
    with pytest.raises(InstanceError, match=r"^edges\[3\]\.accept\[1\]: symbol 3 out of range "
                       r"for vertex 'c' \(alphabet 3\)$"):
        ConstraintGraph(2, ("a", "b", "c"), edges, 4, (rows,) * 4, {"c": 3})


def test_serialize_shared_set_writes_as_equal_copies():
    edges = (("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"))
    tuples, empty = {(0, 1), (2, 3), (1, 1)}, set()
    psi = Assignment({"a": 0, "b": 1})

    def instance(accepts):
        return ReconfInstance(ConstraintGraph(2, ("a", "b"), edges, 4, accepts), psi, psi)

    full, none = AcceptSet(tuples, (4, 4)), AcceptSet(empty, (4, 4))
    shared = instance((full, none, full, none))
    copies = instance(tuple(AcceptSet(t, (4, 4)) for t in (tuples, empty, tuples, empty)))
    assert len({id(acc) for acc in shared.graph.accepts}) == 2
    assert len({id(acc) for acc in copies.graph.accepts}) == 4
    assert serialize(shared) == serialize(copies) == _serialize_oracle(copies)


# ---------------------------------------------------------------------------
# Packed accept sets
# ---------------------------------------------------------------------------

PAIRS = [(0, 1), (2, 3), (1, 1), (3, 0)]


def test_accept_set_tuple_and_code_built_agree():
    # big-endian codes over (4, 4): (a, b) -> 4a + b
    from_codes = AcceptSet.from_codes(np.array([1, 5, 11, 12]), (4, 4))
    from_rows = AcceptSet(np.array(PAIRS[::-1] + PAIRS), (4, 4))
    tuple_inputs = {
        "set": set(PAIRS),
        "generator": (pair for pair in PAIRS),
        "list of lists": [list(pair) for pair in PAIRS],
        "numpy symbols": [tuple(map(np.int16, pair)) for pair in PAIRS],
        "duplicates": PAIRS + PAIRS[::-1],
    }
    for kind, tuples in tuple_inputs.items():
        from_tuples = AcceptSet(tuples, (4, 4))
        assert from_tuples == from_codes == from_rows, kind
        assert list(from_tuples) == list(from_codes) == sorted(PAIRS), kind
        assert np.array_equal(from_tuples.codes, from_codes.codes), kind
        assert from_tuples.codes.dtype == np.int64, kind
        assert len(from_tuples) == len(from_codes) == len(from_rows) == len(PAIRS), kind
        for a, b in itertools.product(range(5), repeat=2):
            assert ((a, b) in from_tuples) == ((a, b) in from_codes) == ((a, b) in PAIRS), kind
        assert (0, 1, 0) not in from_codes and (-1, 1) not in from_tuples, kind
    empty = AcceptSet([], (4, 4))
    assert empty == AcceptSet.from_codes(np.array([], dtype=np.int64), (4, 4))
    assert empty == AcceptSet([], (2, 3))
    assert list(empty) == [] and len(empty) == 0 and (0, 0) not in empty
    assert empty.codes.dtype == np.int64 and empty.codes.shape == (0,)
    # the same tuples over other alphabets are the same set; other tuples are not
    for sizes in ((5, 8), (4, 1 << 20), (1 << 31, 4)):
        over = AcceptSet(np.array(PAIRS), sizes)
        assert AcceptSet(set(PAIRS), (4, 4)) == over == AcceptSet(PAIRS, sizes)
        assert list(over) == sorted(PAIRS)
        assert AcceptSet(PAIRS[1:], (4, 4)) != over != AcceptSet([(0, 2), *PAIRS[1:]], (4, 4))


@pytest.mark.parametrize("tuples, message", [
    ([(1.0, 2)], "accept[0]: symbol 1.0 is not an integer"),
    ([(0, "a")], "accept[0]: symbol 'a' is not an integer"),
    ([(0, 1), None], "accept[1]: expected a tuple of symbols, got None"),
    ([(0, 1), (2,)], "accept[1]: arity mismatch"),
    ([(0, 1, 2)], "accept[0]: arity mismatch"),
    ([(1 << 63, 0)],
     "accept[0]: symbol 9223372036854775808 out of range for coordinate 0 (alphabet 4)"),
    ([(0, -1)], "accept[0]: symbol -1 out of range for coordinate 1 (alphabet 4)"),
], ids=["float", "string", "none-row", "ragged", "three-tuple", "beyond-int64", "negative"])
def test_accept_set_from_tuples_rejects(tuples, message):
    with pytest.raises(InstanceError) as caught:
        AcceptSet(tuples, (4, 4))
    assert str(caught.value) == message


def test_accept_set_refuses_bool_symbols_in_python_tuples():
    for tuples in ([(True, 0)], [(0, 1), (1, np.True_)], {(0, False)}):
        with pytest.raises(InstanceError, match=r"^accept\[\d\]: symbol (np\.)?(True|False)_? is "
                                                "not an integer$"):
            AcceptSet(tuples, (4, 4))
    assert list(AcceptSet([(np.int8(1), 0), (2, np.uint64(3))], (4, 4))) == [(1, 0), (2, 3)]


def test_accept_set_counts_a_list_as_given_and_a_set_sorted():
    tuples = [(2, 0), (3, 9), (0, 7), (1, 1)]
    out_of_range = "symbol {} out of range for coordinate 1 (alphabet 4)"
    for given, message in (
        (tuples, "accept[1]: " + out_of_range.format(9)),
        (set(tuples), "accept[0]: " + out_of_range.format(7)),
        (frozenset(tuples), "accept[0]: " + out_of_range.format(7)),
        (iter(tuples[::-1]), "accept[1]: " + out_of_range.format(7)),
        (np.array(tuples), "accept[1]: " + out_of_range.format(9)),
        ([(2, 0), "ab", (0, 7)], "accept[1]: expected a tuple of symbols, got 'ab'"),
        ({(2, 0), (0, 1, 2), (1,)}, "accept[0]: arity mismatch"),
    ):
        with pytest.raises(InstanceError) as caught:
            AcceptSet(given, (4, 4))
        assert str(caught.value) == message


@pytest.mark.parametrize("codes, sizes, match", [
    (np.array([5, 1]), (4, 4), "strictly increasing"),
    (np.array([1, 1]), (4, 4), "strictly increasing"),
    (np.array([-1, 3]), (4, 4), "outside"),
    (np.array([3, 16]), (4, 4), "outside"),
    (np.array([1.0, 2.0]), (4, 4), "integers"),
    (np.array([[1, 2]]), (4, 4), "1-D"),
    (np.array([1]), (1 << 16,) * 4, "does not fit in int64"),
], ids=["unsorted", "duplicate", "negative", "beyond-space", "float", "2-d", "int64-overflow"])
def test_accept_set_from_codes_rejects(codes, sizes, match):
    with pytest.raises(InstanceError, match=match):
        AcceptSet.from_codes(codes, sizes)


def test_accept_set_codes_are_read_only():
    for acc in (AcceptSet(PAIRS, (4, 4)), AcceptSet.from_codes([1, 5], (4, 4))):
        with pytest.raises(ValueError):
            acc.codes[0] = 2


@st.composite
def distinct_hyperedges(draw):
    """A one-hyperedge graph over distinct vertices with per-vertex alphabets."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    names = draw(st.permutations([f"v{i}" for i in range(len(sizes))]))
    space = list(itertools.product(*map(range, sizes)))
    tuples = draw(st.sets(st.sampled_from(space), max_size=len(space)))
    return ConstraintGraph(len(sizes), tuple(sorted(names)), (tuple(names),), 2,
                           (frozenset(tuples),), vertex_alphabets=dict(zip(names, sizes)))


@given(distinct_hyperedges())
def test_accept_set_from_table_inverts_vertex_table(graph):
    distinct, table = graph.vertex_table(0)
    assert distinct == graph.edges[0]
    acc = AcceptSet.from_table(table)
    assert acc.sizes == graph.accepts[0].sizes
    assert np.array_equal(acc.codes, graph.accepts[0].codes)
    assert list(acc) == sorted(zip(*np.nonzero(table)))
    rebuilt = ConstraintGraph(graph.q, graph.vertices, graph.edges, 2, (acc,),
                              vertex_alphabets=graph.vertex_alphabets)
    assert rebuilt.accepts[0] is acc
    assert np.array_equal(rebuilt.vertex_table(0)[1], table)


def test_graph_rebuilt_from_accepts_is_equal(triangle):
    graph = triangle.graph
    rebuilt = ConstraintGraph(graph.q, graph.vertices, graph.edges, graph.alphabet, graph.accepts)
    assert rebuilt == graph
    assert all(a is b for a, b in zip(rebuilt.accepts, graph.accepts))


def test_accept_set_lifted_to_a_larger_alphabet_keeps_its_tuples():
    small = single_edge({(2, 3)}, 4, (2, 3), (2, 3)).graph
    assert list(small.accepts[0].codes) == [11]  # read over alphabet 512, 11 is (0, 11)
    lifted = ConstraintGraph(2, small.vertices, small.edges, 512, small.accepts)
    assert list(lifted.accepts[0]) == [(2, 3)]
    assert (2, 3) in lifted.accepts[0] and (0, 11) not in lifted.accepts[0]
    assert list(lifted.accepts[0].codes) == [2 * 512 + 3]


def test_accept_set_shrunk_below_a_used_symbol_raises():
    graph = single_edge({(0, 0), (2, 3)}, 4, (0, 0), (0, 0)).graph
    with pytest.raises(InstanceError, match=r"edges\[0\]\.accept\[1\]: symbol 3 out of range"):
        ConstraintGraph(2, graph.vertices, graph.edges, 3, graph.accepts)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@st.composite
def small_instances(draw):
    n_vertices = draw(st.integers(2, 4))
    alphabet = draw(st.integers(2, 3))
    names = tuple(f"v{i}" for i in range(n_vertices))
    n_edges = draw(st.integers(1, 4))
    edges = []
    accepts = []
    for _ in range(n_edges):
        edge = tuple(draw(st.sampled_from(names)) for _ in range(2))
        edges.append(edge)
        tuples = draw(
            st.sets(
                st.tuples(st.integers(0, alphabet - 1), st.integers(0, alphabet - 1)),
                min_size=0,
                max_size=4,
            )
        )
        accepts.append(frozenset(tuples))
    graph = ConstraintGraph(2, names, tuple(edges), alphabet, tuple(accepts))
    psi = Assignment({v: draw(st.integers(0, alphabet - 1)) for v in names})
    return graph, psi


@st.composite
def random_walks(draw):
    graph, psi = draw(small_instances())
    steps = [psi]
    for _ in range(draw(st.integers(0, 5))):
        v = draw(st.sampled_from(graph.vertices))
        s = draw(st.integers(0, graph.alphabet - 1))
        steps.append(steps[-1].with_value(v, s))
    return graph, ReconfigSequence(tuple(steps))


@given(small_instances(), st.randoms(use_true_random=False))
def test_value_invariant_under_relabeling(data, rng):
    graph, psi = data
    order = list(range(len(graph.edges)))
    rng.shuffle(order)
    renames = {v: f"w{i}" for i, v in enumerate(graph.vertices)}
    shuffled = ConstraintGraph(
        2,
        tuple(renames[v] for v in graph.vertices),
        tuple(tuple(renames[u] for u in graph.edges[i]) for i in order),
        graph.alphabet,
        tuple(graph.accepts[i] for i in order),
    )
    relabeled_psi = Assignment({renames[v]: s for v, s in psi.values.items()})
    assert value(graph, psi) == value(shuffled, relabeled_psi)


@given(random_walks())
def test_sequence_value_bounds_and_reversal(data):
    graph, seq = data
    v = sequence_value(graph, seq)
    first = value(graph, seq.steps[0])
    last = value(graph, seq.steps[-1])
    assert 0 <= v.fraction <= min(first.fraction, last.fraction)
    assert sequence_value(graph, seq.reversed()) == v


@st.composite
def two_walks(draw):
    graph, seq_a = draw(random_walks())
    steps = [seq_a.steps[-1]]
    for _ in range(draw(st.integers(0, 5))):
        v = draw(st.sampled_from(graph.vertices))
        s = draw(st.integers(0, graph.alphabet - 1))
        steps.append(steps[-1].with_value(v, s))
    return graph, seq_a, ReconfigSequence(tuple(steps))


@given(two_walks())
def test_concatenation_takes_min(data):
    graph, seq_a, seq_b = data
    assert seq_a.steps[-1] == seq_b.steps[0]
    joined = ReconfigSequence(seq_a.steps + seq_b.steps[1:])
    expected = min(
        sequence_value(graph, seq_a).fraction, sequence_value(graph, seq_b).fraction
    )
    assert sequence_value(graph, joined).fraction == expected


@given(small_instances())
def test_serialize_round_trip_random(data):
    graph, psi = data
    inst = ReconfInstance(graph, psi, psi)
    assert deserialize(serialize(inst)) == inst
