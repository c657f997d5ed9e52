import dataclasses
import itertools
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconfcsp.compose import (
    arity_reduce,
    arity_reduce_sequence,
    compose_system,
    full_pipeline,
    pad_edge_groups,
    reference_tester,
    restrict_to_blocks,
    staged_sequence,
    superimpose,
)
from reconfcsp.core import (
    AcceptSet,
    Assignment,
    ConstraintGraph,
    InstanceError,
    ReconfInstance,
    ReconfigSequence,
    deserialize,
    sequence_value,
    serialize,
    validate_sequence,
    value,
)
from reconfcsp.hadamard import had_encode
from reconfcsp.robustize import circuit_bits, materialize_micro_csp, robustize, single_bit_change
from reconfcsp import compose, solver

from conftest import single_edge


# ---------------------------------------------------------------------------
# Reference tester
# ---------------------------------------------------------------------------


def _tester(sat, m=4, y="y"):
    return reference_tester(sat, [f"x{i}" for i in range(m)], y)


def _tester_assignment(tester, sigma_bits: int, y_value: int) -> Assignment:
    values = {x: (sigma_bits >> i) & 1 for i, x in enumerate(tester.x_vars)}
    values[tester.y_vars[0]] = y_value
    return Assignment(values)


def test_reference_tester_completeness():
    sat = [0b0000, 0b1111, 0b0110]
    tester = _tester(sat)
    assert len(tester.graph.edges) == 4
    for s in sat:
        tau = tester.witness(s)
        psi = _tester_assignment(tester, s, tau["y"])
        assert value(tester.graph, psi) == 1


def test_reference_tester_soundness_exhaustive_m4():
    sat = [0b0000, 0b1111]
    tester = _tester(sat)
    m = 4
    for sigma in range(16):
        distance = min(bin(sigma ^ s).count("1") for s in sat)
        for y_value in range(len(sat)):
            psi = _tester_assignment(tester, sigma, y_value)
            violated = m - value(tester.graph, psi).satisfied
            assert violated >= distance
            # exact count: violated edges = Hamming distance to the named row
            assert violated == bin(sigma ^ sat[y_value]).count("1")


def test_reference_tester_errors():
    with pytest.raises(InstanceError, match="unsatisfiable circuit"):
        _tester([])
    with pytest.raises(InstanceError, match="16 input bits"):
        reference_tester([0], [f"x{i}" for i in range(17)], "y")


# ---------------------------------------------------------------------------
# Superimposition
# ---------------------------------------------------------------------------


def _twins(sat, m=3):
    x = [f"x{i}" for i in range(m)]
    return reference_tester(sat, x, "y1"), reference_tester(sat, x, "y2")


def test_superimpose_counts_and_violation_rule():
    t1, t2 = _twins([0b000, 0b111], m=3)
    sup = superimpose(t1, t2)
    assert len(sup.graph.edges) == len(t1.graph.edges) * len(t2.graph.edges) == 9
    # a hyperedge is violated iff both constituent edges are violated
    for sigma in range(8):
        for y1 in range(2):
            for y2 in range(2):
                values = {x: (sigma >> i) & 1 for i, x in enumerate(t1.x_vars)}
                values["y1"], values["y2"] = y1, y2
                psi = Assignment(values)
                psi1 = _tester_assignment(t1, sigma, y1)
                psi2 = _tester_assignment(t2, sigma, y2)
                for h, (i1, i2) in enumerate(sup.hyperedge_pairs):
                    sat1 = t1.graph.edge_satisfied(i1, psi1)
                    sat2 = t2.graph.edge_satisfied(i2, psi2)
                    assert sup.graph.edge_satisfied(h, psi) == (sat1 or sat2)


def test_superimpose_rectangularity_exhaustive():
    t1, t2 = _twins([0b010, 0b101], m=3)
    sup = superimpose(t1, t2)
    total = Fraction(len(sup.graph.edges))
    for sigma in range(8):
        for y1 in range(2):
            for y2 in range(2):
                values = {x: (sigma >> i) & 1 for i, x in enumerate(t1.x_vars)}
                values["y1"], values["y2"] = y1, y2
                violated = 1 - value(sup.graph, Assignment(values)).fraction
                v1 = 1 - value(t1.graph, _tester_assignment(t1, sigma, y1)).fraction
                v2 = 1 - value(t2.graph, _tester_assignment(t2, sigma, y2)).fraction
                assert violated == v1 * v2


def test_superimpose_input_validation():
    t1, _ = _twins([0b000], m=3)
    other = reference_tester([0b00], ["a0", "a1"], "y2")
    with pytest.raises(InstanceError, match="share the same input"):
        superimpose(t1, other)
    t1b = reference_tester([0b000], t1.x_vars, "y1")
    with pytest.raises(InstanceError, match="disjoint"):
        superimpose(t1, t1b)
    t2 = reference_tester([0b000], t1.x_vars, "y2")
    g = t2.graph
    looped = ConstraintGraph(2, g.vertices, (("y2", "y2"),), 2, ({(0, 0)},), g.vertex_alphabets)
    with pytest.raises(InstanceError, match="two distinct vertices"):
        superimpose(t1, dataclasses.replace(t2, graph=looped))


@st.composite
def twin_pairs(draw):
    """Two testers over the same inputs, the second possibly with extra input-to-input edges."""
    m = draw(st.integers(1, 4))
    x = [f"x{i}" for i in range(m)]
    sats = st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=5)
    t1, t2 = reference_tester(draw(sats), x, "y1"), reference_tester(draw(sats), x, "y2")
    if m > 1 and draw(st.booleans()):  # tables of two shapes in one twin
        g = t2.graph
        pairs = st.sets(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=4)
        extra = draw(st.lists(st.tuples(st.sampled_from(x[:1]), pairs), min_size=1, max_size=3))
        graph = ConstraintGraph(
            2, g.vertices, g.edges + tuple((v, x[1]) for v, _ in extra), 2,
            g.accepts + tuple(frozenset(acc) for _, acc in extra), g.vertex_alphabets,
        )
        t2 = dataclasses.replace(t2, graph=graph)
    return t1, t2


@settings(max_examples=60, deadline=None)
@given(twin_pairs())
def test_superimpose_is_the_or_of_each_pair_of_twin_tables(twins):
    t1, t2 = twins
    sup = superimpose(t1, t2)
    pairs = list(itertools.product(range(len(t1.graph.edges)), range(len(t2.graph.edges))))
    assert list(sup.hyperedge_pairs) == pairs
    first_holder = {}
    for h, (i1, i2) in enumerate(pairs):
        e1, e2 = t1.graph.edges[i1], t2.graph.edges[i2]
        table = t1.graph.vertex_table(i1)[1][:, :, None, None] | t2.graph.vertex_table(i2)[1]
        acc = sup.graph.accepts[h]
        assert sup.graph.edges[h] == e1 + e2
        assert acc == AcceptSet.from_table(table) and acc.sizes == table.shape
        # hyperedges with equal tables hold one object, and no others share it
        holder = first_holder.setdefault((table.shape, table.tobytes()), acc)
        assert acc is holder
    assert len({id(acc) for acc in sup.graph.accepts}) == len(first_holder)


def test_pad_edge_groups_round_robin():
    groups = [["a", "b", "c"], ["d"], ["e", "f"]]
    padded = pad_edge_groups(groups)
    assert [len(g) for g in padded] == [3, 3, 3]
    assert padded[1] == ["d", "d", "d"]
    assert padded[2] == ["e", "f", "e"]
    with pytest.raises(InstanceError, match="empty hyperedge group"):
        pad_edge_groups([["a"], []])


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def test_compose_endpoints_satisfy_and_counts():
    inst = single_edge({(0, 0), (1, 1)}, 4, (0, 0), (1, 1))
    system = robustize(inst)
    composed = compose_system(system)
    graph = composed.instance.graph
    m = 2 * (1 << system.n)
    assert len(graph.edges) == len(system.circuits) * m * m
    assert value(graph, composed.instance.psi_ini) == 1
    assert value(graph, composed.instance.psi_tar) == 1
    # twins hold the same witness value at the endpoints
    e = composed.edges[0]
    assert composed.instance.psi_ini.values[e.y1] == composed.instance.psi_ini.values[e.y2]


def test_compose_rejects_large_n():
    inst = single_edge({(0, 0)}, 512, (0, 0), (0, 0))
    system = robustize(inst)
    with pytest.raises(InstanceError, match="n <= 3"):
        compose_system(system)


def _wiggle_sigma_seq(system):
    """A satisfying single-bit sigma walk: flip a benign bit and return."""
    s0 = system.sigma_ini
    s1 = s0.flip("u", 0)
    return [s0, s1, s0]


def test_staged_sequence_keeps_value_one():
    inst = single_edge({(0, 0)}, 4, (0, 0), (0, 0))
    system = robustize(inst)
    composed = compose_system(system)
    sigma_seq = _wiggle_sigma_seq(system)
    lifted = staged_sequence(composed, sigma_seq)
    assert validate_sequence(lifted) == []
    assert sequence_value(composed.instance.graph, lifted) == 1
    assert lifted.steps[0] == composed.instance.psi_ini


def test_staged_sequence_rejects_nonsatisfying_steps():
    inst = single_edge({(0, 0)}, 4, (0, 0), (0, 0))
    system = robustize(inst)
    composed = compose_system(system)
    bad = [system.sigma_ini, system.sigma_ini.with_block("u", had_encode(3, 2))]
    with pytest.raises(InstanceError, match="more than one bit|does not satisfy"):
        staged_sequence(composed, bad)


def test_restriction_is_valid_sigma_sequence():
    inst = single_edge({(0, 0)}, 4, (0, 0), (0, 0))
    system = robustize(inst)
    composed = compose_system(system)
    lifted = staged_sequence(composed, _wiggle_sigma_seq(system))
    blocks = restrict_to_blocks(composed, lifted, system.graph.vertices)
    for a, b in zip(blocks, blocks[1:]):
        single_bit_change(a, b)  # raises if more than one bit moves
    assert blocks[0] == system.sigma_ini
    assert blocks[-1] == system.sigma_ini


def _layout_system(n):
    """The lean seed-7 system (n = 2, endpoints one move apart), or an n = 3 one."""
    from reconfcsp.cli import generate_instance

    alphabet, walk = {2: (4, 1), 3: (5, 0)}[n]
    inst, _ = generate_instance("path-graph", 2, alphabet, 7, satisfiable=True,
                                walk_length=walk, extra_tuples=0)
    system = robustize(inst)
    assert system.n == n
    return system


@pytest.mark.parametrize("n", [2, 3])
def test_composition_names_block_bits_as_the_micro_csp_does(n):
    system = _layout_system(n)
    micro, composed = materialize_micro_csp(system), compose_system(system)
    graph, origins = composed.instance.graph, composed.trace.hyperedge_origin
    bits = micro.graph.vertices
    assert graph.vertices[: len(bits)] == bits
    assert graph.vertices[len(bits):] == tuple(y for e in composed.edges for y in (e.y1, e.y2))
    for e, hyperedge in zip(composed.edges, micro.graph.edges):
        inputs = {}
        for edge, origin in zip(graph.edges, origins):
            if origin["source_edge"] == e.circuit.edge_index:
                assert (edge[0], edge[2]) == (e.y1, e.y2)
                i1, i2 = origin["twin_pair"]
                inputs[i1], inputs[i2] = edge[1], edge[3]
        assert tuple(inputs[i] for i in range(len(inputs))) == hyperedge == circuit_bits(e.circuit)
    for psi, micro_psi in ((composed.instance.psi_ini, micro.psi_ini),
                           (composed.instance.psi_tar, micro.psi_tar)):
        assert {v: psi.values[v] for v in bits} == micro_psi.values
    ends = ReconfigSequence((composed.instance.psi_ini, composed.instance.psi_tar))
    restricted = restrict_to_blocks(composed, ends, system.graph.vertices)
    assert restricted == [system.sigma_ini, system.sigma_tar]


def test_circuit_inputs_outside_the_satisfying_set_are_named():
    system = robustize(single_edge({(0, 0)}, 4, (0, 0), (0, 0)))
    composed = compose_system(system)
    off = system.sigma_ini.flip("u", 1)  # within 1/4 of three codewords
    with pytest.raises(InstanceError, match="^edge 0: endpoint blocks do not satisfy the circuit$"):
        compose_system(dataclasses.replace(system, sigma_tar=off))
    with pytest.raises(InstanceError, match="^edge 0: sigma step 0 does not satisfy the circuit$"):
        staged_sequence(composed, [off])
    with pytest.raises(InstanceError, match="^edge 0: sigma step 1 does not satisfy the circuit$"):
        staged_sequence(composed, [system.sigma_ini, off])


# ---------------------------------------------------------------------------
# Arity reduction
# ---------------------------------------------------------------------------


def _four_ary(accepts, ini, tar, vertices=("p", "q", "r", "s"), alphabet=2,
              edge=None):
    edge = edge or vertices
    graph = ConstraintGraph(
        4, vertices, (tuple(edge),), alphabet, (frozenset(accepts),)
    )
    return ReconfInstance(
        graph,
        Assignment(dict(zip(vertices, ini))),
        Assignment(dict(zip(vertices, tar))),
    )


CHAIN = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)]


def test_arity_reduce_shape_and_completeness():
    inst = _four_ary(CHAIN, (0, 0, 0, 0), (1, 1, 1, 1))
    reduction = arity_reduce(inst)
    graph = reduction.instance.graph
    assert graph.q == 2
    assert len(graph.edges) == 4 * len(inst.graph.edges)
    assert graph.alphabet_of("cell0") == (2 * 3 // 2) ** 4 == 81
    assert value(graph, reduction.instance.psi_ini) == 1
    assert value(graph, reduction.instance.psi_tar) == 1
    assert reduction.trace.notes["soundness_loss_factor"] == 4


def _brute_force_binary_tuples(cell, accepts):
    """Per coordinate, the accepted (cell value, value) tuples, straight from the definition.

    A cell value is valid when its pairs agree on repeated vertices and every
    choice of one value per distinct vertex from its pair is an accepted
    tuple; it is accepted with coordinate i's vertex at either value of its
    i-th pair.
    """
    valid = []
    for sym in range(cell.alphabet):
        pairs = cell.decode(sym)
        by_vertex = {}
        if any(by_vertex.setdefault(v, p) != p for v, p in zip(cell.vertices, pairs)):
            continue
        names = list(by_vertex)
        choices = itertools.product(*(sorted(set(by_vertex[v])) for v in names))
        if all(
            tuple(choice[names.index(v)] for v in cell.vertices) in accepts
            for choice in choices
        ):
            valid.append(sym)
    return [
        sorted({(sym, x) for sym in valid for x in cell.decode(sym)[i]})
        for i in range(len(cell.vertices))
    ]


def _repetition_patterns():
    """The 15 ways four coordinates can repeat vertices, as edges over u, w, x, z."""
    patterns = set()
    for labels in itertools.product(range(4), repeat=4):
        first = {}
        patterns.add(tuple("uwxz"[first.setdefault(c, len(first))] for c in labels))
    return sorted(patterns)


REPETITION_PATTERNS = _repetition_patterns()


@st.composite
def small_four_ary(draw):
    alphabet = draw(st.sampled_from([2, 3]))
    edge = draw(st.sampled_from(REPETITION_PATTERNS))
    vertices = tuple(dict.fromkeys(edge))
    space = list(itertools.product(range(alphabet), repeat=4))
    accepts = draw(st.sets(st.sampled_from(space), min_size=1, max_size=12))
    start = draw(st.sampled_from(sorted(accepts)))
    return _four_ary(accepts, start, start, vertices=vertices, alphabet=alphabet, edge=edge)


def test_repetition_patterns_are_all_fifteen():
    assert len(REPETITION_PATTERNS) == 15
    assert ("u", "u", "u", "u") in REPETITION_PATTERNS
    assert ("u", "w", "w", "u") in REPETITION_PATTERNS


@given(small_four_ary())
@settings(max_examples=60, deadline=None)
def test_arity_reduce_matches_brute_force_definition(inst):
    reduction = arity_reduce(inst)
    (cell,) = reduction.cells
    expected = _brute_force_binary_tuples(cell, set(inst.graph.accepts[0]))
    binary = reduction.instance.graph
    assert binary.edges == tuple((cell.name, v) for v in cell.vertices)
    for acc, tuples in zip(binary.accepts, expected):
        assert list(acc) == tuples


# Accept codes shared by hyperedges of different shapes: over alphabets
# (2, 3, 2, 3) they are the tuples below, over (3, 3, 3, 2) other tuples.
_SHARED_CODES = AcceptSet(
    [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1), (1, 2, 0, 2),
     (1, 2, 1, 2), (1, 1, 0, 1), (0, 1, 1, 1)],
    (2, 3, 2, 3),
).codes


def test_arity_reduce_hyperedges_sharing_codes_match_brute_force():
    verts = ("p", "q", "r", "s", "t")
    edges = (
        ("p", "q", "r", "s"),
        ("p", "q", "p", "q"),  # same codes and alphabets, other repetition pattern
        ("r", "s", "p", "q"),  # identical to the first
        ("q", "s", "t", "r"),  # same codes and pattern, other alphabets
        ("r", "t", "r", "q"),  # same codes and alphabets, third pattern
        ("p", "q", "r", "s"),  # identical to the first again
    )
    alphabets = {"q": 3, "s": 3, "t": 3}
    accepts = tuple(
        AcceptSet.from_codes(_SHARED_CODES, [alphabets.get(v, 2) for v in e]) for e in edges
    )
    zeros = Assignment(dict.fromkeys(verts, 0))
    inst = ReconfInstance(
        ConstraintGraph(4, verts, edges, 2, accepts, vertex_alphabets=alphabets), zeros, zeros
    )
    reduction = arity_reduce(inst)
    binary = reduction.instance.graph
    for cell in reduction.cells:
        expected = _brute_force_binary_tuples(cell, set(accepts[cell.hyperedge]))
        for i, tuples in enumerate(expected):
            assert list(binary.accepts[4 * cell.hyperedge + i]) == tuples, (cell.hyperedge, i)
    for i in range(4):
        assert binary.accepts[i] is binary.accepts[8 + i] is binary.accepts[20 + i]
        assert binary.accepts[i] is not binary.accepts[4 + i]


def test_arity_endpoints_are_each_cells_singleton_and_types_keep_their_pattern():
    """One set object under two repetition patterns, over mixed alphabets, with
    endpoints that differ; and a composed instance whose y alphabets differ from x's."""
    verts = ("p", "q", "r", "s")
    alphabets = {"q": 3, "s": 3}
    shared = AcceptSet.from_codes(_SHARED_CODES, (2, 3, 2, 3))
    edges = (("p", "q", "r", "s"), ("p", "q", "p", "q"), ("r", "s", "r", "s"), ("r", "q", "p", "s"))
    inst = ReconfInstance(
        ConstraintGraph(4, verts, edges, 2, (shared,) * 4, vertex_alphabets=alphabets),
        Assignment({"p": 1, "q": 2, "r": 0, "s": 1}),
        Assignment({"p": 0, "q": 1, "r": 1, "s": 2}),
    )
    composed = _composed(7)
    assert composed.psi_ini != composed.psi_tar
    for source in (inst, composed):
        reduction = arity_reduce(source)
        for psi4, psi2 in ((source.psi_ini, reduction.instance.psi_ini),
                           (source.psi_tar, reduction.instance.psi_tar)):
            for cell in reduction.cells:
                symbols = [psi4.values[v] for v in cell.vertices]
                assert psi2.values[cell.name] == cell.singleton(symbols), cell.name
    reduction = arity_reduce(inst)
    binary = reduction.instance.graph
    for cell in reduction.cells:
        expected = _brute_force_binary_tuples(cell, set(shared))
        for i, tuples in enumerate(expected):
            assert list(binary.accepts[4 * cell.hyperedge + i]) == tuples, (cell.hyperedge, i)


def test_instances_survive_pickle_and_deepcopy():
    import copy
    import pickle

    text = serialize(arity_reduce(_composed(7)).instance)
    inst = deserialize(text)
    distinct = len({id(acc) for acc in inst.graph.accepts})
    assert distinct < len(inst.graph.accepts)
    for copied in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert serialize(copied) == text
        assert len({id(acc) for acc in copied.graph.accepts}) == distinct
        assert not any(acc.codes.flags.writeable for acc in copied.graph.accepts)
        for psi in (copied.psi_ini, copied.psi_tar):  # lookups read the rebuilt sets
            assert value(copied.graph, psi).satisfied == value(inst.graph, psi).satisfied


def _empty_types(monkeypatch):
    """An empty arity-reduction memo in place of the process's own, put back after the test."""
    monkeypatch.setattr(compose, "_TYPES", compose._TypeMemo(compose._TYPES.cap))


def test_valid_cell_symbols_ascend_with_decoded_pair_indices(monkeypatch):
    """Over all 15 repetition patterns and mixed alphabets, the flat enumeration
    lists exactly the valid cell values, strictly increasing, and each
    coordinate's pair index at a value is the one `CellInfo.decode` reads."""
    from reconfcsp import compose

    _empty_types(monkeypatch)  # a remembered type would not reach the spy
    seen = []
    enumerate_cells = compose._valid_cell_symbols

    def spy(cell, *args):
        found = enumerate_cells(cell, *args)
        seen.append((cell, *found))
        return found

    monkeypatch.setattr(compose, "_valid_cell_symbols", spy)
    rng = random.Random(20)
    alphabets = {"u": 2, "w": 3, "x": 3, "z": 2}
    for edge in REPETITION_PATTERNS:
        vertices = tuple(dict.fromkeys(edge))
        assignments = itertools.product(*(range(alphabets[v]) for v in vertices))
        chosen = [dict(zip(vertices, a)) for a in assignments if rng.random() < 0.8]
        accepts = frozenset(tuple(a[v] for v in edge) for a in chosen)
        graph = ConstraintGraph(4, vertices, (edge,), 3, (accepts,),
                                vertex_alphabets={v: alphabets[v] for v in vertices})
        zeros = Assignment(dict.fromkeys(vertices, 0))
        arity_reduce(ReconfInstance(graph, zeros, zeros))
        cell, valid, which = seen[-1]
        expected = _brute_force_binary_tuples(cell, accepts)
        assert valid.tolist() == sorted({sym for sym, _ in expected[0]}), edge
        assert (valid[1:] > valid[:-1]).all()
        assert which.shape == (4, len(valid))
        for t, sym in enumerate(valid.tolist()):
            pairs = tuple(cell.pair_lists[i][which[i, t]] for i in range(4))
            assert pairs == cell.decode(sym), (edge, sym)
    assert len(seen) == 15
    # not only singleton cells: many valid values hold a pair of two values
    assert sum(any(a != b for a, b in cell.decode(sym))
               for cell, valid, _ in seen for sym in valid.tolist()) > 100


def _count_enumerations(monkeypatch) -> list:
    """Patch `_valid_cell_symbols` to record each call; returns the record."""
    calls = []
    enumerate_cells = compose._valid_cell_symbols

    def spy(*args):
        calls.append(args[0])
        return enumerate_cells(*args)

    monkeypatch.setattr(compose, "_valid_cell_symbols", spy)
    return calls


def _composed(seed, vertices=2, alphabet=4, walk=1):
    inst, _ = solver.generate_instance(
        "path-graph", vertices, alphabet, seed, satisfiable=True, walk_length=walk, extra_tuples=0
    )
    return compose_system(robustize(inst)).instance


def _binary_text(inst) -> str:
    return serialize(arity_reduce(inst).instance)


def test_pair_index_is_the_position_in_the_pair_list():
    for w in range(1, 17):
        pl = tuple((a, b) for a in range(w) for b in range(a, w))
        for pair in itertools.product(range(-1, w + 1), repeat=2):
            if pair in pl:
                assert compose._pair_index(w, *pair) == pl.index(pair), (w, pair)
            else:
                with pytest.raises(ValueError):
                    compose._pair_index(w, *pair)
        # elementwise on arrays, one alphabet per entry
        lows, highs = np.array(pl).T
        assert compose._pair_index(np.full(len(pl), w), lows, highs).tolist() == list(range(len(pl)))


def test_reducing_twice_enumerates_once_and_writes_the_same_bytes(monkeypatch):
    _empty_types(monkeypatch)
    calls = _count_enumerations(monkeypatch)
    inst = _composed(5, vertices=3, walk=0)
    first = _binary_text(inst)
    enumerated = len(calls)
    assert 0 < enumerated < len(inst.graph.edges)
    assert _binary_text(inst) == first
    assert len(calls) == enumerated  # every type came from the memo
    monkeypatch.setattr(compose, "CELL_BUDGET", len(inst.graph.edges))
    with pytest.raises(InstanceError, match="exceeding the budget"):
        arity_reduce(inst)


def test_lean_seed7_reduction_after_unrelated_instances_equals_a_fresh_one(monkeypatch):
    seven = _composed(7)
    _empty_types(monkeypatch)
    fresh = _binary_text(seven)
    _empty_types(monkeypatch)
    for other in (_composed(3), _composed(2, alphabet=3), _composed(5, vertices=3, walk=0),
                  _four_ary(CHAIN, (0, 0, 0, 0), (1, 1, 1, 1))):
        arity_reduce(other)
    assert _binary_text(seven) == fresh


def _typed_instances():
    """One 4-ary instance per repetition pattern, each of a type of its own."""
    rng = random.Random(30)
    space = list(itertools.product(range(3), repeat=4))
    out = []
    for edge in REPETITION_PATTERNS:
        accepts = set(rng.sample(space, 20))
        start = min(accepts)
        out.append(_four_ary(accepts, start, start, vertices=tuple(dict.fromkeys(edge)),
                             alphabet=3, edge=edge))
    return out


def test_type_memo_holds_at_most_its_cap(monkeypatch):
    instances = _typed_instances()
    roomy = compose._TypeMemo(1 << 30)
    monkeypatch.setattr(compose, "_TYPES", roomy)
    expected = [_binary_text(inst) for inst in instances]
    sizes = [size for _, size in roomy._entries.values()]
    assert len(sizes) == len(instances) and roomy.held == sum(sizes)

    def use(memo, *indices):
        """Reduce instances through `memo`; the indices whose types were enumerated."""
        monkeypatch.setattr(compose, "_TYPES", memo)
        calls = _count_enumerations(monkeypatch)
        for i in indices:
            assert _binary_text(instances[i]) == expected[i]
            assert memo.held == sum(size for _, size in memo._entries.values()) <= memo.cap
            if calls:
                assert calls.pop().vertices == instances[i].graph.edges[0]
                yield i

    small = compose._TypeMemo(sum(sizes[:3]))
    assert list(use(small, 0, 1, 2, 0)) == [0, 1, 2]
    assert list(use(small, 3, 0)) == [3]  # 3 evicts 1, the least recently used, first
    assert list(use(small, 1)) == [1]
    assert list(use(small, *range(4, len(instances)))) == list(range(4, len(instances)))

    assert min(sizes) < max(sizes)
    tight = compose._TypeMemo(max(sizes) - 1)
    smallest, largest = sizes.index(min(sizes)), sizes.index(max(sizes))
    assert list(use(tight, smallest, largest, smallest, largest)) == [smallest, largest, largest]
    assert len(tight._entries) == 1  # the entry over the cap was not kept, and evicted nothing


def test_concurrent_reductions_match_sequential_ones(monkeypatch):
    instances = [_composed(2, alphabet=3), _composed(5, vertices=3, walk=0)]
    expected = []
    for inst in instances:
        _empty_types(monkeypatch)
        expected.append(_binary_text(inst))
    for _ in range(3):
        _empty_types(monkeypatch)
        start, results = threading.Barrier(len(instances)), [None] * len(instances)

        def reduce(i):
            start.wait()
            results[i] = _binary_text(instances[i])

        threads = [threading.Thread(target=reduce, args=(i,)) for i in range(len(instances))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == expected


def test_superimpose_keeps_one_accept_set_per_distinct_table():
    inst, _ = solver.generate_instance(
        "path-graph", 2, 4, 7, satisfiable=True, walk_length=1, extra_tuples=0
    )
    graph = compose_system(robustize(inst)).instance.graph
    contents = {(acc.sizes, acc.codes.tobytes()) for acc in graph.accepts}
    assert len(graph.accepts) == 64
    assert len({id(acc) for acc in graph.accepts}) == len(contents) == 25


def test_arity_reduce_renames_a_cell_that_a_source_vertex_already_names():
    inst = _four_ary(CHAIN, (0, 0, 0, 0), (1, 1, 1, 1), vertices=("cell0", "q", "r", "s"))
    reduction = arity_reduce(inst)
    graph = reduction.instance.graph
    assert graph.vertices == ("cell0", "q", "r", "s", "cell0'")
    assert graph.edges[0] == ("cell0'", "cell0")
    assert graph.alphabet_of("cell0") == 2 and graph.alphabet_of("cell0'") == 81
    assert reduction.trace.vertex_origin["cell0"] == {"kind": "source-vertex", "vertex": "cell0"}
    assert reduction.trace.vertex_origin["cell0'"] == {"kind": "cell", "hyperedge": 0}
    assert value(graph, reduction.instance.psi_ini) == value(graph, reduction.instance.psi_tar) == 1


def test_arity_reduce_requires_arity_four():
    inst = single_edge({(0, 0)}, 2, (0, 0), (0, 0))
    with pytest.raises(InstanceError, match="arity must be exactly 4"):
        arity_reduce(inst)


def test_arity_reduce_budget_fails_fast(monkeypatch):
    inst = _four_ary(CHAIN, (0, 0, 0, 0), (1, 1, 1, 1))
    monkeypatch.setattr(compose, "CELL_BUDGET", 10)
    with pytest.raises(InstanceError, match="exceeding the budget"):
        arity_reduce(inst)
    # 33^4 coordinate values exceed the bitmask range: refused before any
    # of the ~10^11 cell values is looked at, whatever the cell budget
    wide = _four_ary([(0, 0, 0, 0)], (0, 0, 0, 0), (0, 0, 0, 0), alphabet=33)
    monkeypatch.setattr(compose, "CELL_BUDGET", 1 << 40)
    with pytest.raises(InstanceError, match="hyperedge 0: coordinate space 1185921"):
        arity_reduce(wide)


# A hyperedge over alphabets 2, 2, 2 and 20000 has 27 * 200010000 cell values,
# and its pair lists would hold 2 * 10^8 pairs.  The child caps its own address
# space at 1 GiB, so building them fails the test instead of exhausting the host.
_WIDE_CELL = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from reconfcsp.compose import arity_reduce
from reconfcsp.core import Assignment, ConstraintGraph, InstanceError, ReconfInstance
zeros = Assignment(dict.fromkeys("abcd", 0))
graph = ConstraintGraph(4, tuple("abcd"), (tuple("abcd"),), 2, ({(0, 0, 0, 0)},), {"d": 20000})
try:
    arity_reduce(ReconfInstance(graph, zeros, zeros))
except InstanceError as exc:
    print(exc)
"""


def test_arity_reduce_budget_is_checked_before_any_pair_list_is_built():
    src = str(Path(compose.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _WIDE_CELL], capture_output=True, text=True,
                           env=env, timeout=120)
    assert child.stdout.startswith("cell alphabets total 5400270000 (largest 5400270000 at "
                                   "hyperedge 0), exceeding the budget"), child.stderr


def test_arity_reduce_multiple_hyperedges_get_their_own_cells():
    verts = ("p", "q", "r", "s", "t")
    graph = ConstraintGraph(
        4,
        verts,
        (("p", "q", "r", "s"), ("q", "r", "s", "t")),
        2,
        (frozenset(CHAIN), frozenset({(0, 0, 0, 0), (1, 1, 1, 1)})),
    )
    inst = ReconfInstance(
        graph,
        Assignment(dict.fromkeys(verts, 0)),
        Assignment(dict.fromkeys(verts, 0)),
    )
    reduction = arity_reduce(inst)
    cell_endpoints = [e[0] for e in reduction.instance.graph.edges]
    assert cell_endpoints == ["cell0"] * 4 + ["cell1"] * 4
    assert value(reduction.instance.graph, reduction.instance.psi_ini) == 1
    # each cell's accepted symbols must fit its own alphabet
    for edge, acc in zip(reduction.instance.graph.edges, reduction.instance.graph.accepts):
        size = reduction.instance.graph.alphabet_of(edge[0])
        assert all(0 <= sym < size for sym, _ in acc)


def _maxmin_both_sides(inst4, budget=1 << 18):
    reduction = arity_reduce(inst4)
    four = solver.maxmin_value(inst4, budget=budget).optimum
    binary = solver.maxmin_value(reduction.instance, budget=budget).optimum
    return four, binary


def test_arity_reduce_oracle_iff_and_factor_four():
    cases = [
        _four_ary(CHAIN, (0, 0, 0, 0), (1, 1, 1, 1)),
        _four_ary([(0, 0, 0, 0), (1, 1, 1, 1)], (0, 0, 0, 0), (1, 1, 1, 1)),
        _four_ary(
            list(itertools.product(range(2), repeat=4)), (0, 0, 0, 0), (1, 0, 1, 0)
        ),
        # repeated vertices inside the hyperedge
        _four_ary(
            [(0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)],
            (0, 0, 0),
            (1, 1, 1),
            vertices=("u", "w", "z"),
            edge=("u", "u", "w", "z"),
        ),
        _four_ary(
            [(0, 0, 0, 0), (1, 1, 1, 1)],
            (0, 0, 0),
            (1, 1, 1),
            vertices=("u", "w", "z"),
            edge=("u", "u", "w", "z"),
        ),
    ]
    for inst4 in cases:
        four, binary = _maxmin_both_sides(inst4)
        assert (binary == 1) == (four == 1)
        assert (1 - binary.fraction) >= (1 - four.fraction) / 4


def test_arity_reduce_sequence_lifts_satisfying_paths():
    inst = _four_ary(CHAIN, (0, 0, 0, 0), (1, 1, 1, 1))
    reduction = arity_reduce(inst)
    steps = [Assignment(dict(zip(("p", "q", "r", "s"), t))) for t in CHAIN]
    seq4 = ReconfigSequence(tuple(steps))
    assert sequence_value(inst.graph, seq4) == 1
    lifted = arity_reduce_sequence(reduction, seq4)
    assert validate_sequence(lifted) == []
    assert lifted.steps[0] == reduction.instance.psi_ini
    assert lifted.steps[-1] == reduction.instance.psi_tar
    assert sequence_value(reduction.instance.graph, lifted) == 1


def test_arity_restriction_extracts_valid_four_ary_sequence():
    inst = _four_ary(CHAIN, (0, 0, 0, 0), (1, 1, 1, 1))
    reduction = arity_reduce(inst)
    result = solver.maxmin_value(reduction.instance, budget=1 << 18)
    names = inst.graph.vertices
    restricted = []
    for step in result.witness.steps:
        psi = Assignment({v: step.values[v] for v in names})
        if not restricted or psi != restricted[-1]:
            restricted.append(psi)
    seq = ReconfigSequence(tuple(restricted))
    assert validate_sequence(seq) == []
    assert seq.steps[0] == inst.psi_ini and seq.steps[-1] == inst.psi_tar
    # one violated binary edge per violated hyperedge: value relation holds
    assert sequence_value(inst.graph, seq).fraction >= 1 - 4 * (
        1 - sequence_value(reduction.instance.graph, result.witness).fraction
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def test_full_pipeline_micro_stage_reports():
    inst = single_edge({(0, 0)}, 4, (0, 0), (0, 0))
    result = full_pipeline(inst, "micro")
    names = [s.stage for s in result.stages]
    assert names == ["source", "circuits", "composed-4ary", "binary"]
    by_name = {s.stage: s for s in result.stages}
    assert by_name["source"].maxmin == 1
    assert by_name["circuits"].maxmin == 1
    assert by_name["composed-4ary"].maxmin == 1
    assert by_name["binary"].maxmin == 1
    assert by_name["binary"].edges == 4 * by_name["composed-4ary"].edges


def test_full_pipeline_micro_differing_endpoints():
    # (0,0) -> (1,1) must break the single edge at some step: source maxmin 0
    inst = single_edge({(0, 0), (1, 1)}, 4, (0, 0), (1, 1))
    result = full_pipeline(inst, "micro")
    by_name = {s.stage: s for s in result.stages}
    assert by_name["source"].maxmin == 0
    assert by_name["circuits"].maxmin == 0
    # the composed stage is only reachability-checkable at this size; no
    # satisfying sequence exists there, so no value is reported
    assert by_name["composed-4ary"].maxmin is None
    assert by_name["composed-4ary"].method == "sat-unreachable"
    assert by_name["binary"].maxmin is None and by_name["binary"].method is None


def test_full_pipeline_trace_covers_every_vertex():
    inst = single_edge({(0, 0)}, 4, (0, 0), (0, 0))
    result = full_pipeline(inst, "micro")
    for v in result.reduction.instance.graph.vertices:
        origin = result.trace.vertex_origin[v]
        assert origin["kind"] in {"block-bit", "aux", "cell"}
        if origin["kind"] == "cell":
            assert "source_edge" in origin and "twin_pair" in origin


def test_trace_json_bytes_equal_the_asdict_form(tmp_path):
    from reconfcsp.fileio import write_json

    inst = single_edge({(0, 0), (1, 1)}, 4, (0, 0), (1, 1))
    result = full_pipeline(inst, "micro")
    inst9, walk = _n9_instance_and_walk()
    n9 = full_pipeline(inst9, "n9", seed=4, psi_seq=walk)
    for trace in (result.composed.trace, result.reduction.trace, result.trace, n9.trace):
        write_json(tmp_path / "to_obj.json", trace.to_obj())
        write_json(tmp_path / "asdict.json", dataclasses.asdict(trace))
        assert (tmp_path / "to_obj.json").read_bytes() == (tmp_path / "asdict.json").read_bytes()


def test_full_pipeline_errors_are_stage_tagged():
    bad = single_edge({(0, 0)}, 4, (0, 1), (0, 0))
    with pytest.raises(InstanceError, match="stage robustize"):
        full_pipeline(bad, "micro")
    with pytest.raises(InstanceError, match="unknown pipeline mode"):
        full_pipeline(single_edge({(0, 0)}, 4, (0, 0), (0, 0)), "macro")


def test_full_pipeline_refuses_a_mode_the_padded_alphabet_does_not_fit():
    with pytest.raises(InstanceError, match=r"alphabet 16 pads to n=4; micro mode requires n <= 3"):
        full_pipeline(single_edge({(0, 0)}, 16, (0, 0), (0, 0)), "micro")
    inst = single_edge({(0, 0)}, 4, (0, 0), (0, 0))
    walk = ReconfigSequence((inst.psi_ini,))
    with pytest.raises(InstanceError, match=r"n9 mode expects alphabet 512, got n=2"):
        full_pipeline(inst, "n9", psi_seq=walk)


def _n9_instance_and_walk():
    from reconfcsp.cli import generate_instance

    return generate_instance("path-graph", 3, 512, seed=31, satisfiable=True, walk_length=3)


def test_full_pipeline_n9_completeness():
    inst, walk = _n9_instance_and_walk()
    result = full_pipeline(inst, "n9", seed=4, psi_seq=walk)
    assert result.n9_all_satisfied is True
    assert result.n9_steps >= 1
    with pytest.raises(InstanceError, match="needs a satisfying"):
        full_pipeline(inst, "n9")
