import dataclasses
import itertools
from fractions import Fraction

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
    sequence_value,
    validate_sequence,
    value,
)
from reconfcsp.hadamard import had_encode
from reconfcsp.robustize import robustize, single_bit_change
from reconfcsp import solver

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


def test_arity_reduce_requires_arity_four():
    inst = single_edge({(0, 0)}, 2, (0, 0), (0, 0))
    with pytest.raises(InstanceError, match="arity must be exactly 4"):
        arity_reduce(inst)


def test_arity_reduce_budget_fails_fast():
    inst = _four_ary(CHAIN, (0, 0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(InstanceError, match="exceeding the budget"):
        arity_reduce(inst, cell_budget=10)
    # 33^4 coordinate values exceed the bitmask range: refused before any
    # of the ~10^11 cell values is looked at, whatever the cell budget
    wide = _four_ary([(0, 0, 0, 0)], (0, 0, 0, 0), (0, 0, 0, 0), alphabet=33)
    with pytest.raises(InstanceError, match="hyperedge 0: coordinate space 1185921"):
        arity_reduce(wide, cell_budget=1 << 40)


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


def test_full_pipeline_errors_are_stage_tagged():
    bad = single_edge({(0, 0)}, 4, (0, 1), (0, 0))
    with pytest.raises(InstanceError, match="stage robustize"):
        full_pipeline(bad, "micro")
    with pytest.raises(InstanceError, match="unknown pipeline mode"):
        full_pipeline(single_edge({(0, 0)}, 4, (0, 0), (0, 0)), "macro")


def test_full_pipeline_n9_completeness():
    from reconfcsp.cli import generate_instance

    inst, walk = generate_instance(
        "path-graph", 3, 512, seed=31, satisfiable=True, walk_length=3
    )
    result = full_pipeline(inst, "n9", seed=4, psi_seq=walk)
    assert result.n9_all_satisfied is True
    assert result.n9_steps >= 1
    with pytest.raises(InstanceError, match="needs a satisfying"):
        full_pipeline(inst, "n9")
