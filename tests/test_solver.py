import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reconfcsp.core import (
    Assignment,
    ConstraintGraph,
    ReconfInstance,
    Value,
    sequence_value,
    validate_sequence,
    value,
)
from reconfcsp.solver import (
    BudgetExceededError,
    dfs_maxmin,
    maxmin_value,
    random_adversarial_sequence,
    reachable_at_threshold,
    state_space_size,
)

from conftest import single_edge, triangle_equality


def test_reachable_trivial_endpoint(triangle):
    inst = ReconfInstance(triangle.graph, triangle.psi_ini, triangle.psi_ini)
    ok, witness = reachable_at_threshold(inst, 3)
    assert ok and len(witness.steps) == 1


def test_triangle_threshold_two_unreachable(triangle):
    # derivation: every single flip from all-0 drops the value to 1/3
    all0 = triangle.psi_ini
    for v in triangle.graph.vertices:
        flipped = all0.with_value(v, 1)
        assert value(triangle.graph, flipped) == Value(1, 3)
    ok, witness = reachable_at_threshold(triangle, 2)
    assert not ok and witness is None


def test_triangle_threshold_one_reachable(triangle):
    ok, witness = reachable_at_threshold(triangle, 1)
    assert ok
    # the flip path visits 4 assignments
    assert len(witness.steps) == 4
    assert witness.steps[0] == triangle.psi_ini
    assert witness.steps[-1] == triangle.psi_tar
    assert validate_sequence(witness) == []
    assert sequence_value(triangle.graph, witness) >= Value(1, 3)


def test_triangle_maxmin_with_brute_force(triangle):
    result = maxmin_value(triangle)
    assert result.optimum == Value(1, 3)
    assert sequence_value(triangle.graph, result.witness) == result.optimum
    # brute force over all 8 assignments: best bottleneck path search
    names = triangle.graph.vertices
    states = list(itertools.product(range(2), repeat=3))
    val = {
        s: value(triangle.graph, Assignment(dict(zip(names, s)))).satisfied for s in states
    }
    best = {(0, 0, 0): val[(0, 0, 0)]}
    frontier = [(0, 0, 0)]
    while frontier:
        cur = frontier.pop()
        for i in range(3):
            for b in range(2):
                if b == cur[i]:
                    continue
                nxt = cur[:i] + (b,) + cur[i + 1 :]
                bottleneck = min(best[cur], val[nxt])
                if bottleneck > best.get(nxt, -1):
                    best[nxt] = bottleneck
                    frontier.append(nxt)
    assert Value(best[(1, 1, 1)], 3) == result.optimum


def test_single_edge_maxmin_zero():
    inst = single_edge({(0, 0), (1, 1)}, 2, (0, 0), (1, 1))
    # derivation: any one-vertex flip from either endpoint violates the edge
    for endpoint in (inst.psi_ini, inst.psi_tar):
        for v in ("u", "w"):
            flipped = endpoint.with_value(v, 1 - endpoint.values[v])
            if flipped not in (inst.psi_ini, inst.psi_tar):
                assert value(inst.graph, flipped) == Value(0, 1)
    assert maxmin_value(inst).optimum == Value(0, 1)


def test_maxmin_equal_endpoints_is_value(triangle):
    psi = Assignment({"a": 0, "b": 1, "c": 0})
    inst = ReconfInstance(triangle.graph, psi, psi)
    result = maxmin_value(inst)
    assert result.optimum == value(triangle.graph, psi)
    assert result.witness.steps == (psi,)


def test_budget_guard():
    inst = triangle_equality(alphabet=17)
    with pytest.raises(BudgetExceededError, match="too large for exact search"):
        reachable_at_threshold(inst, 1, budget=100)
    assert state_space_size(inst.graph) == 17**3


def test_adversarial_sequence_contract(triangle):
    seq1 = random_adversarial_sequence(triangle, seed=5, steps=9)
    seq2 = random_adversarial_sequence(triangle, seed=5, steps=9)
    assert seq1 == seq2
    other = random_adversarial_sequence(triangle, seed=6, steps=9)
    assert other != seq1
    for seq in (seq1, other):
        assert seq.steps[0] == triangle.psi_ini
        assert seq.steps[-1] == triangle.psi_tar
        assert validate_sequence(seq) == []


@st.composite
def solvable_instances(draw):
    n_vertices = draw(st.integers(2, 3))
    alphabet = draw(st.integers(2, 3))
    names = tuple(f"v{i}" for i in range(n_vertices))
    n_edges = draw(st.integers(1, 3))
    edges = tuple(
        tuple(draw(st.sampled_from(names)) for _ in range(2)) for _ in range(n_edges)
    )
    accepts = tuple(
        frozenset(
            draw(
                st.sets(
                    st.tuples(
                        st.integers(0, alphabet - 1), st.integers(0, alphabet - 1)
                    ),
                    max_size=5,
                )
            )
        )
        for _ in range(n_edges)
    )
    graph = ConstraintGraph(2, names, edges, alphabet, accepts)
    ini = Assignment({v: draw(st.integers(0, alphabet - 1)) for v in names})
    tar = Assignment({v: draw(st.integers(0, alphabet - 1)) for v in names})
    return ReconfInstance(graph, ini, tar)


@given(solvable_instances())
@example(
    # the widest-path search first reaches psi_tar along another sequence
    # than the BFS at the optimum does; the witness is still the BFS one
    ReconfInstance(
        ConstraintGraph(2, ("v0", "v1", "v2"), (("v2", "v0"),), 2, (frozenset({(0, 0), (1, 1)}),)),
        Assignment({"v0": 1, "v1": 1, "v2": 1}),
        Assignment({"v0": 0, "v1": 0, "v2": 0}),
    )
)
@settings(max_examples=40, deadline=None)
def test_threshold_monotonicity_and_dfs_agreement(inst):
    total = len(inst.graph.edges)
    flags = [reachable_at_threshold(inst, k)[0] for k in range(total + 2)]
    # once unreachable, higher thresholds stay unreachable
    for lo, hi in zip(flags, flags[1:]):
        assert lo or not hi
    result = maxmin_value(inst)
    assert result.optimum == dfs_maxmin(inst)
    best = max(k for k, ok in enumerate(flags) if ok)
    assert result.optimum.satisfied == best
    assert result.witness == reachable_at_threshold(inst, best)[1]


@given(solvable_instances())
@settings(max_examples=25, deadline=None)
def test_maxmin_swap_symmetry(inst):
    assert maxmin_value(inst).optimum == maxmin_value(inst.swapped()).optimum
