import pytest
from hypothesis import settings

from reconfcsp.core import Assignment, ConstraintGraph, ReconfInstance


# `pytest --hypothesis-profile=ci` runs property tests that set no example count of
# their own, among them the instance readers' differential test, ten times longer.
settings.register_profile("ci", max_examples=1000)


def triangle_equality(alphabet: int = 2) -> ReconfInstance:
    """Triangle with equality constraints; all-0 and all-1 endpoints."""
    eq = frozenset((s, s) for s in range(alphabet))
    graph = ConstraintGraph(
        q=2,
        vertices=("a", "b", "c"),
        edges=(("a", "b"), ("b", "c"), ("c", "a")),
        alphabet=alphabet,
        accepts=(eq, eq, eq),
    )
    ini = Assignment({"a": 0, "b": 0, "c": 0})
    tar = Assignment({"a": 1, "b": 1, "c": 1})
    return ReconfInstance(graph, ini, tar)


def single_edge(accepts, alphabet: int, ini, tar) -> ReconfInstance:
    graph = ConstraintGraph(
        q=2,
        vertices=("u", "w"),
        edges=(("u", "w"),),
        alphabet=alphabet,
        accepts=(frozenset(accepts),),
    )
    return ReconfInstance(
        graph,
        Assignment({"u": ini[0], "w": ini[1]}),
        Assignment({"u": tar[0], "w": tar[1]}),
    )


@pytest.fixture
def triangle() -> ReconfInstance:
    return triangle_equality()
