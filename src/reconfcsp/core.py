"""Constraint graphs, assignments, reconfiguration sequences, and exact values.

Symbols are integers in `range(alphabet)`; vertex ids are opaque strings and
the declared orders of vertices and hyperedges are preserved by the
serializer, which lists each hyperedge's accepted tuples in lexicographic
order.  Values are exact integer pairs; comparisons never touch floating
point.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np


class InstanceError(ValueError):
    """A malformed instance, assignment, or sequence."""


# Accept codes are int64, so no coordinate space may hold more codes than this.
_CODE_SPACE_LIMIT = 1 << 63


def _code_space(sizes: tuple[int, ...]) -> int:
    """Number of tuples over `sizes`; refused before any allocation if codes overflow int64."""
    space = math.prod(sizes)
    if space > _CODE_SPACE_LIMIT:
        raise InstanceError(f"accept: coordinate space {space} does not fit in int64 codes")
    return space


class AcceptSet:
    """An immutable set of accepted tuples over fixed coordinate alphabets.

    The tuple (t1, ..., tq) over alphabet sizes (s1, ..., sq) has the
    big-endian mixed-radix code ((t1*s2 + t2)*s3 + t3)*... + tq, so ascending
    codes are the tuples in lexicographic order.  `codes` is the read-only,
    strictly increasing int64 array of those codes and `sizes` the alphabets
    they were encoded against.  This class is the only place that layout is
    known: elsewhere a set is built from tuples (any iterable of them, or a
    2-D integer array of rows), from codes with `from_codes`, or from
    another set, and read by `len`, `in`, `==` and iteration, which yields
    the tuples in sorted order.  A set handed alphabets other than its own
    is re-encoded and range-checked tuple by tuple, never reinterpreted.

    A set built from Python tuples keeps the int frozenset its encoding made,
    answers `in` from it and decodes it in Python; an array-built set
    answers `in` by binary search and decodes with numpy, so a few lookups
    never build a set over a large one.
    """

    __slots__ = ("_sizes", "_codes", "_members")

    def __new__(cls, tuples: Iterable[Sequence[int]], sizes: Sequence[int]) -> "AcceptSet":
        sizes = tuple(sizes)
        if any(type(s) is not int or s < 1 for s in sizes):
            raise InstanceError(f"accept: alphabet sizes must be positive integers, got {sizes}")
        return _pack(tuples, sizes, None)

    @classmethod
    def from_codes(cls, codes, sizes: Sequence[int]) -> "AcceptSet":
        """The set whose codes over `sizes` are `codes`, checked in one vectorized pass."""
        sizes = tuple(sizes)
        space = _code_space(sizes)
        codes = np.asarray(codes)
        if codes.ndim != 1:
            raise InstanceError(f"accept: codes must be a 1-D array, got {codes.ndim}-D")
        if codes.dtype.kind not in "iu":
            raise InstanceError(f"accept: codes must be integers, got dtype {codes.dtype}")
        if len(codes):
            if not (codes[1:] > codes[:-1]).all():
                raise InstanceError("accept: codes must be strictly increasing")
            if codes[0] < 0 or codes[-1] > space - 1:
                bad = codes[0] if codes[0] < 0 else codes[-1]
                raise InstanceError(f"accept: code {bad} outside [0, {space})")
        return _make(sizes, codes=np.array(codes, dtype=np.int64))

    @property
    def sizes(self) -> tuple[int, ...]:
        return self._sizes

    @property
    def codes(self) -> np.ndarray:
        if self._codes is None:
            codes = np.array(sorted(self._members), dtype=np.int64)
            codes.flags.writeable = False
            self._codes = codes
        return self._codes

    def __len__(self) -> int:
        return len(self._members) if self._members is not None else len(self._codes)

    def __contains__(self, tup) -> bool:
        return len(tup) == len(self._sizes) and self._accepts(tup)

    def _accepts(self, symbols: Iterable[int]) -> bool:
        """Whether `symbols`, one per coordinate, form an accepted tuple."""
        code = 0
        for sym, size in zip(symbols, self._sizes):
            if not 0 <= sym < size:
                return False
            code = code * size + sym
        if self._members is not None:
            return code in self._members
        at = self._codes.searchsorted(code)
        return bool(at < len(self._codes) and self._codes[at] == code)

    def _rows(self) -> np.ndarray:
        """The tuples as a (count, q) int64 array, in lexicographic order."""
        codes = self.codes
        rows = np.empty((len(codes), len(self._sizes)), dtype=np.int64)
        for coord in reversed(range(len(self._sizes))):
            codes, rows[:, coord] = np.divmod(codes, self._sizes[coord])
        return rows

    def __iter__(self):
        if self._members is None:
            return map(tuple, self._rows().tolist())
        codes = sorted(self._members)
        if len(self._sizes) == 2:
            # a binary code is |S_2| * t1 + t2
            return map(divmod, codes, repeat(self._sizes[1]))
        if not codes:
            return iter(())
        columns = []
        for size in reversed(self._sizes[1:]):
            codes, column = zip(*map(divmod, codes, repeat(size)))
            columns.append(column)
        return zip(codes, *reversed(columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AcceptSet):
            return NotImplemented
        if len(self) != len(other):
            return False
        if self._sizes == other._sizes:
            if self._members is not None and other._members is not None:
                return self._members == other._members
            return bool(np.array_equal(self.codes, other.codes))
        return len(self) == 0 or bool(np.array_equal(self._rows(), other._rows()))

    def __repr__(self) -> str:
        return f"AcceptSet({len(self)} tuples over alphabets {self._sizes})"


def _make(sizes: tuple[int, ...], codes=None, members=None) -> AcceptSet:
    acc = object.__new__(AcceptSet)
    acc._sizes, acc._codes, acc._members = sizes, codes, members
    if codes is not None:
        codes.flags.writeable = False
    return acc


def _pack(tuples, sizes: tuple[int, ...], names) -> AcceptSet:
    """`tuples` as an AcceptSet over `sizes`; errors name `accept[t]` and, given, vertex `names`."""
    _code_space(sizes)
    if type(tuples) not in _TUPLE_COLLECTIONS:
        if isinstance(tuples, AcceptSet):
            if tuples.sizes == sizes:
                return tuples
            tuples = tuples._rows()
        if isinstance(tuples, np.ndarray):
            return _pack_rows(tuples, sizes, names)
        tuples = list(tuples)
    codes = _encode(tuples, sizes)
    if codes is None:
        raise _tuple_error(tuples, sizes, names)
    return _make(sizes, members=frozenset(codes))


# Containers of tuples that `_pack` reads twice (to encode, then to name an error).
_TUPLE_COLLECTIONS = (frozenset, set, list, tuple)


def _encode(rows, sizes: tuple[int, ...]) -> list[int] | None:
    """Codes of `rows`, or None unless every row is a tuple of in-range integers."""
    q = len(sizes)
    codes = []
    try:
        for tup in rows:
            if len(tup) != q:
                return None
            code = 0
            for sym, size in zip(tup, sizes):
                if not 0 <= sym < size:
                    return None
                code = code * size + sym
            codes.append(code)
        if set(map(type, codes)) - {int}:
            codes = list(map(operator.index, codes))
    except TypeError:
        return None
    return codes


def _out_of_range(t: int, sym, coord: int, size: int, names) -> InstanceError:
    where = f"vertex {names[coord]!r}" if names is not None else f"coordinate {coord}"
    return InstanceError(f"accept[{t}]: symbol {sym} out of range for {where} (alphabet {size})")


def _tuple_error(rows, sizes: tuple[int, ...], names) -> InstanceError:
    """The error for the first bad tuple, counted in sorted order when the tuples sort."""
    try:
        rows = sorted(rows)
    except TypeError:
        rows = list(rows)
    for t, tup in enumerate(rows):
        if not isinstance(tup, (tuple, list, np.ndarray)):
            return InstanceError(f"accept[{t}]: expected a tuple of symbols, got {tup!r:.40}")
        if len(tup) != len(sizes):
            return InstanceError(f"accept[{t}]: arity mismatch")
        for coord, (sym, size) in enumerate(zip(tup, sizes)):
            if not isinstance(sym, (int, np.integer)):
                return InstanceError(f"accept[{t}]: symbol {sym!r:.40} is not an integer")
            if not 0 <= sym < size:
                return _out_of_range(t, sym, coord, size, names)
    return InstanceError("accept: malformed accepted tuples")


def _pack_rows(rows: np.ndarray, sizes: tuple[int, ...], names) -> AcceptSet:
    """A (count, q) integer array of tuples, range-checked and encoded in vectorized passes."""
    if rows.ndim != 2 or rows.shape[1] != len(sizes):
        raise _tuple_error(rows.tolist(), sizes, names)
    if rows.dtype.kind not in "iu":
        raise InstanceError(f"accept: symbols must be integers, got dtype {rows.dtype}")
    bad = rows < 0
    for coord, size in enumerate(sizes):
        bad[:, coord] |= rows[:, coord] >= size
    if bad.any():
        t, coord = (int(i) for i in np.argwhere(bad)[0])
        raise _out_of_range(t, rows[t, coord], coord, sizes[coord], names)
    rows = rows.astype(np.int64, copy=False)
    codes = np.zeros(len(rows), dtype=np.int64)
    for coord, size in enumerate(sizes):
        codes = codes * size + rows[:, coord]
    if len(codes) and not (codes[1:] > codes[:-1]).all():
        codes = np.unique(codes)
    return _make(sizes, codes=codes)


@dataclass(frozen=True, eq=False)
class Value:
    """Exact satisfied/total hyperedge count of an assignment or sequence."""

    satisfied: int
    total: int

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise InstanceError("no constraints: total hyperedge count must be positive")
        if not 0 <= self.satisfied <= self.total:
            raise InstanceError(f"satisfied count {self.satisfied} outside [0, {self.total}]")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.satisfied, self.total)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Value):
            return self.fraction == other.fraction
        if isinstance(other, (int, Fraction)):
            return self.fraction == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.fraction)

    def __lt__(self, other: "Value | int | Fraction") -> bool:
        return self.fraction < (other.fraction if isinstance(other, Value) else other)

    def __le__(self, other: "Value | int | Fraction") -> bool:
        return self.fraction <= (other.fraction if isinstance(other, Value) else other)

    def __gt__(self, other: "Value | int | Fraction") -> bool:
        return self.fraction > (other.fraction if isinstance(other, Value) else other)

    def __ge__(self, other: "Value | int | Fraction") -> bool:
        return self.fraction >= (other.fraction if isinstance(other, Value) else other)

    def __str__(self) -> str:
        return f"{self.satisfied}/{self.total}"


@dataclass(frozen=True)
class ConstraintGraph:
    """A q-ary constraint graph with per-hyperedge acceptable-tuple sets.

    Duplicate hyperedges are permitted and counted with multiplicity.  A
    per-vertex alphabet override supports mixed alphabets produced by the
    assignment-tester composition; vertices without an override use the
    graph-wide `alphabet`.

    Each `accepts[j]` may be given as an `AcceptSet` or as any iterable of
    tuples; the graph stores it as an `AcceptSet` over the hyperedge's
    coordinate alphabets, re-encoding a set built over other alphabets.
    """

    q: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, ...], ...]
    alphabet: int
    accepts: tuple[AcceptSet, ...]
    vertex_alphabets: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.q < 1:
            raise InstanceError("arity must be positive")
        if self.alphabet < 1:
            raise InstanceError("alphabet size must be positive")
        if len(set(self.vertices)) != len(self.vertices):
            raise InstanceError("duplicate vertex id")
        if len(self.accepts) != len(self.edges):
            raise InstanceError("accepts/edges length mismatch")
        known = set(self.vertices)
        for name, size in self.vertex_alphabets.items():
            if name not in known:
                raise InstanceError(f"alphabet override for unknown vertex id {name!r}")
            if size < 1:
                raise InstanceError(f"alphabet override for {name!r} must be positive")
        packed = []
        for i, edge in enumerate(self.edges):
            if len(edge) != self.q:
                raise InstanceError(f"edges[{i}]: arity mismatch (got {len(edge)}, declared {self.q})")
            for v in edge:
                if v not in known:
                    raise InstanceError(f"edges[{i}]: unknown vertex id {v!r}")
            sizes = tuple([self.alphabet_of(v) for v in edge])
            try:
                packed.append(_pack(self.accepts[i], sizes, edge))
            except InstanceError as exc:
                raise InstanceError(f"edges[{i}].{exc}") from None
        object.__setattr__(self, "accepts", tuple(packed))

    def alphabet_of(self, vertex: str) -> int:
        return self.vertex_alphabets.get(vertex, self.alphabet)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def edge_satisfied(self, edge_index: int, psi: "Assignment") -> bool:
        return self.accepts[edge_index]._accepts(map(psi.values.__getitem__, self.edges[edge_index]))

    def vertex_table(self, edge_index: int) -> tuple[tuple[str, ...], np.ndarray]:
        """Hyperedge's distinct vertices, in order of first appearance, and its accept table.

        The boolean table has one axis per distinct vertex, over its alphabet;
        accepted tuples that disagree on a repeated vertex match no assignment.
        """
        edge, accepts = self.edges[edge_index], self.accepts[edge_index]
        distinct = tuple(dict.fromkeys(edge))
        table = np.zeros([self.alphabet_of(v) for v in distinct], dtype=bool)
        if len(distinct) == len(edge):
            table.reshape(-1)[accepts.codes] = True  # a code is its tuple's flat index here
            return distinct, table
        rows = accepts._rows()
        rows = rows[(rows == rows[:, [edge.index(v) for v in edge]]).all(axis=1)]
        table[tuple(rows[:, [edge.index(v) for v in distinct]].T)] = True
        return distinct, table


@dataclass(frozen=True)
class Assignment:
    """A total map from vertex ids to symbols (immutable by convention)."""

    values: dict[str, int]

    def with_value(self, vertex: str, symbol: int) -> "Assignment":
        updated = dict(self.values)
        updated[vertex] = symbol
        return Assignment(updated)

    def changed_vertices(self, other: "Assignment") -> list[str]:
        keys = self.values.keys() | other.values.keys()
        return [v for v in keys if self.values.get(v) != other.values.get(v)]


@dataclass(frozen=True)
class ReconfigSequence:
    """An ordered list of assignments; neighbors differ in at most one vertex."""

    steps: tuple[Assignment, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise InstanceError("a reconfiguration sequence must be non-empty")

    def reversed(self) -> "ReconfigSequence":
        return ReconfigSequence(tuple(reversed(self.steps)))


@dataclass(frozen=True)
class ReconfInstance:
    graph: ConstraintGraph
    psi_ini: Assignment
    psi_tar: Assignment

    def __post_init__(self) -> None:
        for label, psi in (("psi_ini", self.psi_ini), ("psi_tar", self.psi_tar)):
            check_total(self.graph, psi, where=label)

    def swapped(self) -> "ReconfInstance":
        return ReconfInstance(self.graph, self.psi_tar, self.psi_ini)


def check_total(graph: ConstraintGraph, psi: Assignment, where: str = "assignment") -> None:
    """Raise unless `psi` assigns an in-range symbol to every vertex."""
    for v in graph.vertices:
        if v not in psi.values:
            raise InstanceError(f"incomplete assignment: {where} misses vertex {v!r}")
        sym = psi.values[v]
        if not 0 <= sym < graph.alphabet_of(v):
            raise InstanceError(f"{where}: symbol {sym} out of range for vertex {v!r}")
    for v in psi.values:
        if v not in graph.vertex_index:
            raise InstanceError(f"{where}: unknown vertex id {v!r}")


def value(graph: ConstraintGraph, psi: Assignment) -> Value:
    """Exact fraction of hyperedges whose constraint accepts `psi`."""
    if not graph.edges:
        raise InstanceError("no constraints: graph has an empty hyperedge list")
    check_total(graph, psi)
    symbol = psi.values.__getitem__
    satisfied = sum(
        acc._accepts(map(symbol, edge)) for edge, acc in zip(graph.edges, graph.accepts)
    )
    return Value(satisfied, len(graph.edges))


def validate_sequence(seq: ReconfigSequence) -> list[int]:
    """Indices i where steps i and i+1 differ in more than one vertex."""
    bad = []
    for i in range(len(seq.steps) - 1):
        if len(seq.steps[i].changed_vertices(seq.steps[i + 1])) > 1:
            bad.append(i)
    return bad


def sequence_value(graph: ConstraintGraph, seq: ReconfigSequence) -> Value:
    """Minimum per-step value over a valid reconfiguration sequence."""
    violations = validate_sequence(seq)
    if violations:
        raise InstanceError(
            f"invalid sequence: steps {violations[0]} and {violations[0] + 1} "
            "differ in more than one vertex"
        )
    return min((value(graph, step) for step in seq.steps), key=lambda v: v.fraction)


# ---------------------------------------------------------------------------
# Instance file format
#
# A self-describing JSON document:
#   arity     - hyperedge arity q
#   alphabet  - graph-wide alphabet size
#   vertices  - list of "name" or {"name": ..., "alphabet": k} in declared order
#   edges     - list of {"vertices": [...], "accept": [[...], ...]}
#   psi_ini / psi_tar - maps vertex id -> symbol
# Symbols are decimal integers; lists keep declaration order.
# ---------------------------------------------------------------------------


def serialize(instance: ReconfInstance) -> str:
    """The instance as `json.dumps(obj, indent=2) + "\n"` writes it, byte for byte.

    `json.dumps` writes everything but the accept lists, each left as the
    placeholder `"accept": []`, which no string can hold because `json.dumps`
    escapes the quotes inside one.  The rows are spliced in from one string
    per symbol that occurs (never one per alphabet symbol), gathered per
    coordinate with the row's brackets and commas by fancy indexing.
    """
    graph, order, q = instance.graph, instance.graph.vertices, instance.graph.q
    overrides = graph.vertex_alphabets
    obj = {
        "arity": q,
        "alphabet": graph.alphabet,
        "vertices": [{"name": v, "alphabet": overrides[v]} if v in overrides else v for v in order],
        "edges": [{"vertices": list(edge), "accept": []} for edge in graph.edges],
        "psi_ini": {v: instance.psi_ini.values[v] for v in order},
        "psi_tar": {v: instance.psi_tar.values[v] for v in order},
    }
    head, *tails = json.dumps(obj, indent=2).split('"accept": []')
    rows = np.concatenate([acc._rows() for acc in graph.accepts] + [np.empty((0, q), np.int64)])
    top = int(rows.max(initial=-1)) + 1
    if top > rows.size:
        symbols, index = np.unique(rows, return_inverse=True)
        index = index.reshape(rows.shape)
    else:  # symbols below the entry count: mark them rather than sort
        present = np.zeros(top, dtype=bool)
        present[rows] = True
        symbols, index = np.flatnonzero(present), (np.cumsum(present) - 1)[rows]
    cells = np.empty(rows.shape, dtype=object)
    for c in range(q):
        opening, closing = "\n        [" if c == 0 else ",", "\n        ]," if c == q - 1 else ""
        table = [f"{opening}\n          {s}{closing}" for s in symbols.tolist()]
        cells[:, c] = np.array(table, dtype=object)[index[:, c]]
    tokens = cells.ravel().tolist()
    parts, start = [head], 0
    for acc, tail in zip(graph.accepts, tails):
        stop = start + len(acc) * q
        if stop > start:
            tokens[stop - 1] = tokens[stop - 1][:-1]  # no comma after an edge's last row
            parts += ['"accept": [', *tokens[start:stop], "\n      ]", tail]
        else:
            parts += ['"accept": []', tail]
        start = stop
    parts.append("\n")
    return "".join(parts)


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _require(obj: dict, key: str, where: str, kind: type | None = None):
    """`obj[key]`, present and, given `kind`, of exactly that JSON type (so no bools for ints)."""
    if key not in obj:
        hint = "missing endpoint" if key in ("psi_ini", "psi_tar") else f"missing field {key!r}"
        raise InstanceError(f"{where}: {hint}")
    found = obj[key]
    if kind is not None and type(found) is not kind:
        raise InstanceError(f"{where}.{key}: expected {_JSON_KINDS[kind]}, got {found!r:.40}")
    return found


def _accept_rows(rows: list, q: int, where: str):
    """A JSON accept list as a (count, q) int64 array made by one np.array call.

    Types are checked first, because the conversion would silently turn
    0.5 or true into an integer.  Rows of the wrong length, or symbols
    beyond int64, are handed on as lists for the graph to name.
    """
    if set(map(type, rows)) - {list}:
        t = next(t for t, row in enumerate(rows) if type(row) is not list)
        raise InstanceError(f"{where}[{t}]: expected a list, got {rows[t]!r:.40}")
    symbols = list(chain.from_iterable(rows))
    if set(map(type, symbols)) - {int}:
        t, sym = next((t, s) for t, row in enumerate(rows) for s in row if type(s) is not int)
        raise InstanceError(f"{where}[{t}]: symbol {sym!r:.40} is not an integer")
    if set(map(len, rows)) - {q}:
        return rows
    try:
        return np.array(symbols, dtype=np.int64).reshape(len(rows), q)
    except OverflowError:
        return rows


def graph_from_obj(obj: dict, where: str = "instance") -> ConstraintGraph:
    q = _require(obj, "arity", where, int)
    alphabet = _require(obj, "alphabet", where, int)
    names: list[str] = []
    overrides: dict[str, int] = {}
    for i, entry in enumerate(_require(obj, "vertices", where, list)):
        if type(entry) is str:
            names.append(entry)
        elif type(entry) is dict:
            name = _require(entry, "name", f"{where}.vertices[{i}]", str)
            names.append(name)
            if "alphabet" in entry:
                overrides[name] = _require(entry, "alphabet", f"{where}.vertices[{i}]", int)
        else:
            raise InstanceError(f"{where}.vertices[{i}]: malformed field")
    edges: list[tuple[str, ...]] = []
    accepts = []
    for i, entry in enumerate(_require(obj, "edges", where, list)):
        path = f"{where}.edges[{i}]"
        if type(entry) is not dict:
            raise InstanceError(f"{path}: malformed field")
        edge = tuple(_require(entry, "vertices", path, list))
        if set(map(type, edge)) - {str}:
            raise InstanceError(f"{path}.vertices: vertex ids must be strings")
        edges.append(edge)
        accepts.append(_accept_rows(_require(entry, "accept", path, list), q, f"{path}.accept"))
    try:
        return ConstraintGraph(
            q=q,
            vertices=tuple(names),
            edges=tuple(edges),
            alphabet=alphabet,
            accepts=tuple(accepts),
            vertex_alphabets=overrides,
        )
    except InstanceError as exc:
        raise InstanceError(f"{where}: {exc}") from exc


def _assignment(raw, where: str) -> Assignment:
    if type(raw) is not dict:
        raise InstanceError(f"{where}: malformed field")
    for v, sym in raw.items():
        if type(sym) is not int:
            raise InstanceError(f"{where}.{v}: symbol {sym!r:.40} is not an integer")
    return Assignment(dict(raw))


def _assignment_from_obj(obj: dict, key: str, graph: ConstraintGraph, where: str) -> Assignment:
    psi = _assignment(_require(obj, key, where), f"{where}.{key}")
    check_total(graph, psi, where=f"{where}.{key}")
    return psi


def deserialize(text: str) -> ReconfInstance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance: malformed field ({exc})") from exc
    if not isinstance(obj, dict):
        raise InstanceError("instance: malformed field (top level must be an object)")
    graph = graph_from_obj(obj, "instance")
    psi_ini = _assignment_from_obj(obj, "psi_ini", graph, "instance")
    psi_tar = _assignment_from_obj(obj, "psi_tar", graph, "instance")
    return ReconfInstance(graph, psi_ini, psi_tar)


def sequence_to_obj(seq: ReconfigSequence, order: Sequence[str]) -> dict:
    return {"steps": [{v: step.values[v] for v in order} for step in seq.steps]}


def sequence_from_obj(
    obj: dict, graph: ConstraintGraph, where: str = "sequence"
) -> ReconfigSequence:
    if type(obj) is not dict:
        raise InstanceError(f"{where}: malformed field (top level must be an object)")
    steps = []
    for i, raw in enumerate(_require(obj, "steps", where, list)):
        psi = _assignment(raw, f"{where}.steps[{i}]")
        check_total(graph, psi, where=f"{where}.steps[{i}]")
        steps.append(psi)
    return ReconfigSequence(tuple(steps))
