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
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
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
    known: elsewhere a set is built from tuples (an iterable, or rows of a 2-D
    integer array), from codes (`from_codes`), a boolean table (`from_table`)
    or another set, and read by `len`, `in`, `==`, a boolean table (`table`) and
    iteration, which yields the tuples in sorted order.  Tuples, and a set
    handed alphabets other than its own, are range-checked and encoded as
    one row array; a symbol is an `int` or numpy integer, never a bool.  An
    error names `accept[t]`, the t-th tuple in the order given, or in sorted
    order for a `set` or `frozenset`.
    """

    __slots__ = ("_sizes", "_codes", "_view")

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
        return _make(sizes, np.array(codes, dtype=np.int64))

    @classmethod
    def from_table(cls, table: np.ndarray) -> "AcceptSet":
        """The True cells of a boolean table with one axis per coordinate; flat index = code."""
        return cls.from_codes(np.flatnonzero(table), table.shape)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self._sizes

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    def __len__(self) -> int:
        return len(self._codes)

    def __reduce__(self):
        return AcceptSet.from_codes, (self._codes, self._sizes)

    def __contains__(self, tup) -> bool:
        return len(tup) == len(self._sizes) and self._accepts(tup)

    def _accepts(self, symbols: Iterable[int]) -> bool:
        """Whether `symbols`, one per coordinate, form an accepted tuple."""
        code = 0
        for sym, size in zip(symbols, self._sizes):
            if not 0 <= sym < size:
                return False
            code = code * size + sym
        view = self._view
        at = bisect_left(view, code)
        return at < len(view) and view[at] == code

    def _rows(self) -> np.ndarray:
        """The tuples as a (count, q) int64 array, in lexicographic order."""
        codes = self._codes
        rows = np.empty((len(codes), len(self._sizes)), dtype=np.int64)
        for coord in reversed(range(len(self._sizes))):
            codes, rows[:, coord] = np.divmod(codes, self._sizes[coord])
        return rows

    def table(self) -> np.ndarray:
        """The set as a boolean table with one axis per coordinate; a code is its flat index."""
        table = np.zeros(self._sizes, dtype=bool)
        table.reshape(-1)[self._codes] = True
        return table

    def __iter__(self):
        return map(tuple, self._rows().tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AcceptSet):
            return NotImplemented
        if len(self) != len(other):
            return False
        if self._sizes == other._sizes:
            return bool(np.array_equal(self._codes, other._codes))
        return len(self) == 0 or bool(np.array_equal(self._rows(), other._rows()))

    def __repr__(self) -> str:
        return f"AcceptSet({len(self)} tuples over alphabets {self._sizes})"


def _make(sizes: tuple[int, ...], codes: np.ndarray) -> AcceptSet:
    acc = object.__new__(AcceptSet)
    codes.flags.writeable = False
    # a memoryview's items are Python ints, so `_accepts` bisects without numpy scalars
    acc._sizes, acc._codes, acc._view = sizes, codes, memoryview(codes)
    return acc


def _pack(tuples, sizes: tuple[int, ...], names) -> AcceptSet:
    """`tuples` as an AcceptSet over `sizes`; errors name `accept[t]` and, given, vertex `names`.

    All but a set over `sizes` reach `_pack_rows` as rows, row t being tuple
    t in the order given, or in sorted order for a `set` or `frozenset`.
    """
    _code_space(sizes)
    if isinstance(tuples, AcceptSet):
        if tuples.sizes == sizes:
            return tuples
        tuples = tuples._rows()
    elif not isinstance(tuples, np.ndarray):
        tuples = _tuple_rows(tuples, sizes, names)
    return _pack_rows(tuples, sizes, names)


def _tuple_rows(tuples, sizes: tuple[int, ...], names) -> np.ndarray:
    """Python tuples as a (count, q) int64 array, by one type scan and one np.array call.

    Types are scanned first, because the conversion would turn 0.5 or True
    into an integer; rows that fail the scan are named by `_tuple_error`.
    """
    rows = list(tuples)
    if isinstance(tuples, (set, frozenset)):
        try:
            rows = sorted(rows)
        except TypeError:  # rows that do not sort are counted as they iterate
            pass
    if _all_of(rows, (tuple, list, np.ndarray)) and set(map(len, rows)) <= {len(sizes)}:
        symbols = list(chain.from_iterable(rows))
        if _all_of(symbols, (int, np.integer)):
            try:
                return np.array(symbols, dtype=np.int64).reshape(len(rows), len(sizes))
            except OverflowError:  # a symbol beyond int64 is out of range for every alphabet
                pass
    raise _tuple_error(rows, sizes, names)


def _all_of(items, kinds: tuple[type, ...]) -> bool:
    """Whether every item is an instance of `kinds` and none is a bool, scanning types once."""
    return all(kind is not bool and issubclass(kind, kinds) for kind in set(map(type, items)))


def _out_of_range(t: int, sym, coord: int, size: int, names) -> InstanceError:
    where = f"vertex {names[coord]!r}" if names is not None else f"coordinate {coord}"
    return InstanceError(f"accept[{t}]: symbol {sym} out of range for {where} (alphabet {size})")


def _tuple_error(rows, sizes: tuple[int, ...], names) -> InstanceError:
    """The error for the first bad row, counting rows in the order given (a set's arrive sorted).

    A row is a tuple, list or 1-D array of one symbol per coordinate; a
    symbol is an `int` or a numpy integer, not a bool, within its alphabet.
    """
    for t, tup in enumerate(rows):
        if not isinstance(tup, (tuple, list, np.ndarray)):
            return InstanceError(f"accept[{t}]: expected a tuple of symbols, got {tup!r:.40}")
        if len(tup) != len(sizes):
            return InstanceError(f"accept[{t}]: arity mismatch")
        for coord, (sym, size) in enumerate(zip(tup, sizes)):
            if type(sym) is bool or not isinstance(sym, (int, np.integer)):
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
    symbols = rows.astype(np.int64, copy=False)
    # read unsigned, a negative symbol is at least 2^63: one comparison checks both bounds
    bad = symbols.view(np.uint64) >= np.array(sizes, dtype=np.uint64)
    if np.count_nonzero(bad):
        t, coord = (int(i) for i in np.argwhere(bad)[0])
        raise _out_of_range(t, rows[t, coord], coord, sizes[coord], names)
    place = [math.prod(sizes[coord + 1 :]) for coord in range(len(sizes))]
    codes = symbols @ np.array(place, dtype=np.int64)
    if np.count_nonzero(codes[1:] <= codes[:-1]):
        codes = np.unique(codes)
    return _make(sizes, codes)


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
    One object given for several hyperedges over the same alphabets is
    packed once, and those hyperedges hold the same `AcceptSet`.
    `alphabets` maps each vertex, in declared order, to its alphabet.
    """

    q: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, ...], ...]
    alphabet: int
    accepts: tuple[AcceptSet, ...]
    vertex_alphabets: Mapping[str, int] = field(default_factory=dict)
    alphabets: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q < 1:
            raise InstanceError("arity must be positive")
        if self.alphabet < 1:
            raise InstanceError("alphabet size must be positive")
        alpha = dict.fromkeys(self.vertices, self.alphabet)  # each vertex's alphabet
        if len(alpha) != len(self.vertices):
            raise InstanceError("duplicate vertex id")
        if len(self.accepts) != len(self.edges):
            raise InstanceError("accepts/edges length mismatch")
        for name, size in self.vertex_alphabets.items():
            if name not in alpha:
                raise InstanceError(f"alphabet override for unknown vertex id {name!r}")
            if size < 1:
                raise InstanceError(f"alphabet override for {name!r} must be positive")
        alpha.update(self.vertex_alphabets)
        packed, shared = [], {}
        for i, (edge, accepts) in enumerate(zip(self.edges, self.accepts)):
            if len(edge) != self.q:
                raise InstanceError(f"edges[{i}]: arity mismatch (got {len(edge)}, declared {self.q})")
            try:
                sizes = tuple(map(alpha.__getitem__, edge))
            except KeyError:
                v = next(v for v in edge if v not in alpha)
                raise InstanceError(f"edges[{i}]: unknown vertex id {v!r}") from None
            if type(accepts) is not AcceptSet or accepts._sizes != sizes:
                key = (id(accepts), sizes)
                if key not in shared:
                    try:
                        shared[key] = _pack(accepts, sizes, edge)
                    except InstanceError as exc:
                        raise InstanceError(f"edges[{i}].{exc}") from None
                accepts = shared[key]
            packed.append(accepts)
        object.__setattr__(self, "accepts", tuple(packed))
        object.__setattr__(self, "alphabets", alpha)

    def alphabet_of(self, vertex: str) -> int:
        return self.alphabets.get(vertex, self.alphabet)

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
        if len(distinct) == len(edge):
            return distinct, accepts.table()
        table = np.zeros([self.alphabets[v] for v in distinct], dtype=bool)
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
    values, alphabets = psi.values, graph.alphabets
    for v, size in alphabets.items():
        if v not in values:
            raise InstanceError(f"incomplete assignment: {where} misses vertex {v!r}")
        sym = values[v]
        if not 0 <= sym < size:
            raise InstanceError(f"{where}: symbol {sym} out of range for vertex {v!r}")
    if len(values) != len(alphabets):  # every vertex is assigned, so one is unknown
        v = next(v for v in values if v not in alphabets)
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
    escapes the quotes inside one.  Each distinct `AcceptSet` object is
    rendered once and its text spliced in for every edge holding it; the
    rows come from one string per symbol that occurs (never one per alphabet
    symbol), gathered per coordinate with the row's brackets and commas by
    fancy indexing.
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
    distinct = {id(acc): acc for acc in graph.accepts}
    rows = [acc._rows() for acc in distinct.values()]
    rows = np.concatenate(rows + [np.empty((0, q), np.int64)])
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
    tokens, texts, start = cells.ravel().tolist(), {}, 0
    for key, acc in distinct.items():
        stop = start + len(acc) * q
        if stop > start:
            tokens[stop - 1] = tokens[stop - 1][:-1]  # no comma after an edge's last row
            texts[key] = "".join(['"accept": [', *tokens[start:stop], "\n      ]"])
        else:
            texts[key] = '"accept": []'
        start = stop
    parts = [head]
    for acc, tail in zip(graph.accepts, tails):
        parts += (texts[id(acc)], tail)
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
        rows = entry.get("accept")  # an array only from `_written_layout`
        accepts.append(rows if type(rows) is np.ndarray else _require(entry, "accept", path, list))
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


# How `serialize` opens and closes a non-empty accept list, and what replaces it.
_ACCEPT_KEY = b'\n      "accept": [\n'
_ACCEPT_CLOSE = b"\n      ]"
_CUT = b'"\\u0000"'


def _written_layout(data: bytes) -> dict | None:
    """The instance object, accept lists read as (count, q) int64 arrays, or None.

    This reads only text laid out as `serialize` writes it.  Each accept
    list opened by the key at six spaces of indentation, which an escaped
    `\\"accept` inside a string cannot be, is cut out and replaced by the
    string "\\u0000"; `json.loads` parses the small remainder, and the cuts
    must be exactly the edges' accept values, in order.  A cut list is read
    only if, with its digits deleted, it is the canonical skeleton of its
    row count and the arity, and its symbols are 1-18 digits without a
    leading zero, one per slot.  The symbols are the digit runs of the
    bytes, found with numpy a list at a time and parsed a decimal place at
    a time.  Each distinct list is checked and parsed once, and
    lists byte-equal to it get its array, which the graph packs once.  On
    anything else this returns None and `deserialize` parses the text
    whole, so every error is reported as before.
    """
    if not data.isascii():
        return None
    starts, ends, pieces, prev = [], [], [], 0
    at = data.find(_ACCEPT_KEY)
    while at >= 0:
        # the list's "]" is the last one at six spaces before its edge's "}"
        start, brace = at + len(_ACCEPT_KEY) - 1, data.find(b"}", at)
        end = data.rfind(_ACCEPT_CLOSE, start, brace) + len(_ACCEPT_CLOSE)
        if brace < 0 or end <= start:
            return None
        pieces += (data[prev : start - 1], _CUT)
        starts.append(start)
        ends.append(end)
        prev = end
        at = data.find(_ACCEPT_KEY, end)
    if not starts:
        return None
    remainder = b"".join(pieces) + data[prev:]
    if remainder.count(b"\\u0000") != len(starts):  # so every "\0" string is a cut
        return None
    try:
        obj = json.loads(remainder)
    except ValueError:  # malformed, or an integer too long to convert: reported whole
        return None
    q, edges = (obj.get("arity"), obj.get("edges")) if type(obj) is dict else (None, None)
    if type(q) is not int or type(edges) is not list:
        return None
    holders = [edge for edge in edges if type(edge) is dict and edge.get("accept") == "\0"]
    if len(holders) != len(starts) or not 1 <= q <= len(data) // 12:  # a row fits the text
        return None
    row = b"\n        [" + b",".join([b"\n          "] * q) + b"\n        ]"
    buf = np.frombuffer(data, dtype=np.uint8)
    distinct, order, skeletons, counts, flips = {}, [], {}, [], []
    for start, end in zip(starts, ends):
        piece = data[start:end]
        order.append(distinct.setdefault(piece, len(distinct)))
        if order[-1] < len(counts):  # byte-equal to a list already read
            continue
        skeleton = piece.translate(None, b"0123456789")
        rows = (len(skeleton) - 7) // (len(row) + 1)
        if rows not in skeletons:
            skeletons[rows] = b",".join([row] * rows) + b"\n      ]"
        # a list starts with a line break and ends with "]": each digit run flips twice
        digit = (buf[start:end] - ord("0")) < 10
        flips.append(np.flatnonzero(digit[1:] != digit[:-1]) + (start + 1))
        if skeleton != skeletons[rows] or len(flips[-1]) != 2 * rows * q:
            return None
        counts.append(rows * q)
    flips = np.concatenate(flips)
    first, stop = flips[0::2], flips[1::2]
    length, follow = stop - first, buf[stop]
    # one run per slot: after the slot's indentation, before a "," or a line break
    if (
        length.max(initial=1) > 18
        or ((length > 1) & (buf[first] == ord("0"))).any()
        or not (buf[first - 1] == ord(" ")).all()
        or not ((follow == ord(",")) | (follow == ord("\n"))).all()
    ):
        return None
    symbols = np.zeros(len(first), dtype=np.int64)
    for place in range(int(length.max(initial=0))):
        more = length > place
        symbols = np.where(more, symbols * 10 + (buf[first + place * more] - ord("0")), symbols)
    arrays = [part.reshape(-1, q) for part in np.split(symbols, np.cumsum(counts)[:-1])]
    for edge, k in zip(holders, order):
        edge["accept"] = arrays[k]
    return obj


def utf8_text(data: bytes) -> str:
    """The bytes as UTF-8 text, or an InstanceError saying where they are not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def deserialize(text: str | bytes) -> ReconfInstance:
    """The instance in `text`, or in the UTF-8 bytes of a file as read."""
    obj = _written_layout(text if isinstance(text, bytes) else text.encode("utf-8", "replace"))
    if obj is None:
        try:
            obj = json.loads(text if isinstance(text, str) else utf8_text(text))
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
