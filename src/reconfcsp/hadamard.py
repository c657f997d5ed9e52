"""Hadamard codewords, codeword reconfiguration paths, and their checks.

A function f: F2^n -> F2 is stored as a single integer of 2^n bits; position
x (an integer) is the vector whose j-th coordinate is bit j of x, and the
bit of f at x is `(bits >> x) & 1`.  The codeword of alpha has bit
parity(alpha & x) at position x; distinct codewords sit at relative
distance exactly 1/2.

Distances to all 2^n codewords come from a popcount kernel over a cached
uint64 word matrix, or from +-1 updates: flipping bit x moves the distance
to had(gamma) by +-(-1)^(x.gamma), row x of the cached Hadamard sign table
(the Walsh-Hadamard identity W_f(gamma) = 2^n - 2 dist(f, had(gamma)) in
Hamming units).  `codeword_distances` popcounts a block, or updates the
distances of a block a few bits away that the caller already has.  It is
the one distance kernel: block decoding reads it, and a path scan reads it
once per step, a popcount for the first step and one sign row for each next.
Nothing here remembers a block between calls.

Step t of a path that flips the positions where had(alpha) and had(beta)
differ, one each, is t from had(alpha) and 2^(n-1) - t from had(beta), and
so at least max(t, 2^(n-1) - t) from every other codeword: path verification
reads only the steps within the farness radius of both bounds.  Close-step
searches and distance profiles read the whole path, one step at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .constants import FARNESS_MARGIN, QUARTER
from .seeding import derive_seed, stream


@dataclass(frozen=True, slots=True)
class BitFunction:
    """A length-2^n bit string, positions indexed by vectors in F2^n."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError("bit block does not fit in 2^n bits")

    @property
    def length(self) -> int:
        return 1 << self.n

    def bit(self, position: int) -> int:
        return (self.bits >> position) & 1

    def flip(self, position: int) -> "BitFunction":
        if not 0 <= position < 1 << self.n:
            raise ValueError(f"position {position} out of range")
        f = object.__new__(BitFunction)  # in range: skips the checks of __post_init__
        _SET_N(f, self.n)
        _SET_BITS(f, self.bits ^ (1 << position))
        return f

    def to_hex(self) -> str:
        return format(self.bits, f"0{max(1, self.length // 4)}x")

    @classmethod
    def from_hex(cls, n: int, text: str) -> "BitFunction":
        return cls(n, int(text, 16))


# The slot setters behind BitFunction's frozen __setattr__
_SET_N, _SET_BITS = BitFunction.n.__set__, BitFunction.bits.__set__


# Largest block exponent any command or reader accepts: at n = 12 the sign
# table is 2^12 x 2^12 int8 (16 MiB), and the codeword table is 2^12 blocks
# of 4096 bits (2 MiB, held twice: as integers and as the word matrix).
MAX_N = 12


def _parity_grid(n: int) -> np.ndarray:
    """(2^n, 2^n) uint8 matrix with entry [alpha, x] = parity(alpha & x); symmetric."""
    x = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    parity = np.bitwise_count(x[:, None] & x)
    parity &= 1
    return parity


@lru_cache(maxsize=None)
def codeword_table(n: int) -> tuple[int, ...]:
    """All 2^n codewords as raw bit blocks, indexed by the encoded vector."""
    rows = np.packbits(_parity_grid(n), axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)


@lru_cache(maxsize=None)
def codeword_words(n: int) -> np.ndarray:
    """The codeword table as a read-only (words, 2^n) uint64 matrix.

    Column alpha holds alpha's codeword, 64 positions per little-endian word;
    storing it word-major lets the per-codeword popcount sum run down
    contiguous rows.
    """
    words = max(1, (1 << n) // 64)
    raw = b"".join(cw.to_bytes(8 * words, "little") for cw in codeword_table(n))
    matrix = np.frombuffer(raw, dtype="<u8").reshape(1 << n, words).T.copy()
    matrix.flags.writeable = False
    return matrix


@lru_cache(maxsize=None)
def hadamard_signs(n: int) -> np.ndarray:
    """Read-only (2^n, 2^n) int8 matrix with entry [x, gamma] = (-1)^(x.gamma).

    Row x is how flipping bit x from 0 to 1 moves the distance to each
    codeword (the negated row for a flip from 1 to 0): 256 KiB at n = 9,
    16 MiB at n = 12, built on first use.
    """
    signs = _parity_grid(n).view(np.int8)
    signs *= -2
    signs += 1
    signs.flags.writeable = False
    return signs


# A block at most this many bits from one whose distances are known is
# answered by one sign row per flipped bit; beyond it the popcount is cheaper.
NEAR_FLIPS = 4


def codeword_distances(
    n: int, bits: int, near: tuple[int, np.ndarray] | None = None
) -> np.ndarray:
    """Hamming distance from the 2^n-bit block `bits` to every codeword, indexed by symbol.

    If `near` = (block, its distances) is at most NEAR_FLIPS bits away, the
    result is a new array: those distances plus or minus one row of
    `hadamard_signs(n)` per flipped bit.  Otherwise `bits` is popcounted.
    """
    if near is not None and (near[0] ^ bits).bit_count() <= NEAR_FLIPS:
        known, dist = near
        signs = hadamard_signs(n)
        delta = known ^ bits
        while delta:
            low = delta & -delta
            row = signs[low.bit_length() - 1]
            dist = dist + row if bits & low else dist - row
            delta ^= low
        return dist
    table = codeword_words(n)
    block = np.frombuffer(bits.to_bytes(8 * len(table), "little"), dtype="<u8")
    return np.bitwise_count(table ^ block[:, None]).sum(axis=0, dtype=np.int32)


def had_encode(alpha: int, n: int) -> BitFunction:
    """Codeword of alpha: bit at x is the parity of the bitwise AND of alpha and x."""
    if not 0 <= alpha < (1 << n):
        raise ValueError(f"alpha {alpha} out of range for n={n}")
    return BitFunction(n, codeword_table(n)[alpha])


def hamming(f: BitFunction, g: BitFunction) -> int:
    if f.n != g.n:
        raise ValueError(f"length mismatch: 2^{f.n} vs 2^{g.n}")
    return (f.bits ^ g.bits).bit_count()


def rel_distance(f: BitFunction, g: BitFunction) -> Fraction:
    """Fraction of positions on which f and g differ, as an exact rational."""
    return Fraction(hamming(f, g), f.length)


def disagreement_set(alpha: int, beta: int, n: int) -> frozenset[int]:
    """Positions where the codewords of alpha and beta differ; size 2^(n-1)."""
    if alpha == beta:
        raise ValueError("alpha and beta must differ")
    table = codeword_table(n)
    return frozenset(bit_positions(table[alpha] ^ table[beta], n))


def bit_positions(bits: int, n: int) -> list[int]:
    """Positions of the set bits of a 2^n-bit block, ascending."""
    raw = np.frombuffer(bits.to_bytes(max(1, 1 << n >> 3), "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


@dataclass(frozen=True)
class PartitionReport:
    """The four agreement classes of positions for a distinct triple."""

    p_alpha: frozenset[int]
    p_beta: frozenset[int]
    p_gamma: frozenset[int]
    p_equal: frozenset[int]

    def sizes(self) -> tuple[int, int, int, int]:
        return (len(self.p_alpha), len(self.p_beta), len(self.p_gamma), len(self.p_equal))


def partition_triple(alpha: int, beta: int, gamma: int, n: int) -> PartitionReport:
    """Split positions by which of the three codeword bits disagrees with the other two."""
    if len({alpha, beta, gamma}) != 3:
        raise ValueError("alpha, beta, gamma must be pairwise distinct")
    table = codeword_table(n)
    a, b, c = table[alpha], table[beta], table[gamma]
    # of three bits, one differs from the other two or all three are equal
    classes = ((a ^ b) & (a ^ c), (b ^ a) & (b ^ c), (c ^ a) & (c ^ b), ~((a ^ b) | (a ^ c)))
    masked = (bits & ((1 << (1 << n)) - 1) for bits in classes)
    return PartitionReport(*(frozenset(bit_positions(m, n)) for m in masked))


# claim-partition reads all (2^n)^3 triples, 8x the work per step of n: 8 s at n = 6.
CLAIM_PARTITION_MAX_N = 6


def claim_partition(n: int) -> tuple[list[list], bool]:
    """CSV rows (alpha, beta, gamma, four class sizes, P_alpha | P_beta == D) over every
    distinct triple, and whether every class has size 2^(n-2) and every union is D."""
    expected = (1 << (n - 2),) * 4
    rows, ok = [], True
    for alpha, beta, gamma in itertools.permutations(range(1 << n), 3):
        report = partition_triple(alpha, beta, gamma, n)
        sizes = report.sizes()
        union_ok = report.p_alpha | report.p_beta == disagreement_set(alpha, beta, n)
        ok = ok and sizes == expected and union_ok
        rows.append([alpha, beta, gamma, *sizes, union_ok])
    return rows, ok


@dataclass(frozen=True)
class CodewordPath:
    """The single-bit-step path from the codeword of alpha that flips `flip_order` in turn.

    A path is its flip order: `steps` (the codeword of alpha, then one block
    per flip) is built from it and takes no part in equality or hashing.
    """

    n: int
    alpha: int
    beta: int
    flip_order: tuple[int, ...]
    steps: tuple[BitFunction, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flip_order", order := tuple(self.flip_order))
        n, start = self.n, had_encode(self.alpha, self.n)
        if order and not 0 <= min(order) <= max(order) < 1 << n:
            start.flip(next(x for x in order if not 0 <= x < 1 << n))  # raises its ValueError
        steps, bits = [start], start.bits
        for position in order:  # as `BitFunction.flip`, with the range checked above
            bits ^= 1 << position
            f = object.__new__(BitFunction)
            _SET_N(f, n)
            _SET_BITS(f, bits)
            steps.append(f)
        object.__setattr__(self, "steps", tuple(steps))


@dataclass(frozen=True)
class PathReport:
    ok: bool
    kind: str | None = None  # "structure" or "distance"
    step: int | None = None
    gamma: int | None = None
    distance: Fraction | None = None
    detail: str = ""


def _step_distances(
    path: CodewordPath, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, np.ndarray, int]]:
    """(t, distances of step t to every codeword, the least to one other than alpha
    and beta) for t = start..stop-1: step `start` by popcount, each next by one sign row."""
    others = np.ones(1 << path.n, dtype=bool)
    others[[path.alpha, path.beta]] = False
    near = None
    for t, step in enumerate(path.steps[start:stop], start):
        dist = codeword_distances(path.n, step.bits, near)
        near = step.bits, dist
        # the initial value is above any distance: at n = 1 there is no third codeword
        yield t, dist, int(dist.min(where=others, initial=(1 << path.n) + 1))


def find_close_step(
    path: CodewordPath, radius: Fraction, start: int = 0, stop: int | None = None
) -> tuple[int, int, Fraction] | None:
    """First (step, gamma, distance) among steps start..stop-1 with a codeword gamma other
    than alpha and beta within `radius`, smallest gamma first; else None."""
    length = 1 << path.n
    limit = int(radius * length)  # dist <= radius  <=>  hamming <= floor(radius * 2^n)
    for t, dist, nearest in _step_distances(path, start, stop):
        if nearest <= limit:
            close = np.flatnonzero(dist <= limit).tolist()
            gamma = next(g for g in close if g not in (path.alpha, path.beta))
            return t, gamma, Fraction(int(dist[gamma]), length)
    return None


def farness_violation(path: CodewordPath) -> tuple[int, int, Fraction] | None:
    """First (step, gamma, distance) with a third codeword within 1/4 + FARNESS_MARGIN, else None.

    The path is far from every other codeword exactly when this is None.
    """
    return find_close_step(path, QUARTER + FARNESS_MARGIN)


def verify_codeword_path(path: CodewordPath) -> PathReport:
    """Check that the flip order is a permutation of D, and third-codeword farness.

    The farness condition is strict: every step must be more than
    1/4 + FARNESS_MARGIN away from every codeword other than the endpoints.
    Only the steps where it can fail are read.
    """
    if sorted(path.flip_order) != sorted(disagreement_set(path.alpha, path.beta, path.n)):
        return PathReport(False, "structure", detail="flip order is not a permutation of D")
    # So step t is t from had(alpha) and 2^(n-1) - t from had(beta), both 2^(n-1) from
    # every other codeword, and so at least max(t, 2^(n-1) - t) from it: only steps
    # 2^(n-1) - r .. r, r = floor(radius * 2^n), can come within the radius.
    radius = QUARTER + FARNESS_MARGIN
    half, r = 1 << (path.n - 1), int(radius * (1 << path.n))
    hit = find_close_step(path, radius, max(0, half - r), r + 1)
    if hit is not None:
        t, gamma, distance = hit
        return PathReport(False, "distance", t, gamma, distance,
                          detail="third codeword within 1/4 + margin")
    return PathReport(True)


class PathGenerationError(RuntimeError):
    """Raised when repeated sampling fails to produce a verified path."""


def generate_codeword_path(
    alpha: int, beta: int, n: int, seed: int, max_retries: int = 3
) -> CodewordPath:
    """Sample a uniformly random flip order of D; for n >= 9, retry until verified.

    Failure after `max_retries` verified-sampling attempts contradicts the
    expected failure probability below 2^n * 0.9^(2^(n-2)) and is surfaced
    loudly with the offending step and codeword.
    """
    if alpha == beta:
        raise ValueError("alpha and beta must differ")
    if n < 2:
        raise ValueError("n must be at least 2")
    positions = sorted(disagreement_set(alpha, beta, n))
    last_failure: PathReport | None = None
    for attempt in range(max_retries):
        rng = stream(seed, "codeword-path", alpha, beta, attempt)
        order = list(positions)
        rng.shuffle(order)
        path = CodewordPath(n, alpha, beta, order)
        if n < 9:
            return path
        report = verify_codeword_path(path)
        if report.ok:
            return path
        last_failure = report
    assert last_failure is not None
    bound = (1 << n) * 0.9 ** (1 << (n - 2))
    raise PathGenerationError(
        f"codeword path generation failed {max_retries} times for n={n}, "
        f"alpha={alpha}, beta={beta}: step {last_failure.step} is within "
        f"{last_failure.distance} of codeword {last_failure.gamma}; repeated "
        f"failure contradicts the expected failure probability < {bound:.3g}"
    )


def distance_profile(path: CodewordPath) -> list[tuple[int, int, int, int]]:
    """Rows (step, hamming-to-alpha, hamming-to-beta, min-hamming-to-others)."""
    return [(t, int(dist[path.alpha]), int(dist[path.beta]), nearest)
            for t, dist, nearest in _step_distances(path)]


def exhaust_flip_orders(alpha: int, beta: int, n: int, radius: Fraction = QUARTER):
    """Yield (flip order, first third-codeword hit within radius or None) for all orders.

    Only sensible for tiny n: the number of orders is (2^(n-1))!.
    """
    positions = sorted(disagreement_set(alpha, beta, n))
    for order in itertools.permutations(positions):
        yield order, find_close_step(CodewordPath(n, alpha, beta, order), radius)


def n3_flip_orders() -> tuple[list[list], bool]:
    """CSV rows (alpha, beta, order, close step, gamma, distance; empty when no third codeword
    comes within 1/4) for every flip order at n = 3, and whether every order meets one."""
    rows, all_hit = [], True
    for alpha, beta in itertools.permutations(range(8), 2):
        for order, hit in exhaust_flip_orders(alpha, beta, 3, QUARTER):
            all_hit = all_hit and hit is not None
            step, gamma, dist = hit if hit is not None else ("", "", "")
            rows.append([alpha, beta, "-".join(map(str, order)), step, gamma, str(dist)])
    return rows, all_hit


# ---------------------------------------------------------------------------
# Partial sums of a random +-1 sequence
# ---------------------------------------------------------------------------


def min_partial_sum(entries: Sequence[int]) -> int:
    """Minimum prefix sum of a non-empty +-1 sequence."""
    if not entries:
        raise ValueError("sequence must be non-empty")
    if any(e not in (1, -1) for e in entries):
        raise ValueError("entries must be +1 or -1")
    return min(itertools.accumulate(entries))


@dataclass(frozen=True)
class PartialSumResult:
    n: int
    trials: int
    threshold: int  # event: min prefix sum <= -threshold
    hits: int
    bound: float  # 0.9 ** N, meaningful for N > 100

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.hits, self.trials)


# Largest N whose row of 2N entries fits one batch, which shuffles at most 2^22 entries.
PARTIAL_SUM_MAX_N = 1 << 21


def partial_sum_experiment(n: int, trials: int, seed: int) -> PartialSumResult:
    """Frequency of min prefix sum <= -ceil(0.99 N) over seeded shuffles of N +1s and N -1s."""
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    threshold = math.ceil(Fraction(99, 100) * n)
    rng = np.random.default_rng(derive_seed(seed, "partial-sum", n, trials))
    base = np.concatenate([np.ones(n, dtype=np.int16), -np.ones(n, dtype=np.int16)])
    hits = 0
    batch = max(1, PARTIAL_SUM_MAX_N // n)  # rows of 2N entries
    remaining = trials
    while remaining > 0:
        rows = min(batch, remaining)
        block = rng.permuted(np.tile(base, (rows, 1)), axis=1)
        mins = block.cumsum(axis=1, dtype=np.int32).min(axis=1)
        hits += int((mins <= -threshold).sum())
        remaining -= rows
    return PartialSumResult(n, trials, threshold, hits, 0.9**n)


# Largest N enumerated exactly: C(20, 10) = 184,756 arrangements.
EXHAUSTIVE_MAX_N = 10


def partial_sum_exhaustive(n: int) -> Fraction:
    """Exact frequency of min prefix sum <= -ceil(0.99 N) over all arrangements."""
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration needs 1 <= n <= {EXHAUSTIVE_MAX_N}")
    threshold = math.ceil(Fraction(99, 100) * n)
    total = math.comb(2 * n, n)
    hits = 0
    for minus in map(set, itertools.combinations(range(2 * n), n)):
        steps = (-1 if i in minus else 1 for i in range(2 * n))
        hits += min(itertools.accumulate(steps)) <= -threshold
    return Fraction(hits, total)
