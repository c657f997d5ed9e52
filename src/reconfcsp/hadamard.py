"""Hadamard codewords, codeword reconfiguration paths, and their checks.

A function f: F2^n -> F2 is stored as a single integer of 2^n bits; position
x (an integer) is the vector whose j-th coordinate is bit j of x, and the
bit of f at x is `(bits >> x) & 1`.  The codeword of alpha has bit
parity(alpha & x) at position x; distinct codewords sit at relative
distance exactly 1/2.

Distances to all 2^n codewords come from one kernel over a cached uint64
word matrix: `codeword_distances` popcounts a block against every codeword
at once, and `path_distances` gives the whole (step x codeword) matrix of a
single-bit path by a cumulative sum of per-flip +-1 updates (the
Walsh-Hadamard identity W_f(gamma) = 2^n - 2 dist(f, had(gamma)) in Hamming
units).  Path checks, distance profiles and block decoding read from them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .constants import FARNESS_MARGIN, QUARTER
from .seeding import derive_seed, stream


@dataclass(frozen=True)
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
        if not 0 <= position < self.length:
            raise ValueError(f"position {position} out of range")
        return BitFunction(self.n, self.bits ^ (1 << position))

    def to_hex(self) -> str:
        return format(self.bits, f"0{max(1, self.length // 4)}x")

    @classmethod
    def from_hex(cls, n: int, text: str) -> "BitFunction":
        return cls(n, int(text, 16))


# Largest block exponent any command or reader accepts: a codeword-path
# distance matrix at n = 12 is (2^11 + 1) x 2^12 int32 (32 MiB), and the
# codeword table is 2^12 blocks of 4096 bits.
MAX_N = 12


@lru_cache(maxsize=None)
def codeword_table(n: int) -> tuple[int, ...]:
    """All 2^n codewords as raw bit blocks, indexed by the encoded vector."""
    x = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    parity = np.bitwise_count(x[:, None] & x)
    parity &= 1
    rows = np.packbits(parity, axis=1, bitorder="little")
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


def codeword_distances(n: int, bits: int) -> np.ndarray:
    """Hamming distance from the 2^n-bit block `bits` to every codeword, indexed by symbol."""
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
    diff = table[alpha] ^ table[beta]
    return frozenset(x for x in range(1 << n) if (diff >> x) & 1)


@dataclass(frozen=True)
class PartitionReport:
    """The four agreement classes of positions for a distinct triple."""

    n: int
    alpha: int
    beta: int
    gamma: int
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
    p_alpha, p_beta, p_gamma, p_equal = [], [], [], []
    for x in range(1 << n):
        bits = ((a >> x) & 1, (b >> x) & 1, (c >> x) & 1)
        if bits[0] != bits[1] and bits[1] == bits[2]:
            p_alpha.append(x)
        elif bits[1] != bits[2] and bits[2] == bits[0]:
            p_beta.append(x)
        elif bits[2] != bits[0] and bits[0] == bits[1]:
            p_gamma.append(x)
        else:
            p_equal.append(x)
    return PartitionReport(
        n, alpha, beta, gamma,
        frozenset(p_alpha), frozenset(p_beta), frozenset(p_gamma), frozenset(p_equal),
    )


@dataclass(frozen=True)
class CodewordPath:
    """A single-bit-step path from the codeword of alpha to that of beta."""

    n: int
    alpha: int
    beta: int
    steps: tuple[BitFunction, ...]
    flip_order: tuple[int, ...]


@dataclass(frozen=True)
class PathReport:
    ok: bool
    kind: str | None = None  # "structure" or "distance"
    step: int | None = None
    gamma: int | None = None
    distance: Fraction | None = None
    detail: str = ""


def build_path(alpha: int, beta: int, n: int, flip_order: Sequence[int]) -> CodewordPath:
    """Materialize the path that flips the given positions in order."""
    current = had_encode(alpha, n)
    steps = [current]
    for position in flip_order:
        current = current.flip(position)
        steps.append(current)
    return CodewordPath(n, alpha, beta, tuple(steps), tuple(flip_order))


def path_distances(path: CodewordPath) -> np.ndarray:
    """(steps, 2^n) int32 matrix whose entry [t, gamma] is the distance of step t to had(gamma).

    Row 0 is one kernel call; flipping position x of f then changes the
    distance to gamma by (-1)^(f(x) + gamma.x), and because the Hadamard
    matrix is symmetric those signs are the codeword of x.  Every step must
    change exactly one bit.
    """
    n, steps = path.n, path.steps
    positions, before = [], []
    for t in range(len(steps) - 1):
        delta = steps[t].bits ^ steps[t + 1].bits
        if delta.bit_count() != 1:
            raise ValueError(f"path step {t} changes {delta.bit_count()} bits, not one")
        x = delta.bit_length() - 1
        positions.append(x)
        before.append((steps[t].bits >> x) & 1)
    dist = np.empty((len(steps), 1 << n), dtype=np.int32)
    dist[0] = codeword_distances(n, steps[0].bits)
    if positions:
        rows = np.ascontiguousarray(codeword_words(n)[:, positions].T).view(np.uint8)
        flips = np.unpackbits(rows, axis=1, count=1 << n, bitorder="little")
        flips ^= np.array(before, dtype=np.uint8)[:, None]  # 1 where the flip moves closer
        dist[1:] = flips
        dist[1:] *= -2
        dist[1:] += 1
        np.cumsum(dist, axis=0, out=dist)
    return dist


def _first_close(
    path: CodewordPath, dist: np.ndarray, radius: Fraction
) -> tuple[int, int, Fraction] | None:
    length = 1 << path.n
    close = dist <= int(radius * length)  # dist <= radius  <=>  hamming <= floor(radius * 2^n)
    close[:, [path.alpha, path.beta]] = False
    first = int(close.argmax())  # first row-major hit: earliest step, then smallest gamma
    if not close.flat[first]:
        return None
    t, gamma = divmod(first, length)
    return t, gamma, Fraction(int(dist[t, gamma]), length)


def find_close_step(path: CodewordPath, radius: Fraction) -> tuple[int, int, Fraction] | None:
    """First (step, gamma, distance) with a third codeword within `radius`, else None."""
    return _first_close(path, path_distances(path), radius)


def verify_codeword_path(path: CodewordPath) -> PathReport:
    """Exhaustively check structure, quarter-closeness, and third-codeword farness.

    The farness condition is strict: every step must be more than
    1/4 + FARNESS_MARGIN away from every codeword other than the endpoints.
    """
    n = path.n
    start = had_encode(path.alpha, n)
    end = had_encode(path.beta, n)
    d_set = disagreement_set(path.alpha, path.beta, n)
    if path.steps[0] != start:
        return PathReport(False, "structure", 0, detail="first step is not the alpha codeword")
    if path.steps[-1] != end:
        return PathReport(False, "structure", len(path.steps) - 1,
                          detail="last step is not the beta codeword")
    if len(path.steps) != (1 << (n - 1)) + 1:
        return PathReport(False, "structure", detail="wrong number of steps")
    if sorted(path.flip_order) != sorted(d_set):
        return PathReport(False, "structure", detail="flip order is not a permutation of D")
    for t in range(len(path.steps) - 1):
        delta = path.steps[t].bits ^ path.steps[t + 1].bits
        if delta.bit_count() != 1:
            return PathReport(False, "structure", t, detail="step changes more than one bit")
        position = delta.bit_length() - 1
        if position not in d_set:
            return PathReport(False, "structure", t,
                              detail=f"flipped position {position} lies outside D")
    dist = path_distances(path)
    far = np.minimum(dist[:, path.alpha], dist[:, path.beta]) > (1 << n) // 4
    if far.any():
        return PathReport(False, "distance", int(far.argmax()),
                          detail="step farther than 1/4 from both endpoints")
    hit = _first_close(path, dist, QUARTER + FARNESS_MARGIN)
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
        path = build_path(alpha, beta, n, order)
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
    dist = path_distances(path)
    others = np.delete(dist, [path.alpha, path.beta], axis=1).min(axis=1)
    return list(zip(
        range(len(dist)),
        dist[:, path.alpha].tolist(),
        dist[:, path.beta].tolist(),
        others.tolist(),
    ))


def exhaust_flip_orders(alpha: int, beta: int, n: int, radius: Fraction = QUARTER):
    """Yield (flip order, first third-codeword hit within radius or None) for all orders.

    Only sensible for tiny n: the number of orders is (2^(n-1))!.
    """
    positions = sorted(disagreement_set(alpha, beta, n))
    for order in itertools.permutations(positions):
        path = build_path(alpha, beta, n, order)
        yield order, find_close_step(path, radius)


# ---------------------------------------------------------------------------
# Partial sums of a random +-1 sequence
# ---------------------------------------------------------------------------


def min_partial_sum(entries: Sequence[int]) -> int:
    """Minimum prefix sum of a non-empty +-1 sequence."""
    if not entries:
        raise ValueError("sequence must be non-empty")
    if any(e not in (1, -1) for e in entries):
        raise ValueError("entries must be +1 or -1")
    best = total = 0
    first = True
    for e in entries:
        total += e
        if first or total < best:
            best = total
            first = False
    return best


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


def partial_sum_experiment(n: int, trials: int, seed: int) -> PartialSumResult:
    """Frequency of min prefix sum <= -ceil(0.99 N) over seeded shuffles of N +1s and N -1s."""
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    threshold = math.ceil(Fraction(99, 100) * n)
    rng = np.random.default_rng(derive_seed(seed, "partial-sum", n, trials))
    base = np.concatenate([np.ones(n, dtype=np.int16), -np.ones(n, dtype=np.int16)])
    hits = 0
    batch = max(1, (1 << 22) // (2 * n))
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
    for minus_positions in itertools.combinations(range(2 * n), n):
        minus = set(minus_positions)
        running = 0
        low = 0
        for i in range(2 * n):
            running += -1 if i in minus else 1
            low = min(low, running)
        if low <= -threshold:
            hits += 1
    return Fraction(hits, total)
