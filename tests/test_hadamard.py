import dataclasses
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reconfcsp import hadamard
from reconfcsp.constants import FARNESS_MARGIN, QUARTER
from reconfcsp.hadamard import (
    BitFunction,
    PathGenerationError,
    CodewordPath,
    codeword_distances,
    codeword_table,
    disagreement_set,
    distance_profile,
    exhaust_flip_orders,
    farness_violation,
    find_close_step,
    generate_codeword_path,
    had_encode,
    hamming,
    min_partial_sum,
    partial_sum_exhaustive,
    partial_sum_experiment,
    partition_triple,
    rel_distance,
    verify_codeword_path,
)
from reconfcsp.seeding import stream

# Fixed position order used by the frozen n=3 codeword rows below.
COLUMN_ORDER = [0b000, 0b001, 0b010, 0b100, 0b110, 0b101, 0b011, 0b111]


def test_had_encode_published_rows():
    row_011 = [had_encode(0b011, 3).bit(x) for x in COLUMN_ORDER]
    assert row_011 == [0, 1, 1, 0, 1, 1, 0, 0]
    row_111 = [had_encode(0b111, 3).bit(x) for x in COLUMN_ORDER]
    assert row_111 == [0, 1, 1, 1, 0, 0, 0, 1]


def test_had_encode_zero_and_range():
    assert had_encode(0, 4).bits == 0
    with pytest.raises(ValueError, match="out of range"):
        had_encode(16, 4)


def test_rel_distance_basics():
    f = had_encode(5, 3)
    assert rel_distance(f, f) == 0
    complement = BitFunction(3, f.bits ^ 0xFF)
    assert rel_distance(f, complement) == 1
    with pytest.raises(ValueError, match="length mismatch"):
        rel_distance(f, had_encode(1, 4))


def test_distinct_codewords_at_half():
    for n in (3, 4):
        for a, b in itertools.combinations(range(1 << n), 2):
            assert rel_distance(had_encode(a, n), had_encode(b, n)) == Fraction(1, 2)


def test_disagreement_set_published_example():
    assert disagreement_set(0b000, 0b001, 3) == frozenset({0b001, 0b101, 0b011, 0b111})


def test_disagreement_set_sizes_exhaustive_n4():
    for a, b in itertools.permutations(range(16), 2):
        assert len(disagreement_set(a, b, 4)) == 8


def test_disagreement_set_symmetry_and_error():
    assert disagreement_set(3, 9, 4) == disagreement_set(9, 3, 4)
    with pytest.raises(ValueError, match="must differ"):
        disagreement_set(4, 4, 3)


def test_partition_triple_basics():
    report = partition_triple(1, 2, 5, 4)
    assert report.sizes() == (4, 4, 4, 4)
    assert report.p_alpha | report.p_beta == disagreement_set(1, 2, 4)
    swapped = partition_triple(2, 1, 5, 4)
    assert swapped.p_alpha == report.p_beta
    assert swapped.p_beta == report.p_alpha
    with pytest.raises(ValueError, match="distinct"):
        partition_triple(1, 1, 2, 4)


def test_partition_covers_all_positions():
    report = partition_triple(3, 7, 12, 4)
    union = report.p_alpha | report.p_beta | report.p_gamma | report.p_equal
    assert union == frozenset(range(16))


# ---------------------------------------------------------------------------
# Codeword paths
# ---------------------------------------------------------------------------


def test_path_shape_and_endpoint_closeness():
    path = generate_codeword_path(3, 11, 5, seed=1)
    assert len(path.steps) == (1 << 4) + 1
    start, end = had_encode(3, 5), had_encode(11, 5)
    quarter = (1 << 5) // 4
    for t, f in enumerate(path.steps):
        assert hamming(f, start) == t
        assert hamming(f, end) == (1 << 4) - t
        assert min(hamming(f, start), hamming(f, end)) <= quarter


def test_path_determinism_per_seed():
    p1 = generate_codeword_path(7, 100, 9, seed=42)
    p2 = generate_codeword_path(7, 100, 9, seed=42)
    assert p1 == p2
    assert generate_codeword_path(7, 100, 9, seed=43) != p1


def test_verified_path_at_n9():
    path = generate_codeword_path(17, 401, 9, seed=3)
    report = verify_codeword_path(path)
    assert report.ok
    # strict farness from all 510 other codewords at every step
    assert find_close_step(path, QUARTER + FARNESS_MARGIN) is None


def test_verify_rejects_flip_outside_d():
    d = sorted(disagreement_set(0, 1, 4))
    outside = next(x for x in range(16) if x not in d)
    order = d[:-1] + [outside]
    path = CodewordPath(4, 0, 1, order)
    report = verify_codeword_path(path)
    assert not report.ok and report.kind == "structure"


def test_verify_rejects_a_flip_order_that_repeats_a_position_of_d():
    d = sorted(disagreement_set(40, 333, 9))
    report = verify_codeword_path(CodewordPath(9, 40, 333, d[:-1] + [d[0]]))
    assert not report.ok and report.kind == "structure" and report.step is None
    assert report.detail == "flip order is not a permutation of D"


def test_a_path_is_its_flip_order():
    path = generate_codeword_path(40, 333, 9, seed=6)
    again = CodewordPath(9, 40, 333, list(path.flip_order))
    assert again == path and hash(again) == hash(path) and again.steps == path.steps
    assert path.steps[0] == had_encode(40, 9) and len(path.steps) == len(path.flip_order) + 1
    for t, position in enumerate(path.flip_order):
        assert path.steps[t + 1] == path.steps[t].flip(position)
    swapped = path.flip_order[1::-1] + path.flip_order[2:]
    assert CodewordPath(9, 40, 333, swapped) != path
    assert "steps" not in repr(path)
    with pytest.raises(TypeError):
        CodewordPath(9, 40, 333, path.flip_order, path.steps)


def profile_is_far(path):
    """The per-row farness check `experiment fig2-profile` made on the distance profile."""
    length = 1 << path.n
    far = QUARTER + FARNESS_MARGIN
    return all(Fraction(row[3], length) > far for row in distance_profile(path))


def test_farness_violation_agrees_with_the_profile_predicate():
    paths = [generate_codeword_path(alpha, beta, 9, seed=seed)
             for alpha, beta, seed in ((40, 333, 6), (17, 401, 3), (500, 2, 7))]
    near = generate_codeword_path(15, 13, 4, seed=2)  # n < 9 paths are not verified
    assert not profile_is_far(near)
    assert farness_violation(near) == (4, 8, Fraction(1, 4))
    for path in paths:
        assert profile_is_far(path) and farness_violation(path) is None


def test_verify_reports_distance_failure_at_n3():
    # every flip order fails at n=3: some step is 1/4-close to a third codeword
    for order, hit in exhaust_flip_orders(0b000, 0b001, 3, QUARTER):
        assert hit is not None
        step, gamma, dist = hit
        assert gamma not in (0b000, 0b001)
        assert dist <= QUARTER


def test_generation_failure_is_loud_at_small_n(monkeypatch):
    import reconfcsp.hadamard as hd

    # force the verifier to reject everything so retries exhaust
    monkeypatch.setattr(
        hd,
        "verify_codeword_path",
        lambda path: hd.PathReport(False, "distance", 0, 7, Fraction(1, 4)),
    )
    with pytest.raises(PathGenerationError, match="contradicts the expected failure"):
        hd.generate_codeword_path(1, 2, 9, seed=0, max_retries=2)


def test_distance_profile_matches_direct_computation():
    path = generate_codeword_path(2, 9, 4, seed=8)
    table = codeword_table(4)
    for t, da, db, dmin in distance_profile(path):
        f = path.steps[t]
        assert da == hamming(f, had_encode(2, 4))
        assert db == hamming(f, had_encode(9, 4))
        direct = min(
            (f.bits ^ cw).bit_count()
            for g, cw in enumerate(table)
            if g not in (2, 9)
        )
        assert dmin == direct


def loop_codeword_table(n: int) -> tuple[int, ...]:
    """The codewords by the definition, one parity at a time (the oracle)."""
    table = []
    for alpha in range(1 << n):
        bits = 0
        for x in range(1 << n):
            if (alpha & x).bit_count() & 1:
                bits |= 1 << x
        table.append(bits)
    return tuple(table)


def test_codeword_table_matches_loop_oracle():
    for n in range(2, 11):
        assert codeword_table(n) == loop_codeword_table(n), n


def test_linearity_exhaustive_small_n():
    for n in (2, 3, 4, 5, 6):
        table = codeword_table(n)
        for a in range(1 << n):
            for b in range(1 << n):
                assert table[a] ^ table[b] == table[a ^ b]


def test_flip_mechanism_against_partition():
    # flips in P_alpha move the path one closer to gamma; flips in P_beta one farther
    alpha, beta, n = 4, 27, 5
    path = generate_codeword_path(alpha, beta, n, seed=12)
    for gamma in (1, 9, 30):
        if gamma in (alpha, beta):
            continue
        report = partition_triple(alpha, beta, gamma, n)
        cw = had_encode(gamma, n)
        for t, pos in enumerate(path.flip_order):
            before = hamming(path.steps[t], cw)
            after = hamming(path.steps[t + 1], cw)
            if pos in report.p_alpha:
                assert after == before - 1
            else:
                assert pos in report.p_beta
                assert after == before + 1


# ---------------------------------------------------------------------------
# Distance kernel against the pure-Python popcount scan (independent oracle)
# ---------------------------------------------------------------------------


def scan_distances(n: int, bits: int) -> list[int]:
    return [(bits ^ cw).bit_count() for cw in codeword_table(n)]


def scan_first_close(path, radius):
    """First (step, gamma, distance) in step order, then ascending gamma."""
    length = 1 << path.n
    limit = int(radius * length)
    for t, f in enumerate(path.steps):
        for gamma, d in enumerate(scan_distances(path.n, f.bits)):
            if gamma not in (path.alpha, path.beta) and d <= limit:
                return t, gamma, Fraction(d, length)
    return None


def test_codeword_distances_match_scan_exhaustive_small_n():
    for n in (2, 3, 4):
        for bits in range(1 << (1 << n)):
            assert codeword_distances(n, bits).tolist() == scan_distances(n, bits)


def test_codeword_distances_match_scan_seeded():
    for n in range(5, 11):
        rng = stream(5, "kernel-blocks", n)
        for _ in range(500):
            bits = rng.getrandbits(1 << n)
            assert codeword_distances(n, bits).tolist() == scan_distances(n, bits)


# ---------------------------------------------------------------------------
# Incremental distances along walks against the same scan
# ---------------------------------------------------------------------------


def walk_blocks(n: int, seed: int, steps: int, chains: int):
    """(chain, block) pairs of `chains` seeded walks, interleaved at random.

    Each step single-bit flips (most often), jumps a few bits within
    `NEAR_FLIPS` or beyond it, returns to a block the walks visited earlier,
    or repeats the current block.
    """
    rng = stream(seed, "incremental-walk", n, chains)
    length = 1 << n
    heads = [rng.getrandbits(length) for _ in range(chains)]
    seen = list(heads)
    limit = hadamard.NEAR_FLIPS
    for _ in range(steps):
        c = rng.randrange(chains)
        move = rng.random()
        if move < 0.6:
            heads[c] ^= 1 << rng.randrange(length)
        elif move < 0.85:
            k = rng.randint(2, limit) if move < 0.75 else rng.randint(limit + 1, 2 * limit + 2)
            for x in rng.sample(range(length), min(k, length)):
                heads[c] ^= 1 << x
        elif move < 0.93:
            heads[c] = rng.choice(seen)
        seen.append(heads[c])
        yield c, heads[c]


@pytest.mark.parametrize("chains", [1, 4, 12])
def test_incremental_distances_match_scan_on_walks(chains):
    # each block from its own chain's last block, and from the last block of
    # the chain after it: near, far or equal, the answer must be exact
    for n in range(2, 11):
        last = {}
        for c, bits in walk_blocks(n, 11, 150, chains):
            expected = scan_distances(n, bits)
            other = last.get((c + 1) % chains)
            assert codeword_distances(n, bits, other).tolist() == expected
            dist = codeword_distances(n, bits, last.get(c))
            assert dist.tolist() == expected
            last[c] = (bits, dist)


def test_near_block_takes_the_place_of_its_source(monkeypatch):
    popcounts = []
    words = hadamard.codeword_words
    monkeypatch.setattr(hadamard, "codeword_words", lambda n: popcounts.append(n) or words(n))
    bits = had_encode(5, 9).bits
    near = (bits, codeword_distances(9, bits))
    for x in (3, 100, 511, 3, 7, 8, 9, 10):
        bits ^= 1 << x
        near = (bits, codeword_distances(9, bits, near))
        assert near[1].tolist() == scan_distances(9, bits)
    assert popcounts == [9]  # only the first block was popcounted
    jump = bits ^ 0b1111  # four bits away: still sign rows
    assert codeword_distances(9, jump, near).tolist() == scan_distances(9, jump)
    assert popcounts == [9]
    far = bits ^ 0b11111  # five bits away: beyond the limit, popcounted afresh
    assert codeword_distances(9, far, near).tolist() == scan_distances(9, far)
    assert popcounts == [9, 9]


def test_interleaved_walks_read_the_popcount_kernel():
    # two single-bit walks taking turns, each answered from its own last block,
    # then their starts and heads answered from the other walk's head, exact
    # repeats among them: each must equal a fresh popcount
    n = 9
    rng = stream(8, "interleaved-walks")
    heads = [had_encode(3, n).bits, rng.getrandbits(1 << n)]
    starts = list(heads)
    last = [(bits, codeword_distances(n, bits)) for bits in heads]
    for t in range(300):
        walk = t % 2
        # every 50th step repeats this walk's block: no bit flipped
        bits = heads[walk] if t % 50 == 49 else heads[walk] ^ (1 << rng.randrange(1 << n))
        dist = codeword_distances(n, bits, last[walk])
        assert dist.tolist() == codeword_distances(n, bits).tolist()
        heads[walk], last[walk] = bits, (bits, dist)
    for bits in starts + [heads[1], heads[0]] + starts[::-1]:
        for source in last:
            assert codeword_distances(n, bits, source).tolist() == scan_distances(n, bits)


def test_near_distances_leave_the_source_unchanged():
    previous = None
    for _, bits in walk_blocks(6, 3, 10_000, 12):
        kept = None if previous is None else previous[1].copy()
        dist = codeword_distances(6, bits, previous)
        if previous is not None:
            assert previous[1].tolist() == kept.tolist()
        previous = (bits, dist)
    assert dist.dtype == np.int32 and dist.tolist() == scan_distances(6, bits)


def test_concurrent_walks_read_exact_distances():
    def walk(chains, errors):
        try:
            last = {}
            for c, bits in walk_blocks(7, 5, 400, chains):
                last[c] = (bits, codeword_distances(7, bits, last.get(c)))
                if last[c][1].tolist() != scan_distances(7, bits):
                    errors.append(bits)
        except Exception as exc:  # a thread's exception would otherwise be lost
            errors.append(exc)

    errors = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(c, errors)) for c in (1, 2, 3, 4, 5, 6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_sign_table_is_built_on_first_use_not_at_import():
    code = (
        "import reconfcsp.cli, reconfcsp.hadamard as h;"
        "print(h.hadamard_signs.cache_info().currsize, h.codeword_table.cache_info().currsize)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.stdout.split() == ["0", "0"], done.stderr


def test_find_close_step_matches_scan_all_orders_n3():
    orders = 0
    for order, hit in exhaust_flip_orders(0, 1, 3):
        assert hit == scan_first_close(CodewordPath(3, 0, 1, order), QUARTER)
        orders += 1
    assert orders == 24


def test_find_close_step_matches_scan_at_n9():
    far = QUARTER + FARNESS_MARGIN
    for seed in range(3):
        rng = stream(seed, "kernel-paths")
        alpha, beta = rng.sample(range(512), 2)
        path = generate_codeword_path(alpha, beta, 9, seed=seed)
        hit = find_close_step(path, Fraction(1, 2))
        assert hit is not None and hit == scan_first_close(path, Fraction(1, 2))
        # at 9/20 the first hit lies mid-path, not at the alpha codeword
        hit = find_close_step(path, Fraction(9, 20))
        assert hit is not None and hit[0] > 0
        assert hit == scan_first_close(path, Fraction(9, 20))
        assert find_close_step(path, far) is None is scan_first_close(path, far)


def _first_close_by_chunks(path, radius, rows):
    # find_close_step over steps [0, rows), [rows, 2 rows), ... until one hits
    for start in range(0, len(path.steps), rows):
        hit = find_close_step(path, radius, start, start + rows)
        if hit is not None:
            return hit
    return None


@pytest.mark.parametrize("rows", [1, 7, 100])
def test_path_checks_read_chunks_in_step_order(rows):
    # each step's distances are the step before's plus one sign row; read whole or in
    # step ranges of `rows`, the first hits, profile rows and reports must still be
    # those of a scan of every step
    far = QUARTER + FARNESS_MARGIN
    ordered = CodewordPath(9, 40, 333, sorted(disagreement_set(40, 333, 9)))
    for path in (generate_codeword_path(40, 333, 9, seed=6), ordered):
        scanned = [scan_distances(9, step.bits) for step in path.steps]
        assert [dist.tolist() for _, dist, _ in hadamard._step_distances(path)] == scanned
        chunked = [
            (t, dist.tolist())
            for start in range(0, len(path.steps), rows)
            for t, dist, _ in hadamard._step_distances(path, start, start + rows)
        ]
        assert chunked == list(enumerate(scanned))
        profile = []
        for t, dist in enumerate(scanned):
            others = min(d for g, d in enumerate(dist) if g not in (path.alpha, path.beta))
            profile.append((t, dist[path.alpha], dist[path.beta], others))
        assert distance_profile(path) == profile
        for radius in (Fraction(1, 2), Fraction(9, 20), far):
            hit = scan_first_close(path, radius)
            assert find_close_step(path, radius) == hit
            assert _first_close_by_chunks(path, radius, rows) == hit
        hit = scan_first_close(path, far)
        report = verify_codeword_path(path)
        assert farness_violation(path) == hit
        assert (report.ok, report.step, report.gamma, report.distance) == (
            (True, None, None, None) if hit is None else (False, *hit)
        )
    assert farness_violation(ordered) == (127, 77, Fraction(129, 512))  # mid-path


def test_verifying_an_n12_path_holds_one_chunk_of_distances():
    n = 12
    hadamard.hadamard_signs(n)  # the 16 MiB sign table is built once per n, not per path
    codeword_distances(n, 0)  # and so are the codeword tables
    tracemalloc.start()
    try:
        path = generate_codeword_path(40, 333, n, seed=6)  # verified on the way
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path.steps) == 2049 and verify_codeword_path(path).ok
    # a popcount, a few rows of distances and the path's own steps, not the whole matrix
    assert peak < 8 << 20 < len(path.steps) * (4 << n) / 2


def test_an_n12_distance_profile_holds_a_few_rows_of_distances():
    n = 12
    path = generate_codeword_path(40, 333, n, seed=6)  # and the tables are built once per n
    tracemalloc.start()
    try:
        profile = distance_profile(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(profile) == 2049 and profile[0][1:3] == (0, 2048) and profile[-1][1:3] == (2048, 0)
    assert peak < 4 << 20  # one popcount of the first step, then a row per step


# ---------------------------------------------------------------------------
# Farness read only on the steps where it can fail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 11))
def test_window_gives_the_first_hit_of_the_full_scan(n):
    # at radius 1/8 the window 2^(n-1) - r .. r is empty
    radii = (Fraction(1, 8), QUARTER, QUARTER + FARNESS_MARGIN, Fraction(3, 8))
    rng = stream(n, "window-paths")
    hits = 0
    for trial in range(8):
        alpha, beta = rng.sample(range(1 << n), 2)
        order = sorted(disagreement_set(alpha, beta, n))
        if trial % 4:  # every fourth path keeps D in ascending order
            rng.shuffle(order)
        path = CodewordPath(n, alpha, beta, order)
        for radius in radii:
            hit = find_close_step(path, radius)
            half, r = 1 << (n - 1), int(radius * (1 << n))
            assert find_close_step(path, radius, max(0, half - r), r + 1) == hit
            hits += hit is not None
        hit = farness_violation(path)
        report = verify_codeword_path(path)
        assert (report.ok, report.step, report.gamma, report.distance) == (
            (True, None, None, None) if hit is None else (False, *hit)
        )
    assert hits


def test_verification_reads_only_the_steps_where_farness_can_fail(monkeypatch):
    # r = floor((1/4 + 1/400) 2^n): steps 127..129 at n = 9, 1014..1034 at n = 12
    paths = [generate_codeword_path(40, 333, n, seed=6) for n in (9, 12)]
    read = []
    distances = hadamard.codeword_distances

    def spy(n, bits, near=None):
        read.append((bits, near is None))
        return distances(n, bits, near)

    monkeypatch.setattr(hadamard, "codeword_distances", spy)
    assert all(verify_codeword_path(path).ok for path in paths)
    # a popcount for the first step of each window, then one sign row per step
    assert read == [
        (step.bits, t == 0)
        for path, window in zip(paths, (slice(127, 130), slice(1014, 1035)))
        for t, step in enumerate(path.steps[window])
    ]


def test_steps_built_without_rechecks_equal_public_blocks():
    n = 9
    with pytest.raises(ValueError, match="does not fit in 2\\^n bits"):
        BitFunction(n, 1 << (1 << n))
    f = had_encode(40, n)
    for position in (-1, 1 << n):
        with pytest.raises(ValueError, match=f"^position {position} out of range$"):
            f.flip(position)
    order = sorted(disagreement_set(40, 333, n))
    with pytest.raises(ValueError, match=f"^position {1 << n} out of range$"):
        CodewordPath(n, 40, 333, order[:-1] + [1 << n])
    for block in (f.flip(3), CodewordPath(n, 40, 333, order).steps[-1]):
        public = BitFunction(n, block.bits)
        assert block == public and hash(block) == hash(public) and repr(block) == repr(public)
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.bits = 0
    assert f.flip(3).bits == f.bits ^ 8
    assert CodewordPath(n, 40, 333, order).steps[-1] == had_encode(333, n)


@pytest.mark.parametrize("n", range(2, 13))
def test_disagreement_set_matches_the_position_loop(n):
    table = codeword_table(n)
    rng = stream(n, "disagreement")
    for alpha, beta in [(0, (1 << n) - 1)] + [tuple(rng.sample(range(1 << n), 2)) for _ in range(3)]:
        diff = table[alpha] ^ table[beta]
        loop = frozenset(x for x in range(1 << n) if (diff >> x) & 1)
        assert disagreement_set(alpha, beta, n) == loop and len(loop) == 1 << (n - 1)


# ---------------------------------------------------------------------------
# Partial sums
# ---------------------------------------------------------------------------


def test_min_partial_sum_examples():
    assert min_partial_sum([1, -1, 1, -1]) == 0
    n = 6
    assert min_partial_sum([-1] * n + [1] * n) == -n
    seq = [-1, 1, -1, -1, 1, 1]
    # direct prefix-scan oracle
    prefix = list(itertools.accumulate(seq))
    assert min(prefix) == -2
    assert min_partial_sum(seq) == -2
    with pytest.raises(ValueError, match="non-empty"):
        min_partial_sum([])
    with pytest.raises(ValueError, match="\\+1 or -1"):
        min_partial_sum([1, 2])


def test_partial_sum_exhaustive_n2():
    # oracle: the only arrangement reaching -2 is (-1, -1, +1, +1), one of six
    arrangements = set(itertools.permutations([1, 1, -1, -1]))
    assert len(arrangements) == 6
    hits = sum(1 for arr in arrangements if min_partial_sum(arr) <= -2)
    assert hits == 1
    assert partial_sum_exhaustive(2) == Fraction(1, 6)


def test_partial_sum_experiment_reproducible():
    a = partial_sum_experiment(16, 2000, seed=9)
    b = partial_sum_experiment(16, 2000, seed=9)
    assert (a.hits, a.threshold) == (b.hits, b.threshold)
    assert a.threshold == 16  # ceil(0.99 * 16)
    assert 0 <= a.frequency <= 1


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=30))
def test_min_partial_sum_matches_prefix_oracle(seq):
    prefix = list(itertools.accumulate(seq))
    assert min_partial_sum(seq) == min(prefix)
