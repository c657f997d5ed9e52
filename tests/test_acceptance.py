"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact (integers or fractions); no tolerances
beyond the ones stated inline.
"""

import itertools
from fractions import Fraction

import pytest

from reconfcsp import compose as compose_mod
from reconfcsp import robustize as rb
from reconfcsp import solver
from reconfcsp.cli import generate_instance
from reconfcsp.constants import FARNESS_MARGIN, QUARTER
from reconfcsp.core import (
    Assignment,
    ConstraintGraph,
    ReconfInstance,
    Value,
    sequence_value,
    validate_sequence,
    value,
)
from reconfcsp.hadamard import (
    codeword_table,
    exhaust_flip_orders,
    disagreement_set,
    generate_codeword_path,
    partial_sum_exhaustive,
    partial_sum_experiment,
    partition_triple,
    verify_codeword_path,
)
from reconfcsp.seeding import stream

from conftest import single_edge, triangle_equality


def report(criterion: int | str, text: str) -> None:
    label = f"{criterion:02d}" if isinstance(criterion, int) else criterion
    print(f"ACCEPTANCE {label} PASS: {text}")


def test_criterion_01_codeword_path_verification():
    n, trials = 9, 50
    rng = stream(2024, "acceptance", "pairs")
    length = 1 << n
    quarter = length // 4
    far = QUARTER + FARNESS_MARGIN
    far_den, far_num_length = far.denominator, far.numerator * length
    table = codeword_table(n)
    for trial in range(trials):
        alpha = rng.randrange(length)
        beta = rng.randrange(length - 1)
        if beta >= alpha:
            beta += 1
        path = generate_codeword_path(alpha, beta, n, seed=trial, max_retries=3)
        assert verify_codeword_path(path).ok
        # independent exhaustive re-check, exact in integers:
        # d / length > p / q  <=>  d * q > p * length for positive integers
        a_bits, b_bits = table[alpha], table[beta]
        others = [table[g] for g in range(length) if g not in (alpha, beta)]
        assert len(others) == 510
        for f in path.steps:
            bits = f.bits
            assert min((bits ^ a_bits).bit_count(), (bits ^ b_bits).bit_count()) <= quarter
            for cw in others:
                assert (bits ^ cw).bit_count() * far_den > far_num_length
    report(1, f"{trials} seeded pairs at n={n}: verified, all steps quarter-close "
              "to an endpoint and strictly (1/4 + 1/400)-far from 510 codewords")


def test_criterion_02_n3_impossibility():
    orders_checked = 0
    for alpha in range(8):
        for beta in range(8):
            if alpha == beta:
                continue
            for order, hit in exhaust_flip_orders(alpha, beta, 3, QUARTER):
                assert hit is not None, (alpha, beta, order)
                step, gamma, dist = hit
                assert gamma not in (alpha, beta) and dist <= QUARTER
                orders_checked += 1
    assert orders_checked == 56 * 24
    report(2, f"all {orders_checked} flip orders over all 56 ordered pairs hit a "
              "quarter-close third codeword")


def test_criterion_03_partial_sum_tail():
    result = partial_sum_experiment(128, 100_000, seed=7)
    assert result.threshold == 127  # ceil(0.99 * 128)
    assert result.hits == 0
    assert result.bound == pytest.approx(0.9**128)
    assert result.bound < 1e-5
    exact = partial_sum_exhaustive(2)
    assert exact == Fraction(1, 6)
    report(3, "N=128, 1e5 trials: frequency 0 (bound 0.9^128 ~ 1.4e-6); "
              "N=2 exhaustive frequency exactly 1/6")


def test_criterion_04_partition_claim():
    for n in (4, 5):
        expected = 1 << (n - 2)
        for alpha, beta, gamma in itertools.permutations(range(1 << n), 3):
            rep = partition_triple(alpha, beta, gamma, n)
            assert rep.sizes() == (expected,) * 4
            assert rep.p_alpha | rep.p_beta == disagreement_set(alpha, beta, n)
    report(4, "all distinct triples at n=4 and n=5: four classes of size 2^(n-2), "
              "P_alpha and P_beta partition D")


def _walk_instances(count: int, vertices: int = 4, alphabet: int = 512):
    out = []
    for i in range(count):
        out.append(generate_instance(
            "path-graph", vertices, alphabet, seed=1000 + i, satisfiable=True
        ))
    return out


def test_criterion_05_robustization_completeness():
    instances = _walk_instances(10)
    for inst, walk in instances:
        system = rb.robustize(inst)
        sigma_seq = rb.completeness_sequence(system, walk, seed=3)
        total = len(system.circuits)
        assert sigma_seq[0] == system.sigma_ini
        assert sigma_seq[-1] == system.sigma_tar
        for a, b in zip(sigma_seq, sigma_seq[1:]):
            assert rb.single_bit_change(a, b) is not None
        for sigma in sigma_seq:
            assert rb.count_satisfied(system, sigma) == total
    report(5, "10 seeded 4-vertex alphabet-512 instances: spliced sigma sequences "
              "are single-bit and satisfy every circuit at every step")


def test_criterion_06_soundness_extraction():
    sequences_run = 0
    # 70 sequences on the criterion-5 style satisfiable instances
    for idx, (inst, _) in enumerate(_walk_instances(10)):
        system = rb.robustize(inst)
        for k in range(7):
            walk = rb.adversarial_block_sequence(system, seed=500 + 7 * idx + k, scramble=48)
            extracted = rb.extract_psi_sequence(system, walk)
            assert validate_sequence(extracted) == []
            assert extracted.steps[0] == inst.psi_ini
            assert extracted.steps[-1] == inst.psi_tar
            sequences_run += 1
    # 30 sequences on instances whose alphabet-4 shadow provably has maxmin < 1
    eq4 = frozenset((s, s) for s in range(4))
    shadow_cases = [
        ("triangle-equality", triangle_equality(alphabet=4)),
        ("single-edge-jump", single_edge({(0, 0), (1, 1)}, 4, (0, 0), (1, 1))),
        ("single-edge-far", single_edge({(0, 0), (2, 3)}, 4, (0, 0), (2, 3))),
    ]
    for label, shadow in shadow_cases:
        shadow_maxmin = solver.maxmin_value(shadow).optimum
        assert shadow_maxmin < 1, label
        lifted = ReconfInstance(
            ConstraintGraph(
                2,
                shadow.graph.vertices,
                shadow.graph.edges,
                512,
                shadow.graph.accepts,
            ),
            shadow.psi_ini,
            shadow.psi_tar,
        )
        system = rb.robustize(lifted)
        for k in range(10):
            walk = rb.adversarial_block_sequence(system, seed=900 + k, scramble=48)
            extracted = rb.extract_psi_sequence(system, walk)
            assert validate_sequence(extracted) == []
            assert extracted.steps[0] == lifted.psi_ini
            assert extracted.steps[-1] == lifted.psi_tar
            # the decoding step mechanically confirms the soundness argument:
            # the extracted sequence can do no better than the shadow optimum
            assert sequence_value(lifted.graph, extracted).fraction <= shadow_maxmin.fraction
            sequences_run += 1
    assert sequences_run == 100
    report(6, "100 adversarial sigma sequences: extraction always valid with correct "
              "endpoints; on maxmin<1 instances the extracted value never beats the "
              "oracle-verified shadow optimum")


def test_criterion_07_weakened_circuit_regression():
    for n in (2, 3):
        half = 1 << (n - 2)
        a1, b1, a2, b2 = 0, 0, 1, 1
        weak = rb.RobustCircuit(0, "u", "w", frozenset({(a1, b1), (a2, b2)}), n, weakened=True)
        sats = rb.sat_inputs(weak)
        walk = rb.four_phase_block_path(n, a1, b1, a2, b2)
        for f, g in walk:
            point = rb.concat_blocks(f, g)
            dist = Fraction(min((point ^ s).bit_count() for s in sats), 2 * f.length)
            assert dist <= Fraction(1, 1 << n)
        strict = rb.RobustCircuit(0, "u", "w", frozenset({(a1, b1), (a2, b2)}), n)
        midpoint = walk[2 * half]
        assert not rb.eval_circuit(strict, *midpoint)
        assert not rb.eval_circuit(weak, *midpoint)
    report(7, "n=2,3: four-phase walk stays 1/2^n-close to the weakened circuit's "
              "satisfying set; the strict circuit rejects the midpoint attempt")


def test_criterion_08_rectangularity():
    rng = stream(88, "acceptance", "rectangular")
    assignments_checked = 0
    for case in range(5):
        m = 4
        sat = sorted(rng.sample(range(16), rng.randrange(1, 6)))
        x_names = [f"x{i}" for i in range(m)]
        t1 = compose_mod.reference_tester(sat, x_names, "y1")
        t2 = compose_mod.reference_tester(sat, x_names, "y2")
        sup = compose_mod.superimpose(t1, t2)
        for _ in range(200):
            sigma = rng.randrange(16)
            y1 = rng.randrange(len(sat))
            y2 = rng.randrange(len(sat))
            values = {x: (sigma >> i) & 1 for i, x in enumerate(x_names)}
            values["y1"], values["y2"] = y1, y2
            psi = Assignment(values)
            psi1 = Assignment({**{x: values[x] for x in x_names}, "y1": y1})
            psi2 = Assignment({**{x: values[x] for x in x_names}, "y2": y2})
            violated = 1 - value(sup.graph, psi).fraction
            v1 = 1 - value(t1.graph, psi1).fraction
            v2 = 1 - value(t2.graph, psi2).fraction
            assert violated == v1 * v2
            assignments_checked += 1
    assert assignments_checked == 1000
    report(8, "1000 random assignments over 5 superimposed testers: violated "
              "fraction factors exactly as the product of the twins'")


def test_criterion_09_reference_tester_contract():
    rng = stream(99, "acceptance", "tester")
    m = 4
    x_names = [f"x{i}" for i in range(m)]
    for case in range(100):
        size = rng.randrange(1, 17)
        sat = sorted(rng.sample(range(16), size))
        tester = compose_mod.reference_tester(sat, x_names, "y")
        assert len(tester.graph.edges) == m
        for s in sat:
            tau = tester.witness(s)
            psi = Assignment({**{x: (s >> i) & 1 for i, x in enumerate(x_names)}, **tau})
            assert value(tester.graph, psi) == 1
        for sigma in range(16):
            distance = min(bin(sigma ^ s).count("1") for s in sat)
            for y_val in range(len(sat)):
                psi = Assignment(
                    {**{x: (sigma >> i) & 1 for i, x in enumerate(x_names)}, "y": y_val}
                )
                violated = m - value(tester.graph, psi).satisfied
                assert violated >= distance
    report(9, "100 random m=4 satisfying sets: completeness value exactly 1 and "
              "every (sigma, tau) violates at least distance-many edges")


def _chain(accepts_uv, accepts_vw, ini, tar):
    graph = ConstraintGraph(
        2, ("u", "v", "w"), (("u", "v"), ("v", "w")), 4,
        (frozenset(accepts_uv), frozenset(accepts_vw)),
    )
    return ReconfInstance(
        graph, Assignment(dict(zip("uvw", ini))), Assignment(dict(zip("uvw", tar)))
    )


def _micro_pipeline_corpus():
    return [
        single_edge({(0, 0)}, 4, (0, 0), (0, 0)),
        single_edge({(1, 2)}, 4, (1, 2), (1, 2)),
        single_edge({(0, 0), (3, 3)}, 4, (0, 0), (0, 0)),
        single_edge({(0, 0), (1, 1)}, 4, (0, 0), (1, 1)),
        single_edge({(0, 0), (0, 1), (1, 1)}, 4, (0, 0), (1, 1)),
        single_edge({(0, 1), (1, 1), (1, 0)}, 4, (0, 1), (1, 0)),
        _chain([(0, 0)], [(0, 1)], (0, 0, 1), (0, 0, 1)),
        _chain([(2, 2)], [(2, 2)], (2, 2, 2), (2, 2, 2)),
        _chain([(0, 0), (1, 0)], [(0, 1)], (0, 0, 1), (1, 0, 1)),
        _chain([(0, 0), (1, 1)], [(0, 0), (1, 1)], (0, 0, 0), (1, 1, 1)),
    ]


FOUR_ARY_CHAIN = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)]


def _four_ary_corpus():
    def inst(accepts, ini, tar, vertices=("p", "q", "r", "s"), edge=None):
        graph = ConstraintGraph(
            4, vertices, (tuple(edge or vertices),), 2, (frozenset(accepts),)
        )
        return ReconfInstance(
            graph,
            Assignment(dict(zip(vertices, ini))),
            Assignment(dict(zip(vertices, tar))),
        )

    return [
        inst(FOUR_ARY_CHAIN, (0, 0, 0, 0), (1, 1, 1, 1)),
        inst([(0, 0, 0, 0), (1, 1, 1, 1)], (0, 0, 0, 0), (1, 1, 1, 1)),
        inst(list(itertools.product(range(2), repeat=4)), (0, 0, 0, 0), (1, 0, 1, 0)),
        inst(
            [(0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)],
            (0, 0, 0), (1, 1, 1), vertices=("u", "w", "z"), edge=("u", "u", "w", "z"),
        ),
        inst(
            [(0, 0, 0, 0), (1, 1, 1, 1)],
            (0, 0, 0), (1, 1, 1), vertices=("u", "w", "z"), edge=("u", "u", "w", "z"),
        ),
    ]


def test_criterion_10_micro_value_accounting():
    non_vacuous = 0
    for inst in _micro_pipeline_corpus():
        result = compose_mod.full_pipeline(inst, "micro")
        source = result.stages[0]
        assert source.maxmin is not None
        for stage in result.stages[1:]:
            exists = stage.maxmin == 1 or stage.method == "sat-reachability"
            if exists:
                # a satisfying-step sequence exists at this stage: value is 1
                assert stage.maxmin == Value(1, 1)
                if source.maxmin == 1:
                    non_vacuous += 1
    assert non_vacuous >= 12
    # 4-ary -> binary behavioral contract, oracle on both sides
    for inst4 in _four_ary_corpus():
        reduction = compose_mod.arity_reduce(inst4)
        four = solver.maxmin_value(inst4, budget=1 << 18).optimum
        binary = solver.maxmin_value(reduction.instance, budget=1 << 18).optimum
        assert (binary == 1) == (four == 1)
        assert (1 - binary.fraction) >= (1 - four.fraction) / 4
    report(10, "10 micro pipelines: every oracle-confirmed stage with a satisfying "
               "sequence reports value 1; 4-ary->binary obeys the factor-4 bound "
               "(headline constants appear in reports only, labeled theoretical)")


def test_arity_reduction_soundness_along_adversarial_walks():
    """Arity reduction loses no violation, step by step, on the micro corpus.

    Along seeded adversarial walks on each binary instance, every hyperedge
    that the step's restriction to source vertices violates on the 4-ary
    instance has a violated binary edge among its cell's four, so the binary
    violation count is at least the 4-ary one.  Random cell values rarely
    land on a wrongly admitted one, so the same is asserted with every cell
    set to the singleton of its hyperedge's current tuple.
    """
    steps = 0
    for inst in _micro_pipeline_corpus():
        composed = compose_mod.compose_system(rb.robustize(inst)).instance
        reduction = compose_mod.arity_reduce(composed)
        four, binary = composed.graph, reduction.instance.graph
        for seed in range(2):
            for step in solver.random_adversarial_sequence(reduction.instance, seed).steps:
                lifted = dict(step.values)
                for cell in reduction.cells:
                    lifted[cell.name] = cell.singleton([step.values[v] for v in cell.vertices])
                violated = [j for j in range(len(four.edges)) if not four.edge_satisfied(j, step)]
                for psi in (step, Assignment(lifted)):
                    for j in violated:
                        assert any(
                            not binary.edge_satisfied(4 * j + i, psi) for i in range(4)
                        ), (seed, j)
                steps += 1
    assert steps > 1000
    report("D-arity", f"{steps} adversarial binary steps on 10 micro-corpus instances: "
                      "every violated 4-ary hyperedge violates a binary edge of its cell, "
                      "with the walk's cells and with singleton cells")


def test_criterion_11_solver_self_consistency():
    corpus = [
        triangle_equality(alphabet=2),
        triangle_equality(alphabet=4),
        single_edge({(0, 0), (1, 1)}, 2, (0, 0), (1, 1)),
        single_edge({(0, 0), (0, 1), (1, 1)}, 3, (0, 0), (1, 1)),
    ]
    corpus.extend(_micro_pipeline_corpus())
    corpus.extend(_four_ary_corpus())
    for inst4 in _four_ary_corpus():
        corpus.append(compose_mod.arity_reduce(inst4).instance)
    for seed in range(3):
        inst, _ = generate_instance("path-graph", 3, 3, seed, satisfiable=True)
        corpus.append(inst)
        corpus.append(generate_instance("random", 3, 3, seed, satisfiable=False)[0])
    checked = 0
    for inst in corpus:
        if solver.state_space_size(inst.graph) > 4096:
            continue
        bfs = solver.maxmin_value(inst, budget=4096).optimum
        dfs = solver.dfs_maxmin(inst, limit=4096)
        assert bfs == dfs, inst
        checked += 1
    tri = solver.maxmin_value(triangle_equality()).optimum
    assert tri == Value(1, 3)
    assert checked >= 20
    report(11, f"{checked} corpus instances (<= 4096 configurations): BFS-threshold "
               "maxmin equals DFS enumeration maxmin; triangle equality is 1/3")
