"""Command-line interface.

One binary, subcommand style.  All randomness flows from a single --seed
through named streams; every randomized command prints its effective seed,
and re-runs with the same configuration produce byte-identical artifacts.
Flags --seed, --n, --budget, --trials read defaults from environment
variables with the RECONF_ prefix (RECONF_SEED, RECONF_N, RECONF_BUDGET,
RECONF_TRIALS).  Output files are written atomically (temp file + rename).
Exit code is 0 iff every verification in the invoked command passes.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import compose as compose_mod
from . import core, hadamard, robustize, solver
from .constants import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    FARNESS_MARGIN,
    PARTIAL_SUM_MIN_N,
    QUARTER,
    THEORETICAL,
)
from .core import InstanceError
from .fileio import read_instance, read_json, write_json, write_text_atomic
from .seeding import stream
from .solver import generate_instance


def write_csv_atomic(path: str | Path, header: list[str], rows: list[list], comments: list[str] = ()) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    for line in comments:
        buffer.write(f"# {line}\n")
    write_text_atomic(path, buffer.getvalue())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    print(f"seed: {args.seed}")
    instance, walk = generate_instance(
        kind=args.kind,
        vertices=args.vertices,
        alphabet=args.alphabet,
        seed=args.seed,
        satisfiable=args.satisfiable,
        edge_count=args.edges,
        walk_length=args.walk,
        extra_tuples=args.extra,
        budget=args.budget,
    )
    write_text_atomic(args.out, core.serialize(instance))
    print(f"instance: {args.out}")
    if walk is not None and args.path_out:
        write_json(args.path_out, core.sequence_to_obj(walk, instance.graph.vertices))
        print(f"satisfying path: {args.path_out}")
    return 0


def _cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    if args.threshold is not None:
        ok, witness = solver.reachable_at_threshold(instance, args.threshold, budget=args.budget)
        print(f"reachable at threshold {args.threshold}: {ok}")
        if ok and args.witness_out:
            write_json(args.witness_out, core.sequence_to_obj(witness, instance.graph.vertices))
        return 0 if ok else 1
    result = solver.maxmin_value(instance, budget=args.budget)
    print(f"maxmin: {result.optimum}")
    if args.witness_out and result.witness is not None:
        write_json(args.witness_out, core.sequence_to_obj(result.witness, instance.graph.vertices))
    return 0


def _profile_rows(path, out: str | None) -> list[list[int]]:
    """The path's distance profile, also written as CSV to `out` when given."""
    rows = [list(row) for row in hadamard.distance_profile(path)]
    if out:
        write_csv_atomic(out, ["step", "dist_alpha", "dist_beta", "min_dist_other"], rows)
        print(f"profile: {out}")
    return rows


def _check_path_n(n: int) -> None:
    if not 2 <= n <= hadamard.MAX_N:
        raise InstanceError(f"--n must be in 2..{hadamard.MAX_N}, got {n}")


def _cmd_hadamard_path(args) -> int:
    _check_path_n(args.n)
    for flag, symbol in (("--alpha", args.alpha), ("--beta", args.beta)):
        if not 0 <= symbol < (1 << args.n):
            raise InstanceError(f"{flag} {symbol} is outside [0, {1 << args.n}) for n={args.n}")
    if args.alpha == args.beta:
        raise InstanceError("--alpha and --beta must differ")
    if args.retries < 1:
        raise InstanceError(f"--retries must be at least 1, got {args.retries}")
    print(f"seed: {args.seed}")
    path = hadamard.generate_codeword_path(
        args.alpha, args.beta, args.n, args.seed, max_retries=args.retries
    )
    _profile_rows(path, args.out)
    if args.verify:
        report = hadamard.verify_codeword_path(path)
        print(f"verification: {'pass' if report.ok else f'FAIL ({report.detail})'}")
        return 0 if report.ok else 1
    return 0


def _cmd_hadamard_partial_sum(args) -> int:
    if args.n < 1 or args.trials < 1:
        raise InstanceError(f"--n and --trials must be positive, got {args.n} and {args.trials}")
    if args.exhaustive and args.n > hadamard.EXHAUSTIVE_MAX_N:
        raise InstanceError(f"--exhaustive needs --n <= {hadamard.EXHAUSTIVE_MAX_N}, got {args.n}")
    print(f"seed: {args.seed}")
    if args.exhaustive:
        freq = hadamard.partial_sum_exhaustive(args.n)
        print(f"exhaustive frequency: {freq}")
        if args.out:
            write_csv_atomic(
                args.out,
                ["n", "mode", "frequency_num", "frequency_den"],
                [[args.n, "exhaustive", freq.numerator, freq.denominator]],
            )
        return 0
    result = hadamard.partial_sum_experiment(args.n, args.trials, args.seed)
    freq = result.frequency
    print(
        f"N={result.n} trials={result.trials} threshold=-{result.threshold} "
        f"hits={result.hits} frequency={float(freq):.3g} bound={result.bound:.3g}"
    )
    if args.out:
        write_csv_atomic(
            args.out,
            ["n", "trials", "threshold", "hits", "frequency", "bound"],
            [[result.n, result.trials, result.threshold, result.hits, float(freq), result.bound]],
        )
    if result.n > PARTIAL_SUM_MIN_N:
        return 0 if freq <= Fraction(9, 10) ** result.n else 1
    return 0


def _cmd_robustize(args) -> int:
    instance = read_instance(args.instance)
    system = robustize.robustize(instance, weakened=args.weakened)
    robustize.write_system(system, args.out)
    print(f"system: {args.out} (n={system.n}, circuits={len(system.circuits)})")
    return 0


def _cmd_verify_sequence(args) -> int:
    system = robustize.read_system(args.system)
    steps = robustize.read_block_sequence(system, args.sigma)
    total = len(system.circuits)
    all_ok = True
    previous = None
    for t, sigma in enumerate(steps):
        if previous is not None:
            try:
                robustize.single_bit_change(previous, sigma)
            except InstanceError:
                print(f"step {t}: INVALID (more than one bit changed)")
                all_ok = False
        count = robustize.count_satisfied(system, sigma)
        print(f"step {t}: {count}/{total} circuits satisfied")
        if count != total:
            all_ok = False
        previous = sigma
    return 0 if all_ok else 1


def _cmd_compose(args) -> int:
    system = robustize.read_system(args.system)
    composed = compose_mod.compose_system(system)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out / "instance.json", core.serialize(composed.instance))
    write_json(out / "trace.json", composed.trace.to_obj())
    print(
        f"composed: {out} (vertices={len(composed.instance.graph.vertices)}, "
        f"hyperedges={len(composed.instance.graph.edges)})"
    )
    return 0


def _cmd_arity_reduce(args) -> int:
    instance = read_instance(args.instance)
    reduction = compose_mod.arity_reduce(instance)
    write_text_atomic(args.out, core.serialize(reduction.instance))
    if args.trace:
        write_json(args.trace, reduction.trace.to_obj())
    print(f"binary instance: {args.out}")
    return 0


def _stage_rows(stages) -> list[list]:
    rows = []
    for s in stages:
        num = s.maxmin.fraction.numerator if s.maxmin is not None else ""
        den = s.maxmin.fraction.denominator if s.maxmin is not None else ""
        rows.append([s.stage, s.vertices, s.edges, s.max_alphabet, num, den])
    return rows


_THEORY_COMMENTS = [
    "theoretical constants (not achieved by the bundled reference tester):",
    f"theoretical inner alphabet = {THEORETICAL['inner_alphabet']}",
    f"theoretical inner rejection rate = {THEORETICAL['inner_rejection_rate']}",
    f"theoretical 4-ary loss = {THEORETICAL['four_ary_loss']}",
    f"theoretical binary loss = {THEORETICAL['binary_loss']}",
    f"theoretical binary alphabet = {THEORETICAL['binary_alphabet']} (= 36^4)",
    f"theoretical amplified gap > {float(THEORETICAL['amplified_gap_lower_bound']):.3g}",
]


def _cmd_pipeline(args) -> int:
    print(f"seed: {args.seed}")
    instance = read_instance(args.instance)
    psi_seq = None
    if args.path:
        obj = read_json(args.path)
        psi_seq = core.sequence_from_obj(obj, instance.graph, f"{args.path}: sequence")
    result = compose_mod.full_pipeline(
        instance,
        mode=args.mode,
        seed=args.seed,
        budget=args.budget,
        psi_seq=psi_seq,
    )
    for s in result.stages:
        tail = f" maxmin={s.maxmin}" if s.maxmin is not None else ""
        print(f"{s.stage}: vertices={s.vertices} edges={s.edges} alpha={s.max_alphabet}{tail}")
    if args.report:
        write_csv_atomic(
            args.report,
            ["stage", "vertices", "edges", "max-alphabet", "maxmin-numerator", "maxmin-denominator"],
            _stage_rows(result.stages),
            comments=_THEORY_COMMENTS,
        )
        print(f"report: {args.report}")
    if args.out and result.mode == "micro":
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_text_atomic(out / "binary_instance.json", core.serialize(result.reduction.instance))
        write_json(out / "trace.json", result.trace.to_obj())
        print(f"artifacts: {out}")
    if result.mode == "n9":
        verdict = "all circuits satisfied at every step" if result.n9_all_satisfied else "FAILED"
        print(f"completeness sequence: {result.n9_steps} steps; {verdict}")
        return 0 if result.n9_all_satisfied else 1
    return 0


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _experiment_fig2(args) -> int:
    _check_path_n(args.n)
    print(f"seed: {args.seed}")
    rng = stream(args.seed, "fig2", args.n)
    alpha = rng.randrange(1 << args.n)
    beta = rng.randrange((1 << args.n) - 1)
    if beta >= alpha:
        beta += 1
    path = hadamard.generate_codeword_path(alpha, beta, args.n, args.seed)
    rows = _profile_rows(path, args.out)
    length = 1 << args.n
    far = QUARTER + FARNESS_MARGIN
    ok = all(Fraction(row[3], length) > far for row in rows)
    if args.n >= 9:
        print(f"min-dist-to-other everywhere > 1/4 + 1/400: {ok}")
        return 0 if ok else 1
    print("n < 9: farness not asserted")
    return 0


def _experiment_obs_n3(args) -> int:
    rows = []
    all_fail = True
    for alpha in range(8):
        for beta in range(8):
            if alpha == beta:
                continue
            for order, hit in hadamard.exhaust_flip_orders(alpha, beta, 3, QUARTER):
                if hit is None:
                    all_fail = False
                    rows.append([alpha, beta, "-".join(map(str, order)), "", "", ""])
                else:
                    step, gamma, dist = hit
                    rows.append(
                        [alpha, beta, "-".join(map(str, order)), step, gamma, str(dist)]
                    )
    if args.out:
        write_csv_atomic(
            args.out,
            ["alpha", "beta", "order", "close_step", "gamma", "distance"],
            rows,
        )
        print(f"report: {args.out}")
    print(f"orders checked: {len(rows)}; every order hits a third codeword: {all_fail}")
    return 0 if all_fail else 1


def _experiment_claim_partition(args) -> int:
    n = args.n
    expected = 1 << (n - 2)
    rows = []
    ok = True
    for alpha in range(1 << n):
        for beta in range(1 << n):
            for gamma in range(1 << n):
                if len({alpha, beta, gamma}) != 3:
                    continue
                report = hadamard.partition_triple(alpha, beta, gamma, n)
                sizes = report.sizes()
                union_ok = (report.p_alpha | report.p_beta) == hadamard.disagreement_set(
                    alpha, beta, n
                )
                if sizes != (expected,) * 4 or not union_ok:
                    ok = False
                rows.append([alpha, beta, gamma, *sizes, union_ok])
    if args.out:
        write_csv_atomic(
            args.out,
            ["alpha", "beta", "gamma", "p_alpha", "p_beta", "p_gamma", "p_equal", "union_is_D"],
            rows,
        )
        print(f"report: {args.out}")
    print(f"triples checked: {len(rows)}; all counts equal {expected}: {ok}")
    return 0 if ok else 1


_EXPERIMENTS = {
    "fig2-profile": _experiment_fig2,
    "obs-n3": _experiment_obs_n3,
    "claim-partition": _experiment_claim_partition,
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconfcsp",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument(
            "--seed", type=int, default=os.environ.get("RECONF_SEED", DEFAULT_SEED),
            help=f"root seed (default {DEFAULT_SEED}; env RECONF_SEED)",
        )

    def add_budget(p):
        p.add_argument(
            "--budget", type=int, default=os.environ.get("RECONF_BUDGET", DEFAULT_BUDGET),
            help="exact-search state budget (env RECONF_BUDGET)",
        )

    gen = sub.add_parser("generate", help="generate a reconfiguration instance")
    gen.add_argument("--kind", choices=["path-graph", "cycle", "random"], required=True)
    gen.add_argument("--vertices", type=int, required=True)
    gen.add_argument("--alphabet", type=int, required=True)
    gen.add_argument("--edges", type=int, default=None, help="edge count (random kind)")
    gen.add_argument("--walk", type=int, default=None, help="walk length for --satisfiable")
    gen.add_argument(
        "--extra", type=int, default=2,
        help="extra random accepted tuples per edge for --satisfiable",
    )
    gen.add_argument("--satisfiable", action="store_true")
    gen.add_argument("--out", required=True)
    gen.add_argument("--path-out", default=None, help="write the satisfying walk here")
    add_seed(gen)
    add_budget(gen)
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="exact maxmin value / threshold reachability")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--threshold", type=int, default=None)
    solve.add_argument("--witness-out", default=None)
    add_budget(solve)
    solve.set_defaults(func=_cmd_solve)

    had = sub.add_parser("hadamard", help="codeword path and partial-sum tools")
    had_sub = had.add_subparsers(dest="subcommand", required=True)
    hp = had_sub.add_parser("path", help="generate (and verify) a codeword path")
    hp.add_argument("--n", type=int, default=os.environ.get("RECONF_N", 9), help="env RECONF_N")
    hp.add_argument("--alpha", type=int, required=True)
    hp.add_argument("--beta", type=int, required=True)
    hp.add_argument("--retries", type=int, default=3)
    hp.add_argument("--verify", action="store_true")
    hp.add_argument("--out", default=None, help="CSV distance profile")
    add_seed(hp)
    hp.set_defaults(func=_cmd_hadamard_path)
    ps = had_sub.add_parser("partial-sum", help="minimum partial-sum experiment")
    ps.add_argument("--n", type=int, default=os.environ.get("RECONF_N", 128), help="env RECONF_N")
    ps.add_argument(
        "--trials", type=int, default=os.environ.get("RECONF_TRIALS", 100_000),
        help="env RECONF_TRIALS",
    )
    ps.add_argument("--exhaustive", action="store_true")
    ps.add_argument("--out", default=None)
    add_seed(ps)
    ps.set_defaults(func=_cmd_hadamard_partial_sum)

    rob = sub.add_parser("robustize", help="emit the circuit system for an instance")
    rob.add_argument("--instance", required=True)
    rob.add_argument("--out", required=True)
    rob.add_argument("--weakened", action="store_true", help="negative-testing circuit variant")
    rob.set_defaults(func=_cmd_robustize)

    ver = sub.add_parser("verify-sequence", help="per-step circuit satisfaction counts")
    ver.add_argument("--system", required=True)
    ver.add_argument("--sigma", required=True)
    ver.set_defaults(func=_cmd_verify_sequence)

    comp = sub.add_parser("compose", help="compose a circuit system into a 4-ary instance")
    comp.add_argument("--system", required=True)
    comp.add_argument("--out", required=True)
    comp.set_defaults(func=_cmd_compose)

    ar = sub.add_parser("arity-reduce", help="reduce a 4-ary instance to binary")
    ar.add_argument("--instance", required=True)
    ar.add_argument("--out", required=True)
    ar.add_argument("--trace", default=None)
    ar.set_defaults(func=_cmd_arity_reduce)

    pipe = sub.add_parser("pipeline", help="full alphabet-reduction pipeline")
    pipe.add_argument("--instance", required=True)
    pipe.add_argument("--mode", choices=["micro", "n9"], required=True)
    pipe.add_argument("--report", default=None, help="stage report CSV")
    pipe.add_argument("--out", default=None, help="artifact directory (micro mode)")
    pipe.add_argument("--path", default=None, help="satisfying psi path (n9 mode)")
    add_seed(pipe)
    add_budget(pipe)
    pipe.set_defaults(func=_cmd_pipeline)

    exp = sub.add_parser("experiment", help="scripted experiments with CSV output")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    exp.add_argument("--n", type=int, default=os.environ.get("RECONF_N"))
    exp.add_argument("--out", default=None)
    add_seed(exp)
    exp.set_defaults(func=_dispatch_experiment)

    return parser


_EXPERIMENT_DEFAULT_N = {
    "fig2-profile": 9,
    "claim-partition": 4,
}


def _dispatch_experiment(args) -> int:
    if args.n is None:
        args.n = _EXPERIMENT_DEFAULT_N.get(args.name, 9)
    return _EXPERIMENTS[args.name](args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, hadamard.PathGenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
