"""The benchmark's three workloads: seeded inputs, the work, and output checks.

Each workload turns the run seed into a list of items (`make_items`, part of
set-up), runs one item through the package (`execute`), and checks the
outputs exactly (`check`), returning the list of problems found and the exact
values that feed the output digest.  Items come in fixed cycles, so every
run sees the same mix of item kinds whatever its seed.

Each workload also fixes `pool_per_second`, the items generated per second of
run length (about five times the throughput measured when the benchmark was
written, so a faster program still finds inputs ready; a run that uses them
all ends early), and `digest_items`, the fixed prefix of items whose outputs
make up the output digest, so runs of one seed compare result for result
however many items they finish.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from fractions import Fraction
from pathlib import Path


def item_seed(seed: int, workload: str, index: int) -> int:
    """Seed of one item, derived from the run seed by the benchmark itself."""
    digest = hashlib.sha256(f"{seed}/{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _stage_tuple(stage) -> list:
    maxmin = None if stage.maxmin is None else str(stage.maxmin.fraction)
    return [stage.stage, stage.vertices, stage.edges, stage.max_alphabet, maxmin, stage.method]


class MicroPipeline:
    """`full_pipeline(inst, "micro")` over lean path-graph instances.

    Equal-endpoint items (walk length 0) reduce to cell alphabet 900 and are
    checked at value 1 on every stage; one-move items (walk length 1) reduce
    to cell alphabet 11664, and their searched stages are cross-checked with
    the independent `dfs_maxmin` oracle.
    """

    name = "micro-pipeline"
    # (vertices, walk length) per item of one cycle
    cycle = ((3, 0), (2, 0), (3, 0), (2, 1))
    pool_per_second = 4
    digest_items = 4
    # walk length -> size of each circuit's satisfying set at n = 2
    SAT_SET = {0: 4, 1: 8}

    def make_items(self, seed: int, count: int, workdir: Path) -> list[dict]:
        from reconfcsp.cli import generate_instance

        items = []
        for index in range(count):
            vertices, walk = self.cycle[index % len(self.cycle)]
            s = item_seed(seed, self.name, index)
            instance, _ = generate_instance(
                "path-graph", vertices, 4, s, satisfiable=True,
                walk_length=walk, extra_tuples=0,
            )
            items.append({"vertices": vertices, "walk": walk, "seed": s, "instance": instance})
        return items

    def execute(self, item: dict):
        from reconfcsp import compose

        return compose.full_pipeline(item["instance"], "micro")

    def expected_stages(self, vertices: int, walk: int) -> list[list]:
        """Stage rows fixed by the construction; None marks an oracle cross-check."""
        edges = vertices - 1
        sat = self.SAT_SET[walk]
        composed_vertices = 4 * vertices + 2 * edges
        composed_edges = 64 * edges
        cell_alphabet = (sat * (sat + 1) // 2) ** 2 * 9
        if walk == 0:
            one = "1"
            return [
                ["source", vertices, edges, 4, one, "endpoint-value"],
                ["circuits", 4 * vertices, edges, 2, one, "endpoint-value"],
                ["composed-4ary", composed_vertices, composed_edges, sat, one, "endpoint-value"],
                ["binary", composed_vertices + composed_edges, 4 * composed_edges,
                 cell_alphabet, one, "endpoint-value"],
            ]
        return [
            ["source", vertices, edges, 4, None, "bfs-scan"],
            ["circuits", 4 * vertices, edges, 2, None, "bfs-scan"],
            ["composed-4ary", composed_vertices, composed_edges, sat, None, "sat-unreachable"],
            ["binary", composed_vertices + composed_edges, 4 * composed_edges,
             cell_alphabet, None, None],
        ]

    def check(self, item: dict, result) -> tuple[list[str], list]:
        from reconfcsp import solver

        problems = []
        rows = [_stage_tuple(s) for s in result.stages]
        expected = self.expected_stages(item["vertices"], item["walk"])
        oracle_instances = {"source": item["instance"], "circuits": result.micro_csp}
        for row, want in zip(rows, expected):
            if want[4] is None and want[0] in oracle_instances:
                want = list(want)
                want[4] = str(solver.dfs_maxmin(oracle_instances[want[0]]).fraction)
            if row != want:
                problems.append(f"stage {want[0]}: got {row}, expected {want}")
        if len(rows) != len(expected):
            problems.append(f"got {len(rows)} stages, expected {len(expected)}")
        return problems, [item["seed"], rows]

    def probe_graph(self, result):
        return result.reduction.instance.graph


class N9Completeness:
    """n = 9 completeness splicing, circuit checks, and soundness extraction.

    Each item runs `full_pipeline(inst, "n9", psi_seq=walk)` on a 4-vertex
    alphabet-512 satisfiable instance, then an adversarial bit walk and the
    extraction of a source sequence from it.
    """

    name = "n9-completeness"
    cycle = (None,)
    pool_per_second = 8
    digest_items = 3

    def make_items(self, seed: int, count: int, workdir: Path) -> list[dict]:
        from reconfcsp.cli import generate_instance

        items = []
        for index in range(count):
            s = item_seed(seed, self.name, index)
            instance, walk = generate_instance("path-graph", 4, 512, s, satisfiable=True)
            items.append({"seed": s, "instance": instance, "walk": walk})
        return items

    def execute(self, item: dict):
        from reconfcsp import compose, robustize

        # full_pipeline keeps the spliced sigma sequence to itself; record it
        # on the way out so the checks can inspect every step.
        spliced = []
        original = robustize.completeness_sequence

        def keep(*args, **kwargs):
            spliced.append(original(*args, **kwargs))
            return spliced[-1]

        robustize.completeness_sequence = keep
        try:
            result = compose.full_pipeline(
                item["instance"], "n9", seed=item["seed"], psi_seq=item["walk"]
            )
        finally:
            robustize.completeness_sequence = original
        walk = robustize.adversarial_block_sequence(result.system, item["seed"])
        extracted = robustize.extract_psi_sequence(result.system, walk)
        return {"result": result, "sigma": spliced[-1] if spliced else None,
                "walk": walk, "extracted": extracted}

    def check(self, item: dict, out: dict) -> tuple[list[str], list]:
        from reconfcsp import core, robustize

        problems = []
        instance, result, sigma = item["instance"], out["result"], out["sigma"]
        system = result.system
        moves = sum(
            1 for a, b in zip(item["walk"].steps, item["walk"].steps[1:]) if a != b
        )
        if sigma is None:
            return ["completeness sequence was not produced"], []
        if len(sigma) != 1 + moves * (1 << (system.n - 1)) or result.n9_steps != len(sigma):
            problems.append(f"{len(sigma)} sigma steps for {moves} moves")
        if sigma[0] != system.sigma_ini or sigma[-1] != system.sigma_tar:
            problems.append("sigma sequence has the wrong endpoints")
        for t, (a, b) in enumerate(zip(sigma, sigma[1:])):
            try:
                changed = robustize.single_bit_change(a, b)
            except core.InstanceError:
                changed = None
            if changed is None:
                problems.append(f"sigma step {t} does not change exactly one bit")
                break
        if result.n9_all_satisfied is not True:
            problems.append("a sigma step violates a circuit")
        walk, extracted = out["walk"], out["extracted"]
        if walk[0] != system.sigma_ini or walk[-1] != system.sigma_tar:
            problems.append("adversarial walk has the wrong endpoints")
        if core.validate_sequence(extracted):
            problems.append("extracted sequence is not a valid reconfiguration sequence")
        if extracted.steps[0] != instance.psi_ini or extracted.steps[-1] != instance.psi_tar:
            problems.append("extracted sequence has the wrong endpoints")
        order = instance.graph.vertices
        values = [
            item["seed"], len(sigma), len(walk),
            [[step.values[v] for v in order] for step in extracted.steps],
            str(core.sequence_value(instance.graph, extracted)),
        ]
        return problems, values

    def probe_graph(self, out):
        return None


class CliRoundtrip:
    """In-process `reconfcsp` commands with JSON files, then a full read-back."""

    name = "cli-roundtrip"
    cycle = (None,)
    pool_per_second = 3
    digest_items = 3

    def make_items(self, seed: int, count: int, workdir: Path) -> list[dict]:
        import reconfcsp.cli  # noqa: F401  (set-up ends with every module imported)

        items = []
        for index in range(count):
            s = item_seed(seed, self.name, index)
            d = workdir / f"item{index}"
            paths = {
                "mid": d / "mid.json", "witness": d / "witness.json", "lean": d / "lean.json",
                "system": d / "system", "composed": d / "composed",
                "binary": d / "binary.json", "trace": d / "trace.json",
            }
            commands = [
                ["generate", "--kind", "cycle", "--vertices", "4", "--alphabet", "16",
                 "--satisfiable", "--walk", "32", "--extra", "60", "--seed", str(s),
                 "--out", str(paths["mid"])],
                ["solve", "--instance", str(paths["mid"]), "--witness-out", str(paths["witness"])],
                ["generate", "--kind", "path-graph", "--vertices", "2", "--alphabet", "4",
                 "--satisfiable", "--walk", "0", "--extra", "0", "--seed", str(s),
                 "--out", str(paths["lean"])],
                ["robustize", "--instance", str(paths["lean"]), "--out", str(paths["system"])],
                ["compose", "--system", str(paths["system"]), "--out", str(paths["composed"])],
                ["arity-reduce", "--instance", str(paths["composed"] / "instance.json"),
                 "--out", str(paths["binary"]), "--trace", str(paths["trace"])],
            ]
            items.append({"seed": s, "dir": d, "paths": paths, "commands": commands})
        return items

    def execute(self, item: dict) -> dict:
        from reconfcsp import cli, core, robustize

        codes, printed = [], []
        for argv in item["commands"]:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                codes.append(cli.main(argv))
            printed.append(buffer.getvalue())
        paths = item["paths"]
        mid = core.deserialize(paths["mid"].read_text())
        witness = core.sequence_from_obj(json.loads(paths["witness"].read_text()), mid.graph)
        return {
            "codes": codes,
            "printed": printed,
            "mid": mid,
            "witness": witness,
            "system": robustize.read_system(paths["system"]),
            "composed": core.deserialize((paths["composed"] / "instance.json").read_text()),
            "binary": core.deserialize(paths["binary"].read_text()),
            "trace": json.loads(paths["trace"].read_text()),
        }

    def check(self, item: dict, out: dict) -> tuple[list[str], list]:
        from reconfcsp import core

        problems = []
        if any(out["codes"]):
            problems.append(f"exit codes {out['codes']}")
        optimum = None
        for line in out["printed"][1].splitlines():
            if line.startswith("maxmin: "):
                optimum = Fraction(line.removeprefix("maxmin: "))
        mid, witness = out["mid"], out["witness"]
        achieved = core.sequence_value(mid.graph, witness)
        if optimum is None or achieved.fraction != optimum:
            problems.append(f"witness value {achieved} differs from printed optimum {optimum}")
        if witness.steps[0] != mid.psi_ini or witness.steps[-1] != mid.psi_tar:
            problems.append("witness has the wrong endpoints")
        binary = out["binary"]
        if binary.graph.q != 2 or core.value(binary.graph, binary.psi_ini) != 1:
            problems.append("binary instance read back is not fully satisfied at psi_ini")
        if out["composed"].graph.q != 4:
            problems.append("composed instance read back is not 4-ary")
        if out["trace"].get("notes", {}).get("soundness_loss_factor") != 4:
            problems.append("arity-reduction trace lacks the soundness loss factor")
        values = [
            item["seed"], out["codes"], str(optimum), len(witness.steps),
            len(out["system"].circuits), len(binary.graph.vertices),
            sum(len(acc) for acc in binary.graph.accepts),
        ]
        return problems, values

    def probe_graph(self, out):
        return out["binary"].graph

    def cleanup(self, item: dict) -> None:
        shutil.rmtree(item["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (MicroPipeline(), N9Completeness(), CliRoundtrip())}
