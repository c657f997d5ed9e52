import argparse
import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from reconfcsp import cli, core
from reconfcsp.cli import main, write_text_atomic
from reconfcsp.core import value

from conftest import triangle_equality


def run(*args) -> int:
    return main([str(a) for a in args])


def test_generate_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("generate", "--kind", "path-graph", "--vertices", 3, "--alphabet", 4,
               "--satisfiable", "--seed", 9, "--out", out1) == 0
    assert run("generate", "--kind", "path-graph", "--vertices", 3, "--alphabet", 4,
               "--satisfiable", "--seed", 9, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "seed: 9" in capsys.readouterr().out


def test_generate_satisfiable_endpoints(tmp_path):
    out = tmp_path / "inst.json"
    assert run("generate", "--kind", "path-graph", "--vertices", 3, "--alphabet", 4,
               "--satisfiable", "--seed", 5, "--out", out) == 0
    inst = core.deserialize(out.read_text())
    assert value(inst.graph, inst.psi_ini) == 1
    assert value(inst.graph, inst.psi_tar) == 1


def test_generate_usage_error(tmp_path):
    code = run("generate", "--kind", "path-graph", "--vertices", 3, "--alphabet", 1,
               "--out", tmp_path / "x.json")
    assert code == 2
    # each experiment has one entrypoint: these live under `hadamard` and `pipeline`
    for name in ("partial-sum", "micro-pipeline"):
        with pytest.raises(SystemExit) as exc:
            run("experiment", name)
        assert exc.value.code == 2


@pytest.mark.parametrize("flag, bad, least", [
    ("--edges", 0, 1), ("--edges", -2, 1), ("--walk", -1, 0), ("--extra", -3, 0),
])
def test_generate_rejects_bad_counts(tmp_path, capsys, flag, bad, least):
    out = tmp_path / "x.json"
    assert run("generate", "--kind", "random", "--vertices", 3, "--alphabet", 3,
               "--satisfiable", flag, bad, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {flag} must be at least {least}, got {bad}\n"
    assert not out.exists()


def test_generate_kinds(tmp_path):
    for kind, flags, edges in [("cycle", [], 4), ("random", ["--edges", 5], 5)]:
        out = tmp_path / f"{kind}.json"
        assert run("generate", "--kind", kind, "--vertices", 4, "--alphabet", 3,
                   *flags, "--seed", 2, "--out", out) == 0
        inst = core.deserialize(out.read_text())
        assert len(inst.graph.edges) == edges


def test_solve_triangle(tmp_path, capsys):
    inst = triangle_equality()
    path = tmp_path / "tri.json"
    write_text_atomic(path, core.serialize(inst))
    witness = tmp_path / "w.json"
    assert run("solve", "--instance", path, "--witness-out", witness) == 0
    out = capsys.readouterr().out
    assert "maxmin: 1/3" in out
    steps = json.loads(witness.read_text())["steps"]
    assert len(steps) >= 2
    # threshold mode: k=2 unreachable gives nonzero exit
    assert run("solve", "--instance", path, "--threshold", 2) == 1
    assert run("solve", "--instance", path, "--threshold", 1) == 0


def test_hadamard_path_verify(tmp_path, capsys):
    csv_path = tmp_path / "profile.csv"
    assert run("hadamard", "path", "--n", 9, "--alpha", 3, "--beta", 77,
               "--seed", 4, "--verify", "--out", csv_path) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "step,dist_alpha,dist_beta,min_dist_other"
    assert len(lines) == 1 + 257
    assert b"\r" not in csv_path.read_bytes()
    assert "verification: pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["hadamard", "path", "--n", 4, "--alpha", 99, "--beta", 1],
    ["hadamard", "path", "--n", 4, "--alpha", 1, "--beta", 16],
    ["hadamard", "path", "--n", 4, "--alpha", -1, "--beta", 1],
    ["hadamard", "path", "--n", 4, "--alpha", 5, "--beta", 5],
    ["hadamard", "path", "--n", 1, "--alpha", 0, "--beta", 1],
    ["hadamard", "path", "--n", 13, "--alpha", 0, "--beta", 1],
    ["hadamard", "path", "--n", 9, "--alpha", 0, "--beta", 1, "--retries", 0],
    ["experiment", "fig2-profile", "--n", 1],
    ["experiment", "claim-partition", "--n", 1],
    # (2^7)^3 triples: about a minute
    ["experiment", "claim-partition", "--n", 7],
    ["hadamard", "partial-sum", "--n", 0],
    ["hadamard", "partial-sum", "--trials", 0],
    # at the default --n 128 this would enumerate C(256, 128) arrangements
    ["hadamard", "partial-sum", "--exhaustive"],
], ids=["alpha-too-big", "beta-too-big", "alpha-negative", "alpha-equals-beta",
        "n-too-small", "n-too-big", "no-retries", "fig2-n-too-small",
        "claim-partition-n-1", "claim-partition-n-7",
        "partial-sum-n-0", "partial-sum-trials-0", "exhaustive-n-128"])
def test_hadamard_path_input_guards(argv, capsys):
    from reconfcsp.hadamard import codeword_table

    codeword_table.cache_clear()
    assert run(*argv) == 2
    assert codeword_table.cache_info().currsize == 0  # refused before any table is built
    err = capsys.readouterr().err
    assert err.startswith("error: --") and "Traceback" not in err


def test_hadamard_partial_sum_exhaustive(capsys):
    assert run("hadamard", "partial-sum", "--n", 2, "--exhaustive") == 0
    assert "1/6" in capsys.readouterr().out


def test_hadamard_partial_sum_seeded(tmp_path, capsys):
    csv_path = tmp_path / "ps.csv"
    assert run("hadamard", "partial-sum", "--n", 128, "--trials", 2000,
               "--seed", 3, "--out", csv_path) == 0
    assert "hits=0" in capsys.readouterr().out


def test_env_seed_not_an_integer_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RECONF_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        run("generate", "--kind", "cycle", "--vertices", 3, "--alphabet", 2,
            "--out", tmp_path / "unused.json")
    assert exc.value.code == 2
    assert "error: argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


def test_system_flow(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    from conftest import single_edge

    inst = single_edge({(0, 0), (1, 1)}, 4, (0, 0), (1, 1))
    write_text_atomic(inst_path, core.serialize(inst))
    sys_dir = tmp_path / "sys"
    assert run("robustize", "--instance", inst_path, "--out", sys_dir) == 0
    assert (sys_dir / "system.json").exists()

    from reconfcsp import robustize as rb

    system = rb.read_system(sys_dir)
    sigma_path = tmp_path / "sigma.json"
    steps = [system.sigma_ini, system.sigma_ini.flip("u", 0)]
    sigma_path.write_text(
        json.dumps({"steps": [rb.blocks_to_obj(s) for s in steps]})
    )
    code = run("verify-sequence", "--system", sys_dir, "--sigma", sigma_path)
    out = capsys.readouterr().out
    assert "step 0: 1/1 circuits satisfied" in out
    assert code == 0  # flipping position 0 keeps the circuit satisfied

    comp_dir = tmp_path / "composed"
    assert run("compose", "--system", sys_dir, "--out", comp_dir) == 0
    composed = core.deserialize((comp_dir / "instance.json").read_text())
    assert composed.graph.q == 4

    out_file = tmp_path / "binary.json"
    trace_file = tmp_path / "trace.json"
    assert run("arity-reduce", "--instance", comp_dir / "instance.json",
               "--out", out_file, "--trace", trace_file) == 0
    binary = core.deserialize(out_file.read_text())
    assert binary.graph.q == 2
    assert json.loads(trace_file.read_text())["notes"]["soundness_loss_factor"] == 4


def _sigma_file(tmp_path, steps) -> str:
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(steps))
    return path


_MALFORMED = {
    "block-not-hex": "step 1: vertex 'u': block 'zz'",
    "block-not-string": "step 1: vertex 'u': block 5",
    "block-too-long": "step 1: vertex 'u': block 'ff'",
    "step-missing-vertex": "step 1: missing vertex 'w'",
    "no-steps": 'expected an object with a "steps" list',
    # an empty sequence has no step to verify, so it must not pass
    "steps-empty": '"steps" must not be empty',
    "system-without-n": "system.json: missing key 'n'",
    # a 2^24-bit block would build a 2^48-position codeword table
    "system-n-too-big": 'system.json: "n" must be an integer in 2..12, got 24',
    # "no" is truthy, so it would switch on the weakened decoding radius
    "system-weakened-string": 'system.json: "weakened" must be true or false, got \'no\'',
    "system-id-float": 'system.json: edges[0]: "id" must be an integer, got 2.5',
    "system-original-alphabet-string": 'system.json: "original_alphabet" must be an integer >= 2',
    # false would load as the symbol 0
    "system-accept-bool": "system.json: edges[0].accept[1]: symbol False is not an integer",
    "system-top-level-list": "system.json: top level must be an object, got [",
    "system-edges-object": 'system.json: "edges" must be a list, got {}',
    "system-edges-int": 'system.json: "edges" must be a list, got 5',
    "system-vertices-int": 'system.json: "vertices" must be a list of strings, got 5',
    # the reader of sigma_ini.json would be blamed for the missing vertex 0
    "system-vertex-id-int": 'system.json: "vertices" must be a list of strings, got [0, \'w\']',
    "system-edge-int": "system.json: edges[0] must be an object, got 5",
    "system-edge-accept-int": 'system.json: edges[0]: "accept" must be a list, got 3',
    "system-edge-vertices-int": 'system.json: edges[0]: "vertices" must be a list, got 3',
    # an alphabet other than 2^n was ignored
    "system-alphabet-int": 'system.json: "alphabet" must be 2^n = 4, got 8',
    "system-alphabet-string": 'system.json: "alphabet" must be 2^n = 4, got \'x\'',
    "system-truncated": "system.json: malformed JSON (",
    "walk-truncated": "walk.json: malformed JSON (",
    "walk-float-symbol": "walk.json: sequence.steps[0].u: symbol 1.5 is not an integer",
    "walk-symbol-out-of-range": "walk.json: sequence.steps[0]: symbol 7 out of range for vertex 'u'",
}

_WALKS = {
    "walk-truncated": '{"steps": [\n',
    "walk-float-symbol": '{"steps": [{"u": 1.5, "w": 0}]}',
    "walk-symbol-out-of-range": '{"steps": [{"u": 7, "w": 0}]}',
}

_SYSTEM_EDITS = {
    "system-without-n": lambda obj: obj.pop("n"),
    "system-n-too-big": lambda obj: obj.update(n=24),
    "system-weakened-string": lambda obj: obj.update(weakened="no"),
    "system-id-float": lambda obj: obj["edges"][0].update(id=2.5),
    "system-original-alphabet-string": lambda obj: obj.update(original_alphabet="x"),
    "system-accept-bool": lambda obj: obj["edges"][0]["accept"].append([3, False]),
    "system-edges-object": lambda obj: obj.update(edges={}),
    "system-edges-int": lambda obj: obj.update(edges=5),
    "system-vertices-int": lambda obj: obj.update(vertices=5),
    "system-vertex-id-int": lambda obj: obj.update(vertices=[0, "w"]),
    "system-edge-int": lambda obj: obj["edges"].__setitem__(0, 5),
    "system-edge-accept-int": lambda obj: obj["edges"][0].update(accept=3),
    "system-edge-vertices-int": lambda obj: obj["edges"][0].update(vertices=3),
    "system-alphabet-int": lambda obj: obj.update(alphabet=8),
    "system-alphabet-string": lambda obj: obj.update(alphabet="x"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_sigma_and_system_files_exit_2(tmp_path, capsys, case):
    from conftest import single_edge

    inst_path = tmp_path / "inst.json"
    write_text_atomic(inst_path, core.serialize(single_edge({(0, 0)}, 4, (0, 0), (0, 0))))
    sys_dir = tmp_path / "sys"
    assert run("robustize", "--instance", inst_path, "--out", sys_dir) == 0
    good = json.loads((sys_dir / "sigma_ini.json").read_text())  # n = 2: one hex digit
    steps = {
        "block-not-hex": [good, {**good, "u": "zz"}],
        "block-not-string": [good, {**good, "u": 5}],
        "block-too-long": [good, {**good, "u": "ff"}],
        "step-missing-vertex": [good, {"u": good["u"]}],
        "steps-empty": [],
    }
    system_json = sys_dir / "system.json"
    if case in _SYSTEM_EDITS:
        obj = json.loads(system_json.read_text())
        _SYSTEM_EDITS[case](obj)
        system_json.write_text(json.dumps(obj))
    elif case == "system-truncated":
        system_json.write_text(system_json.read_text()[:40])
    elif case == "system-top-level-list":
        system_json.write_text(f"[{system_json.read_text()}]")
    if case == "system-without-n":
        argv = ["compose", "--system", sys_dir, "--out", tmp_path / "composed"]
    elif case in _WALKS:
        walk = tmp_path / "walk.json"
        walk.write_text(_WALKS[case])
        argv = ["pipeline", "--instance", inst_path, "--mode", "n9", "--path", walk]
    elif case.startswith("system-"):
        argv = ["verify-sequence", "--system", sys_dir, "--sigma", _sigma_file(tmp_path, {"steps": [good]})]
    else:
        sigma = {"steps": steps[case]} if case in steps else {"stairs": [good]}
        argv = ["verify-sequence", "--system", sys_dir, "--sigma", _sigma_file(tmp_path, sigma)]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _MALFORMED[case] in err and "Traceback" not in err
    if not case.startswith(("system-", "walk-")):
        assert "sigma.json" in err


def test_verify_sequence_marks_a_step_that_flips_two_bits(tmp_path, capsys):
    from conftest import single_edge

    inst_path = tmp_path / "inst.json"
    write_text_atomic(inst_path, core.serialize(single_edge({(0, 0)}, 4, (0, 0), (0, 0))))
    sys_dir = tmp_path / "sys"
    assert run("robustize", "--instance", inst_path, "--out", sys_dir) == 0
    good = json.loads((sys_dir / "sigma_ini.json").read_text())  # n = 2: one hex digit
    two_bits = {**good, "u": format(int(good["u"], 16) ^ 3, "x")}
    capsys.readouterr()
    assert run("verify-sequence", "--system", sys_dir,
               "--sigma", _sigma_file(tmp_path, {"steps": [good, two_bits]})) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["step 0: 1/1 circuits satisfied", "step 1: INVALID (more than one bit changed)"]


def _tweak_accept_row(obj, row):
    obj["edges"][0]["accept"][0] = row


_INSTANCE_PROBES = {
    "psi-tar-float-symbol": lambda obj: obj["psi_tar"].update(b=obj["psi_tar"]["b"] + 0.7),
    "accept-float-symbol": lambda obj: _tweak_accept_row(obj, [0.5, 0]),
    "accept-bool-symbol": lambda obj: _tweak_accept_row(obj, [True, 0]),
    "arity-float": lambda obj: obj.update(arity=2.0),
    "alphabet-string": lambda obj: obj.update(alphabet="2"),
    "edges-not-list": lambda obj: obj.update(edges=5),
    "accept-not-list": lambda obj: obj["edges"][0].update(accept=3),
}


@pytest.mark.parametrize("case", list(_INSTANCE_PROBES))
def test_malformed_instance_json_exits_2(tmp_path, capsys, case):
    obj = json.loads(core.serialize(triangle_equality()))
    _INSTANCE_PROBES[case](obj)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    assert run("solve", "--instance", path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: instance") and "Traceback" not in err


@pytest.mark.parametrize("row, symbol", [([True, 0], "True"), ([0, 0.5], "0.5")])
def test_json_accept_symbol_of_another_type_exits_2_naming_its_row(tmp_path, capsys, row, symbol):
    obj = json.loads(core.serialize(triangle_equality()))
    obj["edges"][1]["accept"][1] = row
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    assert run("solve", "--instance", path) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: instance: edges[1].accept[1]: symbol {symbol} is not an integer\n"


def test_truncated_instance_names_its_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(core.serialize(triangle_equality())[:40])
    assert run("solve", "--instance", path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: instance: malformed field (") and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "compose"])
def test_non_utf8_file_exits_2_naming_it(tmp_path, capsys, command):
    # ff fe is a UTF-16 byte-order mark, never valid UTF-8
    inst_path = tmp_path / "inst.json"
    write_text_atomic(inst_path, core.serialize(triangle_equality()))
    if command == "solve":
        bad = inst_path
        argv = ["solve", "--instance", inst_path]
    else:
        assert run("robustize", "--instance", inst_path, "--out", tmp_path / "sys") == 0
        bad = tmp_path / "sys" / "system.json"
        argv = ["compose", "--system", tmp_path / "sys", "--out", tmp_path / "composed"]
    bad.write_bytes(b"\xff\xfe" + bad.read_text().encode("utf-16-le"))
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"


def test_crlf_instance_reads_equal_to_lf(tmp_path):
    from reconfcsp.fileio import read_instance

    text = core.serialize(triangle_equality())
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert read_instance(crlf) == read_instance(lf) == triangle_equality()


# SHA-256 of the composed instance and of `arity-reduce --out` and `--trace`
# for the lean seed-7 chain.  The last two were computed before accept sets
# were packed, the first before instance I/O shared equal accept lists; the
# bytes must not change.
_ARITY_REDUCE_SHA256 = {
    "composed/instance.json": "3fff86dee1a3c7338a57c7fca8cdee676986e9d2d08d15dd8bd8dbe8b40e711a",
    "binary.json": "291a274ce785faf51260376ad7514cda1da43285abc9fb42fe49bd57c8a541d6",
    "trace.json": "e18b3d1e1217980754d93e6dfe27a68fb60c92b09cec9cc842ac62c7a554ca43",
}


def test_arity_reduce_artifacts_are_pinned(tmp_path):
    lean = tmp_path / "lean.json"
    assert run("generate", "--kind", "path-graph", "--vertices", 2, "--alphabet", 4,
               "--satisfiable", "--walk", 1, "--extra", 0, "--seed", 7, "--out", lean) == 0
    assert run("robustize", "--instance", lean, "--out", tmp_path / "sys") == 0
    assert run("compose", "--system", tmp_path / "sys", "--out", tmp_path / "composed") == 0
    assert run("arity-reduce", "--instance", tmp_path / "composed" / "instance.json",
               "--out", tmp_path / "binary.json", "--trace", tmp_path / "trace.json") == 0
    for name, digest in _ARITY_REDUCE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_pipeline_micro_report(tmp_path):
    inst_path = tmp_path / "inst.json"
    from conftest import single_edge

    inst = single_edge({(0, 0)}, 4, (0, 0), (0, 0))
    write_text_atomic(inst_path, core.serialize(inst))
    report = tmp_path / "report.csv"
    out_dir = tmp_path / "artifacts"
    assert run("pipeline", "--instance", inst_path, "--mode", "micro",
               "--report", report, "--out", out_dir) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "stage,vertices,edges,max-alphabet,maxmin-numerator,maxmin-denominator"
    assert lines[1].startswith("source,")
    assert any(line.startswith("# theoretical") for line in lines)
    assert b"\r" not in report.read_bytes()  # rows and comments alike end in LF
    assert (out_dir / "binary_instance.json").exists()
    assert (out_dir / "trace.json").exists()


def test_pipeline_n9(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    path_path = tmp_path / "walk.json"
    assert run("generate", "--kind", "path-graph", "--vertices", 3, "--alphabet", 512,
               "--satisfiable", "--seed", 8, "--out", inst_path,
               "--path-out", path_path, "--walk", 3) == 0
    assert run("pipeline", "--instance", inst_path, "--mode", "n9",
               "--path", path_path, "--seed", 1) == 0
    assert "all circuits satisfied at every step" in capsys.readouterr().out


# SHA-256 of the experiment CSVs as written before the experiment loops moved
# into `hadamard`; the bytes must not change.
_OBS_N3_SHA256 = "2301275bd00fad921413298b5b80afef2651f6ec0e9d52e79f807b709d766d07"
_CLAIM_PARTITION_N4_SHA256 = "7fff6f58848bfef741b6521d143052cb4613f6da12ca6de780b3609263bb4253"
_FIG2_N9_SEED7_SHA256 = "f9832b50e16ed65f1dab35f65b007a1b3d8ba88c669285c7943c1ee5d623287a"


def test_experiment_obs_n3(tmp_path, capsys):
    csv_path = tmp_path / "obs.csv"
    assert run("experiment", "obs-n3", "--out", csv_path) == 0
    out = capsys.readouterr().out
    assert "every order hits a third codeword: True" in out
    assert len(csv_path.read_text().splitlines()) == 1 + 56 * 24
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == _OBS_N3_SHA256


def test_experiment_claim_partition(tmp_path, capsys):
    csv_path = tmp_path / "partition.csv"
    assert run("experiment", "claim-partition", "--n", 4, "--out", csv_path) == 0
    assert "all counts equal 4: True" in capsys.readouterr().out
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == _CLAIM_PARTITION_N4_SHA256


def test_claim_partition_refuses_the_path_n_from_the_environment(capsys, monkeypatch):
    # RECONF_N=9 suits `hadamard path`; claim-partition would run for over an hour
    monkeypatch.setenv("RECONF_N", "9")
    assert run("experiment", "claim-partition") == 2
    assert capsys.readouterr().err == "error: --n must be in 2..6, got 9\n"


def test_experiment_fig2(tmp_path, capsys):
    csv_path = tmp_path / "fig2.csv"
    assert run("experiment", "fig2-profile", "--n", 9, "--seed", 7, "--out", csv_path) == 0
    assert "min-dist-to-other everywhere > 1/4 + 1/400: True" in capsys.readouterr().out
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == _FIG2_N9_SEED7_SHA256


def test_generate_then_pipeline_micro(tmp_path, capsys):
    inst_path = tmp_path / "lean.json"
    assert run("generate", "--kind", "path-graph", "--vertices", 2, "--alphabet", 4,
               "--satisfiable", "--walk", 1, "--extra", 0, "--seed", 3,
               "--out", inst_path) == 0
    csv_path = tmp_path / "micro.csv"
    assert run("pipeline", "--instance", inst_path, "--mode", "micro",
               "--report", csv_path) == 0
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[:5] == [
        "stage,vertices,edges,max-alphabet,maxmin-numerator,maxmin-denominator",
        "source,2,1,4,1,1",
        "circuits,8,1,2,0,1",
        "composed-4ary,10,64,8,,",
        "binary,74,256,11664,,",
    ]
    out = capsys.readouterr().out
    for line in (
        "source: vertices=2 edges=1 alpha=4 maxmin=1/1",
        "circuits: vertices=8 edges=1 alpha=2 maxmin=0/1",
        "composed-4ary: vertices=10 edges=64 alpha=8",
        "binary: vertices=74 edges=256 alpha=11664",
    ):
        assert line in out.splitlines()


def test_env_override_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RECONF_SEED", "123")
    out = tmp_path / "env.json"
    assert run("generate", "--kind", "path-graph", "--vertices", 3, "--alphabet", 4,
               "--satisfiable", "--out", out) == 0
    assert "seed: 123" in capsys.readouterr().out


def test_parser_cache_key_names_every_env_default(monkeypatch):
    read = []

    class Recording(dict):
        def get(self, key, default=None):
            read.append(key)
            return super().get(key, default)

    monkeypatch.setattr(os, "environ", Recording(os.environ))
    cli.build_parser()
    # argparse itself may read other variables; every RECONF_ default must be in the key
    assert {key for key in read if key.startswith("RECONF_")} == set(cli.PARSER_ENV)


def test_parser_is_rebuilt_when_the_environment_changes(tmp_path, capsys, monkeypatch):
    def generate():
        assert run("generate", "--kind", "path-graph", "--vertices", 3, "--alphabet", 4,
                   "--satisfiable", "--out", tmp_path / "env.json") == 0
        return capsys.readouterr().out

    cli._parser_for.cache_clear()
    monkeypatch.setenv("RECONF_SEED", "123")
    assert "seed: 123" in generate()
    monkeypatch.setenv("RECONF_SEED", "456")
    assert "seed: 456" in generate()
    assert "seed: 456" in generate()
    info = cli._parser_for.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    assert (info.misses, info.hits) == (2, 1)
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_mode_follows_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        assert run("generate", "--kind", "path-graph", "--vertices", 2, "--alphabet", 2,
                   "--out", tmp_path / "inst.json") == 0
        write_text_atomic(tmp_path / "artifact.txt", "payload")
        assert os.umask(previous) == umask  # nothing left the umask changed
    finally:
        os.umask(previous)
    for name in ("inst.json", "artifact.txt"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "artifact.txt"
    write_text_atomic(target, "payload")
    assert target.read_text() == "payload"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]


def _leaf_parsers(parser):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield parser
    for action in subparsers:
        for child in action.choices.values():
            yield from _leaf_parsers(child)


def _unread_flags(parser) -> list[str]:
    """Flags of `parser` whose dest its handler never reads as `args.<dest>`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(parser.get_default("func"))))
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }
    return [a.dest for a in parser._actions if a.dest != "help" and a.dest not in read]


def test_every_flag_is_read_by_its_handler():
    leaves = list(_leaf_parsers(cli.build_parser()))
    assert len(leaves) == 12
    assert {p.prog: _unread_flags(p) for p in leaves} == {p.prog: [] for p in leaves}

    def drops_seed(args):
        return args.out

    probe = argparse.ArgumentParser()
    probe.add_argument("--out")
    probe.add_argument("--seed")
    probe.set_defaults(func=drops_seed)
    assert _unread_flags(probe) == ["seed"]


# Each probe names the flag its refusal must name.  OUT is every output path,
# and nothing may be written to it.
_REFUSED = {
    "generate-budget-unrecognized": ("--budget", {}, ["generate", "--kind", "cycle", "--vertices", 3,
                                                      "--alphabet", 3, "--budget", -1, "--out", "OUT"]),
    "solve-budget-negative": ("--budget", {}, ["solve", "--instance", "INST", "--budget", -5,
                                               "--witness-out", "OUT"]),
    "pipeline-budget-negative": ("--budget", {}, ["pipeline", "--instance", "INST", "--mode", "micro",
                                                  "--budget", -1, "--report", "OUT"]),
    "solve-threshold-negative": ("--threshold", {}, ["solve", "--instance", "INST", "--threshold", -1,
                                                     "--witness-out", "OUT"]),
    "budget-env-negative": ("--budget", {"RECONF_BUDGET": "-5"},
                            ["solve", "--instance", "INST", "--witness-out", "OUT"]),
    "generate-cycle-edges": ("--edges", {}, ["generate", "--kind", "cycle", "--vertices", 3,
                                             "--alphabet", 2, "--edges", 50, "--out", "OUT"]),
    "generate-path-graph-edges": ("--edges", {}, ["generate", "--kind", "path-graph", "--vertices", 3,
                                                  "--alphabet", 2, "--satisfiable", "--edges", 2,
                                                  "--out", "OUT"]),
    "generate-walk-unsatisfiable": ("--walk", {}, ["generate", "--kind", "random", "--vertices", 3,
                                                   "--alphabet", 2, "--walk", 1, "--out", "OUT"]),
    "generate-extra-unsatisfiable": ("--extra", {}, ["generate", "--kind", "cycle", "--vertices", 3,
                                                     "--alphabet", 2, "--extra", 0, "--out", "OUT"]),
    "generate-path-out-unsatisfiable": ("--path-out", {}, ["generate", "--kind", "cycle", "--vertices", 3,
                                                           "--alphabet", 3, "--out", "OUT",
                                                           "--path-out", "OUT"]),
    "pipeline-micro-path": ("--path", {}, ["pipeline", "--instance", "INST", "--mode", "micro",
                                           "--path", "WALK", "--report", "OUT", "--out", "OUT"]),
    "pipeline-n9-out": ("--out", {}, ["pipeline", "--instance", "INST", "--mode", "n9",
                                      "--path", "WALK", "--out", "OUT"]),
    "obs-n3-n": ("--n", {}, ["experiment", "obs-n3", "--n", 5, "--out", "OUT"]),
    "obs-n3-seed": ("--seed", {}, ["experiment", "obs-n3", "--seed", 1, "--out", "OUT"]),
    "claim-partition-seed": ("--seed", {}, ["experiment", "claim-partition", "--seed", 1,
                                            "--out", "OUT"]),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_unread_or_negative_flags_are_refused(tmp_path, capsys, monkeypatch, case):
    flag, env, argv = _REFUSED[case]
    from conftest import single_edge

    inst = single_edge({(0, 0), (1, 1)}, 2, (0, 0), (1, 1))
    files = {"INST": tmp_path / "inst.json", "WALK": tmp_path / "walk.json", "OUT": tmp_path / "out"}
    write_text_atomic(files["INST"], core.serialize(inst))
    files["WALK"].write_text('{"steps": [{"u": 0, "w": 0}, {"u": 1, "w": 0}, {"u": 1, "w": 1}]}')
    for name, text in env.items():
        monkeypatch.setenv(name, text)
    try:
        code = run(*(files.get(a, a) for a in argv))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and flag in err and "Traceback" not in err, err
    assert not files["OUT"].exists()


# Runs `main` in a child that caps its own address space at 1 GiB, so a size
# guard that is missing fails the test instead of exhausting the host.
_LOW_MEMORY_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from reconfcsp.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flag, argv", [
    ("--n", ["hadamard", "partial-sum", "--n", 100_000_000, "--trials", 1, "--out", "OUT"]),
    ("--alphabet", ["generate", "--kind", "cycle", "--vertices", 3, "--alphabet", 1_000_000_000,
                    "--out", "OUT"]),
], ids=["partial-sum-n", "generate-alphabet"])
def test_size_guards_refuse_before_allocating(tmp_path, flag, argv):
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", _LOW_MEMORY_MAIN, *(str(out) if a == "OUT" else str(a) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 2 and flag in child.stderr and "Traceback" not in child.stderr, child.stderr
    assert not out.exists()


@pytest.mark.parametrize("flag, argv", [
    ("--edges", ["--kind", "random", "--vertices", 3, "--alphabet", 2, "--edges", 100_000_000]),
    ("--vertices", ["--kind", "cycle", "--vertices", 100_000_000, "--alphabet", 2]),
    ("--walk", ["--kind", "path-graph", "--vertices", 3, "--alphabet", 4, "--satisfiable",
                "--walk", 100_000_000]),
    ("--walk", ["--kind", "path-graph", "--vertices", 100_000, "--alphabet", 4, "--satisfiable"]),
    ("--extra", ["--kind", "random", "--vertices", 2, "--edges", 4, "--alphabet", 100_000,
                 "--satisfiable", "--walk", 1, "--extra", 100_000_000]),
], ids=["edges", "vertices", "walk", "default-walk", "extra"])
def test_generate_bounds_every_size_before_allocating(tmp_path, flag, argv):
    """Vertex names, edges, walk steps and extra tuples are each bounded before
    any is built; unbounded, each of these ends in a MemoryError under the cap."""
    test_size_guards_refuse_before_allocating(tmp_path, flag, ["generate", *argv, "--out", "OUT"])


@pytest.mark.parametrize("argv", [
    ["compose", "--system", "SYS", "--out", "OUT"],
    ["pipeline", "--instance", "INST", "--mode", "micro", "--out", "OUT"],
], ids=["compose", "pipeline-micro"])
def test_composition_refuses_large_satisfying_sets_before_allocating(tmp_path, argv):
    """This n = 3 system's circuits accept 768 and 1,296 inputs, so their twin
    superimpositions would broadcast about 2.3e9 booleans; unbounded, each
    command ends in a MemoryError under the cap."""
    files = {"INST": tmp_path / "inst.json", "SYS": tmp_path / "sys"}
    assert run("generate", "--kind", "path-graph", "--vertices", 3, "--alphabet", 8, "--satisfiable",
               "--walk", 2, "--seed", 5, "--out", files["INST"]) == 0
    assert run("robustize", "--instance", files["INST"], "--out", files["SYS"]) == 0
    test_size_guards_refuse_before_allocating(
        tmp_path, "out of composition range", [files.get(a, a) for a in argv])
