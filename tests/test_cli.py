import json

import pytest

from reconfcsp import core
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


def test_generate_kinds(tmp_path):
    for kind, edges in [("cycle", 4), ("random", 5)]:
        out = tmp_path / f"{kind}.json"
        assert run("generate", "--kind", kind, "--vertices", 4, "--alphabet", 3,
                   "--edges", 5, "--seed", 2, "--out", out) == 0
        inst = core.deserialize(out.read_text())
        if kind == "cycle":
            assert len(inst.graph.edges) == 4


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
    ["hadamard", "partial-sum", "--n", 0],
    ["hadamard", "partial-sum", "--trials", 0],
    # at the default --n 128 this would enumerate C(256, 128) arrangements
    ["hadamard", "partial-sum", "--exhaustive"],
], ids=["alpha-too-big", "beta-too-big", "alpha-negative", "alpha-equals-beta",
        "n-too-small", "n-too-big", "no-retries", "fig2-n-too-small",
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
    "system-without-n": "system.json: missing key 'n'",
    # a 2^24-bit block would build a 2^48-position codeword table
    "system-n-too-big": 'system.json: "n" must be an integer in 2..12, got 24',
    # "no" is truthy, so it would switch on the weakened decoding radius
    "system-weakened-string": 'system.json: "weakened" must be true or false, got \'no\'',
    "system-id-float": 'system.json: edges[0]: "id" must be an integer, got 2.5',
    "system-original-alphabet-string": 'system.json: "original_alphabet" must be an integer >= 2',
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
    }
    system_json = sys_dir / "system.json"
    if case in _SYSTEM_EDITS:
        obj = json.loads(system_json.read_text())
        _SYSTEM_EDITS[case](obj)
        system_json.write_text(json.dumps(obj))
    elif case == "system-truncated":
        system_json.write_text(system_json.read_text()[:40])
    if case == "system-without-n":
        argv = ["compose", "--system", sys_dir, "--out", tmp_path / "composed"]
    elif case in _WALKS:
        walk = tmp_path / "walk.json"
        walk.write_text(_WALKS[case])
        argv = ["pipeline", "--instance", inst_path, "--mode", "micro", "--path", walk]
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
    assert err.startswith(f"error: {bad}: not UTF-8 text") and "Traceback" not in err


# SHA-256 of `arity-reduce --out` and `--trace` for the lean seed-7 chain,
# computed before accept sets were packed; the bytes must not change.
_ARITY_REDUCE_SHA256 = {
    "binary.json": "291a274ce785faf51260376ad7514cda1da43285abc9fb42fe49bd57c8a541d6",
    "trace.json": "e18b3d1e1217980754d93e6dfe27a68fb60c92b09cec9cc842ac62c7a554ca43",
}


def test_arity_reduce_artifacts_are_pinned(tmp_path):
    import hashlib

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


def test_experiment_obs_n3(tmp_path, capsys):
    csv_path = tmp_path / "obs.csv"
    assert run("experiment", "obs-n3", "--out", csv_path) == 0
    out = capsys.readouterr().out
    assert "every order hits a third codeword: True" in out
    assert len(csv_path.read_text().splitlines()) == 1 + 56 * 24


def test_experiment_claim_partition(capsys):
    assert run("experiment", "claim-partition", "--n", 4) == 0
    assert "all counts equal 4: True" in capsys.readouterr().out


def test_experiment_fig2(tmp_path, capsys):
    csv_path = tmp_path / "fig2.csv"
    assert run("experiment", "fig2-profile", "--n", 9, "--seed", 7, "--out", csv_path) == 0
    assert "min-dist-to-other everywhere > 1/4 + 1/400: True" in capsys.readouterr().out


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


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "artifact.txt"
    write_text_atomic(target, "payload")
    assert target.read_text() == "payload"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]
