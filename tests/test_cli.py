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


def test_hadamard_partial_sum_exhaustive(capsys):
    assert run("hadamard", "partial-sum", "--n", 2, "--exhaustive") == 0
    assert "1/6" in capsys.readouterr().out


def test_hadamard_partial_sum_seeded(tmp_path, capsys):
    csv_path = tmp_path / "ps.csv"
    assert run("hadamard", "partial-sum", "--n", 128, "--trials", 2000,
               "--seed", 3, "--out", csv_path) == 0
    assert "hits=0" in capsys.readouterr().out


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
