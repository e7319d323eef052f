"""CLI contract tests: validation, exit codes, determinism, outputs.

Heavy physics goes through tiny geometries here; the desk-scale numbers
live in the acceptance suite.
"""

import ast
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from hotilab import cli, spectral
from hotilab.cli import (
    CLAIMS,
    REPRODUCE_IDS,
    Claim,
    ConfigError,
    Scan,
    config_hash,
    evaluate,
    main,
    reproduce,
    run_config,
    validate_config,
)
from hotilab.invariants import CornerReport, HingeReport
from hotilab.models import builtin_model, instantiate, slab_geometry
from hotilab.spectral import slab_bloch

ROOT = Path(__file__).resolve().parents[1]


def tiny_config(**overrides):
    cfg = {
        "name": "tiny",
        "model": {"name": "ham1", "gamma": [0.5]},
        "geometry": [{"kind": "wire", "side": 6}],
        "tasks": ["bands"],
        "solver": {"k_grid": 5, "window": 8},
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# validation

def test_unknown_model_reports_field_path():
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(model={"name": "nope"}))
    assert err.value.errors[0][0] == "model.name"


def test_unknown_task_reports_indexed_path():
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(tasks=["bands", "dance"]))
    assert err.value.errors[0][0] == "tasks[1]"


def test_bad_solver_option_and_geometry_kind():
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(solver={"k_grid": -3}))
    assert err.value.errors[0][0] == "solver.k_grid"
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(geometry=[{"kind": "sphere"}]))
    assert err.value.errors[0][0] == "geometry[0].kind"


def test_task_options_are_validated():
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(tasks=["kss"], kss={"preset": "nope"}))
    assert err.value.errors[0][0] == "kss.preset"
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(tasks=["symmetry-check"], symmetry={"action": "Q8"}))
    assert err.value.errors[0][0] == "symmetry.action"


def test_scalar_gamma_and_single_geometry_accepted():
    cfg = validate_config(
        tiny_config(model={"name": "ham2", "gamma": 0.5}, geometry={"kind": "wire", "side": 6})
    )
    assert cfg["model"]["gamma"] == [0.5]
    assert isinstance(cfg["geometry"], list)


# ---------------------------------------------------------------------------
# config hash

def test_hash_ignores_out_and_name_but_tracks_solver():
    base = validate_config(tiny_config())
    renamed = validate_config(tiny_config(name="other", out="elsewhere"))
    assert config_hash(base) == config_hash(renamed)
    reseeded = validate_config(tiny_config(solver={"k_grid": 5, "window": 8, "seed": 1}))
    assert config_hash(base) != config_hash(reseeded)


# ---------------------------------------------------------------------------
# slab assembly convention

def test_slab_bloch_matches_real_space_assembly():
    rng = np.random.default_rng(20260814)
    models = [builtin_model(name, 0.5) for name in ("ham1", "ham2")]
    models.append(builtin_model("chiral-quarter-uC"))  # 2D: edge slabs
    for model in models:
        for direction in range(model.dimension):
            geo = slab_geometry(model.dimension, direction, 5)
            h = slab_bloch(model, direction, 5)
            for _ in range(3):
                k = rng.uniform(-np.pi, np.pi, model.dimension - 1)
                dense = instantiate(model, geo, tuple(k)).dense()
                assert np.max(np.abs(dense - h(k))) < 1e-12


# ---------------------------------------------------------------------------
# run: outputs, determinism, exit codes

def test_run_writes_panels_and_manifest(tmp_path):
    cfg = validate_config(
        tiny_config(
            model={"name": "ham1", "gamma": [0.0, 0.5]},
            geometry=[{"kind": "wire", "side": 6}, {"kind": "slab-yz", "depth": 5}],
        )
    )
    summary = run_config(cfg, tmp_path)
    names = sorted(p.name for p in tmp_path.glob("bands-*.csv"))
    assert names == [
        "bands-ham1-g0-slab-yz5.csv",
        "bands-ham1-g0-wire6.csv",
        "bands-ham1-g0.5-slab-yz5.csv",
        "bands-ham1-g0.5-wire6.csv",
    ]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["files"]) == names
    assert set(manifest["versions"]) == {"artifact", "numpy", "python", "scipy"}
    assert "bands:ham1-g0.5-wire6" in summary


def test_rerun_is_bit_identical(tmp_path):
    cfg = validate_config(tiny_config())
    run_config(cfg, tmp_path / "a")
    run_config(cfg, tmp_path / "b")
    fa = sorted((tmp_path / "a").glob("*.csv"))
    fb = sorted((tmp_path / "b").glob("*.csv"))
    assert [p.name for p in fa] == [p.name for p in fb]
    for pa, pb in zip(fa, fb):
        assert pa.read_bytes() == pb.read_bytes()
    ha = json.loads((tmp_path / "a" / "manifest.json").read_text())["config_hash"]
    hb = json.loads((tmp_path / "b" / "manifest.json").read_text())["config_hash"]
    assert ha == hb


def test_spectrum_task_takes_folded_route_above_dense_cutoff(tmp_path, monkeypatch):
    dims = []
    folded = spectral.folded_near_zero

    def spy(h, nev, **kwargs):
        dims.append(h.shape[0])
        return folded(h, nev, **kwargs)

    monkeypatch.setattr(spectral, "folded_near_zero", spy)
    cfg = validate_config(tiny_config(tasks=["spectrum"], solver={"nev": 4, "dense_cutoff": 64}))
    summary = run_config(cfg, tmp_path)
    assert dims == [6 * 6 * 4]  # wire side 6, four orbitals
    assert summary["spectrum:ham1-g0.5-wire6"]["states"] == 4


def test_main_run_success_exit_zero(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "bands:ham1-g0.5-wire6" in out


def test_main_validation_failure_exit_two(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(tiny_config(model={"name": "nope"})))
    assert main(["run", str(cfg_path)]) == 2
    assert "model.name" in capsys.readouterr().err
    cfg_path.write_text("{not json")
    assert main(["run", str(cfg_path)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("argv, content", [
    (["run", "{path}"], None),
    (["run", "{path}"], b"\xff\xfe{}"),
    (["transversal", "{path}"], b"[1]"),
    (["run", "{path}"], b'{"model": {"name": "ham1"}, "tasks": ["bands"], "solver": [1]}'),
    (["run", "{path}"], b'{"model": {"name": "ham1"}, "tasks": ["kss"], "kss": [1]}'),
    (["run", "{path}"], b'{"model": {"name": "ham1"}, "tasks": ["symmetry-check"], "symmetry": [1]}'),
], ids=["run-directory", "run-not-utf8", "transversal-list", "solver-list", "kss-list", "symmetry-list"])
def test_malformed_input_exit_two(tmp_path, capsys, argv, content):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main([a.format(path=path) for a in argv]) == 2
    assert "config error at" in capsys.readouterr().err


@pytest.mark.parametrize("model", [{"name": "ham1"}, {"name": "chiral-quarter-uC"}], ids=["ham1", "quarter"])
def test_main_bulk_bands_exit_two(tmp_path, capsys, model):
    cfg_path = tmp_path / "bulk.json"
    cfg_path.write_text(json.dumps(tiny_config(model=model, geometry={"kind": "bulk"})))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error at geometry:" in capsys.readouterr().err


def test_main_solver_failure_exit_three(tmp_path, capsys):
    # gapless-edge model: the corner-mode solver refuses to assign an index
    cfg = {
        "model": {"name": "chiral-quarter-uF"},
        "geometry": {"kind": "quarter", "side": 12},
        "tasks": ["invariants"],
    }
    cfg_path = tmp_path / "uf.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error_type"] == "RuntimeError"
    assert "edge spectrum gap" in payload["message"]


def test_size_and_grid_overrides_change_hash_and_geometry(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o1"), "--size", "8", "--grid", "3"]) == 0
    m1 = json.loads((tmp_path / "o1" / "manifest.json").read_text())
    assert any(f == "bands-ham1-g0.5-wire8.csv" for f in m1["files"])
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o2")]) == 0
    m2 = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert m1["config_hash"] != m2["config_hash"]


# ---------------------------------------------------------------------------
# report subcommands

def test_kss_subcommand_emits_page_report(capsys):
    assert main(["kss", "square-inversion"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["name"] == "square-inversion"
    d1 = rep["differentials"]["1"]["d1[1,1]"]
    assert d1["image_invariant_factors"] == [1, 2]
    assert rep["boundary_maps"]["delta^2_q0"]["codomain"] == "Z/2"
    assert main(["kss", "not-a-preset"]) == 2


def test_kss_subcommand_reads_cofiltration_file(tmp_path, capsys):
    from hotilab.ktheory import cofiltration_to_dict, preset_cofiltration

    path = tmp_path / "cd.json"
    path.write_text(json.dumps(cofiltration_to_dict(preset_cofiltration("square-C4T"))))
    assert main(["kss", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["length"] == 2


def test_transversal_subcommand_counts(tmp_path, capsys):
    assert main(["transversal", "square"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["classes"] == 9
    assert rep["filtration_sizes"] == [1, 5, 9]
    seeds_path = tmp_path / "seeds.json"
    seeds_path.write_text(json.dumps({"seeds": "cube"}))
    assert main(["transversal", str(seeds_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["classes"] == 27
    assert rep["filtration_sizes"] == [1, 7, 19, 27]


def test_check_symmetry_subcommand(capsys):
    assert main(["check-symmetry", "ham3", "C4T"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["covariant"] and rep["relations_ok"]
    assert main(["check-symmetry", "ham1", "T"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert not rep["covariant"]  # gamma term breaks bare time reversal
    assert main(["check-symmetry", "ham1", "Q8"]) == 2


# ---------------------------------------------------------------------------
# reproduce

def test_reproduce_unknown_id_rejected(tmp_path):
    with pytest.raises(ConfigError):
        reproduce("model9", tmp_path)


@pytest.mark.parametrize("argv, flag", [
    (["chiral-quarter", "--seed", "-1"], "--seed"),
    (["model2", "--seed", "-1", "--size", "6"], "--seed"),
    (["model2", "--grid", "0", "--size", "6"], "--grid"),
    (["chiral-quarter", "--size", "0"], "--size"),
], ids=["quarter-seed", "model2-seed", "model2-grid", "quarter-size"])
def test_reproduce_rejects_bad_overrides(tmp_path, capsys, argv, flag):
    assert main(["reproduce", *argv, "--out", str(tmp_path / "out")]) == 2
    assert f"config error at {flag}:" in capsys.readouterr().err


def test_reproduce_chiral_quarter_small(tmp_path, capsys):
    assert main(["reproduce", "chiral-quarter", "--size", "12", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"]
    assert (tmp_path / "corner-report.json").exists()
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_reproduce_model1_small_claim_shape(tmp_path):
    summary = reproduce(
        "model1", tmp_path, solver={"k_grid": 11, "bulk_grid": 8},
        sizes={"slab": 6, "wire": 6},
    )
    texts = [c["claim"] for c in summary["claims"]]
    assert any("slab gapless" in t for t in texts)
    assert any("slab gapped" in t for t in texts)
    assert (tmp_path / "manifest.json").exists()
    gapless = [c for c in summary["claims"] if "gapless" in c["claim"]]
    assert all(c["ok"] for c in gapless)  # surface Dirac cones at gamma=0


def _stub_corner_report(model, side, nev, seed):
    return CornerReport(
        index=1, zero_energies=np.zeros(1), corner_weights=np.ones(1),
        box_weights=np.ones(1), chirality_values=np.ones(1), edge_gap=1.0,
        warnings=["stub corner warning"],
    )


def _stub_hinge_report(model, **kwargs):
    flows = {"hinge1": 1, "hinge2": -1, "hinge3": 1, "hinge4": -1}
    return HingeReport(
        flows=flows, kirchhoff_sum=0, crossings=[], momenta=np.zeros(1),
        energies=np.zeros((1, 1)), warnings=["stub hinge warning"],
    )


@pytest.mark.parametrize("rid, target, stub, text", [
    ("chiral-quarter", "corner_index", _stub_corner_report, "stub corner warning"),
    ("model3", "hinge_spectral_flow", _stub_hinge_report, "stub hinge warning"),
])
def test_reproduce_surfaces_report_warnings(tmp_path, monkeypatch, capsys, rid, target, stub, text):
    monkeypatch.setattr(cli, target, stub)
    argv = ["reproduce", rid, "--size", "12", "--grid", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["warnings"] == [text]
    assert f"WARN: {text}" in capsys.readouterr().out.splitlines()


def test_readme_commands_run(tmp_path, monkeypatch):
    """Every ``hoti-lab`` line of the README, at a small size and grid."""
    monkeypatch.chdir(ROOT)
    lines = (ROOT / "README.md").read_text().splitlines()
    commands = [shlex.split(x)[1:] for x in lines if x.startswith("hoti-lab ")]
    assert {c[0] for c in commands} == {"run", "reproduce", "kss", "transversal", "check-symmetry"}
    for i, argv in enumerate(commands):
        # a later --out overrides the README's own
        argv += ["--size", "8", "--grid", "5", "--out", str(tmp_path / str(i))]
        code = main(argv)
        if argv[0] == "reproduce":
            # small sizes may fail claims; then, and only then, the exit is 1
            summary = json.loads((tmp_path / str(i) / "summary.json").read_text())
            assert code == (0 if summary["passed"] else 1), argv
        else:
            assert code == 0, argv


# ---------------------------------------------------------------------------
# the claims table

def test_claims_table_is_consistent():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert all(c.xfail is None or c.xfail.strip() for c in CLAIMS)
    assert len([c for c in CLAIMS if c.xfail]) == 2
    for rid in REPRODUCE_IDS:
        assert any(c.reproduce == rid for c in CLAIMS), rid
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    named = [
        arg.value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check"
        for arg in node.args if isinstance(arg, ast.Constant)
    ]
    assert named and set(named) <= set(ids)


class _StubScans:
    def __init__(self, value):
        self.value = value

    def read(self, scan):
        return self.value


@pytest.mark.parametrize("value, xfail, status", [
    (2.0, None, "PASS"),
    (0.5, None, "FAIL"),
    (0.5, "out of reach", "XFAIL"),
    (2.0, "out of reach", "XPASS"),
])
def test_claim_status(value, xfail, status):
    row = Claim("stub", "value above 1", Scan("gap", "ham1"), lambda v: v > 1, xfail=xfail)
    out = evaluate(row, _StubScans(value))
    assert out["status"] == status
    assert out["ok"] == (value > 1) and out["value"] == value
    assert out.get("reason") == xfail


# (hinge, edge) of each cube: hinge-modes passes, its one xfail row failing
CUBES = {
    "ham1": ({"hinge1": 0.2, "hinge2": 0.05, "hinge3": 0.2, "hinge4": 0.05}, 0.9),
    "ham3": ({"hinge1": 0.2, "hinge2": 0.2, "hinge3": 0.2, "hinge4": 0.2}, 0.9),
}


@pytest.mark.parametrize("ham1, code, statuses", [
    (CUBES["ham1"], 0, ["XFAIL", "PASS", "PASS", "PASS", "PASS"]),
    (({"hinge1": 0.4, "hinge2": 0.05, "hinge3": 0.4, "hinge4": 0.05}, 0.9), 1,
     ["XPASS", "PASS", "PASS", "PASS", "PASS"]),
    ((CUBES["ham1"][0], 0.3), 1, ["XFAIL", "FAIL", "PASS", "PASS", "PASS"]),
], ids=["xfail", "xpass", "fail"])
def test_reproduce_exit_code_follows_claim_status(tmp_path, monkeypatch, capsys, ham1, code, statuses):
    cubes = {**CUBES, "ham1": ham1}
    monkeypatch.setattr(cli.Scans, "cube", lambda self, label, model, geometry: cubes[model.name])
    assert main(["reproduce", "hinge-modes", "--out", str(tmp_path)]) == code
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [c["status"] for c in summary["claims"]] == statuses
    assert summary["passed"] == (code == 0)
    reason = next(c.xfail for c in CLAIMS if c.xfail and c.reproduce == "hinge-modes")
    assert summary["claims"][0]["reason"] == reason
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:5]] == statuses
