"""CLI contract tests: validation, exit codes, determinism, outputs.

Heavy physics goes through tiny geometries here; the desk-scale numbers
live in the acceptance suite.
"""

import ast
import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from hotilab import cli, invariants, spectral
from hotilab.cli import (
    CLAIMS,
    DEFAULT_SOLVER,
    REPRODUCE_IDS,
    Claim,
    ConfigError,
    Scan,
    Scans,
    config_hash,
    evaluate,
    main,
    reproduce,
    run_config,
    validate_config,
)
from hotilab.invariants import CornerReport, HingeReport
from hotilab.ktheory import PRESET_NAMES
from hotilab.models import builtin_model, cube_geometry, instantiate, slab_geometry
from hotilab.patterns import BUILTIN_SEEDS, builtin_seeds, pattern_to_dict
from hotilab.spectral import slab_bloch
from hotilab.symmetry import real_gauge

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
    assert cli.TASKS == tuple(cli.RUNNERS) == ("spectrum", "bands", "invariants")


def test_bad_solver_option_and_geometry_kind():
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(solver={"k_grid": -3}))
    assert err.value.errors[0][0] == "solver.k_grid"
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(geometry=[{"kind": "sphere"}]))
    assert err.value.errors[0][0] == "geometry[0].kind"
    with pytest.raises(ConfigError) as err:  # the router has no size cutoff to set
        validate_config(tiny_config(solver={"dense_cutoff": 64}))
    assert err.value.errors[0][0] == "solver.dense_cutoff"


def test_scalar_gamma_and_single_geometry_accepted():
    cfg = validate_config(
        tiny_config(model={"name": "ham2", "gamma": 0.5}, geometry={"kind": "wire", "side": 6})
    )
    assert cfg["model"]["gamma"] == [0.5]
    assert isinstance(cfg["geometry"], list)


def test_a_chiral_model_without_gamma_keeps_its_normal_form():
    # the normal form, and so the config hash, of a config that gives no gamma
    cfg = validate_config(tiny_config(model={"name": "chiral-quarter-uC"},
                                      geometry={"kind": "quarter", "side": 8}))
    assert cfg["model"] == {"name": "chiral-quarter-uC", "gamma": [0.5]}


@pytest.mark.parametrize("gamma, field", [
    ([0.5, float("nan")], "model.gamma[1]"),
    (float("inf"), "model.gamma[0]"),
], ids=["nan", "inf"])
def test_non_finite_gamma_rejected(gamma, field):
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(model={"name": "ham1", "gamma": gamma}))
    assert err.value.errors[0][0] == field


def test_non_finite_custom_model_exits_two(tmp_path, capsys):
    # Python's json reads NaN; a model holding it is no model at model.custom
    path = tmp_path / "cfg.json"
    path.write_text('{"model": {"custom": {"model": "ham1", "gamma": NaN}}, '
                    '"geometry": {"kind": "bulk"}, "tasks": ["invariants"]}')
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error at model.custom:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, field", [
    ({"model": {"name": "ham1", "gamma": [0.5, 0.0, 0.5]}}, "model.gamma[2]"),
    ({"geometry": [{"kind": "wire", "side": 6}, {"kind": "bulk"}, {"kind": "wire", "side": 6}]},
     "geometry[2]"),
    ({"tasks": ["bands", "bands"]}, "tasks[1]"),
], ids=["gamma", "geometry", "task"])
def test_a_repeated_panel_is_rejected_at_its_entry(overrides, field):
    # both entries would write the same files under one label
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(**overrides))
    assert err.value.errors[0][0] == field


def test_gammas_that_share_six_digits_get_distinct_labels():
    # a label keeps gamma to 6 significant digits unless they would not read back as gamma
    cfg = validate_config(tiny_config(model={"name": "ham1", "gamma": [0.5, 0.5000001, 1e-07, 0.25]}))
    assert [label for label, _ in cli._model_instances(cfg["model"])] == [
        "ham1-g0.5", "ham1-g0.5000001", "ham1-g1e-07", "ham1-g0.25",
    ]
    with pytest.raises(ConfigError) as err:  # an exact repeat still is one
        validate_config(tiny_config(model={"name": "ham1", "gamma": [0.5000001, 0.5, 0.5000001]}))
    assert err.value.errors[0][0] == "model.gamma[2]"


def test_a_size_override_that_repeats_a_panel_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(
        geometry=[{"kind": "wire", "side": 6}, {"kind": "wire", "side": 8}])))
    assert main(["run", str(cfg_path), "--size", "5", "--out", str(tmp_path / "out")]) == 2
    assert "config error at --size: geometry[1] repeats 'wire5'" in capsys.readouterr().err


def test_two_kinds_that_build_one_geometry_are_rejected(tmp_path, capsys):
    # slab1x6 and slab-xz6 are two labels of one slab, which would be solved twice
    slabs = [{"kind": "slab", "direction": 1, "depth": 6}, {"kind": "slab-xz", "depth": 6}]
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(geometry=slabs))
    assert err.value.errors[0][0] == "geometry[1]"
    assert "repeats 'slab1x6' of geometry[0]" in err.value.errors[0][1]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(geometry=slabs)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error at geometry[1]:" in capsys.readouterr().err
    slabs[1]["depth"] = 8  # distinct until --size makes them one
    cfg_path.write_text(json.dumps(tiny_config(geometry=slabs)))
    assert main(["run", str(cfg_path), "--size", "5", "--out", str(tmp_path / "out")]) == 2
    assert "config error at --size: geometry[1] repeats 'slab1x5'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError) as err:  # a 3D model's wire and quarter of one side, too
        validate_config(tiny_config(geometry=[{"kind": "wire", "side": 6}, {"kind": "quarter", "side": 6}]))
    assert err.value.errors[0][0] == "geometry[1]"


# one model per dimension; the 4D one is a custom single-orbital model
MODEL_OF_DIMENSION = {
    2: {"name": "chiral-quarter-uC"},
    3: {"name": "ham1"},
    4: {"custom": {"dimension": 4, "norb": 1,
                   "hoppings": [{"delta": [0, 0, 0, 0], "matrix": [[[1.0, 0.0]]]}]}, "label": "m4"},
}
# (kind, model dimension, panel label or rejected field path, extents) at the default sizes
GEOMETRY_TABLE = [
    ("bulk", 2, "chiral-quarter-uC-bulk", (None, None)),
    ("bulk", 3, "ham1-g0.5-bulk", (None, None, None)),
    ("bulk", 4, "m4-bulk", (None, None, None, None)),
    ("slab", 2, "chiral-quarter-uC-slab0x30", (30, None)),
    ("slab", 3, "ham1-g0.5-slab0x30", (30, None, None)),
    ("slab", 4, "m4-slab0x30", (30, None, None, None)),
    ("slab-yz", 2, "chiral-quarter-uC-slab-yz30", (30, None)),
    ("slab-yz", 3, "ham1-g0.5-slab-yz30", (30, None, None)),
    ("slab-yz", 4, "m4-slab-yz30", (30, None, None, None)),
    ("slab-xz", 2, "chiral-quarter-uC-slab-xz30", (None, 30)),
    ("slab-xz", 3, "ham1-g0.5-slab-xz30", (None, 30, None)),
    ("slab-xz", 4, "m4-slab-xz30", (None, 30, None, None)),
    ("slab-xy", 2, "geometry[0].kind", None),
    ("slab-xy", 3, "ham1-g0.5-slab-xy30", (None, None, 30)),
    ("slab-xy", 4, "m4-slab-xy30", (None, None, 30, None)),
    ("wire", 2, "geometry[0].kind", None),
    ("wire", 3, "ham1-g0.5-wire28", (28, 28, None)),
    ("wire", 4, "m4-wire28", (28, 28, None, None)),
    ("cube", 2, "geometry[0].kind", None),
    ("cube", 3, "ham1-g0.5-cube16", (16, 16, 16)),
    ("cube", 4, "geometry[0].kind", None),
    ("quarter", 2, "chiral-quarter-uC-quarter24", (24, 24)),
    ("quarter", 3, "ham1-g0.5-quarter24", (24, 24, None)),
    ("quarter", 4, "m4-quarter24", (24, 24, None, None)),
]


@pytest.mark.parametrize("kind, dimension, label, extents", GEOMETRY_TABLE,
                         ids=[f"{k}-{d}d" for k, d, _, _ in GEOMETRY_TABLE])
def test_every_geometry_kind_on_every_model_dimension(kind, dimension, label, extents):
    cfg = tiny_config(model=MODEL_OF_DIMENSION[dimension], geometry={"kind": kind}, tasks=["spectrum"])
    if extents is None:
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.errors[0][0] == label
        return
    cfg = validate_config(cfg)
    (panel, model, geometry), = cli._panels(cfg)
    assert (panel, geometry.extents) == (label, extents)
    if kind != "slab":  # a claim's scan at the default sizes makes the same panel
        (mlabel, _), = cli._model_instances(cfg["model"])
        panel, _, geometry = cli._panel(mlabel, model, cli._geometry_spec(kind, cli.DEFAULT_SIZES))
        assert (panel, geometry.extents) == (label, extents)


def test_an_unhashable_geometry_kind_is_unknown():
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_config(geometry={"kind": ["wire"]}))
    assert err.value.errors[0][0] == "geometry[0].kind"


def test_size_override_resizes_every_geometry_kind(tmp_path, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_config", lambda cfg, out: seen.append(cfg["geometry"]) or {})
    cfg_path = tmp_path / "cfg.json"
    argv = ["run", str(cfg_path), "--size", "7", "--out", str(tmp_path / "out")]
    assert {k for k, _, _, _ in GEOMETRY_TABLE} == set(cli.GEOMETRY_KINDS)
    # `slab` (direction 0) and `slab-yz` build one slab, and on a 3D model
    # `wire` and `quarter` of one side build one geometry: one config of
    # every kind is rejected, so the kinds are split over two configs
    cfg_path.write_text(json.dumps(tiny_config(geometry=[{"kind": k} for k in cli.GEOMETRY_KINDS])))
    assert main(argv) == 2
    assert "config error at geometry[2]: geometry[2] repeats 'slab0x30'" in capsys.readouterr().err
    for kinds in ([k for k in cli.GEOMETRY_KINDS if k not in ("slab-yz", "quarter")], ["slab-yz", "quarter"]):
        cfg_path.write_text(json.dumps(tiny_config(geometry=[{"kind": k} for k in kinds])))
        assert main(argv) == 0
    assert [cli._geometry_label(g) for g in seen[0] + seen[1]] == [
        "bulk", "slab0x7", "slab-xz7", "slab-xy7", "wire7", "cube7", "slab-yz7", "quarter7",
    ]


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
    # where the scan finds a real gauge V, h(k) is D^dag H(k) D with D = 1 (x) V
    rng = np.random.default_rng(20260814)
    models = [builtin_model(name, 0.5) for name in ("ham1", "ham2")]
    models.append(builtin_model("ham1", 0.0))  # a real gauge on every face
    models.append(builtin_model("chiral-quarter-uC"))  # 2D: edge slabs
    gauged = 0
    for model in models:
        for direction in range(model.dimension):
            geo = slab_geometry(model.dimension, direction, 5)
            gauge = real_gauge(model, geo)
            h = slab_bloch(model, direction, 5, gauge)
            rot = np.eye(len(geo.sites()) * model.norb)
            if gauge is not None:
                rot, gauged = np.kron(np.eye(len(geo.sites())), gauge[1]), gauged + 1
            for _ in range(3):
                k = rng.uniform(-np.pi, np.pi, model.dimension - 1)
                dense = instantiate(model, geo, tuple(k)).dense()
                assert np.max(np.abs(rot.conj().T @ dense @ rot - h(k))) < 1e-12
    assert gauged == 6  # ham2's xy face, ham1's three faces at gamma 0, both quarter edges


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
    assert summary["bands:ham1-g0-slab-yz5"]["real_gauge"] == "S=(x,-y,-z),anti=1,chiral=0"
    assert summary["bands:ham1-g0.5-slab-yz5"]["real_gauge"] is None


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


def test_spectrum_task_window_takes_the_shift_invert_route(tmp_path, monkeypatch):
    dims = []
    folded = spectral.folded_near_zero

    def spy(h, nev, **kwargs):
        dims.append(h.shape[0])
        return folded(h, nev, **kwargs)

    monkeypatch.setattr(spectral, "folded_near_zero", spy)
    cfg = validate_config(tiny_config(tasks=["spectrum"], solver={"nev": 4}))
    summary = run_config(cfg, tmp_path)
    assert dims == [6 * 6 * 4]  # wire side 6, four orbitals
    assert summary["spectrum:ham1-g0.5-wire6"]["states"] == 4


@pytest.mark.parametrize("rid, size, dims", [
    (None, 8, [8 * 8 * 4]),
    ("chiral-quarter", 8, [8 * 8 * 4, 2 * 8 * 8]),  # corner modes, then the face layer
    ("hinge-modes", 6, [6 * 6 * 6 * 4] * 2),
], ids=["run-invariants", "reproduce-corner", "reproduce-cube"])
def test_every_window_solve_takes_the_shift_invert_route(tmp_path, monkeypatch, rid, size, dims):
    # the corner index, the face layer and the cube modes ask for a window,
    # so each takes the shift-invert route whatever the matrix size
    seen = []
    folded = spectral.folded_near_zero

    def spy(h, nev, **kwargs):
        seen.append(h.shape[0])
        return folded(h, nev, **kwargs)

    monkeypatch.setattr(spectral, "folded_near_zero", spy)
    solver = {"nev": 8}
    if rid is None:
        cfg = validate_config(tiny_config(
            model={"name": "chiral-quarter-uC"}, geometry={"kind": "quarter", "side": size},
            tasks=["invariants"], solver=solver,
        ))
        run_config(cfg, tmp_path)
    else:
        reproduce(rid, tmp_path, solver=solver, sizes={"quarter": size, "cube": size})
    assert seen == dims


def test_cube_mode_weights_do_not_depend_on_the_solver_basis(tmp_path, monkeypatch):
    # ham3's exactly degenerate pairs come out of each solve in an arbitrary
    # mixture; the per-mode weights of hinge-modes-ham3.csv must not follow it
    rows = []
    for seed, route in [(0, "sparse"), (1, "sparse"), (0, "dense")]:  # dim 864
        out = tmp_path / f"s{seed}-{route}"
        out.mkdir()
        if route == "dense":  # the reference: the window of a full dense solve
            monkeypatch.setattr(spectral, "near_zero_states",
                                lambda h, nev, seed: spectral._window(*spectral.dense_eigh(h), nev))
        scans = Scans({**DEFAULT_SOLVER, "seed": seed}, outdir=out)
        scans.cube("ham3-cube6", builtin_model("ham3", 0.5), cube_geometry(6))
        rows.append(np.loadtxt(out / "hinge-modes-ham3.csv", delimiter=",", skiprows=1))
    assert rows[0].shape == (8, 3 + 9)  # mode, energy, edge, nine wire regions
    for other in rows[1:]:
        assert np.max(np.abs(other[:, 1:] - rows[0][:, 1:])) < 1e-8


def test_spectrum_weights_do_not_depend_on_the_solver_seed(tmp_path):
    # the same degenerate pairs on an open cube, through the spectrum task:
    # its per-state weights must not follow the seeded start vector either
    rows = []
    for seed in (0, 1, 2):
        cfg = validate_config(tiny_config(
            model={"name": "ham3"}, geometry={"kind": "cube", "side": 8}, tasks=["spectrum"],
            solver={"nev": 8, "seed": seed},
        ))
        run_config(cfg, tmp_path / str(seed))
        rows.append(np.loadtxt(tmp_path / str(seed) / "spectrum-ham3-g0.5-cube8.csv",
                               delimiter=",", skiprows=1))
    assert rows[0].shape == (8, 2 + 9)  # index, energy, nine wire regions
    for other in rows[1:]:
        assert np.array_equal(other[:, 1], rows[0][:, 1])
        assert np.max(np.abs(other[:, 2:] - rows[0][:, 2:])) < 1e-8


def test_every_near_zero_solve_of_a_model_runs_in_the_scan_loop(tmp_path, monkeypatch):
    # the spectrum task, the cube scan and the corner index read their
    # states from spectral._momentum_scan, which alone calls the router
    callers = []
    solve = spectral.near_zero_states

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return solve(*args, **kwargs)

    for module in (spectral, cli, invariants):
        if hasattr(module, "near_zero_states"):
            monkeypatch.setattr(module, "near_zero_states", spy)
    for geometry in ({"kind": "wire", "side": 6}, {"kind": "cube", "side": 4}):
        cfg = tiny_config(geometry=geometry, tasks=["spectrum"], solver={"nev": 4})
        run_config(validate_config(cfg), tmp_path / geometry["kind"])
    Scans(DEFAULT_SOLVER).cube("ham3-cube6", builtin_model("ham3"), cube_geometry(6))
    invariants.corner_index(builtin_model("chiral-quarter-uC"), side=12, nev=8)
    assert callers == ["_momentum_scan"] * 4


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


@pytest.mark.parametrize("argv, content, field", [
    (["run", "{path}"], None, "config"),
    (["run", "{path}"], b"\xff\xfe{}", "config"),
    (["transversal", "{path}"], b"[1]", "transversal"),
    (["transversal", "{path}"], b'{"patterns": []}', "transversal.patterns"),
    (["transversal", "{path}"], b'{"patterns": [{"dimension": 2}, {"dimension": 3}]}',
     "transversal.patterns"),
    (["kss", "{path}"], b"{not json", "kss"),
    (["run", "{path}"], b'{"model": {"name": "ham1"}, "tasks": ["bands"], "solver": [1]}', "solver"),
    # the report subcommands are the only way to their reports
    (["run", "{path}"], b'{"model": {"name": "ham1"}, "tasks": ["kss"], '
     b'"kss": {"preset": "square-inversion"}}', "tasks[0]"),
    (["run", "{path}"], b'{"model": {"name": "ham1"}, "tasks": ["spectrum"], '
     b'"geometry": {"kind": "slab", "direction": 3}}', "geometry[0].direction"),
    (["run", "{path}"], b'{"model": {"name": "chiral-quarter-uC"}, "tasks": ["bands"], '
     b'"geometry": [{"kind": "slab-yz"}, {"kind": "slab-xy"}]}', "geometry[1].kind"),
    (["run", "{path}"], b'{"model": {"name": "chiral-quarter-uC"}, "tasks": ["spectrum"], '
     b'"geometry": {"kind": "cube"}}', "geometry[0].kind"),
    # an empty list names no panel
    (["run", "{path}"], b'{"model": {"name": "ham1", "gamma": []}, "tasks": ["bands"]}', "model.gamma"),
    (["run", "{path}"], b'{"model": {"name": "ham1"}, "tasks": ["bands"], "geometry": []}', "geometry"),
    # the chiral models take no gamma, so one given would be dropped
    (["run", "{path}"], b'{"model": {"name": "chiral-quarter-uC", "gamma": 7}, "tasks": ["spectrum"], '
     b'"geometry": {"kind": "quarter", "side": 8}}', "model.gamma"),
    (["run", "{path}"], b'{"model": {"name": "chiral-quarter-uC", "gamma": [0.5, 0.0]}, '
     b'"tasks": ["spectrum"], "geometry": {"kind": "quarter", "side": 8}}', "model.gamma"),
    (["check-symmetry", "{path}", "C4T"], b'{"model": "ham9"}', "model"),
    (["check-symmetry", "{path}", "C4T"], b'{"dimension": 3}', "model"),
    (["check-symmetry", "{path}", "C4T", "--gamma", "0"], b'{"model": "ham3"}', "--gamma"),
    (["check-symmetry", "ham1", "chiral"], b"", "action"),
    (["check-symmetry", "chiral-quarter-uC", "inversion"], b"", "action"),
    # the chiral models take no gamma, so --gamma would be dropped
    (["check-symmetry", "chiral-quarter-uC", "chiral", "--gamma", "7"], b"", "--gamma"),
    (["check-symmetry", "{path}", "chiral"], b'{"model": "chiral-quarter-uC", "gamma": 7}', "model"),
    # a model file carries no chirality grading, and the finder tries no
    # chiral element without one
    (["check-symmetry", "{path}", "chiral"],
     b'{"dimension": 2, "norb": 1, "hoppings": [{"delta": [0, 0], "matrix": [[[1, 0]]]}]}', "action"),
], ids=[
    "run-directory", "run-not-utf8", "transversal-list", "transversal-no-patterns",
    "transversal-mixed-dimensions", "kss-not-json", "solver-list", "kss-task",
    "slab-direction-beyond-model", "slab-xy-of-2d-model", "cube-of-2d-model",
    "run-empty-gammas", "run-empty-geometry", "run-chiral-gamma", "run-chiral-gammas",
    "model-unknown-name", "model-no-hoppings", "model-file-and-gamma", "3d-model-2d-action",
    "2d-model-3d-action", "chiral-model-and-gamma", "chiral-model-file-and-gamma",
    "ungraded-model-chiral-action",
])
def test_malformed_input_exit_two(tmp_path, capsys, argv, content, field):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main([a.format(path=path) for a in argv]) == 2
    assert f"config error at {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("model", [{"name": "ham1"}, {"name": "chiral-quarter-uC"}], ids=["ham1", "quarter"])
def test_main_bulk_bands_exit_two(tmp_path, capsys, model):
    cfg_path = tmp_path / "bulk.json"
    cfg_path.write_text(json.dumps(tiny_config(model=model, geometry={"kind": "bulk"})))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error at geometry:" in capsys.readouterr().err


def test_run_invariants_on_a_wire_and_the_bulk(tmp_path):
    # a wire gets its hinge flows and the model class's corner parity, the
    # bulk its gap and, for the inversion class, the TRIM parity index
    cfg = validate_config(tiny_config(
        geometry=[{"kind": "wire", "side": 12}, {"kind": "bulk"}], tasks=["invariants"],
        solver={"k_grid": 41, "window": 12, "bulk_grid": 8},
    ))
    summary = run_config(cfg, tmp_path)
    wire, bulk = summary["invariants:ham1-g0.5-wire12"], summary["invariants:ham1-g0.5-bulk"]
    flow = wire["hinge_flow"]
    assert flow["flows"] == {"hinge1": 1, "hinge2": 0, "hinge3": -1, "hinge4": 0}
    assert flow["kirchhoff_sum"] == 0 and flow["warnings"] == []
    assert wire["corner_parity"] == {"symmetry_class": "inversion", "flows": [1, 0, -1, 0],
                                     "constraint_ok": True, "parity": 1}
    assert bulk["bulk_gap"] == pytest.approx(0.1339745962, abs=1e-10)
    assert (bulk["trim"]["total"], bulk["trim"]["cs_parity"]) == (14, 1)
    assert set(bulk["trim"]["plane_cherns"].values()) == {0}
    for label, out in (("wire12", wire), ("bulk", bulk)):
        assert json.loads((tmp_path / f"invariants-ham1-g0.5-{label}.json").read_text()) == out


@pytest.mark.parametrize("geometry", [{"kind": "bulk"}, {"kind": "slab", "depth": 10}], ids=["bulk", "slab"])
def test_chiral_invariants_need_a_quarter_panel(tmp_path, capsys, geometry):
    # the corner index is a quarter-plane count; other panels define none
    cfg_path = tmp_path / "chiral.json"
    cfg_path.write_text(json.dumps(tiny_config(
        model={"name": "chiral-quarter-uC"}, geometry=geometry, tasks=["invariants"],
    )))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error at geometry: no invariant defined" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, target", [
    (["transversal", "square"], "_transversal_report"),
    (["check-symmetry", "ham3", "C4T"], "_symmetry_report"),
    (["kss", "square-inversion"], "couple_report"),
    (["reproduce", "chiral-quarter", "--size", "8"], "corner_index"),
], ids=["transversal", "check-symmetry", "kss", "reproduce"])
def test_every_subcommand_task_failure_exits_three(tmp_path, monkeypatch, capsys, argv, target):
    def broken(*args, **kwargs):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(cli, target, broken)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["task"] == (f"reproduce:{argv[1]}" if argv[0] == "reproduce" else argv[0])
    assert payload["error_type"] == "ArithmeticError"


def test_size_and_grid_overrides_change_hash_and_geometry(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o1"), "--size", "8", "--grid", "3"]) == 0
    m1 = json.loads((tmp_path / "o1" / "manifest.json").read_text())
    assert any(f == "bands-ham1-g0.5-wire8.csv" for f in m1["files"])
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o2")]) == 0
    m2 = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert m1["config_hash"] != m2["config_hash"]


def test_grid_override_lowers_bulk_grid_and_never_raises_it(tmp_path, monkeypatch):
    # one rule for run and reproduce: --grid sets k_grid, and bulk_grid
    # becomes the smaller of --grid and the bulk_grid already in effect
    seen = []
    monkeypatch.setattr(cli, "run_config", lambda cfg, out: seen.append(cfg["solver"]) or {})
    monkeypatch.setattr(cli, "reproduce", lambda rid, out, solver, sizes: seen.append(solver) or
                        {"claims": [], "warnings": [], "passed": True})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(solver={"k_grid": 5, "bulk_grid": 8})))
    for grid in ([], ["--grid", "5"], ["--grid", "12"], ["--grid", "101"]):
        assert main(["run", str(cfg_path), *grid, "--out", str(tmp_path / "run")]) == 0
        assert main(["reproduce", "model1", *grid, "--out", str(tmp_path / "rep")]) == 0
    assert [(s["k_grid"], s["bulk_grid"]) for s in seen] == [
        (5, 8), (101, 16),    # no override: the config's grids, the defaults
        (5, 5), (5, 5),
        (12, 8), (12, 12),
        (101, 8), (101, 16),
    ]


@pytest.mark.parametrize("argv", [
    ["kss", "square-inversion", "--seed", "1"],
    ["transversal", "square", "--grid", "3"],
    ["check-symmetry", "ham3", "C4T", "--size", "2"],
], ids=["kss", "transversal", "check-symmetry"])
def test_report_subcommands_take_no_solver_flags(capsys, argv):
    # --seed, --grid and --size would be ignored here, so argparse rejects them
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("table, key, rows, shape", [
    ("boundary", "1,1", [[1, 0, 1], [-1, 0, 1, 0]], "2 rows of 4"),  # short row
    ("boundary", "1,1", [[1, 0, 1, 0]], "2 rows of 4"),  # missing row
    ("boundary", "1,1", [[1, 0, 1, 0, 0], [-1, 0, 1, 0]], "2 rows of 4"),  # long row
    ("second_order", "0", [[0, 1]], "2 rows of 2"),  # missing row
])
def test_kss_rejects_a_matrix_off_its_declared_shape(tmp_path, capsys, table, key, rows, shape):
    from hotilab.ktheory import cofiltration_to_dict, preset_cofiltration

    doc = cofiltration_to_dict(preset_cofiltration("square-inversion"))
    doc[table][key] = rows
    path = tmp_path / "cd.json"
    path.write_text(json.dumps(doc))
    assert main(["kss", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{table} {key!r} needs {shape} entries" in captured.err


def _replaced(doc, path, value):
    """``doc`` with the entry at ``path`` (keys and list indices) set to ``value``."""
    table = doc
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, rows, message", [
    (("boundary", "1,1"), [[1.7, 0, 1, 0], [-1, 0, 1, 0]], "boundary '1,1' has the entry 1.7"),
    (("boundary", "1,1"), [["1", 0, 1, 0], [-1, 0, 1, 0]], "boundary '1,1' has the entry '1'"),
    (("boundary", "1,1"), [[True, 0, 1, 0], [-1, 0, 1, 0]], "boundary '1,1' has the entry True"),
    (("boundary", "1,1"), [[1.0, 0, 1, 0], [-1, 0, 1, 0]], "boundary '1,1' has the entry 1.0"),
    (("second_order", "0"), [[0, 1.0], [0, 0]], "second_order '0' has the entry 1.0"),
    (("second_order", "0"), [[0, True], [0, 0]], "second_order '0' has the entry True"),
    (("strata", "0,0", "relations"), [[True], [0]], "strata '0,0' relations has the entry True"),
    (("strata", "0,0", "relations"), [[2.0], [0]], "strata '0,0' relations has the entry 2.0"),
], ids=["float", "string", "bool", "integral-float", "second-order-float", "second-order-bool",
        "relations-bool", "relations-float"])
def test_kss_rejects_a_matrix_entry_that_is_no_integer(tmp_path, capsys, path, rows, message):
    from hotilab.ktheory import cofiltration_to_dict, preset_cofiltration

    doc = _replaced(cofiltration_to_dict(preset_cofiltration("square-inversion")), path, rows)
    file = tmp_path / "cd.json"
    file.write_text(json.dumps(doc))
    assert main(["kss", str(file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _input_file(tmp_path, command, path, value) -> list:
    """The argv of ``command`` on a file whose entry at ``path`` is ``value``:
    a cofiltration (kss), a quarter's seed patterns (transversal), or the
    two-orbital model as a model file (check-symmetry) or as a run config's
    ``model.custom`` (run, a bulk invariants task)."""
    if command == "kss":
        from hotilab.ktheory import cofiltration_to_dict, preset_cofiltration

        doc = cofiltration_to_dict(preset_cofiltration("square-inversion"))
    elif command == "transversal":
        doc = {"patterns": [pattern_to_dict(p) for p in builtin_seeds("quarter")]}
    else:
        doc = json.loads((ROOT / "examples" / "two-orbital.json").read_text())
    doc = _replaced(doc, path, value)
    if command == "run":
        doc = {"model": {"custom": doc}, "geometry": {"kind": "bulk"}, "tasks": ["invariants"],
               "solver": {"bulk_grid": 4}}
    file = tmp_path / "input.json"
    file.write_text(json.dumps(doc))
    action = ["inversion"] if command == "check-symmetry" else []
    return [command, str(file), *action, "--out", str(tmp_path / "out")]


# each of these used to load truncated by int(): a delta of 0.5 as 0, true as 1
@pytest.mark.parametrize("command, path, value, field, message", [
    ("kss", ("length",), 2.5, "kss", "length has the entry 2.5"),
    ("kss", ("length",), True, "kss", "length has the entry True"),
    ("kss", ("strata", "0,0", "ngens"), 2.0, "kss", "strata '0,0' ngens has the entry 2.0"),
    ("transversal", ("patterns", 0, "constraints", 0, "normal"), [1.5, 0], "transversal.patterns",
     "normal has the entry 1.5"),
    ("transversal", ("patterns", 0, "constraints", 0, "bound"), 0.7, "transversal.patterns",
     "bound has the entry 0.7"),
    ("transversal", ("patterns", 0, "dimension"), 2.0, "transversal.patterns", "dimension has the entry 2.0"),
    ("check-symmetry", ("hoppings", 0, "delta"), [0.5, 0, 0], "model", "delta has the entry 0.5"),
    ("check-symmetry", ("hoppings", 0, "delta"), [True, 0, 0], "model", "delta has the entry True"),
    ("check-symmetry", ("dimension",), 3.0, "model", "dimension has the entry 3.0"),
    ("check-symmetry", ("norb",), 2.5, "model", "norb has the entry 2.5"),
    ("run", ("hoppings", 0, "delta"), [-0.5, 0, 0], "model.custom", "delta has the entry -0.5"),
    ("run", ("norb",), "2", "model.custom", "norb has the entry '2'"),
], ids=["kss-length-float", "kss-length-bool", "kss-ngens-float", "pattern-normal", "pattern-bound",
        "pattern-dimension", "model-delta-float", "model-delta-bool", "model-dimension", "model-norb",
        "custom-delta", "custom-norb-string"])
def test_input_files_read_integers_strictly(tmp_path, capsys, command, path, value, field, message):
    assert main(_input_file(tmp_path, command, path, value)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error at {field}:" in captured.err and message in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "check-symmetry"])
@pytest.mark.parametrize("name", ["ham1", "ham3", "chiral-quarter-uC"])
def test_a_custom_model_takes_no_built_in_name(tmp_path, capsys, command, name):
    # a built-in name selected that model's symmetry class: a bulk "ham1"
    # was given a TRIM index, and a wire "ham3" C4T's corner parity
    assert main(_input_file(tmp_path, command, ("name",), name)) == 2
    err = capsys.readouterr().err
    assert f"config error at {'model.custom' if command == 'run' else 'model'}:" in err
    assert f"name {name!r} is a built-in model's" in err


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
    assert main(["check-symmetry", "ham2", "inversion"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["covariant"] and rep["solutions"] == 1  # ham2's own inversion, s3 (x) s0
    assert main(["check-symmetry", "ham1", "Q8"]) == 2


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
def test_check_symmetry_rejects_a_non_finite_gamma(capsys, gamma):
    # a non-finite gamma would otherwise drop ham1's onsite mass and print a verdict
    assert main(["check-symmetry", "ham1", "inversion", f"--gamma={gamma}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error at --gamma:" in captured.err


@pytest.mark.parametrize("doc, argv", [
    ({"model": "ham3", "gamma": 0.5}, ["ham3", "C4T"]),
    ({"model": "ham1", "gamma": 0.0}, ["ham1", "inversion", "--gamma", "0"]),
], ids=["ham3", "ham1-g0"])
def test_check_symmetry_reads_a_model_file(tmp_path, capsys, doc, argv):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["check-symmetry", *argv]) == 0
    builtin = capsys.readouterr().out
    assert main(["check-symmetry", str(path), argv[1], "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == builtin
    assert (tmp_path / "out" / f"symmetry-{argv[0]}-{argv[1]}.json").read_text() == builtin


def test_check_symmetry_asks_a_two_orbital_model_file(tmp_path, capsys):
    # only the dimensions must fit: the finder solves the model's own 2x2 unitary
    path = ROOT / "examples" / "two-orbital.json"
    assert main(["check-symmetry", str(path), "inversion", "--out", str(tmp_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["covariant"] and rep["solutions"] == 1 and rep["relations_ok"]
    assert rep["covariance_defect"] <= 1e-12 and rep["relation_defect"] <= 1e-9
    assert json.loads((tmp_path / "symmetry-two-orbital-inversion.json").read_text()) == rep


def test_check_symmetry_reports_have_one_schema(capsys):
    keys = {"model", "action", "group_order", "covariant", "solutions", "covariance_defect",
            "relations_ok", "relation_defect"}
    for argv in (["ham2", "inversion"], ["ham1", "T"], ["chiral-quarter-uF", "chiral"]):
        assert main(["check-symmetry", *argv]) == 0
        assert set(json.loads(capsys.readouterr().out)) == keys, argv


def test_check_symmetry_names_an_unnamed_model_custom(tmp_path, capsys):
    # the atomic insulator: onsite s0 x s3 = diag(1, -1, 1, -1), the inversion matrix
    signs = (1.0, -1.0, 1.0, -1.0)
    onsite = [[[s if i == j else 0.0, 0.0] for j in range(4)] for i, s in enumerate(signs)]
    path = tmp_path / "atomic.json"
    path.write_text(json.dumps({
        "dimension": 3, "norb": 4, "hoppings": [{"delta": [0, 0, 0], "matrix": onsite}],
    }))
    assert main(["check-symmetry", str(path), "inversion", "--out", str(tmp_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["covariant"] and rep["model"] == ""
    assert json.loads((tmp_path / "symmetry-custom-inversion.json").read_text()) == rep


# every built-in report through its only door: the --out file is the
# printed JSON (kss, check-symmetry) or the full report behind it (transversal)
REPORT_COMMANDS = [
    *(["kss", p] for p in PRESET_NAMES),
    *(["check-symmetry", m, a] for m in ("ham1", "ham2", "ham3")
      for a in ("inversion", "C2T", "C4T", "T")),
    *(["check-symmetry", m, a, "--gamma", "0"] for m in ("ham1", "ham2", "ham3")
      for a in ("inversion", "C2T", "C4T", "T")),
    *(["check-symmetry", m, a] for m in ("chiral-quarter-uC", "chiral-quarter-uF")
      for a in ("chiral", "mirror-diagonal")),
]


@pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=["-".join(a) for a in REPORT_COMMANDS])
def test_report_file_is_the_printed_json(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    written, = tmp_path.iterdir()
    assert written.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("seeds", ["quarter", "square", "square-3d", "cube"])
def test_transversal_file_is_the_full_report(tmp_path, capsys, seeds):
    assert main(["transversal", seeds, "--out", str(tmp_path)]) == 0
    brief = json.loads(capsys.readouterr().out)
    full = json.loads((tmp_path / f"transversal-{seeds}.json").read_text())
    assert {k: full[k] for k in brief} == brief
    assert set(full) == {*brief, "patterns"} and len(full["patterns"]) == full["classes"]


@pytest.mark.parametrize("seeds", BUILTIN_SEEDS)
def test_transversal_accepts_every_builtin_seed_set(tmp_path, capsys, seeds):
    # by name on the command line, and as "seeds" in a JSON file
    assert main(["transversal", seeds]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["seeds"] == seeds
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps({"seeds": seeds}))
    assert main(["transversal", str(path)]) == 0
    assert capsys.readouterr().out == printed


def test_transversal_rejects_an_unknown_seed_set(tmp_path, capsys):
    assert main(["transversal", "hexagon"]) == 2
    assert "config error at transversal:" in capsys.readouterr().err
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps({"seeds": "hexagon"}))
    assert main(["transversal", str(path)]) == 2
    assert "config error at transversal.seeds:" in capsys.readouterr().err


def test_transversal_rejects_both_patterns_and_seeds(tmp_path, capsys):
    # neither key is dropped silently: the file names one seed source
    patterns = [pattern_to_dict(p) for p in builtin_seeds("square")]
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps({"seeds": "cube", "patterns": patterns}))
    assert main(["transversal", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error at transversal:" in err and "`patterns`" in err and "`seeds`" in err
    path.write_text(json.dumps({"patterns": patterns}))
    assert main(["transversal", str(path)]) == 0


# each report subcommand reads a built-in name or a JSON file: (argv, its field)
REPORT_INPUTS = {
    "kss": (["kss", "{arg}"], "kss"),
    "transversal": (["transversal", "{arg}"], "transversal"),
    "check-symmetry": (["check-symmetry", "{arg}", "C4T"], "model"),
}
# inputs every report subcommand rejects at its field: (id, file content),
# where None is an unknown name and no file, and b"/" a directory
LOADER_ERRORS = [
    ("unknown-name", None),
    ("directory", b"/"),
    ("not-json", b"{not json"),
    ("not-utf8", b"\xff\xfe{}"),
    ("json-list", b"[1]"),
]
# valid JSON that is no valid input, per subcommand, with the field it fails at
INVALID_DOCUMENTS = [
    ("kss", b"{}", "kss"),
    ("kss", b'{"length": 2}', "kss"),
    ("transversal", b'{"patterns": []}', "transversal.patterns"),
    ("transversal", b'{"patterns": 5}', "transversal.patterns"),
    ("transversal", b'{"seeds": "hexagon"}', "transversal.seeds"),
    ("transversal", b'{"seeds": ["square"]}', "transversal.seeds"),
    ("check-symmetry", b'{"dimension": 3}', "model"),
    ("check-symmetry", b'{"model": "ham9"}', "model"),
]


def _loader_exit(tmp_path, capsys, command, content):
    argv, _ = REPORT_INPUTS[command]
    arg = tmp_path / "input"
    if content == b"/":
        arg.mkdir()
    elif content is not None:
        arg.write_bytes(content)
    code = main([a.format(arg=arg if content is not None else "no-such-name") for a in argv])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize("command", REPORT_INPUTS)
@pytest.mark.parametrize("content", [c for _, c in LOADER_ERRORS], ids=[i for i, _ in LOADER_ERRORS])
def test_every_report_loader_error_exits_two_at_its_field(tmp_path, capsys, command, content):
    code, err = _loader_exit(tmp_path, capsys, command, content)
    assert code == 2 and err.startswith(f"config error at {REPORT_INPUTS[command][1]}: ")


@pytest.mark.parametrize("command, content, field", INVALID_DOCUMENTS,
                         ids=[f"{c}-{d.decode()}" for c, d, _ in INVALID_DOCUMENTS])
def test_every_invalid_report_document_exits_two_at_its_field(tmp_path, capsys, command, content, field):
    code, err = _loader_exit(tmp_path, capsys, command, content)
    assert code == 2 and err.startswith(f"config error at {field}: ")


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
        if argv[0] in ("run", "reproduce"):
            argv += ["--size", "8", "--grid", "5"]
        # a later --out overrides the README's own
        argv += ["--out", str(tmp_path / str(i))]
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
