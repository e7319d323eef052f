"""Config-driven experiment runner: spectra, bands, invariants, reports.

Subcommands
    run CONFIG.json       run the panel tasks (spectrum, bands, invariants)
                          of a JSON experiment config on each model x geometry
    reproduce ID          canned desk-scale data sets, checked against CLAIMS
    kss WHICH             exact-couple page and boundary-map report (JSON)
    transversal WHICH     pattern-class listing with filtration sizes (JSON)
    check-symmetry M A    covariance and projective-relation verdict (JSON)
                          of a built-in model or a model JSON file M

Exit codes: 0 success, 1 when a reproduced claim is an unexpected FAIL or
XPASS, 2 config validation error (with field-path diagnostics), 3
task/solver failure (with a module error payload).
Outputs are deterministic for a fixed config and seed: CSV floats use a
fixed format, JSON is written with sorted keys, and the manifest's
config hash covers exactly the semantically meaningful fields (not the
output directory or cosmetic names).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import platform
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .invariants import (
    CornerReport,
    HingeReport,
    bulk_corner_parity,
    corner_index,
    face_layer_index,
    hinge_spectral_flow,
    trim_parities,
)
from .ktheory import (
    PRESET_NAMES,
    cofiltration_from_dict,
    couple_report,
    preset_cofiltration,
)
from .models import (
    BUILTIN_MODELS,
    HoppingModel,
    builtin_model,
    bulk_geometry,
    cube_geometry,
    instantiate,
    model_from_dict,
    quarter_geometry,
    slab_geometry,
    wire_geometry,
)
from .patterns import (
    BUILTIN_SEEDS,
    builtin_seeds,
    codimension_filtration,
    global_transversal,
    pattern_from_dict,
    pattern_to_dict,
)
from .spectral import (
    BandData,
    _disentangle_clusters,
    band_structure,
    dense_spectra,
    minimum_bulk_gap,
    near_zero_states,
    slab_bloch,
    slab_gap_scan,
    wire_regions,
    write_band_csv,
)
from .symmetry import (
    BUILTIN_ACTIONS,
    SymmetryAction,
    builtin_action,
    check_covariance,
    verify_projective_relations,
)

REPRODUCE_IDS = ("model1", "model2", "model3", "hinge-modes", "chiral-quarter")

# desk-scale defaults: full suite fits in tens of minutes on a workstation
DEFAULT_SOLVER = {
    "seed": 0,
    "k_grid": 101,       # points per periodic direction
    "window": 16,        # states kept around zero energy in band scans
    "nev": 8,            # near-zero modes for spectrum tasks
    "bulk_grid": 16,     # momentum grid for bulk gap scans
}
DEFAULT_SIZES = {"wire": 28, "cube": 16, "slab": 30, "quarter": 24}

# the strata a panel is cut to, kind -> (size field, its DEFAULT_SIZES key,
# the model dimensions d it fits, builder from (d, normalized spec)); the
# generic slab also has a direction
GEOMETRY_KINDS = {
    "bulk": (None, None, lambda d: d > 0, lambda d, g: bulk_geometry(d)),
    "slab": ("depth", "slab", lambda d: d > 0, lambda d, g: slab_geometry(d, g["direction"], g["depth"])),
    "slab-yz": ("depth", "slab", lambda d: d > 0, lambda d, g: slab_geometry(d, 0, g["depth"])),
    "slab-xz": ("depth", "slab", lambda d: d > 1, lambda d, g: slab_geometry(d, 1, g["depth"])),
    "slab-xy": ("depth", "slab", lambda d: d > 2, lambda d, g: slab_geometry(d, 2, g["depth"])),
    "wire": ("side", "wire", lambda d: d >= 3, lambda d, g: wire_geometry(d, g["side"])),
    "cube": ("side", "cube", lambda d: d == 3, lambda d, g: cube_geometry(g["side"])),
    "quarter": ("side", "quarter", lambda d: d >= 2, lambda d, g: quarter_geometry(g["side"], d)),
}

# symmetry class each built-in model is protected by
MODEL_CLASS = {"ham1": "inversion", "ham2": "C2T", "ham3": "C4T"}


class ConfigError(Exception):
    """Validation failure; ``errors`` is a list of (field path, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.errors))


def _fail(path: str, msg: str):
    raise ConfigError([(path, msg)])


# ---------------------------------------------------------------------------
# config validation and normalization


def _check_int(value, path, minimum=1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        _fail(path, f"expected an integer >= {minimum}, got {value!r}")
    return int(value)


def _normalize_model(spec, path) -> dict:
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    if "custom" in spec:
        try:
            model_from_dict(spec["custom"])
        except Exception as e:
            _fail(f"{path}.custom", f"not a valid model description ({e})")
        return {"custom": spec["custom"], "label": str(spec.get("label", "custom"))}
    name = spec.get("name")
    if name not in BUILTIN_MODELS:
        _fail(f"{path}.name", f"unknown model {name!r}; have {', '.join(BUILTIN_MODELS)}")
    gammas = spec.get("gamma", 0.5)
    if not isinstance(gammas, list):
        gammas = [gammas]
    out = []
    for i, g in enumerate(gammas):
        if not isinstance(g, (int, float)) or isinstance(g, bool) or not math.isfinite(g):
            _fail(f"{path}.gamma[{i}]", f"expected a finite number, got {g!r}")
        out.append(float(g))
    return {"name": name, "gamma": out}


def _normalize_geometry(spec, path, dimension: int) -> dict:
    """A geometry of a ``dimension``-dimensional model; one the model
    cannot carry (a slab direction it lacks, a wire or cube of a 2D
    model) is a config error."""
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    kind = spec.get("kind")
    if kind not in tuple(GEOMETRY_KINDS):  # a JSON list or object is unknown, not unhashable
        _fail(f"{path}.kind", f"unknown kind {kind!r}; have {', '.join(GEOMETRY_KINDS)}")
    size, default, fits, _ = GEOMETRY_KINDS[kind]
    if not fits(dimension):
        _fail(f"{path}.kind", f"a {kind} geometry does not fit a {dimension}D model")
    out = {"kind": kind}
    if kind == "slab":
        out["direction"] = _check_int(spec.get("direction", 0), f"{path}.direction", minimum=0)
        if out["direction"] >= dimension:
            _fail(f"{path}.direction", f"expected a direction below {dimension}, the model dimension")
    if size:
        out[size] = _check_int(spec.get(size, DEFAULT_SIZES[default]), f"{path}.{size}")
    return out


def _reject_repeat(path: str, labels: list, field: str | None = None) -> None:
    """Fail at ``path[i]`` (or at ``field``, when it caused the repeat) for
    the first entry whose label an earlier entry already makes."""
    for i, label in enumerate(labels):
        if label in labels[:i]:
            _fail(field or f"{path}[{i}]", f"{path}[{i}] repeats {label!r} of "
                  f"{path}[{labels.index(label)}], so both would write the same files")


def validate_config(doc) -> dict:
    """Normalize a raw config document; raise ConfigError with field paths."""
    if not isinstance(doc, dict):
        _fail("$", "config must be a JSON object")
    cfg = {"name": str(doc.get("name", ""))}
    if "model" not in doc:
        _fail("model", "missing")
    cfg["model"] = _normalize_model(doc["model"], "model")
    instances = _model_instances(cfg["model"])
    _reject_repeat("model.gamma", [label for label, _ in instances])
    dimension = instances[0][1].dimension
    geos = doc.get("geometry", {"kind": "bulk"})
    if not isinstance(geos, list):
        geos = [geos]
    cfg["geometry"] = [
        _normalize_geometry(g, f"geometry[{i}]", dimension) for i, g in enumerate(geos)
    ]
    _reject_repeat("geometry", [_geometry_label(g) for g in cfg["geometry"]])
    tasks = doc.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        _fail("tasks", "expected a non-empty list")
    for i, t in enumerate(tasks):
        if t not in TASKS:
            _fail(f"tasks[{i}]", f"unknown task {t!r}; have {', '.join(TASKS)}")
    _reject_repeat("tasks", tasks)
    cfg["tasks"] = list(tasks)
    solver = dict(DEFAULT_SOLVER)
    options = doc.get("solver") or {}
    if not isinstance(options, dict):
        _fail("solver", "expected an object")
    for key, value in options.items():
        if key not in DEFAULT_SOLVER:
            _fail(f"solver.{key}", f"unknown option; have {', '.join(DEFAULT_SOLVER)}")
        solver[key] = _check_int(value, f"solver.{key}", minimum=0 if key == "seed" else 1)
    cfg["solver"] = solver
    if "out" in doc:
        cfg["out"] = str(doc["out"])
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of the semantically meaningful fields (not out dir or name)."""
    core = {k: v for k, v in cfg.items() if k not in ("out", "name")}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# panels: one (model instance, geometry) pair per combination


def _gamma_text(g: float) -> str:
    """``g`` to 6 significant digits, or whole when those do not read back as ``g``."""
    return f"{g:g}" if float(f"{g:g}") == g else repr(g)


def _model_instances(mspec: dict) -> list:
    """(label, model) for each gamma of a built-in model, or the custom one."""
    if "custom" in mspec:
        return [(mspec["label"], model_from_dict(mspec["custom"]))]
    name = mspec["name"]
    return [
        (f"{name}-g{_gamma_text(g)}" if name in MODEL_CLASS else name, builtin_model(name, g))
        for g in mspec["gamma"]
    ]


def _geometry_spec(kind: str, sizes: dict) -> dict:
    """A geometry of ``kind`` at the given sizes (keyed like `DEFAULT_SIZES`)."""
    size, default = GEOMETRY_KINDS[kind][:2]
    return {"kind": kind, size: sizes[default]} if size else {"kind": kind}


def _geometry_label(gspec: dict) -> str:
    kind, size = gspec["kind"], GEOMETRY_KINDS[gspec["kind"]][0]
    if kind == "slab":
        return f"slab{gspec['direction']}x{gspec['depth']}"
    return f"{kind}{gspec[size]}" if size else kind


def _panels(cfg: dict):
    """Yield (label, model, geometry) for every model x geometry combo."""
    for mlabel, model in _model_instances(cfg["model"]):
        for gspec in cfg["geometry"]:
            yield _panel(mlabel, model, gspec)


def _panel(mlabel: str, model: HoppingModel, gspec: dict):
    build = GEOMETRY_KINDS[gspec["kind"]][3]
    return f"{mlabel}-{_geometry_label(gspec)}", model, build(model.dimension, gspec)


# ---------------------------------------------------------------------------
# task implementations


def _momentum_path(nk: int) -> np.ndarray:
    return np.linspace(-np.pi, np.pi, nk)


def _near_zero_modes(model, geometry, solver):
    """The solver's ``nev`` states of ``model`` nearest zero at k = 0, and
    the hinge-region weight of each (empty when fewer than two directions
    are open).  Degenerate clusters are rotated onto the regions first, so
    no weight depends on the solver's basis inside a multiplet."""
    ham = instantiate(model, geometry, (0.0,) * len(geometry.periodic_dirs))
    vals, vecs = near_zero_states(ham.matrix, solver["nev"], seed=solver["seed"])
    if len(geometry.open_dirs) < 2:
        return vals, vecs, {}
    part = wire_regions(geometry, model.norb)
    vecs = _disentangle_clusters(vals, vecs, part)
    return vals, vecs, dict(zip(part.names, part.weights(vecs)))


def _write_modes_csv(path, index: str, vals, weights: dict) -> None:
    """Rows: mode number (column ``index``), energy, then one
    ``<name>_weight`` column per entry of ``weights``."""
    with open(path, "w") as fh:
        fh.write(",".join([index, "energy", *(f"{n}_weight" for n in weights)]) + "\n")
        for i, e in enumerate(vals):
            row = [str(i), f"{e:.12g}", *(f"{w[i]:.12g}" for w in weights.values())]
            fh.write(",".join(row) + "\n")


def _task_spectrum(model, geometry, scans, outdir, label):
    vals, _, weights = _near_zero_modes(model, geometry, scans.solver)
    path = outdir / f"spectrum-{label}.csv"
    _write_modes_csv(path, "index", vals, weights)
    summary = {"min_abs_energy": float(np.min(np.abs(vals))), "states": int(len(vals))}
    return [path], summary


def _task_bands(model, geometry, scans, outdir, label):
    nk = scans.solver["k_grid"]
    nper = len(geometry.periodic_dirs)
    path = outdir / f"bands-{label}.csv"
    if nper == 0 or not geometry.open_dirs:
        _fail("geometry", "bands need a slab or wire: at least one periodic and one open direction")
    if nper == 1:
        data = scans.bands(label, model, geometry, nk, scans.solver["window"])
        write_band_csv(path, data)
        summary = {
            "min_abs_energy": float(np.min(np.abs(data.energies))),
            "k_reversal": data.k_reversal,
            "solved_momenta": data.solved_momenta,
        }
        if data.region_names:
            summary["max_hinge_weight_near_zero"] = _hinge_weight(data, NEAR_ZERO)
        return [path], summary
    # two periodic directions: scan a line for plotting, a grid for the gap
    direction = geometry.open_dirs[0]
    depth = int(geometry.extents[direction])
    momenta = np.column_stack([_momentum_path(nk), np.zeros(nk)])
    energies = np.array(list(dense_spectra(slab_bloch(model, direction, depth), momenta)))
    write_band_csv(path, BandData(momenta, energies, None, (), None, nk))
    gap = scans.gap(label, model, geometry)
    return [path], {"min_abs_energy_grid": gap, "min_abs_energy_line": float(np.min(np.abs(energies)))}


def _task_invariants(model, geometry, scans, outdir, label):
    out = {}
    chiral_2d = model.dimension == geometry.dimension == 2 and model.chirality is not None
    if chiral_2d and not geometry.periodic_dirs:  # the quarter plane, open both ways
        out["corner"] = scans.corner(label, model, geometry).to_dict()
    elif model.dimension == 3 and geometry.periodic_dirs and len(geometry.open_dirs) == 2:
        rep = scans.flow(label, model, geometry)
        out["hinge_flow"] = rep.to_dict()
        klass = MODEL_CLASS.get(model.name)
        if klass:
            out["corner_parity"] = bulk_corner_parity(_flows(rep), klass).to_dict()
    elif model.dimension == 3 and not geometry.open_dirs:
        out["bulk_gap"] = scans.gap(label, model, geometry)
        klass = MODEL_CLASS.get(model.name)
        if klass == "inversion":
            parity_op = builtin_action("inversion").unitary
            out["trim"] = trim_parities(model, parity_op).to_dict()
    else:
        _fail("geometry", "no invariant defined for this model/geometry combination")
    path = outdir / f"invariants-{label}.json"
    _write_json(path, out)
    return [path], out


# the tasks a `run` config may list, each run on every panel
RUNNERS = {"spectrum": _task_spectrum, "bands": _task_bands, "invariants": _task_invariants}
TASKS = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# reports of the `transversal` and `check-symmetry` subcommands


def _transversal_seeds(doc) -> tuple[str, list]:
    """(name, seed patterns) of a `transversal` JSON file: ``patterns`` of
    one dimension (named ``custom``), or a built-in ``seeds`` set."""
    if not isinstance(doc, dict):
        _fail("transversal", "expected an object")
    if "patterns" not in doc:
        name = doc.get("seeds")
        if name not in BUILTIN_SEEDS:
            _fail("transversal.seeds", f"unknown seed set {name!r}")
        return name, builtin_seeds(name)
    try:
        seeds = [pattern_from_dict(p) for p in doc["patterns"]]
    except Exception as e:
        _fail("transversal.patterns", f"not valid patterns ({e})")
    if len({p.dimension for p in seeds}) != 1:
        _fail("transversal.patterns", "expected a non-empty list of patterns of one dimension")
    return "custom", seeds


def _transversal_report(name: str, seeds: list) -> dict:
    tr = global_transversal(seeds)
    return {
        "seeds": name,
        "classes": len(tr),
        "by_codimension": {str(c): len(ps) for c, ps in tr.by_codimension().items()},
        "filtration_sizes": list(codimension_filtration(tr).sizes),
        "patterns": [pattern_to_dict(p) for p in tr.patterns],
    }


def _symmetry_report(model: HoppingModel, action: SymmetryAction) -> dict:
    cov_ok, cov_defect = check_covariance(model, action)
    rel_ok, rel_defect = verify_projective_relations(action)
    return {
        "model": model.name,
        "action": action.name,
        "covariant": bool(cov_ok),
        "covariance_defect": float(cov_defect),
        "relations_ok": bool(rel_ok),
        "relation_defect": float(rel_defect),
        "group_order": action.order,
    }


# ---------------------------------------------------------------------------
# run


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _versions() -> dict:
    return {
        "artifact": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def run_config(cfg: dict, out_dir, scans=None) -> dict:
    """Run each task on each panel; write artifacts + manifest.json; return summary.

    ``scans`` (a `Scans` at the config's solver) keeps the band and gap
    scans for claims that read the same panels."""
    scans = scans or Scans(cfg["solver"])
    outdir = Path(out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files, wall, summary = [], {}, {}
    for task in cfg["tasks"]:
        for label, model, geometry in _panels(cfg):
            t0 = time.perf_counter()
            fs, sm = RUNNERS[task](model, geometry, scans, outdir, label)
            files += fs
            summary[f"{task}:{label}"] = sm
            wall[f"{task}:{label}"] = round(time.perf_counter() - t0, 3)
    manifest = {
        "config_hash": config_hash(cfg),
        "name": cfg.get("name", ""),
        "seed": cfg["solver"]["seed"],
        "versions": _versions(),
        "files": sorted(str(p.name) for p in files),
        "wall_times": wall,
    }
    _write_json(outdir / "manifest.json", manifest)
    return summary


# ---------------------------------------------------------------------------
# the claims table: every float-half claim of `reproduce` and the acceptance
# tests, each with its scan, reading, threshold and expected failure


def _once(method):
    """Make a `Scans` measurement once per (method, panel label, extra args)."""

    @functools.wraps(method)
    def measured(self, label, model, geometry, *args):
        key = (method.__name__, label, *args)
        if key not in self._done:
            self._done[key] = method(self, label, model, geometry, *args)
        return self._done[key]

    return measured


class Scans:
    """The measurements that claims read, each made once per solver and sizes.

    Each is keyed by its run panel label (``ham1-g0.5-slab-yz30``), so a
    `run_config` handed this object shares its band and gap scans with the
    claims.  With ``outdir`` set, the hinge-flow, cube and corner scans
    write their artifacts there, and ``warnings`` collects the warnings of
    their reports.
    """

    def __init__(self, solver, sizes=DEFAULT_SIZES, outdir=None):
        self.solver, self.sizes, self.outdir = solver, sizes, outdir
        self.warnings = []
        self._done = {}

    def read(self, scan: Scan):
        (mlabel, model), = _model_instances({"name": scan.model, "gamma": [scan.gamma]})
        label, model, geometry = _panel(mlabel, model, _geometry_spec(scan.geometry, self.sizes))
        if scan.kind == "bands":
            nk, window = scan.nk or self.solver["k_grid"], scan.window or self.solver["window"]
            return self.bands(label, model, geometry, nk, window)
        return getattr(self, scan.kind)(label, model, geometry)

    @_once
    def gap(self, label, model, geometry) -> float:
        """min |E| of the bulk on the bulk grid, or of a slab on its k-grid."""
        if not geometry.open_dirs:
            return minimum_bulk_gap(model, resolution=self.solver["bulk_grid"])
        direction = geometry.open_dirs[0]
        depth = int(geometry.extents[direction])
        return slab_gap_scan(model, direction, depth, self.solver["k_grid"])

    @_once
    def bands(self, label, model, geometry, nk, window) -> BandData:
        """The ``window`` states nearest zero on linspace(-pi, pi, nk), with
        hinge-region weights when two directions are open."""
        part = wire_regions(geometry, model.norb) if len(geometry.open_dirs) >= 2 else None
        return band_structure(
            model, geometry, _momentum_path(nk)[:, None], partition=part, window=window,
            seed=self.solver["seed"],
        )

    @_once
    def flow(self, label, model, geometry) -> HingeReport:
        rep = hinge_spectral_flow(
            model, side=int(geometry.extents[geometry.open_dirs[0]]), nk=self.solver["k_grid"],
            window=self.solver["window"], seed=self.solver["seed"],
        )
        self._record(f"hinge-flow-{model.name}.json", rep)
        return rep

    @_once
    def corner(self, label, model, geometry) -> CornerReport:
        rep = corner_index(
            model, side=int(geometry.extents[0]), nev=self.solver["nev"], seed=self.solver["seed"]
        )
        self._record("corner-report.json", rep)
        return rep

    @_once
    def layer(self, label, model, geometry) -> int:
        """Boundary-layer index of the face generator on a quarter this size."""
        return face_layer_index(int(geometry.extents[0]))

    @_once
    def cube(self, label, model, geometry):
        """Near-zero cube modes: mean weight per vertical hinge column, and
        mean weight within two sites of a cube edge."""
        side = int(geometry.extents[0])
        vals, vecs, weights = _near_zero_modes(model, geometry, self.solver)
        sites = geometry.site_array()
        edge_mask = (np.minimum(sites, side - 1 - sites) <= 2).sum(axis=1) >= 2
        dens = (np.abs(vecs) ** 2).reshape(len(sites), model.norb, -1).sum(axis=1)
        edge_fraction = dens[edge_mask].sum(axis=0)
        if self.outdir is not None:
            _write_modes_csv(
                self.outdir / f"hinge-modes-{model.name}.csv", "mode", vals,
                {"edge": edge_fraction, **weights},
            )
        hinge = {n: float(np.mean(weights[n])) for n in ("hinge1", "hinge2", "hinge3", "hinge4")}
        return hinge, float(np.mean(edge_fraction))

    def _record(self, name, rep):
        self.warnings += rep.warnings
        if self.outdir is not None:
            _write_json(self.outdir / name, rep.to_dict())


@dataclass(frozen=True)
class Scan:
    """A `Scans` measurement (``kind`` names the method) of a built-in model
    on a geometry of the run's sizes; ``nk``/``window`` replace the solver's."""

    kind: str
    model: str
    gamma: float = 0.5
    geometry: str = "wire"
    nk: int | None = None
    window: int | None = None


@dataclass(frozen=True)
class Claim:
    """One row: the claim holds when ``holds(value(scan result))``.

    ``reproduce`` is the id that prints it (None: tier-1 only); ``xfail``
    is the reason a row is expected to fail, for levels the models provably
    cannot reach."""

    id: str
    text: str
    scan: Scan
    holds: Callable
    value: Callable = lambda x: x
    reproduce: str | None = None
    xfail: str | None = None


def evaluate(claim: Claim, scans: Scans) -> dict:
    """Read a row's scan; status PASS/FAIL, or XFAIL/XPASS for an xfail row."""
    value = claim.value(scans.read(claim.scan))
    ok = bool(claim.holds(value))
    row = {"claim": claim.text, "ok": ok, "value": value}
    if claim.xfail is None:
        return {**row, "status": "PASS" if ok else "FAIL"}
    return {**row, "status": "XPASS" if ok else "XFAIL", "reason": claim.xfail}


NEAR_ZERO = 0.2  # |E| below which a wire state counts as in-gap


def _hinge_weight(data: BandData, cut: float) -> float:
    """Largest hinge weight of a state with |E| < cut, or 0 if none is."""
    rows = [i for i, n in enumerate(data.region_names) if n.startswith("hinge")]
    near = np.abs(data.energies) < cut
    return float(np.max(data.weights[..., rows].sum(axis=-1)[near])) if np.any(near) else 0.0


def _flows(rep: HingeReport) -> list:
    return [rep.flows[f"hinge{i}"] for i in (1, 2, 3, 4)]


def _hinge_rows(name, parity_text, rid):
    """The class relation, parity 1 and Kirchhoff rows of a model's flows."""
    klass, scan = MODEL_CLASS[name], Scan("flow", name)
    return (
        Claim(f"{name}-flow-relation", f"{name} hinge flows satisfy the {klass} relation", scan,
              lambda f: bulk_corner_parity(f, klass).constraint_ok, _flows, rid),
        Claim(f"{name}-flow-parity", f"{name} {parity_text}", scan, lambda p: p == 1,
              lambda r: bulk_corner_parity(_flows(r), klass).parity, rid),
        Claim(f"{name}-flow-kirchhoff", f"{name} hinge flows obey the Kirchhoff sum rule", scan,
              lambda s: s == 0, lambda r: r.kirchhoff_sum, rid),
    )


def _column_pairs(cube) -> list:
    """Weights of the two antipodal vertical hinge pairs, larger first."""
    h = cube[0]
    return sorted((h["hinge1"] + h["hinge3"], h["hinge2"] + h["hinge4"]), reverse=True)


def _kernel_mode(rep: CornerReport):
    """Smallest |E| of a mode with > 0.9 corner-box weight (None if none)."""
    kept = [abs(e) for e, bw in zip(rep.zero_energies, rep.box_weights) if bw > 0.9]
    return min(kept) if kept else None


CLAIMS = (
    # model1: the inversion-symmetric model, its time-reversal point and wire
    Claim("ham1-bulk-gap", "bulk spectrum gapped (gap > 0.3) at gamma=0.5",
          Scan("gap", "ham1", geometry="bulk"), lambda g: g > 0.3, reproduce="model1",
          xfail="the symmetry-breaking term has spectral radius sqrt(3), so the "
          "zone-corner gap is |1 - sqrt(3)*gamma| ~ 0.134 at gamma=0.5; the 0.3 "
          "level is not reachable for this coupling"),
    Claim("ham1-yz-gapped", "slab-yz slab gapped (min|E| > 0.1) at gamma=0.5",
          Scan("gap", "ham1", geometry="slab-yz"), lambda g: g > 0.1, reproduce="model1"),
    Claim("ham1-yz-gapless", "slab-yz slab gapless (min|E| < 0.05) at gamma=0",
          Scan("gap", "ham1", 0.0, "slab-yz"), lambda g: g < 0.05, reproduce="model1"),
    Claim("ham1-xy-gapped", "slab-xy slab gapped (min|E| > 0.1) at gamma=0.5",
          Scan("gap", "ham1", geometry="slab-xy"), lambda g: g > 0.1, reproduce="model1"),
    Claim("ham1-xy-gapless", "slab-xy slab gapless (min|E| < 0.05) at gamma=0",
          Scan("gap", "ham1", 0.0, "slab-xy"), lambda g: g < 0.05, reproduce="model1"),
    Claim("ham1-wire-in-gap", "wire carries in-gap bands reaching zero energy",
          Scan("bands", "ham1"), lambda e: e < 0.05,
          lambda d: float(np.min(np.abs(d.energies))), reproduce="model1"),
    *_hinge_rows("ham1", "adjacent-hinge parity equals 1", None),
    # model2: twofold rotation; its top/bottom faces keep protected cones
    Claim("ham2-yz-gapped", "slab-yz face gapped (min|E| > 0.1)",
          Scan("gap", "ham2", geometry="slab-yz"), lambda g: g > 0.1, reproduce="model2"),
    Claim("ham2-xz-gapped", "slab-xz face gapped (min|E| > 0.1)",
          Scan("gap", "ham2", geometry="slab-xz"), lambda g: g > 0.1, reproduce="model2"),
    Claim("ham2-xy-gapless", "slab-xy face gapless (min|E| < 0.05)",
          Scan("gap", "ham2", geometry="slab-xy"), lambda g: g < 0.05, reproduce="model2"),
    Claim("ham2-hinge-weight", "in-gap states localized on hinges (weight > 0.5)",
          Scan("bands", "ham2"), lambda w: w > 0.5,
          lambda d: _hinge_weight(d, NEAR_ZERO), reproduce="model2"),
    Claim("ham2-hinge-weight-21k",
          "in-gap states localized on hinges (weight > 0.5) on 21 momenta, window 8, |E| < 0.08",
          Scan("bands", "ham2", nk=21, window=8), lambda w: w > 0.5,
          lambda d: _hinge_weight(d, 0.08)),
    *_hinge_rows("ham2", "adjacent-hinge parity equals 1", "model2"),
    # model3: fourfold rotation
    *_hinge_rows("ham3", "single-hinge parity equals 1", "model3"),
    Claim("ham3-flow-units", "four hinge channels with alternating unit flows",
          Scan("flow", "ham3"),
          lambda f: all(abs(c) == 1 for c in f) and bulk_corner_parity(f, "C4T").constraint_ok,
          _flows, "model3"),
    # hinge-modes: near-zero modes of finite cubes
    Claim("ham1-cube-columns", "ham1 near-zero modes concentrate on two opposite hinges (> 0.6)",
          Scan("cube", "ham1", geometry="cube"), lambda p: p > 0.6,
          lambda c: _column_pairs(c)[0], "hinge-modes",
          xfail="on a finite cube the chiral channel closes into a six-edge loop "
          "(two vertical hinges plus four horizontal edges with equal weight per "
          "edge), capping the weight captured by two vertical corner columns near "
          "0.4; the 0.6 level holds only for straight-wire geometries"),
    Claim("ham1-cube-edges", "ham1 near-zero modes live on the cube edges (weight > 0.6)",
          Scan("cube", "ham1", geometry="cube"), lambda e: e > 0.6,
          lambda c: c[1], "hinge-modes"),
    Claim("ham1-cube-pair", "ham1 gapless hinge pair dominates the gapped pair (> 2x)",
          Scan("cube", "ham1", geometry="cube"), lambda p: p[0] > 2 * p[1],
          _column_pairs, "hinge-modes"),
    Claim("ham3-cube-hinges", "ham3 near-zero modes concentrate on the four vertical hinges (> 0.6)",
          Scan("cube", "ham3", geometry="cube"), lambda t: t > 0.6,
          lambda c: sum(c[0].values()), "hinge-modes"),
    Claim("ham3-cube-spread", "ham3 weight appears on every vertical hinge (each > 0.05)",
          Scan("cube", "ham3", geometry="cube"), lambda m: m > 0.05,
          lambda c: min(c[0].values()), "hinge-modes"),
    # chiral-quarter: corner modes and the face-layer index
    Claim("quarter-index", "corner index is +1 or -1",
          Scan("corner", "chiral-quarter-uC", geometry="quarter"), lambda i: abs(i) == 1,
          lambda r: r.index, "chiral-quarter"),
    Claim("quarter-kernel-mode",
          "a kernel mode (|E| < 1e-8) carries > 0.9 weight in the 4x4 corner box",
          Scan("corner", "chiral-quarter-uC", geometry="quarter"),
          lambda e: e is not None and e < 1e-8, _kernel_mode, "chiral-quarter"),
    Claim("quarter-face-layer", "face-generator boundary layer has total index -2",
          Scan("layer", "chiral-quarter-uC", geometry="quarter"), lambda i: i == -2,
          reproduce="chiral-quarter"),
)


# ---------------------------------------------------------------------------
# canned reproduction data sets

# the `bands` panels (CSVs and manifest.json) an id writes beside its claims
REPRODUCE_BANDS = {
    "model1": ({"name": "ham1", "gamma": [0.5, 0.0]}, ("slab-yz", "slab-xy", "wire")),
    "model2": ({"name": "ham2", "gamma": 0.5}, ("wire",)),
    "model3": ({"name": "ham3", "gamma": 0.5}, ("wire",)),
}


def reproduce(rid: str, out_dir, solver=None, sizes=None) -> dict:
    """Run a canned desk-scale data set: its `bands` panels, then every
    claims-table row of ``rid``.  The summary gives each claim's status
    and the warnings of any hinge-flow or corner report it made; it passes
    when no claim is an unexpected FAIL or XPASS."""
    if rid not in REPRODUCE_IDS:
        _fail("reproduce", f"unknown id {rid!r}; have {', '.join(REPRODUCE_IDS)}")
    outdir = Path(out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    solver = {**DEFAULT_SOLVER, **(solver or {})}
    sizes = {**DEFAULT_SIZES, **(sizes or {})}
    t0 = time.perf_counter()
    scans = Scans(solver, sizes, outdir)
    if rid in REPRODUCE_BANDS:
        model, kinds = REPRODUCE_BANDS[rid]
        cfg = {"name": rid, "model": model, "tasks": ["bands"], "solver": solver,
               "geometry": [_geometry_spec(kind, sizes) for kind in kinds]}
        run_config(validate_config(cfg), outdir, scans)
    claims = [evaluate(c, scans) for c in CLAIMS if c.reproduce == rid]
    summary = {
        "id": rid,
        "claims": claims,
        "warnings": scans.warnings,
        "passed": all(c["status"] in ("PASS", "XFAIL") for c in claims),
        "wall_time": round(time.perf_counter() - t0, 3),
        "seed": solver["seed"],
        "versions": _versions(),
    }
    _write_json(outdir / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# entry point


def _add_solver_flags(p):
    p.add_argument("--seed", type=int, default=None, help="solver seed override")
    p.add_argument("--grid", type=int, default=None, help="momentum grid override")
    p.add_argument("--size", type=int, default=None, help="geometry size override")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hoti-lab",
        description="spectra, boundary invariants, and exact-couple reports "
        "for finite-range lattice models",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="execute a JSON experiment config")
    p.add_argument("config", help="path to the config document")
    _add_solver_flags(p)
    p = sub.add_parser("reproduce", help="canned data set with PASS/FAIL summary")
    p.add_argument("id", choices=REPRODUCE_IDS)
    _add_solver_flags(p)
    p = sub.add_parser("kss", help="exact-couple report for a preset or JSON file")
    p.add_argument("which", help=f"one of {', '.join(PRESET_NAMES)} or a JSON path")
    p = sub.add_parser("transversal", help="pattern classes and filtration sizes")
    p.add_argument("which", help=f"{'|'.join(BUILTIN_SEEDS)} or a JSON path")
    p = sub.add_parser("check-symmetry", help="covariance/relations verdict")
    p.add_argument("model", help=f"one of {', '.join(BUILTIN_MODELS)} or a model JSON path")
    p.add_argument("action", help=f"one of {', '.join(BUILTIN_ACTIONS)}")
    p.add_argument("--gamma", type=float, default=None, help="gamma of a built-in model (0.5)")
    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output directory")
    return ap


def _apply_overrides(solver: dict, args) -> int | None:
    """Apply ``--seed`` and ``--grid`` to ``solver`` in place; return the
    checked ``--size`` (None when absent).  ``--grid`` sets ``k_grid`` and
    may lower ``bulk_grid``, never raise it: the bulk gap scan makes
    grid^3 dense solves."""
    if args.seed is not None:
        solver["seed"] = _check_int(args.seed, "--seed", minimum=0)
    if args.grid is not None:
        solver["k_grid"] = _check_int(args.grid, "--grid")
        solver["bulk_grid"] = min(solver["k_grid"], solver["bulk_grid"])
    return None if args.size is None else _check_int(args.size, "--size")


def _fail_payload(task: str, exc: BaseException) -> dict:
    tb = traceback.extract_tb(exc.__traceback__)
    module = tb[-1].filename.rsplit("/", 1)[-1] if tb else "unknown"
    return {"task": task, "module": module, "error_type": type(exc).__name__, "message": str(exc)}


def _load_json(path, field):
    """A JSON document from a file; an unreadable or malformed one is a config error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or not JSON
        _fail(field, f"cannot read JSON from {path} ({e})")


def _named_or_file(arg: str, field: str, names: tuple, nouns: tuple, build, parse):
    """``build(arg)`` when ``arg`` is one of the built-in ``names``, else
    ``parse`` of the JSON document in the file ``arg``.  An unknown name
    that is no file, or a file that cannot be read or parsed, fails at
    ``field``; ``nouns`` name a built-in and a file's content."""
    if arg in names:
        return build(arg)
    if not Path(arg).is_file():
        _fail(field, f"unknown {nouns[0]} {arg!r} and no such file; have {', '.join(names)}")
    doc = _load_json(arg, field)
    try:
        return parse(doc)
    except ConfigError:
        raise
    except Exception as e:
        _fail(field, f"not a valid {nouns[1]} in {arg} ({e})")


def _report(out, name: str, rep: dict, printed: dict | None = None) -> int:
    """Print ``printed`` (the report itself by default) as sorted JSON, and
    write the report to ``out/name`` when ``--out`` is given."""
    print(json.dumps(rep if printed is None else printed, indent=2, sort_keys=True))
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        _write_json(Path(out) / name, rep)
    return 0


def _cmd_run(args) -> int:
    cfg = validate_config(_load_json(args.config, "config"))
    size = _apply_overrides(cfg["solver"], args)
    if size is not None:
        for g in cfg["geometry"]:
            if field := GEOMETRY_KINDS[g["kind"]][0]:
                g[field] = size
        _reject_repeat("geometry", [_geometry_label(g) for g in cfg["geometry"]], "--size")
    out = args.out or cfg.get("out") or f"out/{cfg.get('name') or 'run'}"
    summary = run_config(cfg, out)
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_reproduce(args) -> int:
    out = args.out or f"out/{args.id}"
    solver = dict(DEFAULT_SOLVER)
    size = _apply_overrides(solver, args)
    sizes = {} if size is None else dict.fromkeys(DEFAULT_SIZES, size)
    summary = reproduce(args.id, out, solver=solver, sizes=sizes)
    for c in summary["claims"]:
        print(f"{c['status']}: {c['claim']} (value: {c['value']})")
    for w in summary["warnings"]:
        print(f"WARN: {w}")
    print(f"summary written to {out}/summary.json")
    return 0 if summary["passed"] else 1


def _cmd_kss(args) -> int:
    cd = _named_or_file(args.which, "kss", PRESET_NAMES, ("preset", "cofiltration"),
                        preset_cofiltration, cofiltration_from_dict)
    return _report(args.out, f"kss-{cd.name or 'custom'}.json", couple_report(cd))


def _cmd_transversal(args) -> int:
    name, seeds = _named_or_file(args.which, "transversal", BUILTIN_SEEDS, ("seed set", "seed file"),
                                 lambda n: (n, builtin_seeds(n)), _transversal_seeds)
    rep = _transversal_report(name, seeds)
    brief = {k: rep[k] for k in ("seeds", "classes", "by_codimension", "filtration_sizes")}
    return _report(args.out, f"transversal-{name}.json", rep, brief)


def _cmd_check_symmetry(args) -> int:
    if args.gamma is not None and not math.isfinite(args.gamma):
        _fail("--gamma", f"expected a finite number, got {args.gamma!r}")

    def from_file(doc) -> HoppingModel:
        if args.gamma is not None:
            _fail("--gamma", "applies to a built-in model name; a model file sets its own")
        return model_from_dict(doc)

    model = _named_or_file(args.model, "model", BUILTIN_MODELS, ("model", "model description"),
                           lambda n: builtin_model(n, 0.5 if args.gamma is None else args.gamma),
                           from_file)
    if args.action not in BUILTIN_ACTIONS:
        _fail("action", f"unknown action {args.action!r}; have {', '.join(BUILTIN_ACTIONS)}")
    action = builtin_action(args.action)
    if (model.dimension, model.norb) != (action.dimension, action.norb):
        _fail("action", f"{args.action} acts on {action.dimension}D models with {action.norb} "
              f"orbitals; {model.name or 'the model'} is {model.dimension}D with {model.norb}")
    rep = _symmetry_report(model, action)
    return _report(args.out, f"symmetry-{model.name or 'custom'}-{args.action}.json", rep)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "reproduce": _cmd_reproduce, "kss": _cmd_kss,
                "transversal": _cmd_transversal, "check-symmetry": _cmd_check_symmetry}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        for path, msg in e.errors:
            sys.stderr.write(f"config error at {path}: {msg}\n")
        return 2
    except Exception as e:  # solver / task failure
        task = f"reproduce:{args.id}" if args.command == "reproduce" else args.command
        json.dump(_fail_payload(task, e), sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
