"""The four benchmark workloads: inputs, one round of operations, checks.

Each workload builds its inputs from the seed in ``setup`` (timed as set-up),
lists the operations of one round in ``operations`` (timed as the run), and
checks the outputs of a round in ``check`` against computations made apart
from the program or against properties the physics must have.  hotilab
functions are always reached through their module attribute, so that the
tracer's wrappers see the calls made from here.
"""

from __future__ import annotations

import json
from math import ceil

import numpy as np
import scipy.sparse.linalg as spla

from hotilab import cli, invariants, ktheory, models, spectral

import reference

RESIDUAL_FACTOR = 1e-8   # tolerance relative to the row-sum norm bound


def _robust_match(got, ref, tol) -> bool:
    """``got`` are the len(got) eigenvalues of ``ref`` nearest zero.

    Compares sorted magnitudes (so a +E/-E tie at the window edge may fall
    either way) and requires each value to sit within ``tol`` of a
    reference eigenvalue (so signs are checked too).
    """
    got = np.sort(np.asarray(got))
    ref = np.asarray(ref)
    near = np.sort(np.abs(ref))[: len(got)]
    if not np.allclose(np.sort(np.abs(got)), near, rtol=0, atol=tol):
        return False
    return bool(np.all(np.min(np.abs(got[:, None] - ref[None, :]), axis=1) <= tol))


# ---------------------------------------------------------------------------
# wire-hinge-flow


class WireHingeFlow:
    name = "wire-hinge-flow"
    side, nk, window, gamma = 23, 15, 16, 0.5
    classes = {"ham1": "inversion", "ham2": "C2T", "ham3": "C4T"}

    def setup(self, seed):
        self.seed = seed
        self.models = {m: models.builtin_model(m, self.gamma) for m in self.classes}
        self.geometry = models.wire_geometry(3, self.side)
        warm = models.instantiate(self.models["ham1"], models.wire_geometry(3, 4), (0.3,))
        spectral.near_zero_states(warm.matrix, 4, seed=seed)

    def operations(self):
        def flow(model):
            return invariants.hinge_spectral_flow(
                model, side=self.side, nk=self.nk, window=self.window, seed=self.seed
            )

        return [(m, lambda model=model: flow(model)) for m, model in self.models.items()]

    def check(self, outputs):
        bad = []
        rng = np.random.default_rng(self.seed)
        # a dense solve of one wire takes about 5 s, so the seed picks the
        # one model whose energies are compared, and ten seeds cover all three
        dense = list(self.classes)[int(rng.integers(len(self.classes)))]
        for name, rep in outputs.items():
            c = tuple(rep.flows[f"hinge{i}"] for i in (1, 2, 3, 4))
            if self.classes[name] == "C4T":
                ok = all(c[(i + 1) % 4] == -c[i] for i in range(4)) and all(abs(x) == 1 for x in c)
            else:
                ok = c[2] == -c[0] and c[3] == -c[1] and (c[0] + c[1]) % 2 == 1
            if not ok:
                bad.append(f"{name}: flows {c} break the {self.classes[name]} relation")
            if sum(c) != 0 or rep.kirchhoff_sum != 0:
                bad.append(f"{name}: Kirchhoff sum {rep.kirchhoff_sum}")
            i = int(rng.integers(self.nk))
            k = float(rep.momenta[i])
            href = reference.assemble(self.models[name], self.geometry, (k,))
            if not reference.same_matrix(href, models.instantiate(self.models[name], self.geometry, (k,)).matrix):
                bad.append(f"{name}: reference assembly differs from instantiate at k={k}")
            tol = RESIDUAL_FACTOR * reference.norm_bound(href)
            if name == dense and not _robust_match(rep.energies[i], np.linalg.eigvalsh(href.toarray()), tol):
                bad.append(f"{name}: energies at k={k} differ from dense eigvalsh")
        return bad


# ---------------------------------------------------------------------------
# cube-hinge-modes


class CubeHingeModes:
    name = "cube-hinge-modes"
    side, nev, gamma = 11, 8, 0.5
    model_names = ("ham1", "ham3")

    def setup(self, seed):
        self.seed = seed
        self.models = {m: models.builtin_model(m, self.gamma) for m in self.model_names}
        self.geometry = models.cube_geometry(self.side)
        warm = models.instantiate(self.models["ham1"], models.cube_geometry(3))
        spectral.near_zero_states(warm.matrix, 4, seed=seed)

    def operations(self):
        def modes(model):
            ham = models.instantiate(model, self.geometry)
            vals, vecs = spectral.near_zero_states(ham.matrix, self.nev, seed=self.seed)
            part = spectral.wire_regions(self.geometry, model.norb)
            return ham.matrix, vals, vecs, part.names, part.weights(vecs)

        return [(m, lambda model=model: modes(model)) for m, model in self.models.items()]

    def _hinge_and_edge(self, vecs, norb):
        """Per-state weight on the four vertical hinge columns and near edges."""
        sites = reference.box_sites(self.geometry)
        x, y = sites[:, 0], sites[:, 1]
        c, L = ceil(self.side / 4), self.side
        lo_x, hi_x, lo_y, hi_y = x < c, x >= L - c, y < c, y >= L - c
        masks = [lo_x & lo_y, hi_x & lo_y, hi_x & hi_y, lo_x & hi_y]
        dens = (np.abs(vecs) ** 2).reshape(len(sites), norb, -1).sum(axis=1)
        hinge = np.array([dens[m].sum(axis=0) for m in masks])
        near = np.minimum(sites, L - 1 - sites) <= 2
        edge = dens[near.sum(axis=1) >= 2].sum(axis=0)
        return hinge, edge

    def check(self, outputs):
        bad = []
        hinge_means = {}
        for name, (matrix, vals, vecs, names, weights) in outputs.items():
            model = self.models[name]
            href = reference.assemble(model, self.geometry)
            if not reference.same_matrix(href, matrix):
                bad.append(f"{name}: reference assembly differs from instantiate")
            bound = reference.norm_bound(href)
            tol = RESIDUAL_FACTOR * bound
            resid = np.linalg.norm(href @ vecs - vecs * vals[None, :], axis=0)
            if np.max(resid) > tol:
                bad.append(f"{name}: residual {np.max(resid):.3e} above {tol:.3e}")
            if np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(vals)))) > 1e-8:
                bad.append(f"{name}: returned states are not orthonormal")
            ref_vals = spla.eigsh(href, k=self.nev, sigma=0, which="LM", return_eigenvectors=False)
            if not _robust_match(vals, ref_vals, tol):
                bad.append(f"{name}: energies {vals} differ from eigsh(sigma=0) {np.sort(ref_vals)}")
            hinge, edge = self._hinge_and_edge(vecs, model.norb)
            rows = [names.index(f"hinge{i}") for i in (1, 2, 3, 4)]
            if np.max(np.abs(weights[rows] - hinge)) > 1e-10:
                bad.append(f"{name}: region weights differ from the direct sum")
            hinge_means[name] = (hinge.mean(axis=1), float(edge.mean()))
        if "ham1" in hinge_means:
            h, edge = hinge_means["ham1"]
            pair, other = max(h[0] + h[2], h[1] + h[3]), min(h[0] + h[2], h[1] + h[3])
            if not edge > 0.6:
                bad.append(f"ham1: edge weight {edge:.3f} not above 0.6")
            if not pair > 2 * other:
                bad.append(f"ham1: gapless pair {pair:.3f} not above twice {other:.3f}")
        if "ham3" in hinge_means:
            h, _ = hinge_means["ham3"]
            if not h.sum() > 0.6:
                bad.append(f"ham3: vertical-hinge weight {h.sum():.3f} not above 0.6")
            if not h.min() > 0.05:
                bad.append(f"ham3: smallest hinge weight {h.min():.3f} not above 0.05")
        return bad


# ---------------------------------------------------------------------------
# slab-gap-scan


class SlabGapScan:
    name = "slab-gap-scan"
    depth, nk = 20, 12
    # (model, gamma, face, slab direction, the paper's claim)
    cases = (
        ("ham2", 0.5, "yz", 0, "gapped"),
        ("ham2", 0.5, "xz", 1, "gapped"),
        ("ham2", 0.5, "xy", 2, "gapless"),
        ("ham1", 0.5, "yz", 0, "gapped"),
        ("ham1", 0.5, "xy", 2, "gapped"),
        ("ham1", 0.0, "yz", 0, "gapless"),
        ("ham1", 0.0, "xy", 2, "gapless"),
    )

    def setup(self, seed):
        self.seed = seed
        self.models = {(m, g): models.builtin_model(m, g) for m, g, *_ in self.cases}
        cli.slab_gap_scan(self.models[("ham2", 0.5)], 0, 3, 2)

    def operations(self):
        return [
            (f"{m}-g{g}-{face}", lambda model=self.models[(m, g)], d=d: cli.slab_gap_scan(model, d, self.depth, self.nk))
            for m, g, face, d, _ in self.cases
        ]

    def check(self, outputs):
        bad = []
        rng = np.random.default_rng(self.seed)
        ks = np.linspace(-np.pi, np.pi, self.nk, endpoint=False)
        for (m, g, face, d, claim) in self.cases:
            key = f"{m}-g{g}-{face}"
            if key not in outputs:
                continue
            gap = outputs[key]
            if claim == "gapped" and not gap > 0.1:
                bad.append(f"{key}: gap {gap:.4f} not above 0.1")
            if claim == "gapless" and not gap < 0.05:
                bad.append(f"{key}: gap {gap:.4f} not below 0.05")
            model = self.models[(m, g)]
            geo = models.slab_geometry(3, d, self.depth)
            i, j = rng.integers(self.nk, size=2)
            k = (float(ks[i]), float(ks[j]))
            if not reference.same_matrix(reference.assemble(model, geo, k), models.instantiate(model, geo, k).matrix):
                bad.append(f"{key}: reference assembly differs from instantiate at k={k}")
            # the whole grid again, from the reference assembly
            mats = [reference.assemble(model, geo, (k1, k2)) for k1 in ks for k2 in ks]
            low = min(float(np.min(np.abs(np.linalg.eigvalsh(h.toarray())))) for h in mats)
            tol = 1e-12 * max(reference.norm_bound(h) for h in mats)
            if abs(low - gap) > tol:
                bad.append(f"{key}: reported minimum {gap:.9g}, reference grid minimum {low:.9g}")
        return bad


# ---------------------------------------------------------------------------
# kss-pages


class KssPages:
    name = "kss-pages"
    per_length, max_rank = 8, 2
    # (preset, parity q) of the delta^2 maps recomputed with random lifts
    lift_cases = (
        ("square-inversion", 0),
        ("square-C2T", 0),
        ("square-C4T", 0),
        ("quarter-mirror-chiral", 1),
        ("square-plain-2", 0),
        ("square-plain-2", 1),
        ("square-plain-3", 0),
        ("square-plain-3", 1),
    )

    def setup(self, seed):
        self.seed = seed
        self.presets = {n: ktheory.preset_cofiltration(n) for n in ktheory.PRESET_NAMES}
        # a fixed count of random cofiltrations per filtration length, so
        # that the size of the batch does not swing with the seed
        rng = np.random.default_rng(seed)
        count = {1: 0, 2: 0, 3: 0}
        self.documents = []
        while len(self.documents) < 3 * self.per_length:
            cd = ktheory.random_cofiltration(rng, max_rank=self.max_rank)
            if count[cd.length] < self.per_length:
                count[cd.length] += 1
                self.documents.append(json.dumps(ktheory.cofiltration_to_dict(cd)))
        ktheory.couple_report(self.presets["square-C4T"])

    def operations(self):
        ops = [(f"report:{n}", lambda cd=cd: ktheory.couple_report(cd)) for n, cd in self.presets.items()]

        def from_json(doc):
            cd = ktheory.cofiltration_from_dict(json.loads(doc))
            return cd, ktheory.couple_report(cd)

        ops += [(f"random:{i}", lambda doc=doc: from_json(doc)) for i, doc in enumerate(self.documents)]
        for i, (n, q) in enumerate(self.lift_cases):
            def lifted(cd=self.presets[n], q=q, i=i):
                return ktheory.higher_boundary_map(cd, 2, q, rng=np.random.default_rng([self.seed, i]))

            ops.append((f"lift:{n}:{q}", lifted))
        return ops

    def _check_pages(self, label, cd, report):
        """derive_couple against page_homology, rational ranks, Euler sums."""
        bad = []
        pages = report["pages"]
        couple = ktheory.build_couple(cd)
        for r in range(2, len(pages) + 1):
            direct = {(p, t): ktheory.page_homology(couple, p, t) for p, t in couple.nodes()}
            couple = ktheory.derive_couple(couple)
            for (p, t), canon in direct.items():
                derived = couple.e_groups[(p, t)].canonical()
                stored = pages[str(r)][f"E[{p},{t}]"]["canonical"]
                if derived != canon or (stored["rank"], tuple(stored["torsion"])) != canon:
                    bad.append(f"{label}: page {r} node ({p},{t}) derived {derived}, direct {canon}")
        if "2" in pages:
            if any(g.relations.shape[1] for g in cd.strata.values()):
                bad.append(f"{label}: strata are not free; rational check does not apply")
            else:
                for p in range(cd.length + 1):
                    for t in (0, 1):
                        eps = (t + p) % 2
                        n = cd.strata[(p, eps)].ngens
                        out = _qrank(cd.boundary[(p, eps)].matrix) if p < cd.length else 0
                        inc = _qrank(cd.boundary[(p - 1, eps ^ 1)].matrix) if p > 0 else 0
                        got = pages["2"][f"E[{p},{t}]"]["canonical"]["rank"]
                        if got != n - out - inc:
                            bad.append(f"{label}: E2[{p},{t}] rank {got}, rational homology {n - out - inc}")
        sums = {r: sum(_signed_rank(key, g) for key, g in pg.items()) for r, pg in pages.items()}
        if len(set(sums.values())) > 1:
            bad.append(f"{label}: alternating rank sums differ across pages {sums}")
        return bad

    def check(self, outputs):
        bad = []
        for n, cd in self.presets.items():
            if f"report:{n}" in outputs:
                bad += self._check_pages(n, cd, outputs[f"report:{n}"])
        for i, doc in enumerate(self.documents):
            if f"random:{i}" not in outputs:
                continue
            cd, report = outputs[f"random:{i}"]
            if ktheory.cofiltration_to_dict(cd) != json.loads(doc):
                bad.append(f"random:{i}: JSON round trip changed the cofiltration")
            bad += self._check_pages(f"random:{i}", cd, report)
        for n, q in self.lift_cases:
            key = f"lift:{n}:{q}"
            if key not in outputs or f"report:{n}" not in outputs:
                continue
            lifted = outputs[key]
            plain = outputs[f"report:{n}"]["boundary_maps"][f"delta^2_q{q}"]
            canon = plain["codomain_canonical"]
            if lifted.matrix.tolist() != plain["matrix"] or lifted.codomain.canonical() != (canon["rank"], tuple(canon["torsion"])):
                bad.append(f"{key}: delta^2 changed under random lifts")
            if n in ("square-inversion", "square-C2T", "square-C4T"):
                if not (lifted.codomain.canonical() == (0, (2,)) and lifted.image_order_two(1)):
                    bad.append(f"{key}: no order-two Z/2 corner obstruction")
            if n == "quarter-mirror-chiral":
                if not (lifted.codomain.canonical() == (1, (2,)) and lifted.image_order_two(0)):
                    bad.append(f"{key}: [u_C] does not hit the order-two corner class")
            if n.startswith("square-plain") and not lifted.is_zero():
                bad.append(f"{key}: delta^2 is not zero on a plain square")
        quarter = outputs.get("report:quarter-mirror-chiral")
        if quarter is not None and quarter["differentials"]["1"]["d1[1,0]"]["matrix"] != [[-2], [0]]:
            bad.append("quarter-mirror-chiral: face-to-corner map is not -2")
        return bad


def _signed_rank(key, group) -> int:
    """(-1)^(p+t) times the free rank of the page group stored under "E[p,t]"."""
    p, t = (int(x) for x in key[2:-1].split(","))
    return (-1) ** (p + t) * group["canonical"]["rank"]


def _qrank(m) -> int:
    m = np.asarray(m, dtype=float)
    return int(np.linalg.matrix_rank(m)) if m.size else 0


WORKLOADS = {w.name: w for w in (WireHingeFlow, CubeHingeModes, SlabGapScan, KssPages)}
