"""Outside-in layer tracer for hotilab, installed only in traced runs.

``Tracer.install`` replaces the public functions of each layer with a
wrapper that records a span (name, start, end, parent) around every call.
A function is replaced wherever a hotilab module holds it, because
``from .x import f`` copies the reference into the importing module.  The
SciPy ``eigsh`` that ``spectral`` calls and the ``eigvalsh`` that ``cli``
calls are wrapped through proxies of the module objects those two modules
hold, so SciPy and numpy themselves stay untouched.  Spans stay in memory
until ``dump``; every count comes from the recorded calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


class _Proxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self._stack = []
        self._restore = []
        self.max_nnz = 0
        self.crossings = 0
        self.warnings = 0
        self.snf_io = []           # (argument, (U, D, V)) of every SNF call

    # -- recording -----------------------------------------------------
    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, modules, fn, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, new)

    # -- installation ----------------------------------------------------
    def install(self):
        from hotilab import cli, fgab, invariants, ktheory, models, spectral

        mods = (cli, fgab, invariants, ktheory, models, spectral)

        def note_nnz(args, out):
            self.max_nnz = max(self.max_nnz, int(out.matrix.nnz))

        def note_report(args, out):
            self.crossings += sum(1 for c in out.crossings if c["hinge"] is not None)
            self.warnings += len(out.warnings)

        def note_snf(args, out):
            self.snf_io.append((args[0], out))

        functions = [
            ("models.instantiate", models.instantiate, note_nnz),
            ("spectral.near_zero", spectral.near_zero_states, None),
            ("spectral.ritz", spectral.folded_near_zero, None),
            ("spectral.dense_eigh", spectral.dense_eigh, None),
            ("spectral.disentangle", spectral._disentangle_clusters, None),
            ("spectral.regions", spectral.wire_regions, None),
            ("spectral.regions", spectral.corner_regions, None),
            ("invariants.hinge_flow", invariants.hinge_spectral_flow, note_report),
            ("fgab.snf", fgab.smith_normal_form, note_snf),
            ("fgab.hnf", fgab.hermite_column_form, None),
            ("fgab.solve_integer", fgab.solve_integer, None),
            ("ktheory.build", ktheory.build_couple, None),
            ("ktheory.derive", ktheory._derive_with_data, None),
            ("ktheory.boundary_map", ktheory.higher_boundary_map, None),
        ]
        for name, fn, after in functions:
            self._patch_everywhere(mods, fn, self.wrap(name, fn, after))

        methods = [
            ("models.sites", models.Geometry, "sites"),
            ("spectral.weights", spectral.RegionPartition, "weights"),
            ("ktheory.verify", ktheory.ExactCouple, "verify"),
        ]
        for name, cls, attr in methods:
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

        # slab_bloch returns the callable h(k); wrap each one it hands out
        slab_bloch = cli.slab_bloch

        def traced_slab_bloch(*args, **kwargs):
            return self.wrap("cli.slab_h", slab_bloch(*args, **kwargs))

        self._patch_everywhere(mods, slab_bloch, traced_slab_bloch)

        self._patch(spectral, "spla", _Proxy(
            spectral.spla, eigsh=self.wrap("spectral.eigsh", spectral.spla.eigsh)))
        linalg = _Proxy(cli.np.linalg, eigvalsh=self.wrap("cli.eigvalsh", cli.np.linalg.eigvalsh))
        self._patch(cli, "np", _Proxy(cli.np, linalg=linalg))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- summaries -------------------------------------------------------
    def totals(self):
        """Per-name call count, busy time and self time.

        Busy time counts a span only when no enclosing span has the same
        name, so recursion is not counted twice.  Self time is a span's
        duration minus that of its direct children, which nest inside it.
        """
        spans = self.spans
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        child_time = [0.0] * len(spans)
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                busy[name] += end - start
        return calls, busy, self_time

    def snf_stats(self):
        """(distinct argument matrices, calls, largest entry of U, D, V in bits)."""
        keys = set()
        bits = 0
        for arg, mats in self.snf_io:
            a = np.asarray(arg, dtype=object)
            keys.add((a.shape, tuple(int(x) for x in a.flat)))
            for m in mats:
                for x in m.flat:
                    bits = max(bits, abs(int(x)).bit_length())
        return len(keys), len(self.snf_io), bits

    def dump(self, path):
        """Write the spans as JSON: a name table and [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))

