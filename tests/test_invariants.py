"""Quantized diagnostics against independent oracles and frozen values."""

import numpy as np
import pytest

import hotilab.invariants as invariants
import hotilab.spectral as spectral
from hotilab.invariants import (
    MIN_OVERLAP,
    WEIGHT_THRESHOLD,
    ZONE_EDGE_TOL,
    CornerReport,
    _round_integer,
    bulk_corner_parity,
    chern_number_2d,
    corner_index,
    face_layer_index,
    hinge_spectral_flow,
    plane_bloch,
    trim_parities,
)
from hotilab.models import Assembly, HoppingModel, builtin_model, s0, s1, s2, s3, wire_geometry
from hotilab.spectral import spectral_norm_bound
from hotilab.symmetry import CovariantElement, momentum_reversal

TOL = 1e-9


def two_band(m):
    """h = sin k1 s1 + sin k2 s2 + (m + cos k1 + cos k2) s3."""
    hop = {
        (0, 0): m * s3,
        (1, 0): s1 / 2j + s3 / 2,
        (0, 1): s2 / 2j + s3 / 2,
    }
    hop[(-1, 0)] = hop[(1, 0)].conj().T
    hop[(0, -1)] = hop[(0, 1)].conj().T
    return HoppingModel(dimension=2, norb=2, hoppings=hop)


def d_field_degree(m, n=60):
    """Degree of the unit d-vector map via summed spherical triangle areas.

    Independent of the overlap-link construction: uses only the geometry of
    d(k) = (sin k1, sin k2, m + cos k1 + cos k2), and is exactly integer for
    any nonsingular configuration.
    """
    ks = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    d = np.stack([np.sin(k1), np.sin(k2), m + np.cos(k1) + np.cos(k2)], axis=-1)
    d /= np.linalg.norm(d, axis=-1, keepdims=True)

    def solid_angle(a, b, c):
        num = np.einsum("...i,...i->...", a, np.cross(b, c))
        den = (
            1.0
            + np.einsum("...i,...i->...", a, b)
            + np.einsum("...i,...i->...", b, c)
            + np.einsum("...i,...i->...", c, a)
        )
        return 2.0 * np.arctan2(num, den)

    a = d
    b = np.roll(d, -1, axis=0)
    c = np.roll(np.roll(d, -1, axis=0), -1, axis=1)
    e = np.roll(d, -1, axis=1)
    total = np.sum(solid_angle(a, b, c)) + np.sum(solid_angle(a, c, e))
    return int(round(total / (4 * np.pi)))


def test_chern_two_band_phases():
    assert chern_number_2d(two_band(-1.0).bloch, resolution=18) == -1
    assert chern_number_2d(two_band(1.0).bloch, resolution=18) == 1
    assert chern_number_2d(two_band(-3.0).bloch, resolution=18) == 0
    assert chern_number_2d(two_band(3.0).bloch, resolution=18) == 0


def test_chern_is_minus_d_field_degree():
    # occupied band is anti-aligned with d, so the two conventions differ
    # by a sign; pin the relation rather than each value separately
    for m in (-1.0, 1.0):
        assert chern_number_2d(two_band(m).bloch, resolution=18) == -d_field_degree(m)


def test_chern_gauge_invariance():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(a)
    base = two_band(-1.0).bloch
    assert chern_number_2d(lambda k: q.conj().T @ base(k) @ q, resolution=18) == -1


def test_chern_rejects_gapless():
    # m = -2 closes the gap at k = (pi, 0)
    with pytest.raises(RuntimeError):
        chern_number_2d(two_band(-2.0).bloch, resolution=18)


def test_plane_cherns_vanish_for_inversion_model():
    m = builtin_model("ham1")
    for axis in range(3):
        for value in (0.0, np.pi):
            assert chern_number_2d(plane_bloch(m, axis, value), resolution=12) == 0


def test_chiral_block_requires_grading():
    # the corner count reads chirality eigenvalues, so a model without a
    # grading is refused before any solve
    with pytest.raises(ValueError, match="chirality grading"):
        corner_index(two_band(-1.0), side=24, nev=8)


def test_corner_index_quarter_model():
    # side 16 is solved densely; side 24 (dimension 2304) takes the sparse
    # route on the exact kernel, in the quarter's real gauge
    for side in (16, 24):
        rep = corner_index(builtin_model("chiral-quarter-uC"), side=side, nev=8)
        assert rep.index == -1
        # one exact zero per corner of the finite box; only the origin one
        # passes the quadrant filter and contributes a chirality value
        assert len(rep.zero_energies) == 4
        assert np.max(np.abs(rep.zero_energies)) < 1e-8
        assert np.max(rep.corner_weights) > 0.9
        assert np.max(rep.box_weights) > 0.9
        assert list(rep.chirality_values) == pytest.approx([-1.0], abs=1e-8)
        assert rep.edge_gap == pytest.approx(np.sqrt(2) / 2, abs=1e-6)


def test_corner_index_requires_gapped_edges():
    # the face model has a flat band of edge zeros; its corner count is
    # not defined and the precondition must say so
    with pytest.raises(RuntimeError, match="edge spectrum gap"):
        corner_index(builtin_model("chiral-quarter-uF"), side=16, nev=8)


def test_face_layer_index_is_minus_two():
    # a window of 8 states takes the shift-invert route at either size
    assert face_layer_index(side=16) == -2  # dimension 512
    assert face_layer_index(side=34) == -2  # dimension 2312


def test_hinge_flow_antipodal_model():
    rep = hinge_spectral_flow(builtin_model("ham1"), side=12, nk=41, window=12)
    assert rep.flows == {"hinge1": 1, "hinge2": 0, "hinge3": -1, "hinge4": 0}
    assert rep.kirchhoff_sum == 0
    ks = sorted(c["k"] for c in rep.crossings)
    assert len(ks) == 2 and ks[0] == pytest.approx(-ks[1], abs=0.05)
    assert all(c["hinge"] is not None for c in rep.crossings)


def test_hinge_flow_fourfold_model_alternates():
    rep = hinge_spectral_flow(builtin_model("ham3"), side=12, nk=41, window=12)
    assert rep.flows == {"hinge1": 1, "hinge2": -1, "hinge3": 1, "hinge4": -1}
    assert rep.kirchhoff_sum == 0
    # all four crossings within one grid step of the zone boundary
    assert all(abs(abs(c["k"]) - np.pi) < 2 * np.pi / 41 for c in rep.crossings)


def test_hinge_flow_twofold_model():
    rep = hinge_spectral_flow(builtin_model("ham2"), side=14, nk=41, window=12)
    assert rep.flows == {"hinge1": 0, "hinge2": -1, "hinge3": 0, "hinge4": 1}
    assert rep.kirchhoff_sum == 0


@pytest.mark.parametrize("mname, side, nk", [
    ("ham1", 12, 41), ("ham2", 14, 41), ("ham3", 12, 41), ("ham3", 12, 40),
])
def test_hinge_flow_half_scan_matches_full_scan(monkeypatch, mname, side, nk):
    model = builtin_model(mname)
    kw = dict(side=side, nk=nk, window=12)
    half = hinge_spectral_flow(model, **kw)
    monkeypatch.setattr(spectral, "momentum_reversal", lambda *args: None)
    full = hinge_spectral_flow(model, **kw)
    assert (half.solved_momenta, full.solved_momenta) == ((nk + 1) // 2, nk)
    assert half.k_reversal is not None and full.k_reversal is None
    assert half.flows == full.flows
    assert len(half.crossings) == len(full.crossings) > 0
    for a, b in zip(half.crossings, full.crossings):
        assert (a["hinge"], a["slope"]) == (b["hinge"], b["slope"])
        # k lives on the circle
        assert abs((a["k"] - b["k"] + np.pi) % (2 * np.pi) - np.pi) <= 1e-9
    # a crossing pinned at the zone edge (ham3 has one) may interpolate a few
    # ulps to either side of pi, and must still read exactly -pi
    edge = [c["k"] for c in half.crossings + full.crossings if np.pi - abs(c["k"]) <= 1e-6]
    assert all(k == -np.pi for k in edge)
    assert edge or mname != "ham3"
    bound = spectral_norm_bound(Assembly(model, wire_geometry(3, side)).matrix((0.0,)))
    assert np.max(np.abs(half.energies - full.energies)) <= 1e-12 * bound
    assert half.warnings == full.warnings


@pytest.mark.parametrize("mname, side", [("ham2", 12), ("ham3", 12)],
                         ids=["ham2-12-sparse", "ham3-12-sparse"])
def test_real_gauge_scan_matches_complex_scan(monkeypatch, mname, side):
    model = builtin_model(mname)
    kw = dict(side=side, nk=41, window=12)
    real = hinge_spectral_flow(model, **kw)
    monkeypatch.setattr(spectral, "real_gauge", lambda *args: None)
    full = hinge_spectral_flow(model, **kw)
    assert real.real_gauge == "S=(x,y,-z),anti=1,chiral=0" and full.real_gauge is None
    assert real.k_reversal == full.k_reversal is not None
    assert real.flows == full.flows
    assert len(real.crossings) == len(full.crossings) > 0
    for a, b in zip(real.crossings, full.crossings):
        assert (a["hinge"], a["slope"]) == (b["hinge"], b["slope"])
        assert abs((a["k"] - b["k"] + np.pi) % (2 * np.pi) - np.pi) <= 1e-9
    bound = spectral_norm_bound(Assembly(model, wire_geometry(3, side)).matrix((0.0,)))
    assert np.max(np.abs(real.energies - full.energies)) <= 1e-12 * bound
    assert real.warnings == full.warnings


@pytest.mark.parametrize("mname", ["ham2", "ham3"])
def test_real_gauge_whole_spectrum_matches_complex_scan(monkeypatch, mname):
    # a scan with no window asks for the whole spectrum: the dense route
    model, geo = builtin_model(mname), wire_geometry(3, 4)
    ks = np.linspace(-np.pi, np.pi, 9)[:, None]
    monkeypatch.setattr(spectral, "folded_near_zero", None)  # any window solve fails
    real = spectral.band_structure(model, geo, ks)
    monkeypatch.setattr(spectral, "real_gauge", lambda *args: None)
    full = spectral.band_structure(model, geo, ks)
    assert real.real_gauge == "S=(x,y,-z),anti=1,chiral=0" and full.real_gauge is None
    assert real.energies.shape == full.energies.shape == (9, 4 * 4 * 4)
    bound = spectral_norm_bound(Assembly(model, geo).matrix((0.0,)))
    assert np.max(np.abs(real.energies - full.energies)) <= 1e-12 * bound


@pytest.mark.parametrize("scale, match", [(None, "complex"), (2.0, "residual")],
                         ids=["not-real", "not-unitary"])
def test_hinge_flow_rejects_a_wrong_real_gauge(monkeypatch, scale, match):
    # the identity leaves ham2's H(k) complex; twice the true V makes it real
    # but carries the vectors back with norm 2
    model, geo = builtin_model("ham2"), wire_geometry(3, 6)
    label, v = spectral.real_gauge(model, geo)
    wrong = np.eye(4, dtype=complex) if scale is None else scale * v
    monkeypatch.setattr(spectral, "real_gauge", lambda *args: ("wrong", wrong))
    with pytest.raises(RuntimeError, match=match):
        hinge_spectral_flow(model, side=6, nk=9, window=8)


def test_hinge_flow_falls_back_to_full_scan(monkeypatch):
    base = builtin_model("ham1")
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    hops = dict(base.hoppings)
    hops[(0, 0, 0)] = hops[(0, 0, 0)] + 0.05 * (a + a.conj().T)
    broken = HoppingModel(3, 4, hops)
    assert momentum_reversal(broken, wire_geometry(3, 6)) is None
    calls = []
    solve = spectral.near_zero_states

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "near_zero_states", counted)
    rep = hinge_spectral_flow(broken, side=6, nk=9, window=8)
    assert len(calls) == 9
    assert rep.k_reversal is None and rep.solved_momenta == 9


def test_hinge_flow_rejects_a_wrong_map(monkeypatch):
    # a map missing the orbital unitary does not carry H(k) onto H(-k)
    model = builtin_model("ham1")
    rev = momentum_reversal(model, wire_geometry(3, 6))
    wrong = CovariantElement("wrong", rev.site_perm, np.eye(4, dtype=complex), False)
    monkeypatch.setattr(spectral, "momentum_reversal", lambda *args: wrong)
    with pytest.raises(RuntimeError, match="residual"):
        hinge_spectral_flow(model, side=6, nk=9, window=8)


def test_hinge_flow_warns_when_no_band_crosses_zero():
    rep = hinge_spectral_flow(builtin_model("ham2"), side=12, nk=9, window=16)
    assert rep.flows == {"hinge1": 0, "hinge2": 0, "hinge3": 0, "hinge4": 0}
    assert rep.crossings == []
    assert any("every hinge flow is 0" in w for w in rep.warnings)


def hand_built_flow(monkeypatch, energies, overlap=1.0, hinge_weight=1.0, second=0.9):
    """Hinge flow of a side-4 ham1 wire whose scan is replaced by hand-built
    windows, so no solve runs.  One band takes ``energies`` on the nk-point
    midpoint grid; a second takes ``second`` (by default 0.9, outside
    ENERGY_WINDOW, so no window saturates).  At the second momentum both
    vectors are turned in the plane of the two bands, so that the first
    band's overlap with the first band at the other momenta is ``overlap``
    and the second band's is sqrt(1 - overlap^2).  Both bands put
    ``hinge_weight`` on hinge1 and the rest on the interior.  Like the scan,
    the stub keeps only the vectors of states inside ENERGY_WINDOW."""
    model = builtin_model("ham1")
    part = spectral.wire_regions(wire_geometry(3, 4), model.norb)
    nk = len(energies)
    e = np.column_stack([energies, np.broadcast_to(second, nk)])
    weights = np.zeros((nk, 2, len(part.names)))
    weights[:, :, part.names.index("hinge1")] = hinge_weight
    weights[:, :, part.names.index("interior")] = 1.0 - hinge_weight
    s = np.sqrt(1.0 - overlap**2)
    turned = np.array([[overlap, -s], [s, overlap], [0.0, 0.0]])
    vecs = [turned if i == 1 else np.eye(3)[:, :2] for i in range(nk)]
    data = spectral.BandData(np.zeros((nk, 1)), e, weights, part.names, None, None, nk)

    def scan(*args, keep_below):
        return data, [v[:, np.abs(ek) < keep_below] for v, ek in zip(vecs, e)]

    monkeypatch.setattr(invariants, "_momentum_scan", scan)
    return hinge_spectral_flow(model, side=4, nk=nk, window=2)


def test_hinge_flow_ignores_a_straddle_below_min_overlap(monkeypatch):
    rep = hand_built_flow(monkeypatch, [-0.1, 0.1, 0.5], overlap=0.9 * MIN_OVERLAP)
    assert rep.crossings == [] and rep.kirchhoff_sum == 0
    assert rep.warnings == [
        f"ignored straddle near k={-2 * np.pi / 3:.3f} with overlap below {MIN_OVERLAP} "
        "(window likely saturated)",
        "no band crosses E = 0 inside |E|<0.3, so every hinge flow is 0; raise side or nk",
    ]


def test_hinge_flow_records_an_unattributable_crossing(monkeypatch):
    rep = hand_built_flow(monkeypatch, [-0.1, 0.1, 0.5], hinge_weight=WEIGHT_THRESHOLD)
    assert rep.flows == {"hinge1": 0, "hinge2": 0, "hinge3": 0, "hinge4": 0}
    [crossing] = rep.crossings
    assert crossing["hinge"] is None and crossing["slope"] == 1
    assert crossing["k"] == pytest.approx(-np.pi / 3)
    assert crossing["weights"]["hinge1"] == WEIGHT_THRESHOLD
    assert rep.warnings == [
        f"crossing at k={-np.pi / 3:.3f} not attributable to a single hinge "
        f"(best weight {WEIGHT_THRESHOLD:.2f})"
    ]


def test_a_lone_attributed_crossing_breaks_kirchhoff(monkeypatch):
    rep = hand_built_flow(monkeypatch, [-0.1, 0.1, 0.5])
    assert rep.flows == {"hinge1": 1, "hinge2": 0, "hinge3": 0, "hinge4": 0}
    assert [c["hinge"] for c in rep.crossings] == ["hinge1"]
    assert rep.kirchhoff_sum == 1
    assert rep.warnings == ["hinge flows sum to 1, not zero"]


@pytest.mark.parametrize("skew, at_edge", [(1e-10, True), (-1e-10, True), (1e-7, False)])
def test_a_crossing_near_the_zone_edge_reads_minus_pi(monkeypatch, skew, at_edge):
    # the wrap segment runs from k = 2pi/3 to 4pi/3; a skew of the energies
    # moves its interpolated crossing by about pi * skew / 6 off pi
    rep = hand_built_flow(monkeypatch, [0.1 * (1 + skew), 0.5, -0.1])
    [crossing] = rep.crossings
    assert crossing["slope"] == 1 and crossing["hinge"] == "hinge1"
    assert (crossing["k"] == -np.pi) is at_edge
    assert np.pi - abs(crossing["k"]) <= (ZONE_EDGE_TOL if at_edge else 1e-6)


@pytest.mark.parametrize("energies, slope", [([-0.1, 0.1, 0.5], 1), ([0.5, 0.1, -0.1], -1)],
                         ids=["1x2", "2x1"])
@pytest.mark.parametrize("overlap", [0.9, 0.3])
def test_unequal_windows_pair_the_larger_overlap(monkeypatch, energies, slope, overlap):
    # at the second momentum both bands sit inside ENERGY_WINDOW, at its
    # neighbours only the first: the band that crosses zero is paired across
    # the 1x2 (or 2x1) segment only when its overlap beats the second band's
    rep = hand_built_flow(monkeypatch, energies, overlap=overlap, second=[0.9, -0.2, 0.9])
    if overlap > np.sqrt(1.0 - overlap**2):
        [crossing] = rep.crossings
        assert crossing["slope"] == slope and crossing["hinge"] == "hinge1"
        assert crossing["k"] == pytest.approx(-slope * np.pi / 3)
        assert rep.flows["hinge1"] == slope
    else:  # the straddling band, paired with nothing, is not even an ignored straddle
        assert rep.crossings == [] and rep.warnings == [
            "solver window saturated inside |E|<0.3 at k=0.000; increase the window",
            "no band crosses E = 0 inside |E|<0.3, so every hinge flow is 0; raise side or nk",
        ]


def test_trim_parities_ham1():
    rep = trim_parities(builtin_model("ham1"), np.kron(s0, s3))
    assert rep.per_point[(0.0, 0.0, 0.0)] == 2
    assert rep.per_point[(np.pi, np.pi, np.pi)] == 0
    assert rep.total == 14
    assert rep.cs_parity == 1
    assert all(c == 0 for c in rep.plane_cherns.values())


def atomic_model():
    return HoppingModel(
        dimension=3, norb=4, hoppings={(0, 0, 0): np.kron(s0, s3).astype(complex)}
    )


def test_trim_parities_atomic_model():
    rep = trim_parities(atomic_model(), np.kron(s0, s3))
    assert rep.total == 16
    assert rep.cs_parity == 0


def test_trim_parity_stable_under_trivial_bands():
    base = builtin_model("ham1")
    atom = atomic_model()
    hoppings = {}
    for delta in set(base.hoppings) | set(atom.hoppings):
        wa = base.hoppings.get(delta, np.zeros((4, 4)))
        wb = atom.hoppings.get(delta, np.zeros((4, 4)))
        w = np.zeros((8, 8), dtype=complex)
        w[:4, :4], w[4:, 4:] = wa, wb
        hoppings[delta] = w
    stacked = HoppingModel(dimension=3, norb=8, hoppings=hoppings)
    par = np.zeros((8, 8), dtype=complex)
    par[:4, :4] = np.kron(s0, s3)
    par[4:, 4:] = np.kron(s0, s3)
    rep = trim_parities(stacked, par)
    assert rep.total == 30
    assert rep.cs_parity == 1


def test_trim_requires_involutive_parity():
    with pytest.raises(ValueError, match="square to one"):
        trim_parities(builtin_model("ham1"), np.diag([1.0, 2.0, 1.0, 1.0]))


def test_bulk_corner_parity_rules():
    rep = bulk_corner_parity((1, 0, -1, 0), "inversion")
    assert rep.constraint_ok and rep.parity == 1
    rep = bulk_corner_parity((0, -1, 0, 1), "C2T")
    assert rep.constraint_ok and rep.parity == 1
    rep = bulk_corner_parity((1, -1, 1, -1), "C4T")
    assert rep.constraint_ok and rep.parity == 1
    rep = bulk_corner_parity((0, 0, 0, 0), "inversion")
    assert rep.constraint_ok and rep.parity == 0
    assert not bulk_corner_parity((1, 1, 1, 0), "inversion").constraint_ok
    assert not bulk_corner_parity((1, 0, -1, 0), "C4T").constraint_ok
    with pytest.raises(KeyError):
        bulk_corner_parity((0, 0, 0, 0), "C6T")


def test_round_integer_guard():
    assert _round_integer(1.95, "x") == 2
    with pytest.raises(RuntimeError, match="not within"):
        _round_integer(0.4, "x")
