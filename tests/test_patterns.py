"""Pattern/transversal tests, anchored by the brute-force window oracle."""

import json
import math

import numpy as np
import pytest

from hotilab.patterns import (
    Pattern,
    builtin_seeds,
    codimension_filtration,
    cube_seeds,
    global_transversal,
    half_space,
    pattern_from_dict,
    pattern_to_dict,
    quarter_pattern,
    square_seeds,
    translate_limit,
    transversal_of,
)

rng = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# construction and normalization


def test_gcd_normalization():
    p = Pattern(2, (((2, 4), 3),))
    assert p.constraints == (((1, 2), 2),)  # ceil(3/2) keeps the integer set


def test_parallel_normals_rejected():
    with pytest.raises(ValueError):
        Pattern(2, (((1, 0), 0), ((-2, 0), 0)))


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        Pattern(2, (((1, 0), 1), ((-1, 2), 0), ((-1, -2), 0)))


def test_contains():
    q = quarter_pattern(2)
    assert q.contains((0, 0)) and q.contains((3, 5))
    assert not q.contains((-1, 0))


def test_codimension():
    assert Pattern(3).codimension == 0
    assert half_space((0, 1, 0)).codimension == 1
    assert quarter_pattern(3).codimension == 2
    assert cube_seeds()[0].codimension == 3


# ---------------------------------------------------------------------------
# translate limits: pinned examples


def test_limit_quarter_along_e1():
    q = quarter_pattern(2)
    assert translate_limit(q, (1, 0)) == half_space((0, 1))


def test_limit_quarter_along_diagonal():
    q = quarter_pattern(2)
    assert translate_limit(q, (2, 3)) == Pattern(2)  # full lattice


def test_limit_zero_direction_rejected():
    with pytest.raises(ValueError):
        translate_limit(quarter_pattern(2), (0, 0))


def test_limit_leaving_direction_rejected():
    with pytest.raises(ValueError):
        translate_limit(quarter_pattern(2), (-1, 0))


def test_limit_idempotent():
    q = quarter_pattern(2)
    lim = translate_limit(q, (1, 0))
    assert translate_limit(lim, (1, 0)) == lim


def test_limit_codimension_monotone():
    for seed in cube_seeds():
        tv = transversal_of(seed)
        for p in tv.patterns:
            for v in [(1, 1, 1), (1, 0, 0), (0, 1, 1)]:
                try:
                    lim = translate_limit(p, v)
                except ValueError:
                    continue
                assert lim.codimension <= p.codimension


# ---------------------------------------------------------------------------
# brute-force window oracle


def _shifted_window_sites(p, v, n, radius):
    """Sites of (p - n*v) with max-norm <= radius, by brute force."""
    out = set()
    rng_ = range(-radius, radius + 1)
    from itertools import product as iproduct

    for y in iproduct(rng_, repeat=p.dimension):
        x = tuple(yi + n * vi for yi, vi in zip(y, v))
        if p.contains(x):
            out.add(y)
    return out


def _stabilization_bound(p, v, radius):
    n_star = 1
    for normal, bound in p.constraints:
        c = sum(a * b for a, b in zip(normal, v))
        if c > 0:
            l1 = sum(abs(a) for a in normal)
            n_star = max(n_star, math.ceil((bound + radius * l1) / c) + 1)
    return n_star


def _random_pattern_and_direction(d):
    """Random all-zero-bound pattern plus a recession direction, or None."""
    m = int(rng.integers(1, d + 1))
    normals = []
    for _ in range(40):
        n = tuple(int(x) for x in rng.integers(-2, 3, size=d))
        if all(x == 0 for x in n):
            continue
        g = math.gcd(*(abs(x) for x in n))
        n = tuple(x // g for x in n)
        neg = tuple(-x for x in n)
        if n in normals or neg in normals:
            continue
        normals.append(n)
        if len(normals) == m:
            break
    if len(normals) < m:
        return None
    p = Pattern(d, tuple((n, 0) for n in normals))
    for _ in range(60):
        v = tuple(int(x) for x in rng.integers(-3, 4, size=d))
        if all(x == 0 for x in v):
            continue
        ips = [sum(a * b for a, b in zip(n, v)) for n in normals]
        if all(ip >= 0 for ip in ips):
            return p, v
    return None


def test_window_oracle_quarter():
    q = quarter_pattern(2)
    for v in [(1, 0), (0, 1), (1, 1), (2, 3), (1, 2)]:
        lim = translate_limit(q, v)
        for radius in (4, 8, 12):
            n_star = _stabilization_bound(q, v, radius)
            for n in (n_star, n_star + 3):
                assert _shifted_window_sites(q, v, n, radius) == lim.window_sites(
                    radius
                )


def test_window_oracle_random():
    checked = 0
    while checked < 50:
        d = int(rng.integers(2, 4))
        got = _random_pattern_and_direction(d)
        if got is None:
            continue
        p, v = got
        lim = translate_limit(p, v)
        radius = int(rng.integers(4, 8 if d == 3 else 13))
        n_star = _stabilization_bound(p, v, radius)
        assert _shifted_window_sites(p, v, n_star, radius) == lim.window_sites(radius)
        checked += 1


def test_limit_class_with_nonzero_bounds():
    # independent normals: a lattice translation can zero the bounds, so the
    # normalized limit is the honest translate-class of the drifting pattern
    p = Pattern(2, (((1, 0), 3), ((0, 1), -2)))
    lim = translate_limit(p, (1, 0))
    true_limit = Pattern(2, (((0, 1), -2),))
    assert lim.canonical() == true_limit.canonical()
    assert lim.constraints == (((0, 1), 0),)


# ---------------------------------------------------------------------------
# transversals and filtrations


def test_quarter_transversal_count():
    tv = transversal_of(quarter_pattern(2))
    assert len(tv) == 4
    assert {c: len(ps) for c, ps in tv.by_codimension().items()} == {0: 1, 1: 2, 2: 1}


def test_square_transversal_count():
    tv = global_transversal(square_seeds(2))
    assert len(tv) == 9
    assert {c: len(ps) for c, ps in tv.by_codimension().items()} == {0: 1, 1: 4, 2: 4}


def test_cube_transversal_and_filtration():
    tv = global_transversal(cube_seeds())
    assert len(tv) == 27
    filt = codimension_filtration(tv)
    assert filt.sizes == (1, 7, 19, 27)


def test_transversal_contains_seed_class():
    q = quarter_pattern(2)
    tv = transversal_of(q)
    assert q.canonical() in tv.patterns


def test_transversal_closure_under_limits():
    tv = global_transversal(cube_seeds())
    for p in tv.patterns:
        for v in [(1, 0, 0), (0, -1, 0), (1, 1, 1), (0, 0, 1)]:
            try:
                lim = translate_limit(p, v)
            except ValueError:
                continue
            assert lim.canonical() in tv.patterns


def test_bounded_pattern_has_no_transversal():
    tri = Pattern(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), -5)))
    with pytest.raises(ValueError):
        transversal_of(tri)


def test_builtin_seeds():
    assert len(builtin_seeds("quarter")) == 1
    assert len(builtin_seeds("square")) == 4
    assert len(builtin_seeds("cube")) == 8
    with pytest.raises(KeyError):
        builtin_seeds("dodecahedron")


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip():
    p = Pattern(3, (((1, 0, 0), 0), ((0, 1, 1), -2)))
    assert pattern_from_dict(json.loads(json.dumps(pattern_to_dict(p)))) == p


def test_json_schema_keys():
    d = json.loads(json.dumps(pattern_to_dict(quarter_pattern(2))))
    assert set(d) == {"dimension", "constraints"}
    assert all(set(c) == {"normal", "bound"} for c in d["constraints"])
