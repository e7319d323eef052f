"""Exactness tests for the integer-matrix / abelian-group calculus."""

import numpy as np
from hypothesis import given, settings, strategies as st

import hotilab.fgab as fgab
from hotilab.fgab import (
    FGAbelianGroup,
    GroupMap,
    Subquotient,
    describe,
    hermite_column_form,
    ieye,
    imat,
    integer_rank,
    izeros,
    kernel_basis,
    lattice_contains,
    lattice_sum,
    smith_normal_form,
    solve_integer,
)

rng = np.random.default_rng(20260814)


def random_imat(n, m, lo=-9, hi=9):
    return imat(rng.integers(lo, hi + 1, size=(n, m)).tolist())


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_diag_2_3():
    u, d, v = smith_normal_form([[2, 0], [0, 3]])
    assert [int(d[i, i]) for i in range(2)] == [1, 6]


def test_snf_pinned_2x2():
    u, d, v = smith_normal_form([[1, 1], [1, -1]])
    assert [int(d[i, i]) for i in range(2)] == [1, 2]


def test_snf_identity_fixed():
    m = ieye(4)
    u, d, v = smith_normal_form(m)
    assert np.array_equal(d, ieye(4))


def _check_snf(m):
    m = imat(m)
    u, d, v = smith_normal_form(m)
    assert np.array_equal(u @ m @ v, d)
    # unimodularity: integer inverses exist
    assert solve_integer(u, ieye(u.shape[0])) is not None
    assert solve_integer(v, ieye(v.shape[0])) is not None
    diag = [int(d[i, i]) for i in range(min(d.shape))]
    assert all(x >= 0 for x in diag)
    nz = [x for x in diag if x != 0]
    assert diag[: len(nz)] == nz  # zeros trail
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # off-diagonal zero
    for i in range(d.shape[0]):
        for j in range(d.shape[1]):
            if i != j:
                assert d[i, j] == 0


def matrices(max_side, entries=st.integers(min_value=-30, max_value=30)):
    """n x m object matrices of Python ints, 0 <= n, m <= max_side."""
    side = st.integers(min_value=0, max_value=max_side)
    return st.tuples(side, side).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(lambda rows: np.array(rows, dtype=object).reshape(shape))
    )


# shapes from 0 x 0: empty row and column sets are common in page turns
matrix_strategy = matrices(5)


@settings(max_examples=80, deadline=None)
@given(matrix_strategy)
def test_snf_property(m):
    _check_snf(m)


def test_snf_large_entries():
    # arbitrary precision: no overflow on big pivots
    m = [[10**20, 1], [1, 10**20]]
    u, d, v = smith_normal_form(m)
    assert np.array_equal(u @ imat(m) @ v, d)
    assert int(d[0, 0]) == 1
    assert int(d[1, 1]) == 10**40 - 1


def test_snf_numpy_int64_input_stays_exact():
    # int64 input must not keep int64 arithmetic: 2**124 - 1 overflows it
    m = [[2**62, 1], [1, 2**62]]
    for given_m in (np.array(m, dtype=np.int64),
                    np.array([[np.int64(x) for x in r] for r in m], dtype=object)):
        u, d, v = smith_normal_form(given_m)
        assert d.tolist() == [[1, 0], [0, 2**124 - 1]]
        assert np.array_equal(u @ imat(m) @ v, d)
        for out in (u, d, v):
            assert out.dtype == object
            assert all(type(x) is int for x in out.flat)
    h = hermite_column_form(np.array(m, dtype=np.int64))
    assert all(type(x) is int for x in h.flat)


# ---------------------------------------------------------------------------
# independent reference: the same two algorithms, step for step, on numpy
# object arrays; the list kernels must agree with them entry for entry


def reference_smith_normal_form(m):
    d = fgab._as_imat(m).copy()
    rows, cols = d.shape
    u = ieye(rows)
    v = ieye(cols)

    def swap_rows(i, j):
        d[[i, j], :] = d[[j, i], :]
        u[[i, j], :] = u[[j, i], :]

    def swap_cols(i, j):
        d[:, [i, j]] = d[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]

    def add_row(src, dst, c):  # row[dst] += c * row[src]
        d[dst, :] += c * d[src, :]
        u[dst, :] += c * u[src, :]

    def add_col(src, dst, c):
        d[:, dst] += c * d[:, src]
        v[:, dst] += c * v[:, src]

    t = 0
    while t < min(rows, cols):
        # pick the nonzero pivot of least magnitude in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = d[i, j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        dirty = False
        for i in range(t + 1, rows):
            if d[i, t] != 0:
                q = d[i, t] // d[t, t]
                add_row(t, i, -q)
                if d[i, t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t, j] != 0:
                q = d[t, j] // d[t, t]
                add_col(t, j, -q)
                if d[t, j] != 0:
                    dirty = True
        if dirty:
            continue  # remainder became the new smallest entry; re-pivot

        # divisibility sweep: pivot must divide the whole remaining block
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i, j] % d[t, t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue

        if d[t, t] < 0:
            d[t, :] = -d[t, :]
            u[t, :] = -u[t, :]
        t += 1

    return u, d, v


def reference_hermite_column_form(m):
    a = fgab._as_imat(m).copy()
    n, k = a.shape
    if k == 0:
        return a.reshape(n, 0)
    row = 0
    col = 0
    while row < n and col < k:
        # gcd-sweep columns col..k-1 on this row
        while True:
            nz = [j for j in range(col, k) if a[row, j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(a[row, j]))
            if j0 != col:
                a[:, [col, j0]] = a[:, [j0, col]]
            done = True
            for j in range(col + 1, k):
                if a[row, j] != 0:
                    q = a[row, j] // a[row, col]
                    a[:, j] -= q * a[:, col]
                    if a[row, j] != 0:
                        done = False
            if done:
                break
        if a[row, col] != 0:
            if a[row, col] < 0:
                a[:, col] = -a[:, col]
            # reduce earlier columns against this pivot
            for j in range(col):
                q = a[row, j] // a[row, col]
                a[:, j] -= q * a[:, col]
            col += 1
        row += 1
    return a[:, :col]


def _assert_identical(got, want):
    assert got.shape == want.shape
    assert got.dtype == object
    assert all(type(x) is int for x in got.flat)
    assert got.tolist() == want.tolist()


def _assert_kernels_match_reference(m):
    for got, want in zip(smith_normal_form(m), reference_smith_normal_form(m)):
        _assert_identical(got, want)
    _assert_identical(hermite_column_form(m), reference_hermite_column_form(m))


@settings(max_examples=150, deadline=None)
@given(matrices(6))
def test_kernels_match_reference(m):
    _assert_kernels_match_reference(m)


beyond_int64 = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63)),
)


@settings(max_examples=60, deadline=None)
@given(matrices(6, beyond_int64))
def test_kernels_match_reference_beyond_int64(m):
    _assert_kernels_match_reference(m)


# ---------------------------------------------------------------------------
# Hermite form / lattice calculus


def test_hermite_canonical_for_equivalent_generators():
    base = random_imat(4, 3)
    # right-multiplying by a unimodular matrix keeps the column lattice
    t = imat([[1, 2, 0], [0, 1, 5], [0, 0, 1]])
    a = hermite_column_form(base)
    b = hermite_column_form(base @ t)
    assert np.array_equal(a, b)


def test_hermite_drops_redundant_columns():
    m = imat([[2, 4, 2], [0, 0, 0]])
    h = hermite_column_form(m)
    assert h.shape == (2, 1)
    assert int(h[0, 0]) == 2


@settings(max_examples=50, deadline=None)
@given(matrix_strategy)
def test_hermite_same_lattice(m):
    m = imat(m)
    h = hermite_column_form(m)
    # every original column lies in the HNF lattice and vice versa
    for j in range(m.shape[1]):
        assert lattice_contains(h, m[:, j].reshape(-1, 1))
    for j in range(h.shape[1]):
        assert lattice_contains(m, h[:, j].reshape(-1, 1)) or m.shape[1] == 0


def test_solve_integer():
    m = imat([[2, 0], [0, 3]])
    x = solve_integer(m, imat([[4], [9]]))
    assert x is not None and np.array_equal(m @ x, imat([[4], [9]]))
    assert solve_integer(m, imat([[1], [0]])) is None


def test_kernel_basis():
    m = imat([[1, 2, 3]])
    k = kernel_basis(m)
    assert k.shape == (3, 2)
    assert np.all(m @ k == 0)
    assert integer_rank(k) == 2


def test_lattice_intersect_sum():
    a = imat([[2], [0]])
    b = imat([[0], [3]])
    s = lattice_sum(a, b)
    assert lattice_contains(s, imat([[2], [3]]))
    # 2Z x Z meets 3Z x Z in the kernel of Z^2 -> Z^2/(2Z x Z) + Z^2/(3Z x Z)
    both = FGAbelianGroup(4, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]])
    i = GroupMap(FGAbelianGroup(2), both, [[1, 0], [0, 1], [1, 0], [0, 1]]).kernel_lattice()
    assert lattice_contains(i, imat([[6], [0]]))
    assert not lattice_contains(i, imat([[2], [0]]))


# ---------------------------------------------------------------------------
# groups, maps, subquotients


def test_group_canonical_forms():
    assert describe(FGAbelianGroup(2).canonical()) == "Z^2"
    assert describe(FGAbelianGroup(2, [[1, 1], [1, -1]]).canonical()) == "Z/2"
    assert describe(FGAbelianGroup(1, [[6]]).canonical()) == "Z/6"
    assert describe(FGAbelianGroup(0).canonical()) == "0"
    g = FGAbelianGroup(3, [[2, 0], [0, 3], [0, 0]])
    assert g.canonical() == (1, (6,))  # Z + Z/6 after snf merge


def test_group_reduce_and_equal():
    g = FGAbelianGroup(1, [[5]])
    assert int(g.reduce([7])[0]) == 2
    assert g.is_zero(imat([7]) - imat([2]))
    assert not g.is_zero(imat([7]) - imat([3]))
    # a matrix is reduced column by column, in one call
    assert g.reduce(imat([[7, -3, 5, 0]])).tolist() == [[2, 2, 0, 0]]
    g3 = FGAbelianGroup(3, [[4, 0], [2, 6], [0, 0]])
    xs = random_imat(3, 7)
    cols = [g3.reduce(xs[:, j]) for j in range(xs.shape[1])]
    assert np.array_equal(g3.reduce(xs), np.stack(cols, axis=1))
    assert g3.reduce(izeros(3, 0)).shape == (3, 0)
    # a matrix is zero when every column is: members, then one non-member
    members = g3.relations @ random_imat(2, 5)
    for m in (members, np.concatenate([members, imat([[0], [1], [0]])], axis=1), xs):
        cols = [lattice_contains(g3.relations, m[:, [j]]) for j in range(m.shape[1])]
        assert g3.is_zero(m) == all(cols)
    assert g3.is_zero(members)


def test_group_factors_its_relations_on_first_use(monkeypatch):
    factored = []
    snf = fgab.smith_normal_form

    def counted(m):
        factored.append(m)
        return snf(m)

    monkeypatch.setattr(fgab, "smith_normal_form", counted)
    reads = [lambda g: g.rank, lambda g: g.torsion,
             lambda g: g.reduce([3, 1]), lambda g: g.is_zero([2, 0])]
    for read in reads:
        factored.clear()
        g = FGAbelianGroup(2, [[2], [0]], ("a", "b"))
        assert factored == []
        read(g)
        for again in reads:
            again(g)
        # one factorization of the relations serves every read
        assert [m is g.relations for m in factored].count(True) == 1
        assert factored[0] is g.relations


def test_map_well_defined_rejects():
    z2 = FGAbelianGroup(1, [[2]])
    z = FGAbelianGroup(1)
    try:
        GroupMap(z2, z, [[1]])  # 1 -> 1 does not kill 2
        assert False, "expected ValueError"
    except ValueError:
        pass
    GroupMap(z2, z2, [[1]])  # identity on Z/2 is fine


def test_map_kernel_image():
    z = FGAbelianGroup(1)
    z2 = FGAbelianGroup(1, [[2]])
    f = GroupMap(z, z2, [[1]])
    ker = Subquotient(z, f.kernel_lattice(), izeros(1, 0))
    assert describe(ker.canonical()) == "Z"  # kernel = 2Z = Z as a group
    assert lattice_contains(f.kernel_lattice(), imat([[2]]))
    assert not lattice_contains(f.kernel_lattice(), imat([[1]]))


def test_subquotient_pinned():
    # Z^2 / <(1,1),(1,-1)> = Z/2
    sq = Subquotient(FGAbelianGroup(2), ieye(2), [[1, 1], [1, -1]])
    assert describe(sq.canonical()) == "Z/2"
    # the nontrivial element: (1,0)
    assert not sq.group.is_zero(sq.project([1, 0]))
    assert sq.group.is_zero(sq.project([1, 1]))


def test_subquotient_z_mod_2z():
    sq = Subquotient(FGAbelianGroup(1), ieye(1), [[2]])
    assert describe(sq.canonical()) == "Z/2"


def test_subquotient_requires_containment():
    try:
        Subquotient(FGAbelianGroup(2), [[2], [0]], [[1], [1]])
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_subquotient_project_lift_roundtrip():
    g = FGAbelianGroup(3, [[4, 0], [0, 6], [0, 0]])
    sq = Subquotient(g, [[2, 0], [0, 2], [0, 1]], [[4], [0], [0]])
    for _ in range(20):
        c = rng.integers(-5, 6, size=sq.group.ngens)
        x = sq.lift(c)
        assert np.array_equal(sq.project(x), sq.group.reduce(c))
    # a matrix of ambient vectors projects column by column, in one call
    cs = random_imat(sq.group.ngens, 6, -5, 5)
    xs = sq.basis @ cs
    proj = sq.project(xs)
    assert proj.shape == (sq.group.ngens, 6)
    for j in range(6):
        assert np.array_equal(proj[:, j], sq.project(xs[:, j]))
    assert np.array_equal(proj, sq.group.reduce(cs))
