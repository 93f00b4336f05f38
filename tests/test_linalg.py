from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from replalg import linalg
from replalg.linalg import EchelonSpace, RatMatrix, hstack, sparse_kernel
from support import block_diag, from_rows, is_invertible, span_contains, vstack

F = Fraction


def M(rows):
    return from_rows(rows)


def test_rref_identity():
    i2 = RatMatrix.identity(2)
    red, rank, pivots = i2.rref()
    assert red == i2 and rank == 2 and pivots == [0, 1]


def test_rref_zero():
    z = RatMatrix.zeros(2, 2)
    red, rank, _ = z.rref()
    assert red == z and rank == 0


def test_rref_rank_one():
    # hand row-reduction: [[1,2],[2,4]] -> [[1,2],[0,0]]
    red, rank, pivots = M([[1, 2], [2, 4]]).rref()
    assert red == M([[1, 2], [0, 0]])
    assert rank == 1 and pivots == [0]


def test_rref_idempotent():
    a = M([[2, 4, 1], [3, 1, 0], [5, 5, 1]])
    red, _, _ = a.rref()
    again, _, _ = red.rref()
    assert again == red


def test_kernel_identity_empty():
    assert RatMatrix.identity(3).kernel_basis().cols == 0


def test_kernel_zero_full():
    k = RatMatrix.zeros(2, 3).kernel_basis()
    assert k.cols == 3 and k.rank() == 3


def test_kernel_hand_example():
    # [[1,2]] -> one column proportional to (-2, 1)
    k = M([[1, 2]]).kernel_basis()
    assert k.cols == 1
    x, y = k.data[0][0], k.data[1][0]
    assert x == -2 * y and y != 0


def test_solve_identity():
    b = RatMatrix.column([1, 2])
    assert RatMatrix.identity(2).solve(b) == b


def test_solve_no_solution():
    assert RatMatrix.zeros(2, 2).solve(RatMatrix.column([1, 0])) is None


def test_solve_scalar():
    x = M([[2]]).solve(RatMatrix.column([1]))
    assert x == RatMatrix.column([F(1, 2)])


def test_inverse_identity():
    assert RatMatrix.identity(2).inverse() == RatMatrix.identity(2)


def test_inverse_nilpotent():
    assert M([[0, 1], [0, 0]]).inverse() is None
    assert not is_invertible(M([[0, 1], [0, 0]]))


def test_inverse_hand_example():
    inv = M([[1, 1], [0, 2]]).inverse()
    assert inv == M([[1, F(-1, 2)], [0, F(1, 2)]])


def test_stacking_and_blocks():
    a = M([[1, 2]])
    b = M([[3, 4]])
    assert hstack([a, b]) == M([[1, 2, 3, 4]])
    assert vstack([a, b]) == M([[1, 2], [3, 4]])
    assert block_diag([RatMatrix.identity(1), a]) == M([[1, 0, 0], [0, 1, 2]])


def test_zero_sized_matrices():
    z = RatMatrix.zeros(0, 3)
    assert z.rank() == 0
    assert z.kernel_basis().cols == 3
    z2 = RatMatrix.zeros(3, 0)
    assert z2.kernel_basis().cols == 0
    assert (z @ RatMatrix.zeros(3, 2)).cols == 2


small_entries = st.integers(min_value=-6, max_value=6).map(F)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    data = draw(st.lists(st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r))
    return RatMatrix(r, c, data)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity_and_kernel(m):
    k = m.kernel_basis()
    assert m.rank() + k.cols == m.cols
    if k.cols:
        assert (m @ k).is_zero()


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_involution(m):
    red, rank, pivots = m.rref()
    red2, rank2, pivots2 = red.rref()
    assert red2 == red and rank2 == rank and pivots2 == pivots


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=4), st.lists(small_entries, min_size=4, max_size=4))
def test_solve_cross_check(m, vec):
    b = RatMatrix.column(vec[: m.rows])
    x = m.solve(b)
    if x is not None:
        assert m @ x == b
    else:
        # no solution iff b is outside the column space
        assert hstack([m, b]).rank() > m.rank()


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=5))
def test_echelon_space_matches_rank(m):
    sp = EchelonSpace(m.rows)
    for col in m.columns():
        sp.add(col)
    assert sp.rank == m.rank()
    for j in range(m.cols):
        assert span_contains(sp, m.column_vec(j))


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=5))
def test_sparse_span_grows_as_the_echelon_space(m):
    # the same vectors, dense and as {column: value}: the rank grows at the
    # same steps, and every stored row has 1 at its pivot, its least column
    dense, sparse = EchelonSpace(m.rows), linalg.SparseSpan()
    for col in m.columns():
        assert sparse.add({j: x for j, x in enumerate(col) if x}) == dense.add(col)
        assert sparse.rank == dense.rank
    assert all(row[p] == 1 and min(row) == p for p, row in sparse.piv.items())


def test_echelon_space_membership():
    sp = EchelonSpace(3)
    assert sp.add([F(1), F(0), F(2)])
    assert sp.add([F(0), F(1), F(0)])
    assert not sp.add([F(2), F(3), F(4)])
    assert span_contains(sp, [F(1), F(1), F(2)])
    assert not span_contains(sp, [F(0), F(0), F(1)])


@st.composite
def sparse_systems(draw, max_dim=6):
    """Rows as {column: value} dicts, with zero rows and repeated rows."""
    n = draw(st.integers(0, max_dim))
    entries = st.one_of(st.just(F(0)), small_entries)
    dense = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=max_dim + 1))
    dense.append([F(0)] * n)
    if draw(st.booleans()):
        dense += dense[: draw(st.integers(0, len(dense)))]
    if draw(st.booleans()):
        dense = []
    return n, dense


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_sparse_kernel_matches_dense_kernel(system):
    n, dense = system
    rows = [{j: x for j, x in enumerate(r) if x} for r in dense]
    got = sparse_kernel(rows, n)
    want = RatMatrix(len(dense), n, dense).kernel_basis()
    assert [[vec.get(j, 0) for j in range(n)] for vec in got] == want.columns()


def test_sparse_kernel_edge_cases():
    assert sparse_kernel([], 0) == []
    assert sparse_kernel([{}, {}], 0) == []
    assert sparse_kernel([], 2) == [{0: 1}, {1: 1}]
    # an explicit zero coefficient is no equation
    assert sparse_kernel([{0: F(0)}, {}], 1) == [{0: 1}]
    # x0 + x1 = 0 and x1 - x2 = 0: reduced rows x0 + x2, x1 - x2
    assert sparse_kernel([{0: F(1), 1: F(1)}, {1: F(1), 2: F(-1)}], 3) == [{2: 1, 0: -1, 1: 1}]


def test_sparse_kernel_certificate_catches_a_corrupted_solve(monkeypatch):
    rows = [{0: F(1), 1: F(1)}, {1: F(1), 2: F(-1)}]
    solve = linalg._sparse_rref

    def dropped(rows):
        return solve(list(rows)[1:])

    def flipped(rows):
        piv = solve(rows)
        piv[0][2] = -piv[0][2]
        return piv

    for corrupt in (dropped, flipped):
        monkeypatch.setattr(linalg, "_sparse_rref", corrupt)
        with pytest.raises(ValueError, match="does not solve"):
            sparse_kernel(rows, 3)


def test_sparse_kernel_certificate_reads_every_row(monkeypatch):
    # x0 = 0, x1 = 0, x2 = x3: a wrong sign at (x2, x3) leaves the first two
    # rows solved, so only the last row shows the residual
    rows = [{0: 1}, {1: 1}, {2: 1, 3: -1}]
    assert sparse_kernel(rows, 4) == [{3: 1, 2: 1}]
    solve = linalg._sparse_rref

    def flipped(rows):
        piv = solve(rows)
        piv[2][3] = -piv[2][3]
        return piv

    monkeypatch.setattr(linalg, "_sparse_rref", flipped)
    with pytest.raises(ValueError, match="does not solve"):
        sparse_kernel(rows, 4)


@st.composite
def wide_sparse_systems(draw):
    """Systems shaped like the Hom equations: up to 80 rows of a few
    nonzeros in up to 60 unknowns, mostly +-1 with some fractions, and
    differences of drawn rows, so that rank is lost and entries cancel."""
    n = draw(st.integers(1, 60))
    entry = st.one_of(st.sampled_from([1, -1]), st.sampled_from([1, -1, 2, F(1, 2), F(-3, 2), F(2, 3)]))
    m = draw(st.integers(0, 70))
    row = st.dictionaries(st.integers(0, n - 1), entry, min_size=1, max_size=5)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 69), st.integers(0, 69)), max_size=10)):
        if rows:
            a, b = rows[i % len(rows)], rows[j % len(rows)]
            diff = {c: a.get(c, 0) - b.get(c, 0) for c in a.keys() | b.keys()}
            rows.append({c: x for c, x in diff.items() if x})
    return n, rows


def _assert_sparse_matches_dense(rows, n):
    """_sparse_rref equals the dense reduced row echelon form pivot row for
    pivot row, and sparse_kernel equals kernel_basis column for column."""
    dense = RatMatrix(len(rows), n, [[r.get(j, 0) for j in range(n)] for r in rows])
    red, rank, pivots = dense.rref()
    piv = linalg._sparse_rref(rows)
    assert sorted(piv) == pivots
    for i, p in enumerate(pivots):
        assert [piv[p].get(j, 0) for j in range(n)] == red.data[i]
    got = sparse_kernel(rows, n)
    assert [[vec.get(j, 0) for j in range(n)] for vec in got] == dense.kernel_basis().columns()
    return rank


@settings(max_examples=60, deadline=None)
@given(wide_sparse_systems())
def test_sparse_rref_matches_dense_on_wide_systems(system):
    _assert_sparse_matches_dense(system[1], system[0])


def test_sparse_solve_of_a_real_end_system():
    """End(K) for the kernel K of the minimal right add(M)-approximation of
    rad P(2@2), Kronecker quiver, m = 2: the largest Hom system of the
    lemma-2.4 inventory run, 864 equations in 900 unknowns."""
    from replalg.homology import right_approximation
    from replalg.modules import _hom_equations, kernel, projective_module, radical_submodule
    from replalg.quiver import kronecker
    from replalg.replicated import auslander_generator

    bundle = auslander_generator(kronecker(), 2)
    a = bundle.replicated.algebra
    v = [lab for lab, _ in a.idempotents].index("2@2")
    x, _ = radical_submodule(projective_module(a, v))
    k, _ = kernel(right_approximation([s.module for s in bundle.summands], x, bundle.summand_homs))
    assert k.vertex_dims() == [0, 0, 0, 24, 18, 0]
    rows, n = _hom_equations(k, k)
    assert (len(rows), n) == (864, 900)
    assert _assert_sparse_matches_dense(rows, n) == 864


# -- differential: mixed int/Fraction entries against all-Fraction and sympy ---

mixed_entries = st.one_of(
    st.integers(-4, 4),
    st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
)


@st.composite
def mixed_matrices(draw, max_dim=4):
    """Matrices whose entries are ints and Fractions, some of them integral
    Fractions; stored as drawn, without the constructor's normalisation."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    return RatMatrix._of(r, c, draw(st.lists(st.lists(mixed_entries, min_size=c, max_size=c), min_size=r, max_size=r)))


def _as_fractions(m):
    return RatMatrix._of(m.rows, m.cols, [[F(x) for x in row] for row in m.data])


def _to_sympy(m):
    import sympy

    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for row in m.data for x in row])


def _from_sympy(s):
    return [[F(int(s[i, j].p), int(s[i, j].q)) for j in range(s.cols)] for i in range(s.rows)]


def _sympy_rref(m):
    """The reduced row echelon form and pivots of m, computed by sympy."""
    red, pivots = _to_sympy(m).rref()
    return _from_sympy(red), list(pivots)


def _sympy_solve(m, rhs):
    """Some x with m @ x = rhs, free unknowns zero, or None: read off sympy's
    reduced row echelon form of [m | rhs]."""
    red, pivots = _sympy_rref(hstack([m, rhs]))
    if m.cols in pivots:
        return None
    x = [[F(0)] for _ in range(m.cols)]
    for i, p in enumerate(pivots):
        x[p] = [red[i][m.cols]]
    return x


def _linalg_results(m, rhs):
    """Everything the differential test compares: rref, kernel, solve,
    inverse, EchelonSpace growth, rows and pivots, and the sparse kernel."""
    sp = EchelonSpace(m.cols)
    grew = [sp.add(row) for row in m.data]
    sparse = sparse_kernel([{j: x for j, x in enumerate(row) if x} for row in m.data], m.cols)
    return (m.rref(), m.kernel_basis(), m.solve(rhs), m.inverse() if m.rows == m.cols else None,
            grew, sp.rows, sp.pivots, [[v.get(j, 0) for j in range(m.cols)] for v in sparse])


@settings(max_examples=150, deadline=None)
@given(mixed_matrices(), st.lists(mixed_entries, min_size=4, max_size=4))
def test_mixed_scalars_match_all_fraction_and_sympy(m, vec):
    rhs = RatMatrix._of(m.rows, 1, [[x] for x in vec[: m.rows]])
    got = _linalg_results(m, rhs)
    assert got == _linalg_results(_as_fractions(m), _as_fractions(rhs))
    (red, rank, pivots), kernel, x, inv, grew, rows, space_pivots, sparse = got
    out = [red, kernel] + [t for t in (x, inv) if t is not None]
    assert {type(c) for t in out for row in t.data for c in row} | {type(c) for row in rows + sparse for c in row} <= {int, F}
    # the reduced row echelon form is unique, so sympy's must be the same
    want, want_pivots = _sympy_rref(m)
    assert red.data == want and pivots == want_pivots and rank == len(want_pivots)
    assert rows == want[:rank] and space_pivots == pivots and sum(grew) == rank
    assert kernel.columns() == sparse
    assert (x.data if x is not None else None) == _sympy_solve(m, rhs)
    if m.rows == m.cols:
        assert (inv is not None) == (rank == m.rows)
        if inv is not None:
            assert inv.data == _from_sympy(_to_sympy(m).inv())


def test_transpose_keeps_empty_shapes():
    m = from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.transpose() == from_rows([[1, 4], [2, 5], [3, 6]])
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        t = RatMatrix.zeros(rows, cols).transpose()
        assert (t.rows, t.cols, t.data) == (cols, rows, [[] for _ in range(cols)])
