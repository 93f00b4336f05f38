from fractions import Fraction

import pytest

import replalg.algebra
from replalg.algebra import AlgebraData
from replalg.errors import CyclicQuiver, DuplicateLabel, EmptyQuiver, NonSplitSimple, NotBasic, ReplalgError
from replalg.homology import dominant_dimension, global_dimension
from replalg.modules import projective_cover, projective_module
from replalg.quiver import Quiver, build_hereditary, kronecker, linear_quiver, one_vertex
from replalg.replicated import build_replicated
from support import is_connected, regular_module, row_span, socle, top, trace_form_radical

F = Fraction


def dual_numbers():
    # basis 1, t with t^2 = 0
    mult = [
        [((0, 1),), ((1, 1),)],
        [((1, 1),), ()],
    ]
    return AlgebraData(["1", "t"], mult, [1, 0], [("pt", [1, 0])])


def test_quiver_rejects_cycles_and_duplicates():
    with pytest.raises(CyclicQuiver):
        Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(DuplicateLabel):
        Quiver(["1", "1"], [])
    with pytest.raises(DuplicateLabel):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "1", "2")])


def test_empty_quiver_is_a_typed_error():
    # an empty quiver used to reach verify_gl_dim_bounds and give a FAIL verdict
    with pytest.raises(EmptyQuiver):
        Quiver([], [])
    with pytest.raises(ReplalgError):
        linear_quiver(0)


def test_quiver_connectivity_reported():
    assert is_connected(kronecker())
    assert not is_connected(Quiver(["1", "2"], []))


def test_path_algebra_dimensions():
    assert build_hereditary(one_vertex()).dim == 1
    assert build_hereditary(kronecker()).dim == 4          # e1, e2, a, b
    assert build_hereditary(linear_quiver(3)).dim == 6     # 3 vertices, 2 arrows, 1 path of length 2


def test_path_algebra_is_graded():
    a = build_hereditary(kronecker())
    assert a.grading is not None
    # arrows 2 -> 1 are graded (start=2, end=1)
    ia = a.labels.index("a")
    assert a.grading[ia] == (1, 0)


def test_associativity_check_rejects_bad_table():
    # x*x = y, x*y = 1, y*anything = 0: (x*x)*x = 0 but x*(x*x) = 1
    mult = [
        [((0, 1),), ((1, 1),), ((2, 1),)],
        [((1, 1),), ((2, 1),), ((0, 1),)],
        [((2, 1),), (), ()],
    ]
    with pytest.raises(ValueError):
        AlgebraData(["1", "x", "y"], mult, [1, 0, 0], [("pt", [1, 0, 0])])


def test_associativity_failure_behind_a_non_generator_is_found():
    """Associativity is tested only on triples (x, y, s) with s in a
    generating set, here the idempotents and arrows of A5.  The corrupted
    product multiplies two non-generators, (a4.a3)(a2.a1); the generator
    lemma finds the failure at a triple whose third factor is an arrow."""
    a = build_hereditary(linear_quiver(5))
    mult = [list(row) for row in a.mult]
    x, y, xy = (a.labels.index(lab) for lab in ("a4.a3", "a2.a1", "a4.a3.a2.a1"))
    assert mult[x][y] == ((xy, 1),)
    mult[x][y] = ((xy, 2),)
    with pytest.raises(ValueError, match=r"associativity fails on \(a4\.a3, a2, a1\)"):
        AlgebraData(a.labels, mult, a.unit, a.idempotents)


def test_associativity_check_reaches_no_generator_and_tests_every_triple():
    # 1, g, h with g*g = h, g*h = h*g = 1, h*h = 2g: every basis element is a
    # single-term product, so the search from the non-products reaches
    # nothing and every element joins the generators; (gg)h = 2g != g = g(gh)
    one, g, h = range(3)
    mult = [
        [((one, 1),), ((g, 1),), ((h, 1),)],
        [((g, 1),), ((h, 1),), ((one, 1),)],
        [((h, 1),), ((one, 1),), ((g, 2),)],
    ]
    with pytest.raises(ValueError, match="associativity fails"):
        AlgebraData(["1", "g", "h"], mult, [1, 0, 0], [("pt", [1, 0, 0])])


def test_product_in_a_wrong_peirce_block_is_refused():
    a = build_hereditary(linear_quiver(3))
    e2, a1, a2 = (a.labels.index(lab) for lab in ("e(2)", "a1", "a2"))
    mult = [list(row) for row in a.mult]
    mult[a2][a1] = ((a2, 1),)  # a2 runs 3 -> 2, but a2 * a1 must run 3 -> 1
    with pytest.raises(ValueError, match="not grading-homogeneous"):
        AlgebraData(a.labels, mult, a.unit, a.idempotents)
    mult = [list(row) for row in a.mult]
    mult[e2][a1] = ((a1, 2),)  # the one candidate on the left no longer fixes a1
    with pytest.raises(ValueError, match="not in one Peirce block"):
        AlgebraData(a.labels, mult, a.unit, a.idempotents)


def test_product_across_peirce_blocks_is_refused():
    # e1, e2 and x = e1 x e2 with x * x = x: homogeneous, but (x e2) x = x
    # while x (e2 x) = 0; the grading prunes that triple, so the
    # cross-grading check is what refuses the table
    e1, e2, x = range(3)
    mult = [[() for _ in range(3)] for _ in range(3)]
    mult[e1][e1], mult[e2][e2], mult[e1][x], mult[x][e2], mult[x][x] = (
        ((e1, 1),), ((e2, 1),), ((x, 1),), ((x, 1),), ((x, 1),))
    with pytest.raises(ValueError, match="does not vanish across idempotents"):
        AlgebraData(["e1", "e2", "x"], mult, [1, 1, 0], [("1", [1, 0, 0]), ("2", [0, 1, 0])])


def test_opposite_grading_is_the_swapped_grading(local_corner_algebra):
    algebras = [build_hereditary(kronecker()), build_hereditary(linear_quiver(3)),
                build_replicated(kronecker(), 2).algebra, build_replicated(linear_quiver(3), 1).algebra,
                dual_numbers(), matrix_units(), local_corner_algebra]
    for a in algebras:
        op = a.opposite()
        assert op.grading == op._compute_grading()
        assert op.mult == [[a.mult[j][i] for j in range(a.dim)] for i in range(a.dim)]
        # the transposed table passes every construction check by itself
        again = AlgebraData(op.labels, op.mult, op.unit, op.idempotents)
        assert again.grading == op.grading


def test_radical_one_dimensional_semisimple():
    a = build_hereditary(one_vertex())
    assert a.radical_basis() == []


def test_radical_dual_numbers():
    a = dual_numbers()
    rad = a.radical_basis()
    assert len(rad) == 1
    assert rad[0][0] == 0 and rad[0][1] != 0  # span{t}


def test_radical_of_local_corners_matches_the_trace_form(local_corner_algebra):
    for a in (dual_numbers(), local_corner_algebra, build_hereditary(one_vertex())):
        for b in (a, a.opposite()):
            assert row_span(b.dim, b.radical_basis()) == row_span(b.dim, trace_form_radical(b))


def test_radical_path_algebra_is_arrow_ideal():
    a = build_hereditary(linear_quiver(3))
    rad = a.radical_basis()
    # paths of length >= 1: two arrows plus one composite
    assert len(rad) == 3
    trivial = {a.labels.index(f"e({v})") for v in ["1", "2", "3"]}
    for vec in rad:
        assert all(not vec[i] for i in trivial)


def test_opposite_involution_and_kronecker_reversal():
    a = build_hereditary(kronecker())
    op = a.opposite()
    assert op.opposite() is a
    rev = build_hereditary(kronecker().reversed())
    # same labels, same structure constants up to the reversal of products
    ia, ib = a.labels.index("a"), a.labels.index("e(2)")
    assert op.mult[ia][ib] == a.mult[ib][ia]
    assert rev.dim == op.dim


def test_commutative_algebra_opposite_is_identical():
    a = dual_numbers()
    op = a.opposite()
    assert op.mult == a.mult


def test_split_basic_check_passes_for_path_algebras():
    build_hereditary(kronecker()).ensure_split_basic()


def q_sqrt2():
    # Q(sqrt 2) as a 2-dim algebra: basis 1, s with s^2 = 2
    mult = [
        [((0, 1),), ((1, 1),)],
        [((1, 1),), ((0, 2),)],
    ]
    return AlgebraData(["1", "s"], mult, [1, 0], [("pt", [1, 0])])


def test_non_split_simple_detected():
    with pytest.raises(NonSplitSimple):
        q_sqrt2().ensure_split_basic()


def test_global_dimension_of_a_non_split_algebra_raises():
    """Q(sqrt 2) is semisimple, so its radical is 0: a resolution of rad A
    that skipped the split-basic check would read gl.dim 0, and one of
    D(A_A) would read dom.dim >= cap, as A is self-injective.  Both read
    the Peirce table of ``radical_sparse``, which raises, on A and on A^op."""
    for dimension in (global_dimension, dominant_dimension):
        with pytest.raises(NonSplitSimple):
            dimension(q_sqrt2(), 3)


def matrix_units():
    # M_2(Q) with basis e11, e12, e21, e22: graded by e11, e22 but not basic
    n = 2
    idx = {(i, j): n * i + j for i in range(n) for j in range(n)}
    mult = [[() for _ in range(4)] for _ in range(4)]
    for (i, j), x in idx.items():
        for (k, l), y in idx.items():
            if j == k:
                mult[x][y] = ((idx[(i, l)], 1),)
    labels = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return AlgebraData(labels, mult, [1, 0, 0, 1], [("1", [1, 0, 0, 0]), ("2", [0, 0, 0, 1])])


def test_structural_radical_refuses_non_basic_algebra():
    """e12 * e21 = e11 has trace 1 on the corner at 1, so the off-diagonal
    e12 is not radical: M_2(Q) is not basic.  The radical raises NotBasic
    (a whole-algebra trace form once returned [] here)."""
    a = matrix_units()
    with pytest.raises(NotBasic, match=r"e12 \* e21 is not radical"):
        a.radical_basis()
    assert a._radical is None
    with pytest.raises(NotBasic):
        a.radical_sparse()


def test_split_basic_refuses_non_basic_algebra():
    # M_2(Q) fails the Peirce ideal check, so it is not basic: the check must
    # say so instead of letting a cover fail later with an untyped error
    with pytest.raises(NotBasic):
        matrix_units().ensure_split_basic()
    a = matrix_units()
    with pytest.raises(NotBasic):
        projective_cover(projective_module(a, 0))


def test_one_dimensional_corner_with_a_nonzero_cycle_is_not_basic(monkeypatch):
    # M_2(Q) in the basis e11, e12, 2 e21, e22: both corners are
    # one-dimensional, and e12 * (2 e21) = 2 e11 has trace 2 on the corner at
    # 1, so A is not basic; the certificate builds no algebra
    e11, e12, f21, e22 = range(4)
    mult = [[() for _ in range(4)] for _ in range(4)]
    mult[e11][e11], mult[e11][e12], mult[e12][f21], mult[e12][e22] = ((e11, 1),), ((e12, 1),), ((e11, 2),), ((e12, 1),)
    mult[f21][e11], mult[f21][e12], mult[e22][f21], mult[e22][e22] = ((f21, 1),), ((e22, 2),), ((f21, 1),), ((e22, 1),)
    a = AlgebraData(["e11", "e12", "2e21", "e22"], mult, [1, 0, 0, 1], [("1", [1, 0, 0, 0]), ("2", [0, 0, 0, 1])])
    built = []
    init = AlgebraData.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraData, "__init__", counted)
    with pytest.raises(NotBasic, match=r"e12 \* 2e21"):
        a.ensure_split_basic()
    assert built == []


def test_one_dimensional_corners_run_no_trace_form(monkeypatch):
    """Every corner of A^(m) is Q e_u: the certificate runs once per
    idempotent on one trace, no algebra is built, and the radical is the
    off-diagonal basis elements."""
    seen = []
    certificate = replalg.algebra._local_radical
    monkeypatch.setattr(replalg.algebra, "_local_radical",
                        lambda traces, *rest: seen.append(list(traces)) or certificate(traces, *rest))
    a = build_replicated(kronecker(), 2).algebra
    seen.clear()

    def refuse(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(AlgebraData, "__init__", refuse)
    a.ensure_split_basic()
    assert seen == [[1]] * len(a.idempotents)
    assert a.radical_sparse() == [((i, 1),) for i, (u, v) in enumerate(a.grading) if u != v]
    assert a.radical_pieces()[1] == []


def test_non_split_corner_detected_on_structural_path():
    # [[K, K], [0, Q]] with K = Q(sqrt 2) = span{e1, s}, s^2 = 2 e1, and the
    # off-diagonal K spanned by a, b = s a: the corner at 1 is not local with
    # residue field Q, so the radical itself raises (it was once [a, b])
    e1, s, e2, x, y = range(5)
    mult = [[() for _ in range(5)] for _ in range(5)]
    mult[e1][e1], mult[e1][s], mult[s][e1], mult[s][s] = ((e1, 1),), ((s, 1),), ((s, 1),), ((e1, 2),)
    mult[e1][x], mult[e1][y], mult[s][x], mult[s][y] = ((x, 1),), ((y, 1),), ((y, 1),), ((x, 2),)
    mult[x][e2], mult[y][e2], mult[e2][e2] = ((x, 1),), ((y, 1),), ((e2, 1),)
    a = AlgebraData(["e1", "s", "e2", "a", "b"], mult, [1, 0, 1, 0, 0],
                    [("1", [1, 0, 0, 0, 0]), ("2", [0, 0, 1, 0, 0])])
    assert row_span(5, trace_form_radical(a)) == row_span(5, [a.dense(((x, 1),)), a.dense(((y, 1),))])
    with pytest.raises(NonSplitSimple, match=r"e\(1\) A e\(1\) is not local"):
        a.radical_sparse()
    with pytest.raises(NonSplitSimple):
        a.ensure_split_basic()


def test_two_point_algebra_with_one_idempotent_is_not_split():
    """Q x Q with the one idempotent 1: its radical is 0, but the trace-zero
    hyperplane is spanned by f - 1/2, whose square 1/4 has trace 1/2."""
    one, f = range(2)
    mult = [[((one, 1),), ((f, 1),)], [((f, 1),), ((f, 1),)]]
    a = AlgebraData(["1", "f"], mult, [1, 0], [("pt", [1, 0])])
    assert trace_form_radical(a) == []
    with pytest.raises(NonSplitSimple):
        a.ensure_split_basic()


def test_structural_radical_with_a_local_corner(local_corner_algebra):
    # the corner at 1 is span{e1, d} with radical spanned by d - e1 = a*b
    a = local_corner_algebra
    e1, d = 0, 4
    assert row_span(5, a.radical_basis()) == row_span(5, trace_form_radical(a))
    assert len(a.radical_basis()) == 3
    assert ((e1, -1), (d, 1)) in a.radical_sparse()
    assert a.radical_pieces()[1] == [(0, 0, ((e1, -1), (d, 1)))]
    a.ensure_split_basic()
    # the non-unit radical vector acts through its block
    reg = regular_module(a)
    assert top(reg)[0].vertex_dims() == [1, 1]
    assert socle(reg)[0].vertex_dims() == [2, 0]  # span{a*b, b}, both in A e1
