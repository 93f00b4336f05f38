import glob
import os
from fractions import Fraction

import pytest

import replalg.homology
import replalg.linalg
import replalg.modules
from replalg.cli import parse_quiver
from replalg.errors import InternalCheckFailed
from replalg.linalg import RatMatrix
from replalg.modules import (
    ModuleMap,
    ModuleRep,
    direct_sum,
    dual_module,
    hom_basis,
    hom_dim,
    identity_map,
    injective_envelope,
    injective_module,
    is_injective_module,
    is_projective_module,
    kernel,
    projective_cover,
    projective_module,
    radical_submodule,
    simple_module,
    zero_map,
    zero_module,
)
from replalg.quiver import build_hereditary, kronecker, linear_quiver, one_vertex
from replalg.replicated import auslander_generator, build_replicated, sigma_layers
from replalg.verify import lemma_2_4_inventory, verify_ext_stablehom, verify_lemma_2_4
from support import (
    block_diag,
    cokernel,
    dense_action,
    dense_matrix,
    ext_inventory,
    extcheck_stable_homs,
    image,
    is_injective_map,
    is_invertible,
    projective_injectives_by_modules,
    regular_module,
    shipped_quiver,
    socle,
    stable_hom_by_composites,
    top,
    twist,
    validate_map,
    validate_module,
    vstack,
)

F = Fraction


@pytest.fixture(scope="module")
def kr():
    return build_hereditary(kronecker())


def test_regular_module_dims(kr):
    assert regular_module(build_hereditary(one_vertex())).dim == 1
    reg = regular_module(kr)
    assert reg.dim == 4
    validate_module(reg)


def test_projectives_kronecker(kr):
    p1 = projective_module(kr, 0)
    p2 = projective_module(kr, 1)
    validate_module(p1)
    validate_module(p2)
    assert p1.vertex_dims() == [1, 0]
    assert p2.vertex_dims() == [2, 1]  # paths e2, a, b


def test_simples(kr):
    s1 = simple_module(kr, 0)
    s2 = simple_module(kr, 1)
    assert s1.vertex_dims() == [1, 0]
    assert s2.vertex_dims() == [0, 1]
    validate_module(s1)
    validate_module(s2)


def test_hom_simple_schur(kr):
    s1 = simple_module(kr, 0)
    s2 = simple_module(kr, 1)
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s2, s1) == 0
    assert hom_dim(s1, s2) == 0


def test_hom_regular_gives_dim(kr):
    reg = regular_module(kr)
    for x in [simple_module(kr, 0), projective_module(kr, 1), regular_module(kr)]:
        assert hom_dim(reg, x) == x.dim


def test_hom_maps_are_morphisms(kr):
    p2 = projective_module(kr, 1)
    s1 = simple_module(kr, 0)
    # maps out of e_v A are evaluation at the v-component of the target
    assert hom_dim(p2, s1) == 0
    i1 = injective_module(kr, 0)
    maps = hom_basis(p2, i1)
    for f in maps:
        validate_map(f)
    assert len(maps) == 2


def test_kernel_of_identity_and_cover(kr):
    s2 = simple_module(kr, 1)
    k, _ = kernel(identity_map(s2))
    assert k.dim == 0
    p, f = projective_cover(s2)
    assert p.vertex_dims() == [2, 1]
    k, incl = kernel(f)
    validate_module(k)
    validate_map(incl)
    # kernel of P2 -> S2 is S1 + S1
    assert k.vertex_dims() == [2, 0]
    assert len(hom_basis(k, simple_module(kr, 0))) == 2
    from replalg.homology import is_isomorphic

    s1 = simple_module(kr, 0)
    pair, _, _ = direct_sum([s1, s1])
    assert is_isomorphic(k, pair) is not None


def test_cokernel_of_zero_map(kr):
    s1 = simple_module(kr, 0)
    z = zero_module(kr)
    c, proj = cokernel(zero_map(z, s1))
    assert c.dim == 1 and proj.is_isomorphism()


def test_cokernel_of_an_envelope_makes_no_dense_product(monkeypatch):
    """The cokernel reads each block as the free rows of Y_b minus the
    reduced pivot entries times its pivot rows, so no RatMatrix product is
    formed; its projection is still a module map onto a module whose
    dimension is what the envelope leaves."""
    a = build_replicated(kronecker(), 1).algebra
    x = regular_module(a)
    i, env = injective_envelope(x)
    matmul = RatMatrix.__matmul__

    def refuse(*args):
        raise AssertionError("cokernel formed a dense product")

    monkeypatch.setattr(RatMatrix, "__matmul__", refuse)
    c, proj = cokernel(env)
    monkeypatch.setattr(RatMatrix, "__matmul__", matmul)
    assert c.dim == i.dim - x.dim and c.blocks
    validate_module(c)
    validate_map(proj)
    assert all(m.is_zero() for m in env.then(proj).blocks)


def test_direct_sum_dims_and_maps(kr):
    s1 = simple_module(kr, 0)
    p2 = projective_module(kr, 1)
    total, injs, projs = direct_sum([s1, p2])
    validate_module(total)
    assert total.dim == 4
    for f in injs + projs:
        validate_map(f)
    # X + 0 = X, and the empty sum is the zero module
    t2, _, _ = direct_sum([s1, zero_module(kr)])
    assert t2.dim == s1.dim
    empty, _, _ = direct_sum([], algebra=kr)
    assert empty.dim == 0


def test_top_and_radical(kr):
    p2 = projective_module(kr, 1)
    t, proj = top(p2)
    assert t.vertex_dims() == [0, 1]
    validate_map(proj)
    r, incl = radical_submodule(p2)
    assert r.vertex_dims() == [2, 0]
    validate_map(incl)
    # top of a simple is itself
    s1 = simple_module(kr, 0)
    ts, _ = top(s1)
    assert ts.dim == 1


def test_top_of_regular_is_sum_of_simples(kr):
    t, _ = top(regular_module(kr))
    assert t.vertex_dims() == [1, 1]


def test_socle(kr):
    p2 = projective_module(kr, 1)
    s, incl = socle(p2)
    assert s.vertex_dims() == [2, 0]
    validate_map(incl)


def test_injective_modules(kr):
    i1 = injective_module(kr, 0)
    i2 = injective_module(kr, 1)
    validate_module(i1)
    validate_module(i2)
    assert i1.vertex_dims() == [1, 2]
    assert i2.vertex_dims() == [0, 1]
    assert is_injective_module(i1)
    assert is_injective_module(i2)
    assert not is_injective_module(projective_module(kr, 1))


def test_dual_module_roundtrip(kr):
    p2 = projective_module(kr, 1)
    d = dual_module(p2)
    validate_module(d)
    dd = dual_module(d)
    assert dd.algebra is kr
    assert dd.dim == p2.dim
    assert all((i in dd.blocks) == (i in p2.blocks) for i in range(kr.dim))
    # dual of the projective e2*A is the injective at 2 over the opposite
    assert is_injective_module(d)


def test_envelope_of_simple(kr):
    s1 = simple_module(kr, 0)
    i, env = injective_envelope(s1)
    validate_map(env)
    assert i.vertex_dims() == [1, 2]
    c, _ = cokernel(env)
    assert c.vertex_dims() == [0, 2]


def test_envelope_of_injective_is_iso_and_additive(kr):
    i2 = injective_module(kr, 1)
    i, env = injective_envelope(i2)
    assert env.is_isomorphism()
    s2 = simple_module(kr, 1)
    t, _, _ = direct_sum([s2, s2])
    i, env = injective_envelope(t)
    assert i.vertex_dims() == [0, 2]  # I(S2)^2 = S2^2 here
    validate_map(env)


def test_cover_of_projective_is_iso(kr):
    p2 = projective_module(kr, 1)
    p, f = projective_cover(p2)
    assert f.is_isomorphism()
    assert is_projective_module(p2)
    assert not is_projective_module(simple_module(kr, 1))


def test_cover_verifies_surjective_and_superfluous(kr):
    # cover of S2 + S2 is P2 + P2
    s2 = simple_module(kr, 1)
    t, _, _ = direct_sum([s2, s2])
    p, f = projective_cover(t)
    assert p.vertex_dims() == [4, 2]
    validate_map(f)


def test_cover_with_an_extra_summand_fails_the_top_count(kr, monkeypatch):
    """A stack with one e_v A more than dim top x at v is still onto, but
    its kernel is not superfluous; the top count refuses it."""
    spans_of = replalg.modules._radical_vertex_spans

    def one_pivot_short(x):
        spans = spans_of(x)
        sp = next(sp for sp in spans if sp.pivots)
        sp.pivots = sp.pivots[1:]  # that coordinate of x * rad is lifted too
        return spans

    x = regular_module(kr)
    assert projective_cover(x)[0].vertex_dims() == x.vertex_dims()
    monkeypatch.setattr(replalg.modules, "_radical_vertex_spans", one_pivot_short)
    with pytest.raises(ValueError, match="does not match the top"):
        projective_cover(x)


def test_envelope_with_a_corrupted_dual_top_count_raises(kr, monkeypatch):
    """The envelope re-checks neither its injectivity nor its essential image:
    both follow from the top count of the dual cover.  With one pivot of
    D(x) * rad dropped, the stack holds one I_v more than soc x has at v,
    so the image misses the socle of that I_v; the top count refuses it."""
    spans_of = replalg.modules._radical_vertex_spans
    op = kr.opposite()

    def one_pivot_short_on_the_dual(x):
        spans = spans_of(x)
        if x.algebra is op:
            sp = next(sp for sp in spans if sp.pivots)
            sp.pivots = sp.pivots[1:]
        return spans

    x = regular_module(kr)
    i, env = injective_envelope(x)
    assert i.vertex_dims() == [3, 6] and is_injective_map(env)  # soc A = S1^3, so I = I1^3
    monkeypatch.setattr(replalg.modules, "_radical_vertex_spans", one_pivot_short_on_the_dual)
    assert projective_cover(x)[0].vertex_dims() == x.vertex_dims()  # covers over kr are untouched
    with pytest.raises(ValueError, match="does not match the top"):
        injective_envelope(x)


def test_corrupted_kernel_basis_fails_the_residual(kronecker_m1_bundle):
    """The action on a submodule is read off the unit rows of its basis; one
    corrupted entry elsewhere leaves the span not module-closed, and one at a
    unit row is no identity there."""
    mods = {s.label: s.module for s in kronecker_m1_bundle.summands}
    f = hom_basis(mods["U1.1"], mods["pi:2@1"])[0]
    bases, units = map(list, zip(*(m.null_space() for m in f.blocks)))
    k, incl = replalg.modules.submodule_from_vertex_bases(f.source, bases, units)
    assert k.vertex_dims() == kernel(f)[0].vertex_dims() and incl.then(f).is_zero()
    assert 1 not in units[1]
    row = bases[1].data[1]
    assert row[0] == 0
    corrupted = RatMatrix(bases[1].rows, bases[1].cols, [r[:] for r in bases[1].data])
    corrupted.data[1][0] = 1
    with pytest.raises(ValueError, match="not module-closed"):
        replalg.modules.submodule_from_vertex_bases(f.source, bases[:1] + [corrupted] + bases[2:], units)
    corrupted.data[1][0] = 0
    corrupted.data[units[1][0]][0] = 2
    with pytest.raises(ValueError, match="not the identity at its unit rows"):
        replalg.modules.submodule_from_vertex_bases(f.source, bases[:1] + [corrupted] + bases[2:], units)


def test_corrupted_null_space_fails_the_kernel_certificate(kronecker_m1_bundle, monkeypatch):
    """kernel reads the action off its null-space bases with no residual,
    certified once per vertex by f_v B_v = 0: one basis entry corrupted at
    a pivot row of f_v is refused."""
    mods = {s.label: s.module for s in kronecker_m1_bundle.summands}
    f = hom_basis(mods["U1.1"], mods["pi:2@1"])[0]
    k, incl = kernel(f)
    validate_module(k)
    assert incl.then(f).is_zero() and is_injective_map(incl)
    null_space = RatMatrix.null_space

    def corrupted(m):
        basis, free = null_space(m)
        pivots = [r for r in range(basis.rows) if r not in free]
        if basis.cols and pivots:
            data = [row[:] for row in basis.data]
            data[pivots[0]][0] += 1
            basis = RatMatrix._of(basis.rows, basis.cols, data)
        return basis, free

    monkeypatch.setattr(RatMatrix, "null_space", corrupted)
    with pytest.raises(InternalCheckFailed, match="not killed by its map"):
        kernel(f)


def _cosyzygy_cases(case):
    if case == "kronecker-m1-extcheck":
        return ext_inventory(kronecker(), 1)[0]
    quiver, t = {"kronecker-m2-sigma": (kronecker(), 5), "a3-m2-sigma": (linear_quiver(3), 4)}[case]
    _, layers = sigma_layers(quiver, 2, t - 1)
    return [x for layer in layers for x in layer.modules]


@pytest.mark.parametrize("case", ["kronecker-m1-extcheck", "kronecker-m2-sigma", "a3-m2-sigma"])
def test_cosyzygy_matches_the_cokernel_of_the_envelope(case):
    """The cosyzygy D Omega D against the oracle, the cokernel of the
    injective envelope: the same stack of I_v, the same dimension vector
    and an isomorphic module over the same algebra, on every module of the
    extcheck inventory of Kronecker m=1 and of the sigma ladders of
    Kronecker and A3 at m=2."""
    mods = _cosyzygy_cases(case)
    nonzero = 0
    for x in mods:
        stack, c = replalg.modules._cosyzygy_step(x)
        i, env = injective_envelope(x)
        want, _ = cokernel(env)
        assert stack == i.extras["injective_stack"] and c.algebra is x.algebra
        assert c.vertex_dims() == want.vertex_dims()
        if c.dim:
            nonzero += 1
            assert replalg.homology.is_isomorphic(c, want) is not None
    assert (len(mods), nonzero) == {"kronecker-m1-extcheck": (18, 12), "kronecker-m2-sigma": (10, 10),
                                    "a3-m2-sigma": (12, 12)}[case]


def test_simple_is_the_top_of_its_projective(local_corner_algebra):
    """S_v, one coordinate at v acted on by the corner residues, equals the
    oracle top(e_v A) block for block: every simple of A^(m) for every
    shipped quiver at m = 1 and 2, and of an algebra whose corner holds a
    non-idempotent basis vector of nonzero residue."""
    algebras = [local_corner_algebra]
    for path in sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                              "quivers", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            q = parse_quiver(fh.read())
        algebras += [build_replicated(q, m).algebra for m in (1, 2)]
    simples = [(simple_module(a, v), top(projective_module(a, v))[0])
               for a in algebras for v in range(len(a.idempotents))]
    assert all((s.dim, s.vertex_of, s.blocks) == (t.dim, t.vertex_of, t.blocks) for s, t in simples)
    assert len(simples) == 142
    # e1 + ab acts on S_1 by its residue 1, as e1 does
    assert {b: m.data for b, m in simples[0][0].blocks.items()} == {0: [[1]], 4: [[1]]}


def test_vertex_block_base_change_keeps_invariants(kr):
    # twist P2 by a base change inside each vertex block: still adapted, and
    # every invariant must survive it
    p2 = projective_module(kr, 1)
    at0, at1 = p2.coords_at(0), p2.coords_at(1)
    c = RatMatrix.identity(3)
    c.data[at0[0]][at0[1]] = F(1)
    c.data[at0[1]][at0[0]] = F(-2)
    c.data[at1[0]][at1[0]] = F(3)
    cinv = c.inverse()
    acts = {i: cinv @ (dense_action(p2, i) @ c) for i in range(kr.dim) if i in p2.blocks}
    twisted = ModuleRep.from_actions(kr, acts, p2.vertex_of)
    validate_module(twisted)
    assert twisted.vertex_dims() == p2.vertex_dims() == [2, 1]
    s1, s2 = simple_module(kr, 0), simple_module(kr, 1)
    for s in (s1, s2, p2):
        assert hom_dim(twisted, s) == hom_dim(p2, s)
        assert hom_dim(s, twisted) == hom_dim(s, p2)
    p, f = projective_cover(twisted)
    assert f.is_isomorphism() and p.vertex_dims() == [2, 1]
    # a module without vertex labels is not a module here
    with pytest.raises(TypeError):
        ModuleRep(kr, 3, acts, vertex_of=None)
    with pytest.raises(TypeError):
        ModuleRep(kr, 3, acts)


def test_product_algebra_in_peirce_basis():
    # Q x Q in its Peirce basis {p, q}; the basis {1, u} with u^2 = 1 has no
    # Peirce grading and is refused
    from replalg.algebra import AlgebraData
    from replalg.homology import global_dimension
    from support import decompose

    a = AlgebraData(["p", "q"], [[((0, 1),), ()], [(), ((1, 1),)]], [1, 1],
                    [("p", [1, 0]), ("q", [0, 1])])
    reg = regular_module(a)
    assert hom_dim(reg, reg) == 2
    p, f = projective_cover(reg)
    assert f.is_isomorphism()
    assert simple_module(a, 0).dim == 1
    assert global_dimension(a, 2).value == 0
    pieces = decompose(reg)
    assert sorted(c for _, c in pieces) in ([1, 1], [2])
    assert sum(m.dim * c for m, c in pieces) == 2
    mult = [
        [((0, 1),), ((1, 1),)],
        [((1, 1),), ((0, 1),)],
    ]
    idems = [("p", [F(1, 2), F(1, 2)]), ("q", [F(1, 2), F(-1, 2)])]
    with pytest.raises(ValueError, match="Peirce"):
        AlgebraData(["1", "u"], mult, [1, 0], idems)


def test_image_factorisation(kr):
    p2 = projective_module(kr, 1)
    s2 = simple_module(kr, 1)
    _, f = projective_cover(s2)
    img, incl, fac = image(f)
    assert img.dim == 1
    validate_map(incl)
    validate_map(fac)
    assert dense_matrix(fac.then(incl)) == dense_matrix(f)


# -- the sparse Hom solve ----------------------------------------------------


def _dense_hom_oracle(x, y):
    """Hom(x, y) from the same graded equations, solved by dense elimination."""
    rows, n = replalg.modules._hom_equations(x, y)
    # unknown k is entry k of the blocks, vertex by vertex and row by row
    nv = len(x.algebra.idempotents)
    where = [(i, j) for v in range(nv) for i in y.coords_at(v) for j in x.coords_at(v)]
    sol = RatMatrix(len(rows), n, [[row.get(k, 0) for k in range(n)] for row in rows]).kernel_basis()
    mats = []
    for col in sol.columns():
        m = RatMatrix.zeros(y.dim, x.dim)
        for k, val in enumerate(col):
            if val:
                i, j = where[k]
                m.data[i][j] = val
        mats.append(m)
    return mats


# The dense oracles below eliminate on the whole matrix.  Its reduced row
# echelon form is that of the vertex blocks together, so they list the same
# vectors; a stable sort by vertex puts them in the order of the blocks.


def _kernel_oracle(f):
    """Dense kernel basis of the whole matrix, ordered by vertex."""
    x = f.source
    cols = sorted(dense_matrix(f).kernel_basis().columns(), key=lambda col: x.vertex_of[next(i for i, c in enumerate(col) if c)])
    return RatMatrix.from_columns(cols, nrows=x.dim)


def _cokernel_oracle(f):
    """Projection onto the coordinates that are no pivot of the dense rref of
    f^T, ordered by vertex."""
    y = f.target
    red, _, pivots = dense_matrix(f).transpose().rref()
    rows = []
    for fc in sorted((c for c in range(y.dim) if c not in pivots), key=lambda c: y.vertex_of[c]):
        row = [F(0)] * y.dim
        row[fc] = F(1)
        for i, p in enumerate(pivots):
            if red.data[i][fc]:
                row[p] = -red.data[i][fc]
        rows.append(row)
    return RatMatrix(len(rows), y.dim, rows)


def _image_oracle(f):
    """The rows of the dense rref of f^T as columns, ordered by vertex, and
    the factorisation."""
    red, rank, pivots = dense_matrix(f).transpose().rref()
    order = sorted(range(rank), key=lambda i: f.target.vertex_of[pivots[i]])
    incl = RatMatrix.from_columns([red.data[i] for i in order], nrows=f.target.dim)
    return incl, incl.solve(dense_matrix(f))


def _cover_oracle(x):
    """The cover from dense actions: one copy of e_v A per local coordinate
    at v outside the radical's pivots, sending e_v to that coordinate."""
    spans = [replalg.linalg.EchelonSpace(len(x.coords_at(v))) for v in range(len(x.algebra.idempotents))]
    for m in _dense_radical_actions(x):
        for col in m.columns():
            for v, sp in enumerate(spans):
                local = [col[g] for g in x.coords_at(v)]
                if any(local):
                    sp.add(local)
    cols = []
    for v, sp in enumerate(spans):
        basis = projective_module(x.algebra, v).extras["algebra_basis"]
        for l in range(len(x.coords_at(v))):
            if l not in sp.pivots:
                cols.extend(dense_action(x, j).column_vec(x.coords_at(v)[l]) for j in basis)
    return RatMatrix.from_columns(cols, nrows=x.dim)


def _iso_oracle(x, y):
    """The dense search of is_isomorphic before its random stage, or None."""
    hxy, hyx = _dense_hom_oracle(x, y), _dense_hom_oracle(y, x)
    for f in hxy:
        if is_invertible(f):
            return f
    for f in hxy:
        for g in hyx:
            if is_invertible(g @ f):
                return f
            if is_invertible(f @ g):
                return g.inverse()
    return None


def _sum_oracle(xs):
    """Dense injections and projections of a direct sum, summand after summand."""
    n = sum(x.dim for x in xs)
    injs, off = [], 0
    for x in xs:
        inj = RatMatrix.zeros(n, x.dim)
        for r in range(x.dim):
            inj.data[off + r][r] = F(1)
        injs.append(inj)
        off += x.dim
    return injs, [m.transpose() for m in injs]


@pytest.fixture(scope="module")
def kronecker_m1_summands(kronecker_m1_bundle):
    return [s.module for s in kronecker_m1_bundle.summands]


@pytest.fixture(scope="module")
def twisted_kronecker_m1_summands(kronecker_m1_summands):
    """The summands after the base change of :func:`support.twist`."""
    return [twist(x) for x in kronecker_m1_summands]


@pytest.mark.parametrize("inventory", ["a2_ext_inventory", "kronecker_m1_summands", "twisted_kronecker_m1_summands"])
def test_is_isomorphic_decides_indecomposables_by_a_basis_map(inventory, request, monkeypatch):
    """The lemma of is_isomorphic: with End(x) local, x and y are
    isomorphic iff a basis map of Hom(x, y) is an isomorphism, so on
    indecomposables no pair reaches the matching of decompositions.  x
    against its twist gives an isomorphism, and every pair that the dense
    search of _iso_oracle rejects gives None."""
    from replalg.homology import is_isomorphic

    mods = request.getfixturevalue(inventory)
    if inventory == "a2_ext_inventory":
        mods = mods[0]

    def refuse(*args):
        raise AssertionError("decompositions were matched")

    monkeypatch.setattr(replalg.homology, "_match_decompositions", refuse)
    rejected = 0
    for x in mods:
        iso = is_isomorphic(x, twist(x))
        assert iso is not None and is_invertible(dense_matrix(iso))
        validate_map(iso)
        for y in mods:
            if _iso_oracle(x, y) is None:
                rejected += 1
                assert is_isomorphic(x, y) is None
    # every pair of distinct modules, but the A2 inventory's three isomorphic pairs
    assert rejected == len(mods) * (len(mods) - 1) - (6 if inventory == "a2_ext_inventory" else 0)


@pytest.mark.parametrize("inventory", ["a2_ext_inventory", "kronecker_m1_summands", "twisted_kronecker_m1_summands"])
def test_sparse_hom_basis_matches_dense_oracle(inventory, request):
    # every map a constructor returns passes validate(), and its dense view
    # equals an oracle computed on dense matrices
    from replalg.homology import decompose_with_maps, is_isomorphic, right_approximation

    mods = request.getfixturevalue(inventory)
    if inventory == "a2_ext_inventory":
        mods = mods[0]
    assert len(mods) >= 10
    dims = set()

    def check(f, want):
        validate_map(f)
        assert dense_matrix(f) == want

    for x in mods:
        for y in mods:
            basis = hom_basis(x, y)
            assert [dense_matrix(f) for f in basis] == _dense_hom_oracle(x, y)
            assert hom_dim(x, y) == len(basis)
            dims.add(len(basis))
            for f in basis:
                validate_map(f)
                check(kernel(f)[1], _kernel_oracle(f))
                check(cokernel(f)[1], _cokernel_oracle(f))
                _, incl, fac = image(f)
                for g, want in zip((incl, fac), _image_oracle(f)):
                    check(g, want)
            total, injs, prjs = direct_sum([x, y])
            for g, want in zip(injs + prjs, sum(_sum_oracle([x, y]), [])):
                check(g, want)
            assert all(dense_action(total, b) == block_diag([dense_action(x, b), dense_action(y, b)]) for b in range(x.algebra.dim))
            iso, want = is_isomorphic(x, y), _iso_oracle(x, y)
            if want is not None:
                check(iso, want)
            elif iso is not None:
                validate_map(iso)
                assert is_invertible(dense_matrix(iso))
        check(projective_cover(x)[1], _cover_oracle(x))
        check(injective_envelope(x)[1], _cover_oracle(dual_module(x)).transpose())
        pieces = decompose_with_maps(x)
        incs = [inc for _, inc, _ in pieces]
        # the projections are the rows of the inverse of the inclusions side by side
        inv = replalg.linalg.hstack([dense_matrix(inc) for inc in incs]).inverse()
        off = 0
        for piece, inc, prj in pieces:
            validate_map(inc)
            check(prj, RatMatrix(piece.dim, x.dim, inv.data[off:off + piece.dim]))
            off += piece.dim
    assert {0, 1} <= dims
    # an addset is pairwise non-isomorphic: the A2 inventory holds three isomorphic pairs
    addset = [x for i, x in enumerate(mods) if all(is_isomorphic(x, y) is None for y in mods[:i])]
    for x in mods[:4]:
        g = right_approximation(addset, x)
        validate_map(g)
        # each summand of the source maps to x by a Hom basis element
        types = g.source.extras["approximation_summands"]
        _, injs, _ = direct_sum([addset[t] for t in types])
        parts = [dense_matrix(g) @ dense_matrix(inj) for inj in injs]
        assert all(part in _dense_hom_oracle(addset[t], x) for part, t in zip(parts, types))
        assert dense_matrix(g) == replalg.linalg.hstack(parts)


def test_module_map_blocks_are_checked(kr):
    s1, s2 = simple_module(kr, 0), simple_module(kr, 1)
    assert identity_map(s1).blocks == [RatMatrix.identity(1), RatMatrix.zeros(0, 0)]
    with pytest.raises(ValueError, match="wrong shape"):
        ModuleMap(s1, s1, [RatMatrix.identity(1), RatMatrix.zeros(1, 0)])
    with pytest.raises(ValueError, match="wrong shape"):
        ModuleMap(s1, s1, [RatMatrix.identity(1)])
    with pytest.raises(ValueError, match="wrong shape"):
        ModuleMap(s1, s2, [RatMatrix.identity(1), RatMatrix.zeros(0, 0)])


def test_then_rejects_a_mismatched_middle_module():
    # over A2, S1 -> S1 followed by S2 -> S2 is no map S1 -> S2 (Hom is zero)
    a2 = build_hereditary(linear_quiver(2))
    s1, s2 = simple_module(a2, 0), simple_module(a2, 1)
    assert hom_dim(s1, s2) == 0
    with pytest.raises(ValueError, match="composition mismatch"):
        identity_map(s1).then(identity_map(s2))


def test_block_rank_and_composite_on_modules_with_empty_vertices():
    # the projectives P0 -> P1 -> ... -> P4 of A^(3) of the Kronecker quiver
    # live at 1 to 3 of its 8 vertices; the blocks at the others are skipped
    a = build_replicated(kronecker(), 3).algebra
    ps = [projective_module(a, v) for v in range(5)]
    assert all(p.vertex_dims().count(0) >= 5 for p in ps)
    ranks = set()
    for x, y, z in zip(ps, ps[1:], ps[2:]):
        fs, gs = hom_basis(x, y), hom_basis(y, z)
        fs += [fs[0] + fs[-1], zero_map(x, y)]
        gs += [zero_map(y, z)]
        for f in fs + gs + [identity_map(x)]:
            assert f.rank() == dense_matrix(f).rank()
            ranks.add(f.rank())
        for f in fs:
            for g in gs:
                h = f.then(g)
                assert [(m.rows, m.cols) for m in h.blocks] == list(zip(z.vertex_dims(), x.vertex_dims()))
                assert dense_matrix(h) == dense_matrix(g) @ dense_matrix(f)
    assert ranks >= {0, 1, 2}


def test_corrupted_hom_solve_is_caught(kr, monkeypatch):
    """A corrupted elimination is caught by the residual of the sparse
    kernel: in the Hom equations of hom_basis, and in the rows that hom_dim
    reads off the presentation of a source with relations (the regular
    module, whose cover is an isomorphism, has none, so hom_dim(reg, reg)
    solves nothing and the injective I_1 is the source there)."""
    x = y = regular_module(kr)
    rows, _ = replalg.modules._hom_equations(x, y)
    assert len(hom_basis(x, y)) == 4 and all(rows)
    i1 = injective_module(kr, 0)
    assert replalg.modules._presentation(i1)[1] and hom_dim(i1, i1) == 1
    solve = replalg.linalg._sparse_rref

    def dropped(rows):
        return solve(list(rows)[1:])

    def flipped(rows):
        piv = solve(rows)
        p, prow = next((p, r) for p, r in piv.items() if len(r) > 1)
        j = next(j for j in prow if j != p)
        prow[j] = -prow[j]
        return piv

    for corrupt in (dropped, flipped):
        monkeypatch.setattr(replalg.linalg, "_sparse_rref", corrupt)
        with pytest.raises(ValueError, match="does not solve"):
            hom_basis(x, y)
        with pytest.raises(ValueError, match="does not solve"):
            hom_dim(i1, i1)


# -- Hom out of a projective, read off its target ---------------------------


def _solved_basis(x, y):
    """The flat maps of the basis of Hom(x, y) that its equations give: the
    oracle of the read-off."""
    if not any(p and q for p, q in zip(x.vertex_dims(), y.vertex_dims())):
        return []
    rows, n = replalg.modules._hom_equations(x, y)
    out = []
    for vec in replalg.linalg.sparse_kernel(rows, n):
        flat = [0] * n
        for j, c in vec.items():
            flat[j] = c
        out.append(flat)
    return out


def test_hom_out_of_a_projective_is_read_off_as_solved(monkeypatch):
    """Every Hom out of a stack of projectives that extcheck, the stable Hom
    oracle on the extcheck pairs and the lemma24 inventory meet on
    Kronecker m=1, and the lemma24 inventory on Kronecker m=2, cover maps
    included, is read off its target with no system solved, and its basis
    equals the solved one entry for entry and in order.  The oracle's
    Hom(w, Z) out of each projective-injective w are the ones extcheck
    read off before its stable Hom read the cover of Z.  388 pairs are met:
    40 in extcheck, 70 in the oracle and 278 in lemma24.  The floor was
    > 400 while the stable Hom and ``projective_injectives`` took covers of
    the projective-injectives, and 410 were met: 48, 68 and 294."""
    met = {}
    read_off, equations = replalg.modules._read_off, replalg.modules._hom_equations

    def recorded(p, y, lifts):
        met[id(p), id(y)] = p, y
        return read_off(p, y, lifts)

    def solved(x, y):
        assert "projective_stack" not in x.extras, "a Hom out of a projective was solved"
        return equations(x, y)

    monkeypatch.setattr(replalg.modules, "_read_off", recorded)
    monkeypatch.setattr(replalg.modules, "_hom_equations", solved)
    cert, calls = extcheck_stable_homs(kronecker(), 1)
    assert cert.verdict
    pairs = cert.values["pairs_checked"]
    pis = projective_injectives_by_modules(calls[0][0].algebra)
    values = [stable_hom_by_composites(y, z, pis) for y, z, _ in calls]
    assert any(values[:pairs]) and not any(values[pairs:])
    for m in (1, 2):
        bundle = auslander_generator(kronecker(), m)
        assert all(verify_lemma_2_4(bundle, x, lab).verdict for lab, x in lemma_2_4_inventory(bundle))
    monkeypatch.undo()
    stacks = [len(p.extras["projective_stack"]) for p, _ in met.values()]
    assert len(met) >= 388 and 1 in stacks and max(stacks) > 1
    for p, y in met.values():
        oracle = _solved_basis(p, y)
        assert [f.flat() for f in hom_basis(p, y)] == oracle
        assert hom_dim(p, y) == len(oracle)


def test_read_off_matches_the_solved_basis_off_the_path_basis(kr, local_corner_algebra):
    # the local corner's basis holds e1 + ab, which is no path
    for a in (kr, local_corner_algebra):
        nv = len(a.idempotents)
        ys = [regular_module(a)] + [make(a, v) for make in (projective_module, injective_module) for v in range(nv)]
        for v in range(nv):
            for y in ys:
                p = projective_module(a, v)
                assert [f.flat() for f in hom_basis(p, y)] == _solved_basis(p, y)
                assert hom_dim(p, y) == len(_solved_basis(p, y))


def test_read_off_refuses_a_target_that_is_not_a_module():
    """One arrow block of A^(1)'s regular module corrupted through the
    trusting constructor: where the result is no longer a module, the maps
    out of the projective at the arrow's source are refused, by hom_basis
    and by hom_dim; where it still is one, they equal the solved basis."""
    a = build_replicated(kronecker(), 1).algebra
    reg = regular_module(a)
    refused = 0
    for c, m in sorted(reg.blocks.items()):
        u, w = a.grading[c]
        if u == w:
            continue
        data = [row[:] for row in m.data]
        data[0][0] += 1
        y = ModuleRep(a, reg.dim, {**reg.blocks, c: RatMatrix._of(m.rows, m.cols, data)}, reg.vertex_of)
        p = projective_module(a, u)
        try:
            validate_module(y)
        except ValueError:
            refused += 1
            with pytest.raises(InternalCheckFailed, match="not a module map"):
                hom_basis(p, y)
            with pytest.raises(InternalCheckFailed, match="not a module map"):
                hom_dim(p, y)
        else:
            assert [f.flat() for f in hom_basis(p, y)] == _solved_basis(p, y)
    assert refused == 6
    # an idempotent that does not act as the identity is refused too
    e = next(k for k, c in enumerate(a.idempotents[0][1]) if c)
    y = ModuleRep(a, reg.dim, {b: m for b, m in reg.blocks.items() if b != e}, reg.vertex_of)
    with pytest.raises(InternalCheckFailed, match="identity"):
        hom_dim(projective_module(a, 0), y)


# -- Hom dimensions from projective presentations ---------------------------


def _hom_dims_met(q, m, lemma24):
    """(x, y, hom_dim(x, y)) for every hom_dim call of extcheck on q at m,
    or of the lemma24 inventory run when ``lemma24``."""
    calls = []

    def recorded(x, y):
        value = hom_dim(x, y)
        calls.append((x, y, value))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replalg.homology, "hom_dim", recorded)
        if lemma24:
            bundle = auslander_generator(q, m)
            assert all(verify_lemma_2_4(bundle, x, lab).verdict for lab, x in lemma_2_4_inventory(bundle))
        else:
            assert verify_ext_stablehom(q, m).verdict
    return calls


def _check_presentation(x):
    """The relations of x's presentation, written back into a fresh cover
    P_0 -> x: each lies in the kernel, and together they generate it, so
    their span under A has dimension dim P_0 - dim x.  Returns their number."""
    stack, relations = replalg.modules._presentation(x)
    p, cover = projective_cover(x)
    assert p.extras["projective_stack"] == stack
    a = x.algebra
    at = [[] for _ in x.vertex_dims()]
    for i, v in enumerate(stack):
        for j in projective_module(a, v).extras["algebra_basis"]:
            at[a.grading[j][1]].append((i, j))
    spans = [[] for _ in x.vertex_dims()]
    for w, rel in relations:
        vec = [0] * len(at[w])
        for i, j, c in rel:
            vec[at[w].index((i, j))] += c
        col = RatMatrix(len(vec), 1, [[c] for c in vec])
        assert (cover.blocks[w] @ col).is_zero(), "a relation is not in the kernel"
        for b, (u, t) in enumerate(a.grading):
            if u == w and b in p.blocks:
                spans[t].append([row[0] for row in (p.blocks[b] @ col).data])
    ranks = sum(RatMatrix(len(rows), len(rows[0]), rows).rank() for rows in spans if rows)
    assert ranks == p.dim - x.dim, "the relations do not generate the syzygy"
    return len(relations)


@pytest.mark.parametrize("name,m,lemma24", [(q, m, False) for q in ("a3", "d4", "kronecker", "a3_tilde") for m in (1, 2)]
                         + [("kronecker", m, True) for m in (1, 2)])
def test_hom_dim_from_presentations_matches_the_equations(name, m, lemma24):
    """Every hom_dim that extcheck meets at m = 1, 2 on A3, D4, Kronecker and
    A3-tilde, and the lemma24 inventory run meets on Kronecker m = 1, 2,
    equals the nullity of the Hom equations F_v X_b = Y_b F_u, the oracle
    of the presentation; and the presentation of every source is checked
    against a fresh cover of it: its relations lie in the kernel and
    generate it."""
    q = shipped_quiver(name)
    calls = _hom_dims_met(q, m, lemma24)
    assert calls and any(v for _, _, v in calls)
    for x, y, value in calls:
        if any(p and q for p, q in zip(x.vertex_dims(), y.vertex_dims())):
            assert value == len(replalg.linalg.sparse_kernel(*replalg.modules._hom_equations(x, y)))
        else:
            assert value == 0
    sources = {id(x): x for x, y, _ in calls if "presentation" in x.extras}
    assert sum(_check_presentation(x) for x in sources.values()) > 0


# -- block storage against the dense view -----------------------------------


def test_from_actions_checks_vertex_labels(kr):
    p2 = projective_module(kr, 1)
    acts = {i: dense_action(p2, i) for i in p2.blocks}
    assert ModuleRep.from_actions(kr, acts, p2.vertex_of).blocks == p2.blocks
    # the same matrices with the labels swapped: a arrow's block would hold
    # entries outside it, and the idempotents would not act as the identity
    with pytest.raises(ValueError, match="Peirce block"):
        ModuleRep.from_actions(kr, acts, [1 - v for v in p2.vertex_of])
    e1 = kr.idempotents[0][1].index(1)
    with pytest.raises(ValueError, match="identity"):
        ModuleRep.from_actions(kr, {i: m for i, m in acts.items() if i != e1}, p2.vertex_of)


@pytest.fixture(scope="module")
def corner_radical_modules(local_corner_algebra):
    """Modules over algebras whose corners have a radical: the dual numbers
    Q[x]/x^2, where x is no product of other radical elements, and the
    two-cycle algebra of conftest, where the corner radical is a*b."""
    from replalg.algebra import AlgebraData

    dual_numbers = AlgebraData(["1", "x"], [[((0, 1),), ((1, 1),)], [((1, 1),), ()]], [1, 0], [("1", [1, 0])])
    a = local_corner_algebra
    mods = [regular_module(dual_numbers), regular_module(a)]
    return mods + [make(a, v) for make in (projective_module, injective_module) for v in range(2)]


def _dense_radical_actions(x):
    """The dense action of every radical basis vector of x's algebra."""
    acts = []
    for r in x.algebra.radical_sparse():
        m = RatMatrix.zeros(x.dim, x.dim)
        for b, c in r:
            m = m + dense_action(x, b).scaled(c)
        acts.append(m)
    return acts


def _vertex_inclusion(x, bases):
    """Dense inclusion of the per-vertex column bases, vertex by vertex."""
    cols = []
    for v in range(len(x.algebra.idempotents)):
        for c in bases[v].columns():
            col = [F(0)] * x.dim
            for g, val in zip(x.coords_at(v), c):
                col[g] = val
            cols.append(col)
    return RatMatrix.from_columns(cols, nrows=x.dim)


def _socle_oracle(x):
    stacked = vstack(_dense_radical_actions(x) or [RatMatrix.zeros(0, x.dim)])
    nv = len(x.algebra.idempotents)
    bases = {v: stacked.submatrix(range(stacked.rows), x.coords_at(v)).kernel_basis() for v in range(nv)}
    return [bases[v].cols for v in range(nv)], _vertex_inclusion(x, bases)


def _radical_oracle(x):
    nv = len(x.algebra.idempotents)
    spans = [replalg.linalg.EchelonSpace(len(x.coords_at(v))) for v in range(nv)]
    for m in _dense_radical_actions(x):
        for col in m.columns():
            for v in range(nv):
                local = [col[g] for g in x.coords_at(v)]
                if any(local):
                    spans[v].add(local)
    bases = {v: sp.basis_matrix() for v, sp in enumerate(spans)}
    return [sp.rank for sp in spans], _vertex_inclusion(x, bases)


@pytest.mark.parametrize("inventory", ["a2_ext_inventory", "kronecker_m1_summands", "corner_radical_modules"])
def test_block_socle_radical_and_dual_match_dense_oracle(inventory, request):
    mods = request.getfixturevalue(inventory)
    if inventory == "a2_ext_inventory":
        mods = mods[0]
    for x in mods:
        validate_module(x)
        soc, sincl = socle(x)
        assert (soc.vertex_dims(), dense_matrix(sincl)) == _socle_oracle(x)
        rad, rincl = radical_submodule(x)
        assert (rad.vertex_dims(), dense_matrix(rincl)) == _radical_oracle(x)
        d = dual_module(x)
        validate_module(d)
        dd = dual_module(d)
        assert dd.algebra is x.algebra and dd.vertex_of == x.vertex_of and dd.blocks == x.blocks
    if inventory == "corner_radical_modules":
        # soc Q[x]/x^2 = xQ, and soc of the two-cycle algebra is span{a*b, b}
        assert [socle(x)[0].vertex_dims() for x in mods[:2]] == [[1], [2, 0]]
