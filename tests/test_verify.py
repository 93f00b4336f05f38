import json
from itertools import product

import pytest

import support
from replalg import cli, homology, linalg, modules, replicated, verify
from replalg.algebra import AlgebraData
from replalg.errors import InternalCheckFailed
from replalg.homology import decompose_with_maps, ext1_dim, is_isomorphic, right_approximation
from replalg.linalg import RatMatrix
from replalg.modules import ModuleMap, kernel
from replalg.quiver import kronecker, linear_quiver, one_vertex
from replalg.replicated import auslander_generator, minimal_cogenerator
from replalg.verify import (
    lemma_2_4_inventory,
    verify_example_3_4,
    verify_ext_stablehom,
    verify_gl_dim_bounds,
    verify_lemma_2_4,
    verify_theorem_3_3,
    verify_theorem_3_5,
)
from support import extcheck_stable_homs, happel_ext, hom_exactness, kronecker3, shipped_quiver, validate_map


@pytest.fixture(scope="module")
def kr_bundle():
    return auslander_generator(kronecker(), 1)


@pytest.fixture(scope="module")
def kr_bundle0():
    return minimal_cogenerator(kronecker(), 1)


def test_theorem_3_3_kronecker_m1(kr_bundle):
    cert, _ = verify_theorem_3_3(kronecker(), 1, bundle=kr_bundle)
    assert cert.verdict
    assert cert.values["gl_dim_end_M"] == 3
    assert cert.values["num_summands"] == 10


def test_theorem_3_3_small_quivers():
    for q in (linear_quiver(2), linear_quiver(3)):
        cert, _ = verify_theorem_3_3(q, 1)
        assert cert.verdict
        assert cert.values["gl_dim_end_M"] <= 3


def test_theorem_3_5_kronecker():
    cert = verify_theorem_3_5(kronecker(), 1)
    assert cert.verdict
    assert cert.values["dominant_dim"] == 2
    cert2 = verify_theorem_3_5(kronecker(), 2)
    assert cert2.verdict
    assert cert2.values["dominant_dim"] == 4


def test_theorem_3_5_one_vertex_m3():
    cert = verify_theorem_3_5(one_vertex(), 3)
    # Nakayama oracle by hand: dominant dimension is exactly m
    assert cert.values["dominant_dim"] == 3
    assert cert.verdict


def test_gl_dim_bounds():
    cert = verify_gl_dim_bounds(kronecker(), 1)
    assert cert.verdict
    assert cert.values == {
        "gl_dim_base": 1, "gl_dim_replicated": 3, "lower": 2, "upper": 3,
    }
    for m in (1, 2, 3):
        c = verify_gl_dim_bounds(one_vertex(), m)
        assert c.verdict and c.values["gl_dim_replicated"] == m
    c = verify_gl_dim_bounds(linear_quiver(2), 2)
    assert c.verdict and c.values["lower"] == 3 and c.values["upper"] == 5


def test_lemma_2_4_trivial_summand(kr_bundle):
    s = kr_bundle.summands[0]
    cert = verify_lemma_2_4(kr_bundle, s.module, s.label)
    assert cert.verdict
    assert cert.values["kernel_in_add_M"]


def test_lemma_2_4_inventory_passes_with_M(kr_bundle):
    certs = [
        verify_lemma_2_4(kr_bundle, x, lab)
        for lab, x in lemma_2_4_inventory(kr_bundle)
    ]
    assert certs and all(c.verdict for c in certs)


def test_lemma_2_4_inventory_hom_systems_are_pinned(monkeypatch):
    """A work gate that does not depend on the machine: the Hom systems
    solved during the Kronecker m=1 inventory run, and their equations.
    Each Hom(L_i, L_j) between summands of M is solved once per bundle,
    not once per target (905 systems and 5,736 rows when it was not).  A
    Hom space between modules with no vertex in common is zero without a
    system (625 systems, 202 of them with no unknown, when it was not).
    The kernels are read in End(M) coordinates: with M they all lie in
    add M, so no kernel is decomposed or matched against the summands
    (423 systems and 4,147 rows when they were), and the radical table
    rad(L_i, L_j) is formed once per bundle, not once per target.  The
    Hom-exactness re-check solves no system: it composes the summand table
    with g's own blocks (355 systems and 2,991 rows when it solved
    Hom(L, M1), Hom(L, ker g) and Hom(L, x) for every summand L).  A Hom
    out of a projective summand is read off its target, not solved (175
    systems and 1,182 rows when it was).  A decomposition leaf solves
    End once, for its splitting candidates and its locality certificate
    alike (95 systems and 793 rows when the certificate solved it again).
    The inventory reads the sigma ladder that built M from the bundle (91
    systems and 741 rows when it built the ladder again).  Ext^1(L, K)
    comes from the long exact Hom sequence of one syzygy step of L, which
    solves Hom(syzygy, K) and Hom(L, K) where the resolution prefix read
    Hom(P_1, K) off K and ranked composites: 87 systems and 689 rows then.
    Each Hom dimension is read off the projective presentation of its
    source, so a projective source solves no system: 99 systems and 759
    rows when hom_dim solved the Hom equations of every other source."""
    bundle = auslander_generator(kronecker(), 1)
    solved, radicals = [], []
    solve, radical = modules.sparse_kernel, homology._radical

    def counted(rows, n):
        solved.append(len(rows))
        return solve(rows, n)

    def counted_radical(hom):
        radicals.append(len(hom))
        return radical(hom)

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was decomposed")

    monkeypatch.setattr(modules, "sparse_kernel", counted)
    monkeypatch.setattr(homology, "_radical", counted_radical)
    monkeypatch.setattr(replicated, "_radical", counted_radical)
    monkeypatch.setattr(verify, "decompose_with_maps", refuse)
    monkeypatch.setattr(verify, "is_isomorphic", refuse)
    certs = [verify_lemma_2_4(bundle, x, lab) for lab, x in lemma_2_4_inventory(bundle)]
    assert len(certs) == 13 and all(c.verdict for c in certs)
    assert (len(solved), sum(solved), radicals) == (91, 703, [100])


def test_right_approximation_work_is_pinned(monkeypatch):
    """A work gate for the minimal right add(M)-approximations of the
    Kronecker m=1 inventory: the sparse vectors ranked, the Hom systems
    Hom(L_t, x) solved (the summand Hom table is solved once, before) and
    the add(M)-resolution steps, one per target.  No dense span of
    flattened maps is made.  The greedy drop of copies from the universal
    map ranked 1,262 dense vectors, and the flat-map approximation 257.
    Hom(L_t, x) out of a projective summand is read off x, not solved (78
    systems when it was)."""
    bundle = auslander_generator(kronecker(), 1)
    mods = [s.module for s in bundle.summands]
    targets = [x for _, x in lemma_2_4_inventory(bundle)]
    for i in range(len(mods)):
        for j in range(len(mods)):
            bundle.summand_homs(i, j)
    ranked, solved, steps = [], [], []
    add, solve, step = linalg.SparseSpan.add, modules.sparse_kernel, homology._resolution_step

    def counted_add(self, v):
        ranked.append(v)
        return add(self, v)

    def counted_solve(rows, n):
        solved.append(len(rows))
        return solve(rows, n)

    def counted_step(*args):
        steps.append(len(args[3]))
        return step(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense span was made")

    monkeypatch.setattr(linalg.SparseSpan, "add", counted_add)
    monkeypatch.setattr(modules, "sparse_kernel", counted_solve)
    monkeypatch.setattr(homology, "_resolution_step", counted_step)
    monkeypatch.setattr(homology, "_map_space", refuse)
    monkeypatch.setattr(linalg.EchelonSpace, "add", refuse)
    for x in targets:
        right_approximation(mods, x, bundle.summand_homs)
    assert (len(targets), len(ranked), len(solved), len(steps)) == (13, 95, 42, 13)


def test_ext_stablehom_hom_systems_are_pinned(monkeypatch):
    """A work gate for the Ext^1 against stable Hom check on Kronecker m=1:
    the Hom systems solved and their rows, the projective covers and
    kernels built, the Gauss-Jordan eliminations and the composed maps.
    ext1_dim takes one cover and one kernel per module and reads the long
    exact Hom sequence: it solves Hom(syzygy, X) and Hom(Y, X), and reads
    dim Hom(P, X) off X.  The stable Hom reads the sequence of the cover of
    Z: it solves Hom(Y, Z) and Hom(Y, Omega Z), reads dim Hom(Y, e_v A)
    off Y by duality, and composes no map.  A cover onto a module of its
    own dimension is an isomorphism and takes no kernel.  These read 486
    systems and 2,881 rows, 51 covers, 39 kernels, 236 eliminations and 365
    composed maps when the stable Hom ranked the composites through each
    projective-injective w from Hom(Y, w) and Hom(w, Z) (917 systems and
    7,327 rows before those Hom out of a projective were read off); 310
    systems and 1,931 rows, 65 covers, 28 kernels, 616 eliminations and 593
    composed maps when ext1_dim ranked composites with a three-cover
    resolution prefix; and 19 kernels and 524 eliminations when the
    cosyzygy was the cokernel of an envelope.  49 covers, 28 kernels and
    176 eliminations when the hereditary check of kQ in build_hereditary
    resolved rad kQ as a module, with covers and kernels; 48 covers, 27
    kernels and 174 eliminations when the projective-injectives were found
    by a cosyzygy step of each e_v A and the stable Hom took a cover and a
    cosyzygy step of each, not the algebra's ``nakayama()``.  Each Hom
    dimension is now read off the projective presentation of its source,
    Sum dim Y_v unknowns over the top of X, one row block per generator of
    Omega X; the presentations of the syzygies take a cover and a kernel of
    their own.  324 systems and 2,064 rows, 40 covers, 25 kernels and 132
    eliminations when hom_dim solved the Hom equations F_v X_b = Y_b F_u."""
    solved, solve = [], modules.sparse_kernel
    built = {"cover": 0, "kernel": 0, "_gauss_jordan": 0, "then": 0}

    def counted(rows, n):
        solved.append(len(rows))
        return solve(rows, n)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(modules, "sparse_kernel", counted)
    for name, fn in (("cover", modules.projective_cover), ("kernel", modules.kernel)):
        for mod in (modules, homology, verify):
            if hasattr(mod, fn.__name__):
                monkeypatch.setattr(mod, fn.__name__, counting(name, fn))
    monkeypatch.setattr(RatMatrix, "_gauss_jordan", counting("_gauss_jordan", RatMatrix._gauss_jordan))
    monkeypatch.setattr(ModuleMap, "then", counting("then", ModuleMap.then))
    cert = verify_ext_stablehom(kronecker(), 1)
    assert cert.verdict and cert.values["pairs_checked"] > 0
    assert (len(solved), sum(solved)) == (80, 238)
    assert built == {"cover": 54, "kernel": 31, "_gauss_jordan": 162, "then": 0}


def test_ext_stablehom_envelopes_are_pinned(monkeypatch):
    """A work gate for the cosyzygy steps of the Ext^1 against stable Hom
    check on Kronecker m=1: one step per module, kept as its stack and
    cosyzygy (44 envelopes of 20 modules when the chains, the envelope test
    and the stable Hom each took their own; 20 while the projective-
    injectives were found, and listed to the stable Hom, by a cosyzygy step
    of each e_v A, not read off the algebra's ``nakayama()``).  A step is D of the syzygy of
    the dual: one cover and one kernel, and no envelope.  The kernel takes
    its certificate from the cover, so outside the cover a step eliminates
    only the null space of each cover block with a row and a column: no
    residual, no transposed block of a cokernel, no socle of its target (a
    null space) and no span of its image (an echelon span), as when the
    envelope's cokernel was taken and the envelope checked both.  The dual
    of an injective module is projective, and its cover, an isomorphism,
    takes no kernel: 42 null-space eliminations when it took one, and 24
    with the two steps of the projective-injectives above.  The
    presentations of hom_dim take 14 steps more, on syzygies, and mostly
    read the step's memo: a step is counted when it is taken (18 steps and
    21 eliminations before hom_dim read Hom off presentations; 51 calls of
    the step when memo reads were counted too)."""
    depth = {"step": 0, "envelope": 0, "cover": 0, "null_space": 0}
    asked, steps, envelopes, own, null_space = [], [], [], [], []

    def within(name, fn, seen=None, memo=None):
        def wrapped(*args):
            if seen is not None and memo not in args[0].extras:
                seen.append(args[0])
            depth[name] += 1
            try:
                return fn(*args)
            finally:
                depth[name] -= 1
        return wrapped

    def noted(name, fn):
        def wrapped(*args, **kwargs):
            if depth["step"] and not depth["cover"]:
                (null_space if depth["null_space"] else own).append(name)
            return fn(*args, **kwargs)
        return wrapped

    step = modules._cosyzygy_step

    def asking(x):
        asked.append(x)
        return step(x)

    for mod in (modules, homology, replicated):
        monkeypatch.setattr(mod, "_cosyzygy_step", asking)
    # modules._syzygy_step is called by the cosyzygy and by the presentations of hom_dim, which
    # mostly read its memo: a step is counted when it is taken; ext1_dim calls homology's
    monkeypatch.setattr(modules, "_syzygy_step", within("step", modules._syzygy_step, steps, "syzygy_step"))
    monkeypatch.setattr(modules, "injective_envelope", within("envelope", modules.injective_envelope, envelopes))
    monkeypatch.setattr(modules, "projective_cover", within("cover", modules.projective_cover))
    monkeypatch.setattr(RatMatrix, "null_space", within("null_space", RatMatrix.null_space))
    monkeypatch.setattr(linalg.EchelonSpace, "add", noted("add", linalg.EchelonSpace.add))
    monkeypatch.setattr(RatMatrix, "_gauss_jordan", noted("_gauss_jordan", RatMatrix._gauss_jordan))
    cert = verify_ext_stablehom(kronecker(), 1)
    assert cert.verdict and cert.values["pairs_checked"] > 0
    assert (len(steps), len({id(x) for x in asked}), own) == (32, 18, [])
    assert null_space == ["_gauss_jordan"] * 31 and envelopes == []


def _refuse_end_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("end_algebra was called")

    # End(M) assembled as an algebra is the tests' oracle; the engine's
    # modules are refused too, should one of them define it
    monkeypatch.setattr(support, "end_algebra", refuse)
    for mod in (homology, verify):
        monkeypatch.setattr(mod, "end_algebra", refuse, raising=False)


def test_end_path_work_is_pinned(monkeypatch):
    """A work gate for gl.dim End(M) on Kronecker m=1, given M: the Hom
    systems solved (only the Hom(L_i, L_j) between summands and the pairwise
    isomorphism tests), the add(M)-resolution steps and the structure
    constants of End(M) formed, and the composites of summand maps with a
    vector of Hom(L_u, K).  These read 313 and 393 when d_t was formed also
    for Hom(L_t, K) = 0, and its rows formed the composites of the top a
    second time.  No module but the summands is built: End(M), kernels and
    direct sums are refused.  The resolution in modules solved 142 systems
    of 1,569 rows with 20 kernel steps.  A Hom out of a projective summand
    is read off its target, not solved (72 systems of 482 rows when it
    was)."""
    bundle = auslander_generator(kronecker(), 1)
    solved, steps, formed, composed = [], [], [], []
    solve, step, coordinates = modules.sparse_kernel, homology._resolution_step, homology._coordinates
    precompose = homology._precompose

    def counted(rows, n):
        solved.append(len(rows))
        return solve(rows, n)

    def counted_step(*args):
        steps.append(len(args[3]))
        return step(*args)

    def counted_coordinates(vec, free):
        formed.append(len(free))
        return coordinates(vec, free)

    def counted_precompose(*args):
        composed.append(args)
        return precompose(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("a module was built")

    _refuse_end_algebra(monkeypatch)
    for name in ("kernel", "direct_sum", "_from_sum"):
        monkeypatch.setattr(homology, name, refuse)
    monkeypatch.setattr(modules, "sparse_kernel", counted)
    monkeypatch.setattr(homology, "_resolution_step", counted_step)
    monkeypatch.setattr(homology, "_coordinates", counted_coordinates)
    monkeypatch.setattr(homology, "_precompose", counted_precompose)
    cert, _ = verify_theorem_3_3(kronecker(), 1, bundle=bundle)
    assert cert.verdict and cert.values["dim_end"] == 89
    assert (len(solved), sum(solved), len(steps), len(formed), len(composed)) == (45, 369, 20, 269, 300)


def test_isomorphism_work_is_pinned(monkeypatch):
    """A work gate for the isomorphism tests behind verify_theorem_3_3 on
    Kronecker m=1, the generator build included: the is_isomorphic calls,
    recursive ones too, and the Hom systems solved with their rows.  A pair
    is decided by a basis map of Hom(x, y) that is an isomorphism or by a
    local End(x), and M is certified basic by the Hom table of
    end_global_dimension.  These read 124 calls and 55 systems of 447 rows
    when end_global_dimension tested every pair of summands again and an
    undecided pair also solved Hom(y, x) for a scan of composites."""
    calls, solved = [], []
    iso, solve = homology.is_isomorphic, modules.sparse_kernel

    def counted_iso(*args, **kwargs):
        calls.append(args)
        return iso(*args, **kwargs)

    def counted_solve(rows, n):
        solved.append(len(rows))
        return solve(rows, n)

    for mod in (homology, replicated, verify):
        monkeypatch.setattr(mod, "is_isomorphic", counted_iso)
    monkeypatch.setattr(modules, "sparse_kernel", counted_solve)
    cert, _ = verify_theorem_3_3(kronecker(), 1)
    assert cert.verdict
    assert (len(calls), len(solved), sum(solved)) == (79, 53, 443)


@pytest.mark.parametrize("make, want", [
    (auslander_generator, []),
    (minimal_cogenerator, ["sigma2.0", "sigma2.1", "simple:1@1", "rad_proj:2@1"]),
], ids=["auslander", "minimal"])
def test_lemma_2_4_builds_a_kernel_only_outside_add_m(monkeypatch, make, want):
    """verify_lemma_2_4 reads dim ker g off the nullities of g's blocks, and
    builds the module kernel(g) exactly for the targets whose kernel lies
    outside add M, to decompose it: none with M on the Kronecker m=1
    inventory, and the four failing targets with M_0."""
    bundle = make(kronecker(), 1)
    built, outside, failing = [], [], []
    for lab, x in lemma_2_4_inventory(bundle):
        monkeypatch.setattr(verify, "kernel", lambda f, lab=lab: built.append(lab) or kernel(f))
        cert = verify_lemma_2_4(bundle, x, lab)
        if not cert.values["kernel_in_add_M"]:
            outside.append(lab)
        if not cert.verdict:
            failing.append(lab)
    assert built == outside == failing == want


@pytest.mark.parametrize("check, quiver, m, counts", [
    (verify_gl_dim_bounds, linear_quiver(5), 2, (0, 0)),
    (verify_theorem_3_5, linear_quiver(4), 3, (0, 0)),
], ids=["gl-dim-bounds-a5-m2", "theorem-3-5-a4-m3"])
def test_syzygy_eliminations_are_pinned(monkeypatch, check, quiver, m, counts):
    """A work gate for the minimal resolutions behind gl.dim and dom.dim
    A^(m): the dense eliminations and solves.  Both are resolved in End(A)
    and End(A^op) coordinates with sparse kernels, and whether I_u is
    projective is read off the Nakayama permutation of the table, so
    neither makes a dense elimination.  The dom.dim check read (124, 0)
    while that fact was the cover of each I_u.  These read (80, 0)
    and (298, 0) when gl.dim walked rad A_A and dom.dim the cosyzygies of
    A_A as modules, a cover certified by its top and an envelope
    projective iff its I_v are; (2,646, 496) and (3,580, 408) when the
    cover re-solved ker f at every vertex and each submodule block was
    solved, (1,295, 0) and (2,057, 0) when each one-dimensional corner of an
    algebra ran the trace form, and (1,255, 0) and (1,985, 0) when gl.dim kQ
    was resolved again after the build had certified it and each envelope
    re-checked its rank and the socle of its target, and (1,195, 0) and
    (1,869, 0) when gl.dim resolved each simple S_v, built as the top of
    e_v A, not rad A_A in one walk, and (120, 0) and (550, 0) when null
    spaces and isomorphism tests reduced blocks with no row or no column."""
    counted = {"_gauss_jordan": 0, "solve": 0}
    for name in counted:
        def wrapped(*args, _fn=getattr(RatMatrix, name), _name=name, **kwargs):
            counted[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(RatMatrix, name, wrapped)
    cert = check(quiver, m)
    assert cert.verdict
    assert (counted["_gauss_jordan"], counted["solve"]) == counts


def test_projective_injectives_are_read_off_the_algebra(monkeypatch):
    """extcheck and the dom.dim check find the projective-injectives in the
    algebra's ``nakayama()``, asking no module: they pass with
    injective_module, is_projective_module and is_injective_module refused
    in every engine module that imports them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a module was asked whether it is projective or injective")

    for name in ("injective_module", "is_projective_module", "is_injective_module"):
        for mod in (modules, homology, replicated, verify):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    assert verify_ext_stablehom(kronecker(), 1).verdict
    assert verify_theorem_3_5(linear_quiver(4), 3).verdict


def test_theorem_3_3_reduces_no_empty_block(monkeypatch):
    """No Gauss-Jordan elimination on a matrix with no row or no column in
    the repdim certificate of A3 m=2, generator build included: 367 of 666
    rref calls were such blocks when cosyzygies and simples were cokernels,
    which reduced every block transposed (195), and the isomorphism test
    ranked 0 x 0 blocks (172)."""
    shapes = []
    gauss_jordan = RatMatrix._gauss_jordan

    def noted(self, *args, **kwargs):
        shapes.append((self.rows, self.cols))
        return gauss_jordan(self, *args, **kwargs)

    monkeypatch.setattr(RatMatrix, "_gauss_jordan", noted)
    cert, _ = verify_theorem_3_3(linear_quiver(3), 2)
    assert cert.verdict and shapes
    assert [s for s in shapes if not all(s)] == []


def test_build_work_is_pinned(monkeypatch):
    """A work gate for building A^(m): the products formed to build A5 m=2
    with its opposite and split-basic certificate.  The table is read off
    the 35 nonzero products of kQ, each writing one cell per copy and two
    per dual slot (245 cells), the grading verifies one candidate per side,
    the opposite is the transposed table with the swapped grading, and
    associativity is tested on a certified generating set.  These read
    (8,500, 5,625) when every key pair was multiplied and every composable
    triple tested."""
    counted = {"mult_sparse": 0, "kq_products": 0}
    mult_sparse, build_hereditary = AlgebraData.mult_sparse, replicated.build_hereditary

    class Read(tuple):
        def __iter__(self):
            counted["kq_products"] += len(self)
            return super().__iter__()

    def hereditary(q):
        kq = build_hereditary(q)
        kq.mult = [[Read(cell) for cell in row] for row in kq.mult]
        return kq

    def wrapped(*args):
        counted["mult_sparse"] += 1
        return mult_sparse(*args)

    monkeypatch.setattr(AlgebraData, "mult_sparse", wrapped)
    monkeypatch.setattr(replicated, "build_hereditary", hereditary)
    a = replicated.build_replicated(linear_quiver(5), 2).algebra
    a.opposite()
    a.ensure_split_basic()
    cells = sum(1 for row in a.mult for cell in row if cell)
    assert (counted["mult_sparse"], counted["kq_products"], cells) == (1238, 35, 245)


def test_example_3_4_does_not_assemble_end(monkeypatch):
    _refuse_end_algebra(monkeypatch)
    cert, _, _ = verify_example_3_4()
    assert cert.verdict


def test_lemma_2_4_fails_somewhere_with_M0(kr_bundle0):
    certs = [
        verify_lemma_2_4(kr_bundle0, x, lab)
        for lab, x in lemma_2_4_inventory(kr_bundle0)
    ]
    bad = [c for c in certs if not c.verdict]
    assert bad, "the small cogenerator M0 must fail a length-2 witness"
    assert any(not c.values["kernel_in_add_M"] for c in bad)


@pytest.mark.parametrize("make", [auslander_generator, minimal_cogenerator])
@pytest.mark.parametrize("quiver, m", [(kronecker, 1), (kronecker, 2), (lambda: linear_quiver(3), 1),
                                       (lambda: linear_quiver(3), 2), (kronecker3, 1)],
                         ids=["kronecker-1", "kronecker-2", "a3-1", "a3-2", "kronecker3-1"])
def test_lemma_2_4_kernels_match_decomposition(make, quiver, m):
    """A differential oracle for the kernels read in End(M) coordinates: on
    kernel(g) as a module, decompose_with_maps and is_isomorphic give the
    same summands, and ext1_dim(L, K) the same Ext^1 as the sum over the
    bundle's summand table."""
    bundle = make(quiver(), m)
    mods = [s.module for s in bundle.summands]
    index = {s.label: i for i, s in enumerate(bundle.summands)}
    seen = set()
    for lab, x in lemma_2_4_inventory(bundle):
        cert = verify_lemma_2_4(bundle, x, lab)
        kmod, _ = kernel(right_approximation(mods, x, bundle.summand_homs))
        pieces = sorted(
            next((s.label for s in bundle.summands if is_isomorphic(piece, s.module) is not None), "<not in add M>")
            for piece, _, _ in decompose_with_maps(kmod)
        )
        in_add = "<not in add M>" not in pieces
        assert (cert.values["kernel_in_add_M"], cert.witnesses["kernel_summands"]) == (in_add, pieces), lab
        assert cert.witnesses["kernel_dims"] == kmod.vertex_dims()
        if in_add:
            for i, s in enumerate(bundle.summands):
                assert sum(bundle.summand_ext1(i, index[u]) for u in pieces) == ext1_dim(s.module, kmod), (lab, s.label)
        seen.add(in_add)
    assert True in seen


def test_lemma_2_4_refuses_a_kernel_step_that_drops_a_generator(kr_bundle, monkeypatch, tmp_path, capsys):
    """The kernel step certified by dimension vectors: a step that drops a
    generator leaves a kernel that looks in add M but is one summand short,
    and no certificate is issued, neither by the library nor by the CLI."""
    step = verify._resolution_step

    def dropped(*args):
        gens, ker = step(*args)
        return gens[:-1], ker

    monkeypatch.setattr(verify, "_resolution_step", dropped)
    with pytest.raises(InternalCheckFailed, match="dimension vector"):
        for lab, x in lemma_2_4_inventory(kr_bundle):
            verify_lemma_2_4(kr_bundle, x, lab)
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps(cli.serialize_quiver(kronecker())))
    assert cli.main(["lemma24", "--quiver", str(path), "--m", "1", "--report", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "dimension vector" in captured.err


def _with_approximation_blocks(monkeypatch, edit):
    """verify_lemma_2_4 with each approximation g replaced by the map with
    the blocks edit(g, gens, mods)."""
    approximation = verify._approximation

    def edited(mods, *args):
        g, gens, *rest = approximation(mods, *args)
        return (ModuleMap(g.source, g.target, edit(g, gens, mods)), gens, *rest)

    monkeypatch.setattr(verify, "_approximation", edited)


def test_lemma_2_4_refuses_an_approximation_that_is_not_a_module_map(kr_bundle, monkeypatch, tmp_path, capsys):
    """g certified a module map by the block residual: with 1 added to the
    first entry of g after which g no longer intertwines the action, by the
    dense check, no certificate is issued, neither by the library nor by
    the CLI.  A g with no such entry is left as it is."""
    def corrupted(g, gens, mods):
        for v, m in enumerate(g.blocks):
            for i, j in product(range(m.rows), range(m.cols)):
                data = [list(row) for row in m.data]
                data[i][j] += 1
                blocks = g.blocks[:v] + [RatMatrix._of(m.rows, m.cols, data)] + g.blocks[v + 1:]
                try:
                    validate_map(ModuleMap(g.source, g.target, blocks))
                except ValueError:
                    return blocks
        return g.blocks

    _with_approximation_blocks(monkeypatch, corrupted)
    with pytest.raises(InternalCheckFailed, match="not a module map"):
        for lab, x in lemma_2_4_inventory(kr_bundle):
            verify_lemma_2_4(kr_bundle, x, lab)
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps(cli.serialize_quiver(kronecker())))
    assert cli.main(["lemma24", "--quiver", str(path), "--m", "1", "--report", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error: ") == 1 and "not a module map" in captured.err


def test_lemma_2_4_refuses_an_approximation_zeroed_on_a_summand(kr_bundle, monkeypatch):
    """g set to zero on the last summand of its source stays a module map
    but is no longer an approximation, and no target passes: most kernels
    then have the wrong dimension vector, and on the others Hom(L, g) is not
    onto.  The exactness check composes with g's own blocks; composites
    read off the approximation's basis of Hom(L_u, x) would miss the zero."""
    def zeroed(g, gens, mods):
        dims = mods[gens[-1][0]].vertex_dims()
        return [RatMatrix._of(m.rows, m.cols, [row[:m.cols - d] + [0] * d for row in m.data])
                for m, d in zip(g.blocks, dims)]

    _with_approximation_blocks(monkeypatch, zeroed)
    outcomes = []
    for lab, x in lemma_2_4_inventory(kr_bundle):
        try:
            cert = verify_lemma_2_4(kr_bundle, x, lab)
        except InternalCheckFailed as e:
            assert "dimension vector" in str(e), lab
            outcomes.append("raised")
        else:
            assert not cert.verdict, lab
            outcomes.append(cert.values["hom_exact_all_summands"])
    assert sorted(map(str, outcomes)) == ["False"] * 2 + ["raised"] * 11


@pytest.mark.parametrize("make", [auslander_generator, minimal_cogenerator])
@pytest.mark.parametrize("quiver, m", [(kronecker, 1), (kronecker, 2), (lambda: linear_quiver(3), 1),
                                       (lambda: linear_quiver(3), 2), (kronecker3, 1)],
                         ids=["kronecker-1", "kronecker-2", "a3-1", "a3-2", "kronecker3-1"])
def test_lemma_2_4_hom_exactness_matches_module_oracle(make, quiver, m):
    """A differential oracle for the Hom-exactness read off the summand
    table: the module-level check, with Hom(L, ker g), Hom(L, M1) and
    Hom(L, x) each solved as its own Hom system, gives the same verdict,
    and dim Hom(L, ker g) = dim Hom(L, M1) - rank, as left exactness says."""
    bundle = make(quiver(), m)
    mods = [s.module for s in bundle.summands]
    for lab, x in lemma_2_4_inventory(bundle):
        cert = verify_lemma_2_4(bundle, x, lab)
        g = right_approximation(mods, x, bundle.summand_homs)
        rows = [hom_exactness(l, g, x) for l in mods]
        exact = all(rank == dx and dm == dk + dx for dk, dm, rank, dx in rows)
        assert cert.values["hom_exact_all_summands"] == exact, lab
        assert all(dk == dm - rank for dk, dm, rank, _ in rows), lab


def test_ext_stablehom_kronecker_m1():
    cert = verify_ext_stablehom(kronecker(), 1)
    assert cert.verdict
    assert cert.values["identity_holds"] and cert.values["lemma_3_2_vanishing"]
    assert cert.values["pairs_checked"] > 10
    assert cert.values["lemma_3_2_pairs_checked"] > 0


def test_ext_stablehom_sampled_deterministic():
    a = verify_ext_stablehom(linear_quiver(2), 1, samples=12, seed=5)
    b = verify_ext_stablehom(linear_quiver(2), 1, samples=12, seed=5)
    assert a.to_dict() == b.to_dict()
    assert a.values["pairs_checked"] == 12


def test_example_3_4_golden():
    cert, bundle, bundle0 = verify_example_3_4()
    assert cert.verdict
    assert cert.values["gl_dim_end_M"] == 3
    assert cert.values["gl_dim_end_M0"] == 5
    assert cert.values["num_summands_M"] == 10
    assert cert.values["num_summands_M0"] == 6


def test_certificates_serialize_deterministically(kr_bundle):
    c1, _ = verify_theorem_3_3(kronecker(), 1, bundle=kr_bundle)
    c2, _ = verify_theorem_3_3(kronecker(), 1, bundle=kr_bundle)
    assert json.dumps(c1.to_dict(), sort_keys=True) == json.dumps(c2.to_dict(), sort_keys=True)


@pytest.mark.parametrize("name,m", [(q, m) for q in ("a2", "a3", "a3_source", "a3_tilde", "d4", "e6", "kronecker",
                                                      "kronecker3", "one_vertex") for m in (1, 2)]
                         + [("kronecker4", 1)] + [(q, 3) for q in ("a2", "a3", "kronecker")])
def test_extcheck_matches_happels_closed_form(name, m):
    """Every value of extcheck, both sides of the identity and the lemma-3.2
    pairs, equals Happel's closed form ``happel_ext`` read off the labels of
    the run's own chains: StHom(Omega^{-i} Y0, Omega^{-k} X0) is Ext^{k-i}
    over kQ of the copy-0 Y0 and X0, and a pair with a projective-injective
    reads 0.  The identity holds, so Ext^1 meets the closed form too.
    Every shipped quiver runs at m = 1, 2 but the 4-Kronecker quiver at
    m = 2, which takes about half a minute."""
    q = shipped_quiver(name)
    labels = {}
    cert, calls = extcheck_stable_homs(q, m, labels)
    assert cert.verdict and len(calls) == cert.values["pairs_checked"] + cert.values["lemma_3_2_pairs_checked"]
    got, want = [], []
    for y, z, value in calls:
        got.append(value)
        if id(y) in labels and id(z) in labels:
            (_, i, y0), (_, k, x0) = labels[id(y)], labels[id(z)]
            want.append(happel_ext(q, k - i, y0, x0))
        else:
            want.append(0)
    assert got == want and any(want)
