"""Engine-level invariants, checked exactly on generic instances."""

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from replalg.homology import (
    DimBound,
    decompose_with_maps,
    dominant_dimension,
    ext1_dim,
    global_dimension,
    is_isomorphic,
    kernel,
    projective_dimension,
    right_approximation,
    stable_hom_dim,
    cosyzygy,
)
from replalg.cli import parse_quiver
from replalg.linalg import EchelonSpace
from replalg.modules import (
    ModuleMap,
    ModuleRep,
    direct_sum,
    dual_module,
    hom_dim,
    injective_envelope,
    is_projective_module,
    projective_cover,
    projective_module,
    radical_submodule,
    simple_module,
)
from replalg.quiver import Quiver, build_hereditary, kronecker, linear_quiver, one_vertex
from replalg.replicated import auslander_generator, build_replicated, embed, sigma_layers
from support import (
    dense_matrix,
    end_algebra,
    from_rows,
    injective_dimension,
    is_injective_map,
    minimal_projective_resolution,
    mult_coords,
    regular_module,
    row_span,
    socle,
    span_contains,
    top,
    trace_form_radical,
    validate_module,
    verify_exact,
)


def fan():
    return Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "2", "3")])


ALGEBRAS = [
    build_hereditary(linear_quiver(2)),
    build_hereditary(fan()),
    build_replicated(linear_quiver(2), 1).algebra,
    build_replicated(one_vertex(), 2).algebra,
]


def sample_modules(a):
    mods = []
    for v in range(len(a.idempotents)):
        mods.append(simple_module(a, v))
        p = projective_module(a, v)
        mods.append(p)
        rad, _ = radical_submodule(p)
        if rad.dim:
            mods.append(rad)
    return mods


@pytest.mark.parametrize("a", ALGEBRAS)
def test_hom_from_regular_has_module_dimension(a):
    reg = regular_module(a)
    for x in sample_modules(a):
        assert hom_dim(reg, x) == x.dim


@pytest.mark.parametrize("a", ALGEBRAS)
def test_cover_kernels_superfluous(a):
    # ker f inside P rad, re-derived here rather than trusting the constructor
    for x in sample_modules(a):
        if x.dim == 0:
            continue
        p, f = projective_cover(x)
        assert f.is_surjective()
        k, incl = kernel(f)
        rad, rincl = radical_submodule(p)
        span = EchelonSpace(p.dim)
        for j in range(rad.dim):
            span.add(dense_matrix(rincl).column_vec(j))
        for j in range(k.dim):
            assert span_contains(span, dense_matrix(incl).column_vec(j))


@pytest.mark.parametrize("a", ALGEBRAS)
def test_envelope_images_essential(a):
    for x in sample_modules(a):
        if x.dim == 0:
            continue
        i, env = injective_envelope(x)
        assert is_injective_map(env)
        soc, sincl = socle(i)
        span = EchelonSpace(i.dim)
        for j in range(dense_matrix(env).cols):
            span.add(dense_matrix(env).column_vec(j))
        for j in range(soc.dim):
            assert span_contains(span, dense_matrix(sincl).column_vec(j))


@pytest.mark.parametrize("a", ALGEBRAS)
def test_resolution_exactness(a):
    for x in sample_modules(a):
        res = minimal_projective_resolution(x, cap=10)
        assert res.complete
        verify_exact(res)


@pytest.mark.parametrize("a", ALGEBRAS)
def test_pd_matches_the_resolution_oracle_without_composing(a, monkeypatch):
    # pd walks the kernels of covers; the oracle keeps every term and
    # composes each cover with the inclusion of the syzygy before it
    cases = [(x, cap) for x in sample_modules(a) for cap in range(3)]
    want = []
    for x, cap in cases:
        res = minimal_projective_resolution(x, cap)
        want.append(DimBound(res.length) if res.complete else DimBound(cap + 1, exact=False))
    assert any(not w.exact for w in want) and any(w.value for w in want if w.exact)

    def refuse(*args):
        raise AssertionError("a map was composed")

    monkeypatch.setattr(ModuleMap, "then", refuse)
    assert [projective_dimension(x, cap) for x, cap in cases] == want


@pytest.mark.parametrize("a", ALGEBRAS)
def test_pd_id_duality(a):
    for x in sample_modules(a):
        assert projective_dimension(x, 10) == injective_dimension(dual_module(x), 10)


def assert_radical_matches_trace_form(a):
    """The radical spans the kernel of the trace form (``trace_form_radical``,
    the oracle), and each of its vectors lies in one Peirce block."""
    assert row_span(a.dim, a.radical_basis()) == row_span(a.dim, trace_form_radical(a))
    assert all(len({a.grading[b] for b, _c in r}) == 1 for r in a.radical_sparse())


@pytest.mark.parametrize("a", ALGEBRAS)
def test_radical_nilpotent_and_quotient_semisimple(a):
    assert_radical_matches_trace_form(a)
    assert_radical_matches_trace_form(a.opposite())
    rad = a.radical_basis()
    # nilpotency, re-derived: iterate span products until zero
    current = [list(v) for v in rad]
    for _ in range(a.dim + 1):
        if not current:
            break
        sp = EchelonSpace(a.dim)
        for x in current:
            for y in rad:
                sp.add(mult_coords(a, x, y))
        current = [list(r) for r in sp.rows]
    assert not current
    # the quotient has zero radical: radical of the quotient trace form
    # is checked at construction; here we check idempotence of the operator
    span = EchelonSpace(a.dim)
    assert all(span.add(v) for v in rad)  # independent: a basis
    for v in rad:
        assert span_contains(span, v)


def _file_quiver(path):
    with open(path, encoding="utf-8") as f:
        return parse_quiver(f.read())


QUIVER_FILES = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                             "quivers", "*.json")))
REPLICATED_CASES = [(linear_quiver(3), 1), (linear_quiver(3), 2), (kronecker(), 1), (kronecker(), 2)]
REPLICATED_CASES += [(_file_quiver(p), m) for p in QUIVER_FILES for m in (1, 2)]
REPLICATED_IDS = ["A3-m1", "A3-m2", "kronecker-m1", "kronecker-m2"]
REPLICATED_IDS += [f"file-{os.path.basename(p)[:-5]}-m{m}" for p in QUIVER_FILES for m in (1, 2)]


@pytest.mark.parametrize("q, m", REPLICATED_CASES, ids=REPLICATED_IDS)
def test_structural_radical_matches_trace_form_on_replicated(q, m):
    """A^(m) of every file in quivers/ at m = 1, 2, and its opposite."""
    a = build_replicated(q, m).algebra
    assert_radical_matches_trace_form(a)
    assert_radical_matches_trace_form(a.opposite())


def test_structural_radical_matches_trace_form_on_end_algebra():
    bundle = auslander_generator(kronecker(), 1)
    e = end_algebra(summands=bundle.end_summands())
    assert_radical_matches_trace_form(e)
    assert_radical_matches_trace_form(e.opposite())
    # every corner is End(L) of an indecomposable L: local, with residue field Q
    assert len(trace_form_radical(e)) == e.dim - len(e.idempotents)


@pytest.mark.parametrize("a", ALGEBRAS)
def test_decompose_recompose(a):
    mods = sample_modules(a)
    combos = [mods, mods[:3] + mods[:1], [mods[0], mods[0]]]
    for combo in combos:
        total, _, _ = direct_sum(combo)
        pieces = decompose_with_maps(total)
        parts = [m for m, _, _ in pieces]
        if not parts:
            continue
        rebuilt, _, _ = direct_sum(parts)
        assert is_isomorphic(total, rebuilt) is not None


def test_ext1_equals_stable_hom_on_ambient_pairs():
    # over the ambient replicated algebra of A2 with m=1
    from replalg.replicated import projective_injectives

    amb = build_replicated(linear_quiver(2), 1)
    pis = [m for _, m in projective_injectives(amb)]
    base = amb.base
    xs = []
    for v in range(2):
        xs.append(embed(simple_module(base, v), 0, amb))
        xs.append(embed(projective_module(base, v), 0, amb))
    ys = xs + pis
    checked = 0
    for x in xs:
        i, _ = injective_envelope(x)
        if not is_projective_module(i):
            continue
        ox = cosyzygy(x)
        for y in ys:
            assert ext1_dim(y, x) == stable_hom_dim(y, ox)
            checked += 1
    assert checked >= 8


def test_wakamatsu_vanishing_scoped():
    """Ext^1(L, K) = 0 for approximation kernels, with L drawn from the
    layers the approximation actually uses (projectives, projective-
    injectives, cosyzygy layers up to the approximation's layer)."""
    from replalg.verify import lemma_2_4_inventory, verify_lemma_2_4

    for q, m in [(linear_quiver(2), 1), (one_vertex(), 2), (fan(), 1)]:
        bundle = auslander_generator(q, m)
        for lab, x in lemma_2_4_inventory(bundle):
            cert = verify_lemma_2_4(bundle, x, lab)
            assert cert.values["wakamatsu_scoped_vanishing"], (q, m, lab)


def test_wakamatsu_needs_extension_closure():
    """add M is not extension-closed, so the vanishing against *all* summands
    can fail; pin the smallest counterexample: over the duplicated A2 algebra
    the approximation of the copy-0 simple S2 is the cover 2/1 -> 2 with
    kernel S1 = 1, and Ext^1(1'/2, 1) = 1."""
    bundle = auslander_generator(linear_quiver(2), 1)
    mods = {s.label: s.module for s in bundle.summands}
    s2 = simple_module(bundle.replicated.algebra, 1)
    g = right_approximation([s.module for s in bundle.summands], s2)
    k, _ = kernel(g)
    assert is_isomorphic(k, mods["proj:1@0"]) is not None
    assert ext1_dim(mods["U1.0"], k) == 1


def test_wakamatsu_on_projective_addsets():
    # add(projectives) is extension-closed; kernels are syzygies
    for a in ALGEBRAS:
        projs = [projective_module(a, v) for v in range(len(a.idempotents))]
        for x in sample_modules(a):
            if x.dim == 0:
                continue
            g = right_approximation(projs, x)
            k, _ = kernel(g)
            for p in projs:
                assert ext1_dim(p, k) == 0


def test_sigma_ladder_covers_are_projective_injective():
    # ladder modules not supported purely in copy 0 have proj-injective covers
    for q, m in [(linear_quiver(2), 1), (linear_quiver(3), 1)]:
        amb, layers = sigma_layers(q, m, 2)
        from replalg.modules import is_injective_module

        for layer in layers[1:]:
            for mod in layer.modules:
                copies = amb.support_copies(mod)
                if copies == {0}:
                    continue
                p, _ = projective_cover(mod)
                assert is_projective_module(p) and is_injective_module(p)


def test_approximations_of_ladder_modules_are_epi():
    for q, m in [(linear_quiver(2), 1), (fan(), 1)]:
        bundle = auslander_generator(q, m)
        mods = [s.module for s in bundle.summands]
        for s in bundle.summands:
            if s.layer >= 1:
                assert not is_projective_module(s.module)
                g = right_approximation(mods, s.module)
                assert g.is_surjective()


def test_layer_approximation_is_epi_for_modules_with_pi_cover():
    """A module with projective-injective cover strictly between the layers
    has a surjective minimal right add(U_1 + P)-approximation; witnessed by
    cosyzygies of regular Kronecker modules, which lie in no layer."""
    from fractions import Fraction
    from replalg.homology import cosyzygy
    from replalg.modules import is_injective_module
    from replalg.quiver import kronecker
    from replalg.replicated import projective_injectives

    bundle = auslander_generator(kronecker(), 1)
    r = bundle.replicated
    base = r.base
    u1 = [s.module for s in bundle.summands if s.layer == 1]
    pis = [m for _, m in projective_injectives(r)]
    e1 = from_rows([[1, 0], [0, 0]])
    e2 = from_rows([[0, 0], [0, 1]])
    for lam in (0, 1, 3):
        acts = {
            base.labels.index("e(1)"): e1,
            base.labels.index("e(2)"): e2,
            base.labels.index("a"): from_rows([[0, 1], [0, 0]]),
            base.labels.index("b"): from_rows([[0, Fraction(lam)], [0, 0]]),
        }
        reg = ModuleRep.from_actions(base, acts, [0, 1])
        validate_module(reg)
        x = cosyzygy(embed(reg, 0, r))
        p, cover = projective_cover(x)
        assert is_projective_module(p) and is_injective_module(p)
        g = right_approximation(u1 + pis, x)
        assert g.is_surjective()
        k, _ = kernel(g)
        # the kernel lands in add M, as the main argument needs
        from replalg.homology import decompose_with_maps

        summand_mods = [s.module for s in bundle.summands]
        for piece, _, _ in decompose_with_maps(k):
            assert any(is_isomorphic(piece, cand) is not None for cand in summand_mods)


def test_ext1_matches_euler_form_over_hereditary():
    """Independent oracle: over a path algebra,
    dim Hom(X,Y) - dim Ext^1(X,Y) = sum_v x_v y_v - sum_{a: u->v} x_u y_v."""
    for q in (linear_quiver(3), fan()):
        a = build_hereditary(q)
        mods = sample_modules(a) + [regular_module(a)]
        for x in mods:
            xd = x.vertex_dims()
            for y in mods:
                yd = y.vertex_dims()
                euler = sum(xv * yv for xv, yv in zip(xd, yd))
                for arr in q.arrows:
                    euler -= xd[q.vindex[arr.source]] * yd[q.vindex[arr.target]]
                assert hom_dim(x, y) - ext1_dim(x, y) == euler


def test_dominant_dimension_left_right_symmetric():
    # dom.dim of an algebra and of its opposite agree
    for q, m in [(linear_quiver(2), 1), (linear_quiver(3), 1), (one_vertex(), 2)]:
        alg = build_replicated(q, m).algebra
        cap = 4 * m + 4
        d = dominant_dimension(alg, cap)
        d_op = dominant_dimension(alg.opposite(), cap)
        assert (d.value, d.exact) == (d_op.value, d_op.exact)


def test_is_isomorphic_is_symmetric():
    a = ALGEBRAS[2]
    mods = sample_modules(a)
    for x in mods[:4]:
        for y in mods[:4]:
            assert (is_isomorphic(x, y) is None) == (is_isomorphic(y, x) is None)


# -- hypothesis: random acyclic quivers ---------------------------------------


@st.composite
def acyclic_quivers(draw):
    n = draw(st.integers(1, 4))
    vertices = [str(i + 1) for i in range(n)]
    arrows = []
    if n > 1:
        count = draw(st.integers(0, 4))
        for idx in range(count):
            s = draw(st.integers(1, n - 1))
            t = draw(st.integers(0, s - 1))
            arrows.append((f"x{idx}", vertices[s], vertices[t]))
    return Quiver(vertices, arrows)


@settings(max_examples=20, deadline=None)
@given(acyclic_quivers())
def test_path_algebra_invariants(q):
    a = build_hereditary(q)
    assert global_dimension(a, 2).at_most(1)
    assert_radical_matches_trace_form(a)
    rad = a.radical_basis()
    # radical = span of the nontrivial paths
    trivial = {a.labels.index(f"e({v})") for v in q.vertices}
    assert len(rad) == a.dim - len(q.vertices)
    for vec in rad:
        assert all(not vec[i] for i in trivial)
    t, _ = top(regular_module(a))
    assert t.dim == len(q.vertices)


@settings(max_examples=12, deadline=None)
@given(acyclic_quivers(), st.integers(0, 2))
def test_replicated_dimension_formula(q, m):
    r = build_replicated(q, m)
    assert r.algebra.dim == (2 * m + 1) * r.base.dim
    assert_radical_matches_trace_form(r.algebra)
    assert len(r.algebra.idempotents) == (m + 1) * len(q.vertices)


@settings(max_examples=10, deadline=None)
@given(acyclic_quivers())
def test_embedding_is_full_on_random_quivers(q):
    r = build_replicated(q, 1)
    base = r.base
    mods = [simple_module(base, v) for v in range(len(q.vertices))]
    mods.append(projective_module(base, 0))
    for copy in (0, 1):
        for x in mods:
            for y in mods:
                assert hom_dim(x, y) == hom_dim(embed(x, copy, r), embed(y, copy, r))
