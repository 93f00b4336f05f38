import dataclasses
import os

import pytest

import replalg.algebra
import replalg.replicated
from replalg.cli import parse_quiver
from replalg.errors import CopyOutOfRange, InternalCheckFailed
from replalg.homology import (
    global_dimension,
    is_isomorphic,
    projective_dimension,
)
from replalg.modules import (
    hom_dim,
    projective_module,
    simple_module,
)
from replalg.quiver import build_hereditary, kronecker, linear_quiver, one_vertex
from replalg.replicated import (
    auslander_generator,
    build_replicated,
    embed,
    loewy_layers,
    minimal_cogenerator,
    projective_injectives,
    restrict_from_ambient,
    sigma_layers,
)
from support import (
    all_pairs_path_table,
    decompose,
    embed_by_keys,
    ext_inventory,
    mult_coords,
    path_rule_replicated,
    regular_module,
    replicated_keys,
    restrict_by_keys,
    socle,
    top,
    validate_module,
    vertex_index,
)

QUIVERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "quivers")
SHIPPED = sorted(name[:-len(".json")] for name in os.listdir(QUIVERS) if name.endswith(".json"))


def _quiver_file(name):
    with open(os.path.join(QUIVERS, name), encoding="utf-8") as f:
        return parse_quiver(f.read())


@pytest.fixture(scope="module")
def kr1():
    return build_replicated(kronecker(), 1)


def test_dimensions_and_idempotents(kr1):
    assert kr1.algebra.dim == 12
    assert len(kr1.algebra.idempotents) == 4
    r0 = build_replicated(kronecker(), 0)
    assert r0.algebra.dim == 4
    rv = build_replicated(one_vertex(), 2)
    assert rv.algebra.dim == 5
    assert len(rv.algebra.idempotents) == 3


@pytest.mark.parametrize("name", SHIPPED)
def test_build_matches_all_pairs_oracle(name):
    """A differential oracle for A^(m) read off kQ's table: the path rules
    on every ordered pair of basis keys give the same labels, table, unit,
    idempotents and grading, on every shipped quiver at m <= 8."""
    assert len(SHIPPED) == 10
    q = _quiver_file(f"{name}.json")
    assert build_hereditary(q).mult == all_pairs_path_table(q)
    for m in range(9):
        a = build_replicated(q, m).algebra
        want = path_rule_replicated(q, m)
        assert a.labels == want.labels and a.mult == want.mult and a.unit == want.unit
        assert a.idempotents == want.idempotents and a.grading == want.grading


def _same_module(x, y):
    assert x.algebra is y.algebra and x.dim == y.dim and x.vertex_of == y.vertex_of
    assert list(x.blocks.items()) == list(y.blocks.items())


@pytest.mark.parametrize("name", SHIPPED)
def test_embed_and_restrict_match_the_key_oracle(name):
    """``embed`` and ``restrict_from_ambient`` by index arithmetic equal the
    path-key versions block for block: the simples and projectives of kQ in
    every copy of A^(m), and the extcheck inventory of A^(2m+1) that lies
    in copies 0..m, some of it acted on by duals."""
    q = _quiver_file(f"{name}.json")
    for m in (1, 2):
        r = build_replicated(q, m)
        for copy in range(m + 1):
            for make in (simple_module, projective_module):
                for v in range(len(q.vertices)):
                    x = make(r.base, v)
                    _same_module(embed(x, copy, r), embed_by_keys(x, copy, r))
        amb = build_replicated(q, 2 * m + 1)
        kept = [x for x in ext_inventory(q, m, amb)[0] if amb.in_a_m(x, m)]
        duals = range((amb.m + 1) * amb.base.dim, amb.algebra.dim)
        assert any(b in duals for x in kept for b in x.blocks)
        for x in kept:
            _same_module(restrict_from_ambient(x, amb, r), restrict_by_keys(x, amb, r))


def test_split_basic_is_proven_not_assumed(monkeypatch):
    # a fresh A^(m) carries no split-basic verdict until the certificate
    # runs, once per corner; the certified radical is the verdict
    a = build_replicated(kronecker(), 2).algebra
    assert a._radical is None
    runs = []
    certificate = replalg.algebra._local_radical
    monkeypatch.setattr(replalg.algebra, "_local_radical", lambda *args: runs.append(1) or certificate(*args))
    a.ensure_split_basic()
    assert len(runs) == len(a.idempotents) and a._radical is not None
    a.ensure_split_basic()
    assert len(runs) == len(a.idempotents)


def test_regular_module_of_replicated(kr1):
    reg = regular_module(kr1.algebra)
    assert reg.dim == 12
    validate_module(reg)


def test_one_vertex_m2_is_radical_square_zero_nakayama():
    rv = build_replicated(one_vertex(), 2)
    rad = rv.algebra.radical_basis()
    assert len(rad) == 2
    # rad^2 = 0: all products of radical elements vanish
    for x in rad:
        for y in rad:
            assert not any(mult_coords(rv.algebra, x, y))


def test_gabriel_quiver_arrow_count(kr1):
    # rad/rad^2 of the duplicated Kronecker algebra has 6 arrows
    a = kr1.algebra
    rad = a.radical_basis()
    from replalg.linalg import EchelonSpace

    rad2 = EchelonSpace(a.dim)
    for x in rad:
        for y in rad:
            rad2.add(mult_coords(a, x, y))
    assert len(rad) - rad2.rank == 6


@pytest.mark.parametrize("name", ["kronecker", "a3_tilde"])
def test_a_dual_rule_in_the_wrong_copy_is_refused(name, monkeypatch):
    """The rule (q*, i)(r, i-1) = c (p*, i) written to copy i instead of
    i - 1 gives a table that AlgebraData accepts, a graded algebra with
    each dual inside one copy; the degree check on the duals refuses it at
    construction."""
    q, m = _quiver_file(f"{name}.json"), 2
    n = build_hereditary(q).dim
    algebra_data = replalg.replicated.AlgebraData
    accepted = []

    def moved(labels, mult, unit, idems):
        for i in range(1, m + 1):
            for row in mult[(m + i) * n:(m + i + 1) * n]:
                row[i * n:(i + 1) * n], row[(i - 1) * n:i * n] = row[(i - 1) * n:i * n], row[i * n:(i + 1) * n]
        accepted.append(algebra_data(labels, mult, unit, idems))
        return accepted[-1]

    monkeypatch.setattr(replalg.replicated, "AlgebraData", moved)
    with pytest.raises(InternalCheckFailed, match="dual basis element"):
        build_replicated(q, m)
    assert len(accepted) == 1
    monkeypatch.undo()
    build_replicated(q, m)


def test_dual_products_vanish(kr1):
    a = kr1.algebra
    keys = replicated_keys(kr1.quiver, kr1.m)
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            if ki[0] == "d" and kj[0] == "d":
                assert a.mult[i][j] == ()


def test_embed_fullness(kr1):
    base = kr1.base
    mods = [simple_module(base, 0), simple_module(base, 1), projective_module(base, 1)]
    for copy in (0, 1):
        emb = [embed(x, copy, kr1) for x in mods]
        for e in emb:
            validate_module(e)
        for x, ex in zip(mods, emb):
            for y, ey in zip(mods, emb):
                assert hom_dim(x, y) == hom_dim(ex, ey)
    with pytest.raises(CopyOutOfRange):
        embed(mods[0], 2, kr1)


def test_embedded_regular_is_sum_of_copy0_projectives(kr1):
    base_reg = regular_module(kr1.base)
    e = embed(base_reg, 0, kr1)
    pieces = decompose(e)
    expected = [projective_module(kr1.algebra, 0), projective_module(kr1.algebra, 1)]
    assert len(pieces) == 2
    for mod, count in pieces:
        assert count == 1
        assert any(is_isomorphic(mod, p) is not None for p in expected)


def test_cosyzygy_of_embedded_regular_decomposes(kr1):
    # Omega^{-1}(A) in the ambient algebra splits as 1'/22 + 1'1'/222,
    # one copy each, and the two pieces are not isomorphic
    from replalg.homology import cosyzygy

    amb = build_replicated(kronecker(), 3)
    e = embed(regular_module(amb.base), 0, amb)
    pieces = decompose(cosyzygy(e))
    assert sorted((tuple(mod.vertex_dims()[:4]), c) for mod, c in pieces) == [
        ((0, 2, 1, 0), 1), ((0, 3, 2, 0), 1),
    ]
    assert is_isomorphic(pieces[0][0], pieces[1][0]) is None


def test_projective_injectives_example_3_4(kr1):
    pis = projective_injectives(kr1)
    dims = sorted(tuple(mod.vertex_dims()) for _, mod in pis)
    # P_1' = 1'/22/1 and P_2' = 2'/1'1'/2, ordered (1, 2, 1', 2')
    assert dims == [(0, 1, 2, 1), (1, 2, 1, 0)]


def test_projective_injectives_one_vertex_m1():
    r = build_replicated(one_vertex(), 1)
    pis = projective_injectives(r)
    assert len(pis) == 1
    assert pis[0][1].dim == 2


def test_projective_injectives_a2_m0():
    r = build_replicated(linear_quiver(2), 0)
    pis = projective_injectives(r)
    # P2 = I1 for A2
    assert len(pis) == 1
    assert pis[0][1].vertex_dims() == [1, 1]


def test_socle_and_top_of_p1prime(kr1):
    # P_1' has Loewy series 1'/22/1: socle S_1 (copy 0), top S_1'
    p1p = projective_module(kr1.algebra, vertex_index(kr1, "1", 1))
    assert p1p.vertex_dims() == [1, 2, 1, 0]
    s, _ = socle(p1p)
    assert s.vertex_dims() == [1, 0, 0, 0]
    t, _ = top(p1p)
    assert t.vertex_dims() == [0, 0, 1, 0]
    assert loewy_layers(kr1, p1p) == ["1'", "2 2", "1"]


def test_envelope_of_s1_is_p1prime(kr1):
    from replalg.modules import injective_envelope

    s1 = simple_module(kr1.algebra, 0)
    i, env = injective_envelope(s1)
    assert i.vertex_dims() == [1, 2, 1, 0]


def test_cosyzygies_match_example_3_4(kr1):
    from replalg.homology import cosyzygy

    amb = build_replicated(kronecker(), 3)
    s1 = simple_module(amb.algebra, 0)
    c = cosyzygy(s1)
    assert c.vertex_dims()[:4] == [0, 2, 1, 0]  # 1'/22
    p2 = projective_module(amb.algebra, 1)
    c2 = cosyzygy(p2)
    assert c2.vertex_dims()[:4] == [0, 3, 2, 0]  # 1'1'/222


def test_gl_dim_replicated_kronecker(kr1):
    assert global_dimension(kr1.algebra, 8).value == 3


def test_gl_dim_one_vertex_equals_m():
    for m in (1, 2, 3):
        r = build_replicated(one_vertex(), m)
        g = global_dimension(r.algebra, 4 * m + 4)
        assert g.exact and g.value == m


def test_resolution_length_top_copy_simple_one_vertex():
    m = 3
    r = build_replicated(one_vertex(), m)
    s_top = simple_module(r.algebra, m)
    assert projective_dimension(s_top, 4 * m + 4).value == m


def test_sigma_layers_example_3_4():
    amb, layers = sigma_layers(kronecker(), 1, 2)
    assert [tuple(mod.vertex_dims()[:2]) for mod in layers[0].modules] == [(1, 0), (2, 1)]
    sig1 = sorted(tuple(mod.vertex_dims()[:4]) for mod in layers[1].modules)
    assert sig1 == [(0, 2, 1, 0), (0, 3, 2, 0)]
    sig2 = sorted(tuple(mod.vertex_dims()[:4]) for mod in layers[2].modules)
    assert sig2 == [(0, 0, 3, 2), (0, 0, 4, 3)]
    assert all(layers[1].in_a_m) and all(layers[2].in_a_m)


def test_auslander_generator_example_3_4(kr1):
    bundle = auslander_generator(kronecker(), 1)
    assert bundle.t == 3
    assert len(bundle.summands) == 10
    got = sorted(tuple(s.dims) for s in bundle.summands)
    expected = sorted([
        (1, 0, 0, 0), (2, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 2), (1, 2, 1, 0),
        (0, 1, 2, 1), (0, 2, 1, 0), (0, 3, 2, 0), (0, 0, 3, 2), (0, 0, 4, 3),
    ])
    assert got == expected


def test_bundle_keeps_its_summands_and_no_sum(kronecker_m1_bundle):
    """The bundle holds the summands of M, not M with its inclusions and
    projections: nothing reads them, and on 4-Kronecker m=2 their sum alone
    held about 53 MB."""
    bundle = kronecker_m1_bundle
    assert not hasattr(replalg.replicated, "direct_sum")
    assert [f.name for f in dataclasses.fields(bundle)] == ["replicated", "summands", "t", "_extras"]
    assert bundle.end_summands() == [(s.label, s.module) for s in bundle.summands]


def test_minimal_cogenerator_example_3_4(kr1):
    bundle = minimal_cogenerator(kronecker(), 1)
    assert len(bundle.summands) == 6
    got = sorted(tuple(s.dims) for s in bundle.summands)
    expected = sorted([
        (1, 0, 0, 0), (2, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 2), (1, 2, 1, 0), (0, 1, 2, 1),
    ])
    assert got == expected


def test_minimal_cogenerator_one_vertex_m1():
    bundle = minimal_cogenerator(one_vertex(), 1)
    assert len(bundle.summands) == 3


def test_auslander_generator_a2_m1():
    bundle = auslander_generator(linear_quiver(2), 1)
    assert bundle.t == 2
    assert len(bundle.summands) == 8


def test_ambient_too_small_guard():
    from replalg.errors import AmbientTooSmall

    # forcing the ladder to run inside A^(1) itself makes the third layer
    # hit a non-projective envelope at the top copy
    with pytest.raises(AmbientTooSmall):
        sigma_layers(kronecker(), 1, 3, ambient=build_replicated(kronecker(), 1))
