"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The sweep instances (four base quivers times m in {1, 2}) are computed once
and shared across criteria.  Everything is exact rational arithmetic; every
tolerance is exact equality or an exact inequality.
"""

import json

import pytest

from replalg.cli import main
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
from replalg.linalg import EchelonSpace
from replalg.modules import (
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
from replalg.quiver import kronecker, linear_quiver, one_vertex
from replalg.replicated import auslander_generator, build_replicated, embed, minimal_cogenerator
from replalg.verify import (
    lemma_2_4_inventory,
    verify_example_3_4,
    verify_lemma_2_4,
)
from support import (
    dense_matrix,
    end_algebra,
    injective_dimension,
    is_injective_map,
    minimal_projective_resolution,
    mult_coords,
    regular_module,
    socle,
    span_contains,
    verify_exact,
)

SWEEP = [
    ("one-vertex", one_vertex(), 1),
    ("one-vertex", one_vertex(), 2),
    ("A2", linear_quiver(2), 1),
    ("A2", linear_quiver(2), 2),
    ("A3-linear", linear_quiver(3), 1),
    ("A3-linear", linear_quiver(3), 2),
    ("kronecker", kronecker(), 1),
    ("kronecker", kronecker(), 2),
]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sweep_data():
    """gl.dim End(M), t, dom.dim for the eight sweep instances, computed once."""
    out = {}
    for name, q, m in SWEEP:
        cap = 4 * m + 4
        bundle = auslander_generator(q, m, cap=cap)
        e = end_algebra(summands=bundle.end_summands())
        g = global_dimension(e, cap)
        dom = dominant_dimension(bundle.replicated.algebra, cap)
        gl_a = global_dimension(bundle.replicated.base, cap)
        out[(name, m)] = {
            "bundle": bundle,
            "gl_end": g,
            "t": bundle.t,
            "dom": dom,
            "gl_base": gl_a,
        }
    return out


def test_criterion_1_example_3_4_golden():
    cert, bundle, bundle0 = verify_example_3_4()
    expected_dims = sorted([
        (1, 0, 0, 0), (2, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 2), (1, 2, 1, 0),
        (0, 1, 2, 1), (0, 2, 1, 0), (0, 3, 2, 0), (0, 0, 3, 2), (0, 0, 4, 3),
    ])
    got_dims = sorted(tuple(s.dims) for s in bundle.summands)
    ok = (
        cert.values["gl_dim_end_M"] == 3
        and cert.values["gl_dim_end_M0"] == 5
        and len(bundle.summands) == 10
        and got_dims == expected_dims
        and cert.verdict
    )
    report(1, ok, "example 3.4: gl.dim End(M) = 3, gl.dim End(M0) = 5, 10 exact summands")
    assert cert.values["gl_dim_end_M"] == 3
    assert cert.values["gl_dim_end_M0"] == 5
    assert len(bundle.summands) == 10
    assert got_dims == expected_dims
    assert cert.verdict


def test_criterion_2_theorem_3_3_sweep(sweep_data):
    failures = []
    for (name, m), data in sweep_data.items():
        g = data["gl_end"]
        if not (g.exact and g.value <= 3):
            failures.append((name, m, str(g)))
    ok = not failures
    report(2, ok, f"gl.dim End(M) <= 3 on all 8 instances{'' if ok else ': ' + str(failures)}")
    assert not failures


def test_criterion_3_theorem_3_5_sweep(sweep_data):
    # The one instance where dom.dim >= t-1 fails, as (name, m, dom.dim, t);
    # reckoned by hand below.
    known_proof_failures = [("A3-linear", 1, DimBound(1, exact=True), 3)]
    theorem_failures = []
    proof_failures = []
    for (name, m), data in sweep_data.items():
        dom, t = data["dom"], data["t"]
        if not dom.at_least(m):
            theorem_failures.append((name, m, str(dom)))
        if not dom.at_least(t - 1):
            proof_failures.append((name, m, dom, t))
    ok = not theorem_failures and proof_failures == known_proof_failures
    if theorem_failures:
        detail = f"dom.dim >= m fails on: {theorem_failures}"
    else:
        detail = "dom.dim >= m on all instances"
    detail += "; proof-level bound dom.dim >= t-1 fails on: " + str(
        [(name, m, f"dom.dim={dom} t={t}") for name, m, dom, t in proof_failures]
    )
    report(3, ok, detail)
    assert not theorem_failures
    # dom.dim >= t-1 is false on A3-linear m=1, reckoned by hand.  A^(1) is
    # serial with projectives 1, 2/1, 3/2/1, 1'/3/2/1, 2'/1'/3/2, 3'/2'/1'/3.
    # - The non-injective projectives 1, 2/1, 3/2/1 all have socle 1, so
    #   I^0 = I(1) = 1'/3/2/1, which is projective-injective: dom.dim >= 1.
    # - Minimal injective coresolution of P3 = 3/2/1: the cokernel of
    #   P3 -> I(1) is 1', and I^1 = I(1') = 3'/2'/1' is not projective
    #   (P3' = 3'/2'/1'/3).  So dom.dim A^(1) = 1 exactly.
    # - 0 -> P1 -> P2 -> P2' -> P3' -> S3' -> 0 is minimal, so pd S3' = 3;
    #   with t <= (m+1) gl.dim A + m = 3 this gives t = gl.dim A^(1) = 3.
    # t-1 = 2 > 1, while the theorem's bound dom.dim >= m = 1 holds.  The
    # bound t-1 is still asserted on the seven other instances.
    assert proof_failures == known_proof_failures


def test_criterion_4_gl_dim_bounds_sweep(sweep_data):
    failures = []
    for (name, m), data in sweep_data.items():
        gl_a, gl_m = data["gl_base"], data["t"]
        if not (m + gl_a.value <= gl_m <= (m + 1) * gl_a.value + m):
            failures.append((name, m))
        if name == "one-vertex" and gl_m != m:
            failures.append((name, m, "gl.dim A^(m) != m"))
    ok = not failures
    report(4, ok, "m + gl.dim A <= gl.dim A^(m) <= (m+1) gl.dim A + m on all instances; "
                  "one-vertex equals m exactly")
    assert not failures


def test_criterion_5_lemma_2_4_witnesses():
    bundle = auslander_generator(kronecker(), 1)
    certs = [
        verify_lemma_2_4(bundle, x, lab)
        for lab, x in lemma_2_4_inventory(bundle)
    ]
    all_pass = all(c.verdict for c in certs)
    bundle0 = minimal_cogenerator(kronecker(), 1)
    certs0 = [
        verify_lemma_2_4(bundle0, x, lab)
        for lab, x in lemma_2_4_inventory(bundle0)
    ]
    some_fail = any(not c.verdict for c in certs0)
    kernel_escapes = any(not c.values["kernel_in_add_M"] for c in certs0 if not c.verdict)
    ok = all_pass and some_fail and kernel_escapes
    report(5, ok, f"all {len(certs)} inventory witnesses pass with M; "
                  f"{sum(1 for c in certs0 if not c.verdict)} of {len(certs0)} fail with M0")
    assert all_pass
    assert some_fail and kernel_escapes


def test_criterion_6_engine_property_suite():
    """Exact engine invariants on non-golden instances."""
    checks = []
    a = build_replicated(linear_quiver(2), 1).algebra
    mods = [simple_module(a, v) for v in range(4)] + [projective_module(a, v) for v in range(4)]
    # Hom(regular, X) = dim X
    reg = regular_module(a)
    checks.append(("hom_regular", all(hom_dim(reg, x) == x.dim for x in mods)))
    # cover kernels superfluous, envelope images essential
    cover_ok = True
    env_ok = True
    for x in mods:
        p, f = projective_cover(x)
        k, incl = kernel(f)
        rad, rincl = radical_submodule(p)
        span = EchelonSpace(p.dim)
        for j in range(rad.dim):
            span.add(dense_matrix(rincl).column_vec(j))
        cover_ok &= f.is_surjective() and all(
            span_contains(span, dense_matrix(incl).column_vec(j)) for j in range(k.dim)
        )
        i, env = injective_envelope(x)
        soc, sincl = socle(i)
        espan = EchelonSpace(i.dim)
        for j in range(dense_matrix(env).cols):
            espan.add(dense_matrix(env).column_vec(j))
        env_ok &= is_injective_map(env) and all(
            span_contains(espan, dense_matrix(sincl).column_vec(j)) for j in range(soc.dim)
        )
    checks.append(("cover_superfluous", bool(cover_ok)))
    checks.append(("envelope_essential", bool(env_ok)))
    # resolution exactness and pd/id duality
    res_ok = True
    dual_ok = True
    for x in mods:
        res = minimal_projective_resolution(x, cap=8)
        try:
            verify_exact(res)
        except ValueError:
            res_ok = False
        dual_ok &= projective_dimension(x, 8) == injective_dimension(dual_module(x), 8)
    checks.append(("resolution_exact", res_ok))
    checks.append(("pd_id_duality", dual_ok))
    # radical nilpotency
    rad = a.radical_basis()
    current = [list(v) for v in rad]
    for _ in range(a.dim + 1):
        if not current:
            break
        sp = EchelonSpace(a.dim)
        for x in current:
            for y in rad:
                sp.add(mult_coords(a, x, y))
        current = [list(r) for r in sp.rows]
    checks.append(("radical_nilpotent", not current))
    # decompose-recompose isomorphism
    total, _, _ = direct_sum([mods[4], mods[0], mods[4]])
    pieces = decompose_with_maps(total)
    rebuilt, _, _ = direct_sum([m for m, _, _ in pieces])
    checks.append(("decompose_recompose", is_isomorphic(total, rebuilt) is not None))
    # Ext^1 = stable-Hom on all ambient pairs with projective-injective envelopes
    from replalg.replicated import projective_injectives

    amb = build_replicated(linear_quiver(2), 1)
    pis = [m for _, m in projective_injectives(amb)]
    base = amb.base
    ambmods = [embed(simple_module(base, v), 0, amb) for v in range(2)]
    ambmods += [embed(projective_module(base, v), 0, amb) for v in range(2)]
    ext_ok = True
    for x in ambmods:
        i, _ = injective_envelope(x)
        if not is_projective_module(i):
            continue
        ox = cosyzygy(x)
        for y in ambmods + pis:
            ext_ok &= ext1_dim(y, x) == stable_hom_dim(y, ox)
    checks.append(("ext1_stable_hom", bool(ext_ok)))
    # Wakamatsu vanishing on minimal-approximation kernels, with L scoped to
    # the layers the approximation uses; add M is not extension-closed, so
    # the lemma's hypothesis forces this scope (test_properties pins the
    # counterexample against unscoped L)
    wak_ok = True
    for q, m in [(linear_quiver(2), 1), (one_vertex(), 2)]:
        bundle = auslander_generator(q, m)
        for lab, x in lemma_2_4_inventory(bundle):
            cert = verify_lemma_2_4(bundle, x, lab)
            wak_ok &= cert.values["wakamatsu_scoped_vanishing"]
    for v in range(4):
        projs = [projective_module(a, w) for w in range(4)]
        g = right_approximation(projs, simple_module(a, v))
        k, _ = kernel(g)
        wak_ok &= all(ext1_dim(p, k) == 0 for p in projs)
    checks.append(("wakamatsu_vanishing", bool(wak_ok)))
    failures = [name for name, good in checks if not good]
    ok = not failures
    report(6, ok, f"{len(checks)} engine invariants exact" + ("" if ok else f"; failed: {failures}"))
    assert not failures


def test_criterion_7_byte_identical_reports(tmp_path):
    kfile = tmp_path / "kronecker.json"
    kfile.write_text(json.dumps({
        "vertices": ["1", "2"],
        "arrows": [
            {"name": "a", "from": "2", "to": "1"},
            {"name": "b", "from": "2", "to": "1"},
        ],
    }))
    pairs = []
    for cmd in (["domdim", "--m", "1"], ["bounds", "--m", "2"]):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = [cmd[0], "--quiver", str(kfile)] + cmd[1:] + ["--report", "json", "--seed", "3"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())
    ok = all(pairs)
    report(7, ok, "two runs with identical flags and seed give byte-identical JSON")
    assert ok
