"""Checks and conveniences that only the tests use.

They read the engine's public objects and never feed back into it.
"""

import os
from dataclasses import dataclass, field
from itertools import compress
from typing import Optional, Sequence

import pytest

import replalg.verify
from replalg.algebra import AlgebraData, _sparse_coords
from replalg.cli import parse_quiver
from replalg.errors import InternalCheckFailed, NotBasic, NotProjInjective
from replalg.homology import (
    DimBound,
    _from_sum,
    _map_space,
    _span_rank,
    cosyzygy,
    decompose_with_maps,
    is_isomorphic,
    projective_dimension,
    stable_hom_dim,
)
from replalg.linalg import EchelonSpace, RatMatrix
from replalg.modules import (
    ModuleMap,
    ModuleRep,
    _cosyzygy_step,
    _radical_blocks,
    _right_ideal,
    _syzygy_step,
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
    submodule_from_vertex_bases,
    zero_map,
    zero_module,
)
from replalg.quiver import Path, Quiver, enumerate_paths, path_end, path_label
from replalg.replicated import build_replicated, embed
from replalg.verify import verify_ext_stablehom


def shipped_quiver(name: str) -> Quiver:
    """The quiver of quivers/<name>.json at the root of the checkout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "quivers", f"{name}.json"), encoding="utf-8") as fh:
        return parse_quiver(fh.read())


def _scatter(out: RatMatrix, rows: Sequence[int], cols: Sequence[int], m: RatMatrix) -> None:
    """Write block m into the dense matrix out at the given coordinates."""
    for g, row in zip(rows, m.data):
        for c, val in zip(cols, row):
            out.data[g][c] = val


def dense_action(x: ModuleRep, b: int) -> RatMatrix:
    """The dense dim x dim matrix of the action of basis element b on x."""
    out = RatMatrix.zeros(x.dim, x.dim)
    if b in x.blocks:
        u, v = x.algebra.grading[b]
        _scatter(out, x.coords_at(v), x.coords_at(u), x.blocks[b])
    return out


def dense_matrix(f: ModuleMap) -> RatMatrix:
    """The dense dim target x dim source matrix of f."""
    out = RatMatrix.zeros(f.target.dim, f.source.dim)
    for v, m in enumerate(f.blocks):
        _scatter(out, f.target.coords_at(v), f.source.coords_at(v), m)
    return out


def from_rows(rows):
    """The RatMatrix with the given rows."""
    rows = [list(r) for r in rows]
    return RatMatrix(len(rows), len(rows[0]) if rows else 0, rows)


def kronecker3():
    """Three arrows 2 -> 1, as quivers/kronecker3.json: a wild quiver."""
    return Quiver(["1", "2"], [("a", "2", "1"), ("b", "2", "1"), ("c", "2", "1")])


def compose_paths(q: Quiver, p: Path, r: Path) -> Optional[Path]:
    """p then r, or None when the endpoints do not match."""
    if path_end(q, p) != r.start:
        return None
    return Path(p.start, p.arrows + r.arrows)


def strip_prefix(q: Quiver, whole: Path, prefix: Path) -> Optional[Path]:
    """r with whole = prefix * r, or None."""
    if whole.start != prefix.start:
        return None
    k = len(prefix.arrows)
    if whole.arrows[:k] != prefix.arrows:
        return None
    return Path(path_end(q, prefix), whole.arrows[k:])


def strip_suffix(q: Quiver, whole: Path, suffix: Path) -> Optional[Path]:
    """r with whole = r * suffix, or None."""
    k = len(suffix.arrows)
    if k == 0:
        return whole if path_end(q, whole) == suffix.start else None
    if len(whole.arrows) < k or whole.arrows[len(whole.arrows) - k:] != suffix.arrows:
        return None
    r = Path(whole.start, whole.arrows[: len(whole.arrows) - k])
    return r if path_end(q, r) == suffix.start else None


def all_pairs_path_table(q: Quiver):
    """The table of kQ from ``compose_paths`` on every ordered pair of paths."""
    paths = enumerate_paths(q)
    index = {p: i for i, p in enumerate(paths)}
    mult = [[() for _ in paths] for _ in paths]
    for i, p in enumerate(paths):
        for j, r in enumerate(paths):
            c = compose_paths(q, p, r)
            if c is not None:
                mult[i][j] = ((index[c], 1),)
    return mult


def replicated_keys(q: Quiver, m: int) -> list[tuple]:
    """The basis keys of A^(m) in index order: ("p", path, i) for a path in
    copy i, 0 <= i <= m, then ("d", path, i) for its dual in slot i >= 1."""
    paths = enumerate_paths(q)
    return [("p", p, i) for i in range(m + 1) for p in paths] + [("d", p, i) for i in range(1, m + 1) for p in paths]


def path_rule_product(q: Quiver, ka: tuple, kb: tuple) -> Optional[tuple]:
    """The key of ka * kb by the path rules of A^(m), or None for zero."""
    kind_a, pa, ia = ka
    kind_b, pb, ib = kb
    if kind_a == "p" and kind_b == "p":
        c = compose_paths(q, pa, pb) if ia == ib else None
        return ("p", c, ia) if c is not None else None
    if kind_a == "p" and kind_b == "d":
        # (p, i) * (q*, i) = (r*, i) with q = r p
        r = strip_suffix(q, pb, pa) if ia == ib else None
        return ("d", r, ib) if r is not None else None
    if kind_a == "d" and kind_b == "p":
        # (q*, i) * (p, i-1) = (r*, i) with q = p r
        r = strip_prefix(q, pa, pb) if ib == ia - 1 else None
        return ("d", r, ia) if r is not None else None
    return None  # D(A) x D(A) -> 0


@dataclass
class PathRuleAlgebra:
    """A^(m) from the path rules on every ordered pair of basis keys: the
    oracle of ``ReplicatedAlgebra``'s read-off of kQ's table."""

    keys: list
    labels: tuple
    mult: list
    unit: tuple
    idempotents: tuple
    grading: list


def path_rule_replicated(q: Quiver, m: int) -> PathRuleAlgebra:
    keys = replicated_keys(q, m)
    index = {k: n for n, k in enumerate(keys)}
    nv = len(q.vertices)
    mult = [[() for _ in keys] for _ in keys]
    for a, ka in enumerate(keys):
        for b, kb in enumerate(keys):
            prod = path_rule_product(q, ka, kb)
            if prod is not None:
                mult[a][b] = ((index[prod], 1),)
    labels = tuple(f"{path_label(q, p)}{'*' if kind == 'd' else ''}@{i}" for kind, p, i in keys)
    # (p, i) runs from start p@i to end p@i, (p*, i) from end p@i to start p@(i-1)
    grading = [(i * nv + p.start, i * nv + path_end(q, p)) if kind == "p"
               else (i * nv + path_end(q, p), (i - 1) * nv + p.start) for kind, p, i in keys]
    units = [tuple(int(k == ("p", Path(v, ()), i)) for k in keys) for i in range(m + 1) for v in range(nv)]
    idempotents = tuple((f"{q.vertices[v]}@{i}", units[i * nv + v]) for i in range(m + 1) for v in range(nv))
    return PathRuleAlgebra(keys, labels, mult, tuple(map(sum, zip(*units))), idempotents, grading)


def embed_by_keys(x: ModuleRep, copy: int, into) -> ModuleRep:
    """``embed`` through the path keys of ``replicated_keys``."""
    index = {k: n for n, k in enumerate(replicated_keys(into.quiver, into.m))}
    paths = enumerate_paths(into.quiver)
    blocks = {index[("p", paths[pi], copy)]: m for pi, m in x.blocks.items()}
    vertex_of = [copy * len(into.quiver.vertices) + v for v in x.vertex_of]
    return ModuleRep(into.algebra, x.dim, blocks, vertex_of)


def restrict_by_keys(x: ModuleRep, ambient, target) -> ModuleRep:
    """``restrict_from_ambient`` through the path keys: the block of each
    key of A^(m) is the ambient block of the same key."""
    index = {k: n for n, k in enumerate(replicated_keys(ambient.quiver, ambient.m))}
    blocks = {}
    for n, key in enumerate(replicated_keys(target.quiver, target.m)):
        m = x.blocks.get(index[key])
        if m is not None:
            blocks[n] = m
    return ModuleRep(target.algebra, x.dim, blocks, x.vertex_of)


def validate_module(x: ModuleRep) -> None:
    """Check the module axioms of x exactly on the dense view; ValueError
    names the first that fails."""
    a = x.algebra
    acts = {b: dense_action(x, b) for b in x.blocks}
    zero = RatMatrix.zeros(x.dim, x.dim)

    def act(pairs) -> RatMatrix:
        out = zero
        for k, c in pairs:
            if c and k in acts:
                out = out + acts[k].scaled(c)
        return out

    if act(enumerate(a.unit)) != RatMatrix.identity(x.dim):
        raise ValueError("unit does not act as the identity")
    for i in range(a.dim):
        for j in range(a.dim):
            rhs = acts[j] @ acts[i] if i in acts and j in acts else zero
            if act(a.mult[i][j]) != rhs:
                raise ValueError(f"action violates structure constants on ({a.labels[i]}, {a.labels[j]})")
    for v, (_lab, coords) in enumerate(a.idempotents):
        want = RatMatrix.zeros(x.dim, x.dim)
        for i in x.coords_at(v):
            want.data[i][i] = 1
        if act(enumerate(coords)) != want:
            raise ValueError(f"idempotent {v} is not the marked coordinate projector")


def validate_map(f: ModuleMap) -> None:
    """Check on the dense view that f intertwines the actions; ValueError
    names the first basis element where it does not."""
    x, y = f.source, f.target
    m = dense_matrix(f)
    for i in sorted(x.blocks.keys() | y.blocks.keys()):
        if m @ dense_action(x, i) != dense_action(y, i) @ m:
            raise ValueError(f"map does not intertwine basis element {i}")


def span_contains(span: EchelonSpace, vec) -> bool:
    """vec lies in the span: it reduces to zero against the echelon rows."""
    return not any(span._reduce(vec))


def is_injective_map(f: ModuleMap) -> bool:
    return f.rank() == f.source.dim


def is_invertible(m: RatMatrix) -> bool:
    return m.rows == m.cols and m.rank() == m.rows


def twist(x: ModuleRep) -> ModuleRep:
    """x after the base change 1 + E_{01} inside each vertex block of
    dimension >= 2: an isomorphic module whose covers and envelopes have
    square blocks that are not symmetric."""
    c = RatMatrix.identity(x.dim)
    for v in range(len(x.algebra.idempotents)):
        at = x.coords_at(v)
        if len(at) >= 2:
            c.data[at[0]][at[1]] = 1
    cinv = c.inverse()
    return ModuleRep.from_actions(x.algebra, {b: cinv @ dense_action(x, b) @ c for b in x.blocks}, x.vertex_of)


def block_diag(mats):
    """The block-diagonal matrix with the given blocks, in order."""
    out = RatMatrix.zeros(sum(m.rows for m in mats), sum(m.cols for m in mats))
    r = c = 0
    for m in mats:
        for i, row in enumerate(m.data):
            out.data[r + i][c:c + m.cols] = row
        r += m.rows
        c += m.cols
    return out


def image(f: ModuleMap):
    """(image module, inclusion into target, factorisation of f through it).

    The image at each vertex has the basis of the reduced row echelon form
    of the block's columns: the identity at its pivots, which are the unit
    rows that ``submodule_from_vertex_bases`` reads the action off."""
    bases, units = [], []
    for m in f.blocks:
        red, rank, pivots = m.transpose().rref()
        bases.append(red.submatrix(range(rank), range(m.rows)).transpose())
        units.append(pivots)
    img, incl = submodule_from_vertex_bases(f.target, bases, units)
    return img, incl, ModuleMap(f.source, img, [c.solve(m) for c, m in zip(bases, f.blocks)])


def cokernel(f: ModuleMap):
    """(cokernel module, projection from target): the oracle of the
    cosyzygy D Omega D and of ``simple_module``, which build no quotient.

    At each vertex the projection q keeps the free coordinates of the rref
    of f's block, transposed: row l of q is the unit vector at free[l] minus
    the reduced entries at the pivots.  So the block of b of degree (u, v)
    is read as the free rows of Y_b minus those entries times its pivot
    rows, at the free columns of u, with no dense product by q.
    """
    y = f.target
    a = y.algebra
    projs = []   # local projection rows per vertex, the blocks of the map
    frees = []   # per vertex, {local coordinate the projection keeps: its index in the cokernel}
    terms = []   # per vertex, the nonzero entries {coordinate: value} of each row of q
    for m in f.blocks:
        red, _, pivots = m.transpose().rref()
        pivset = set(pivots)
        free = [c for c in range(m.rows) if c not in pivset]
        rows = [{fc: 1, **{p: -red.data[i][fc] for i, p in enumerate(pivots) if red.data[i][fc]}} for fc in free]
        q = RatMatrix.zeros(len(free), m.rows)
        for qrow, row in zip(q.data, rows):
            for j, c in row.items():
                qrow[j] = c
        projs.append(q)
        frees.append({c: k for k, c in enumerate(free)})
        terms.append(rows)
    qdims = [q.rows for q in projs]
    blocks = {}
    for b, yb in y.blocks.items():
        u, v = a.grading[b]
        if qdims[u] == 0 or qdims[v] == 0:
            continue
        kof = frees[u]
        nonzero = [[(kof[c], x) for c, x in compress(enumerate(yrow), yrow) if c in kof] for yrow in yb.data]
        zdata = []
        for row in terms[v]:
            acc = [0] * qdims[u]
            for j, c in row.items():
                for k, x in nonzero[j]:
                    acc[k] += c * x
            zdata.append(acc)
        z = RatMatrix._of(qdims[v], qdims[u], zdata)
        if not z.is_zero():
            blocks[b] = z
    cok = ModuleRep(a, sum(qdims), blocks, [v for v, d in enumerate(qdims) for _ in range(d)])
    return cok, ModuleMap(y, cok, projs)


def top(x: ModuleRep):
    """(x / x*rad, projection); the quotient is semisimple."""
    _, incl = radical_submodule(x)
    return cokernel(incl)


def mult_coords(a, x, y):
    """The product x * y in the algebra a, all three as dense coordinates."""
    return a.dense(a.mult_sparse(_sparse_coords(x), _sparse_coords(y)))


def trace_form_radical(a: AlgebraData) -> list[list]:
    """{x : trace(L_{x y}) = 0 for all y}, the kernel of the trace form of the
    regular representation, as dense vectors: rad a in characteristic 0, for
    any algebra.  The oracle of ``AlgebraData.radical_sparse``."""
    dim = a.dim
    tr = [sum(c for j in range(dim) for l, c in a.mult[k][j] if l == j) for k in range(dim)]
    gram = RatMatrix(dim, dim, [[sum((c * tr[k] for k, c in a.mult[i][j]), 0) for j in range(dim)]
                                for i in range(dim)])
    kernel_basis = gram.kernel_basis()
    return [kernel_basis.column_vec(j) for j in range(kernel_basis.cols)]


def row_span(dim: int, vecs) -> list:
    """The reduced rows of the span of ``vecs`` in Q^dim: equal spans give equal rows."""
    span = EchelonSpace(dim)
    for v in vecs:
        span.add(v)
    return span.rows


def vertex_index(r, v: str, copy: int) -> int:
    """The index in A^(m) of vertex v of the quiver in the given copy."""
    return copy * r.num_vertices + r.quiver.vindex[v]


def is_connected(q) -> bool:
    """Whether the underlying graph of the quiver q is connected."""
    adj = {v: set() for v in q.vertices}
    for a in q.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen = {q.vertices[0]}
    stack = [q.vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(q.vertices)


def vstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    """The matrices stacked top to bottom; they must have equal column counts."""
    mats = list(mats)
    if not mats:
        return RatMatrix.zeros(0, 0)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack column mismatch")
    return RatMatrix._of(sum(m.rows for m in mats), cols, [row[:] for m in mats for row in m.data])


def _socle_bases(x: ModuleRep) -> list[tuple[RatMatrix, list[int]]]:
    """Per-vertex bases of the annihilator of rad(A) in x, each with the rows
    where it is the identity."""
    # the socle at u is killed by the stacked blocks of the pieces of degree (u, .)
    by_source: dict[int, list[RatMatrix]] = {}
    for u, _v, m in _radical_blocks(x):
        by_source.setdefault(u, []).append(m)
    return [vstack(by_source.get(u) or [RatMatrix.zeros(0, len(x.coords_at(u)))]).null_space()
            for u in range(len(x.algebra.idempotents))]


def socle(x: ModuleRep):
    """(annihilator of rad(A) in x, inclusion)."""
    if not x.algebra.radical_sparse():
        return x, identity_map(x)
    return submodule_from_vertex_bases(x, *zip(*_socle_bases(x)))


@dataclass
class Resolution:
    """A minimal projective resolution or injective coresolution.

    projective:  maps[0]: terms[0] -> module, maps[i]: terms[i] -> terms[i-1]
    injective:   maps[0]: module -> terms[0], maps[i]: terms[i-1] -> terms[i]
    ``complete`` is False when the construction stopped at the cap; when it
    is True, ``length`` is the projective (resp. injective) dimension.
    """

    kind: str
    module: ModuleRep
    terms: list[ModuleRep] = field(default_factory=list)
    maps: list[ModuleMap] = field(default_factory=list)
    complete: bool = True

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def minimal_projective_resolution(x: ModuleRep, cap: int) -> Resolution:
    """Iterated projective covers of syzygies; stops at zero or at the cap."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    res = Resolution("projective", x)
    if x.dim == 0:
        return res
    current = x
    incl_prev: Optional[ModuleMap] = None
    for step in range(cap + 1):
        p, f = projective_cover(current)
        res.terms.append(p)
        res.maps.append(f if incl_prev is None else f.then(incl_prev))
        k, kincl = kernel(f)
        if k.dim == 0:
            return res
        current, incl_prev = k, kincl
    res.complete = False
    return res


def verify_exact(res) -> None:
    """Re-check a Resolution's exactness at every interior term by rank
    arithmetic; raises ValueError where it fails."""
    if res.kind == "projective":
        if res.terms and not res.maps[0].is_surjective():
            raise ValueError("resolution is not exact at the module")
        for i in range(1, len(res.maps)):
            d_prev, d = res.maps[i - 1], res.maps[i]
            if not d.then(d_prev).is_zero():
                raise ValueError("resolution differentials do not compose to zero")
            if d.rank() != d_prev.source.dim - d_prev.rank():
                raise ValueError(f"resolution not exact at term {i - 1}")
        if res.complete and res.maps and not is_injective_map(res.maps[-1]):
            raise ValueError("resolution not exact at the last term")
    else:
        if res.terms and not is_injective_map(res.maps[0]):
            raise ValueError("coresolution is not exact at the module")
        for i in range(1, len(res.maps)):
            d_prev, d = res.maps[i - 1], res.maps[i]
            if not d_prev.then(d).is_zero():
                raise ValueError("coresolution differentials do not compose to zero")
            # ker(d) must equal im(d_prev)
            if d_prev.target.dim - d.rank() != d_prev.rank():
                raise ValueError(f"coresolution not exact at term {i - 1}")
        if res.complete and res.maps and not res.maps[-1].is_surjective():
            raise ValueError("coresolution not exact at the last term")


def greedy_right_approximation(addset, x, homs=None):
    """A minimal right add(addset)-approximation of x by dropping: start
    from one copy of L_t per basis vector of Hom(L_t, x) and drop copies
    while Hom(L, -) of the map stays onto Hom(L, x) for every L of the
    addset, checked by rank, until no single copy can be dropped."""
    if homs is None:
        def homs(i, j):
            return hom_basis(addset[i], addset[j])
    have = [hom_basis(l, x) for l in addset]
    copies = [(t, phi) for t, phis in enumerate(have) for phi in phis]
    # composed[l][c]: the flattened phi_c o h for every h: L -> L_t(c)
    composed = [[[h.then(phi).flat() for h in homs(li, t)] for t, phi in copies]
                for li in range(len(addset))]

    def is_approx(active):
        for li, l in enumerate(addset):
            sp = _map_space(l, x)
            for c in active:
                for v in composed[li][c]:
                    sp.add(v)
            if sp.rank < len(have[li]):
                return False
        return True

    active = list(range(len(copies)))
    assert is_approx(active)
    changed = True
    while changed:
        changed = False
        for c in list(active):
            trial = [d for d in active if d != c]
            if is_approx(trial):
                active, changed = trial, True
    if not active:
        return zero_map(zero_module(x.algebra), x), []
    out, _ = _from_sum([copies[c][1] for c in active], x)
    return out, [copies[c][0] for c in active]


def _basic_modules(summands) -> list[ModuleRep]:
    """The modules of (label, module) summands; NotBasic if two are isomorphic."""
    for i, si in enumerate(summands):
        for sj in summands[i + 1:]:
            if is_isomorphic(si[1], sj[1]) is not None:
                raise NotBasic(f"summands {si[0]} and {sj[0]} are isomorphic")
    return [s[1] for s in summands]


def end_algebra(x: Optional[ModuleRep] = None, summands=None) -> AlgebraData:
    """End(x) as an AlgebraData with one idempotent per indecomposable summand.

    Multiplication is "apply first, then second": f*g = g o f, making x a
    right End(x)-module.  ``summands`` may supply the decomposition as
    (label, module) pairs, in place of x; otherwise x is decomposed.
    Raises NotBasic when two summands are isomorphic.
    """
    if summands is None:
        summands = [(f"X{i}", m) for i, (m, _, _) in enumerate(decompose_with_maps(x))]
    n = len(summands)
    mods = _basic_modules(summands)
    # block Hom bases, with identity leading each diagonal block
    blocks: dict[tuple[int, int], list[ModuleMap]] = {}
    for i in range(n):
        for j in range(n):
            basis = hom_basis(mods[i], mods[j])
            if i == j:
                ident = identity_map(mods[i])
                sp = _map_space(mods[i], mods[i])
                sp.add(ident.flat())
                newbasis = [ident]
                for b in basis:
                    if sp.add(b.flat()):
                        newbasis.append(b)
                if len(newbasis) != len(basis):
                    raise InternalCheckFailed("identity completion changed the End dimension")
                basis = newbasis
            blocks[(i, j)] = basis
    index: dict[tuple[int, int, int], int] = {}
    labels: list[str] = []
    for i in range(n):
        for j in range(n):
            for a in range(len(blocks[(i, j)])):
                index[(i, j, a)] = len(labels)
                if i == j and a == 0:
                    labels.append(f"e({summands[i][0]})")
                else:
                    labels.append(f"{summands[i][0]}>{summands[j][0]}.{a}")
    dim = len(labels)
    # express all composable products in the block bases, one solve per target block
    solvers: dict[tuple[int, int], RatMatrix] = {}
    for (i, j), basis in blocks.items():
        if basis:
            solvers[(i, j)] = RatMatrix.from_columns([b.flat() for b in basis])
    mult = [[() for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            left = blocks[(i, j)]
            if not left:
                continue
            for l in range(n):
                right = blocks[(j, l)]
                if not right:
                    continue
                prods = []
                keys = []
                for a, f in enumerate(left):
                    for b, g in enumerate(right):
                        prods.append(f.then(g).flat())
                        keys.append((index[(i, j, a)], index[(j, l, b)]))
                target = blocks[(i, l)]
                sol = None
                if target:
                    sol = solvers[(i, l)].solve(RatMatrix.from_columns(prods))
                if sol is None:
                    if any(any(col) for col in prods):
                        raise InternalCheckFailed("composite left its Hom block")
                    continue
                for col, (bi, bj) in enumerate(keys):
                    entry = []
                    for c in range(len(target)):
                        val = sol.data[c][col]
                        if val:
                            entry.append((index[(i, l, c)], val))
                    mult[bi][bj] = tuple(entry)
    unit = [0] * dim
    idems = []
    for i in range(n):
        coords = [0] * dim
        coords[index[(i, i, 0)]] = 1
        unit[index[(i, i, 0)]] = 1
        idems.append((summands[i][0], coords))
    return AlgebraData(labels, mult, unit, idems)


def hom_exactness(l, g, x):
    """The module-level check of 0 -> Hom(L, K) -> Hom(L, M1) -> Hom(L, x)
    -> 0 for g: M1 -> x and K = ker g, each space from its own Hom system:
    (dim Hom(L, K), dim Hom(L, M1), rank of Hom(L, g), dim Hom(L, x))."""
    kmod, _ = kernel(g)
    hm = hom_basis(l, g.source)
    return hom_dim(l, kmod), len(hm), _span_rank(l, x, (phi.then(g) for phi in hm)), hom_dim(l, x)


def ext1_by_resolution(y: ModuleRep, x: ModuleRep) -> int:
    """dim Ext^1(y, x) from the start P2 -d2-> P1 -d1-> P0 -> y of a minimal
    projective resolution of y: the homology at Hom(P1, x) of the complex
    Hom(P0, x) -> Hom(P1, x) -> Hom(P2, x), that is dim Hom(P1, x) minus
    the rank of d2* and the rank of d1*, each ranked from composed maps."""
    if y.dim == 0 or x.dim == 0:
        return 0
    p0, f0 = projective_cover(y)
    k0, k0i = kernel(f0)
    if k0.dim == 0:
        return 0
    p1, f1 = projective_cover(k0)
    d1 = f1.then(k0i)
    h1 = hom_basis(p1, x)
    k1, k1i = kernel(f1)
    rank_d2 = 0
    if k1.dim:
        p2, f2 = projective_cover(k1)
        d2 = f2.then(k1i)
        rank_d2 = _span_rank(p2, x, (d2.then(phi) for phi in h1))
    rank_d1 = _span_rank(p1, x, (d1.then(psi) for psi in hom_basis(p0, x)))
    return len(h1) - rank_d2 - rank_d1


def stable_hom_by_composites(y: ModuleRep, z: ModuleRep, through: Sequence[ModuleRep]) -> int:
    """dim StHom(y, z) by its definition: dim Hom(y, z) less the rank of the
    span of the composites y -> w -> z through the listed
    projective-injectives, from Hom(y, w) and Hom(w, z) for each w: the
    oracle of ``stable_hom_dim``."""
    for w in through:
        if not (is_projective_module(w) and is_injective_module(w)):
            raise NotProjInjective("a listed module is not projective-injective")
    dim_hom = hom_dim(y, z)
    if not dim_hom:
        return 0
    homs = [(hom_basis(y, w), hom_basis(w, z)) for w in through]
    return dim_hom - _span_rank(y, z, (a.then(b) for into, outof in homs for a in into for b in outof))


def nakayama_by_modules(a: AlgebraData) -> dict[int, int]:
    """{v: u} for each injective e_v A, e_v A = I_u, from modules: the
    cosyzygy step of each e_v A (injective iff its cosyzygy is 0, and then
    its envelope is one I_u), checked against the cover of each I_u
    (projective iff the cover is one e_v A with kernel 0): the oracle of
    ``AlgebraData.nakayama``."""
    n = range(len(a.idempotents))
    steps = {v: _cosyzygy_step(projective_module(a, v)) for v in n}
    by_cosyzygy = {v: stack[0] for v, (stack, cosyz) in steps.items() if not cosyz.dim}
    covers = {u: _syzygy_step(injective_module(a, u)) for u in n}
    by_cover = {stack[0]: u for u, (stack, syz) in covers.items() if len(stack) == 1 and not syz.dim}
    assert by_cosyzygy == by_cover and all(len(steps[v][0]) == 1 for v in by_cosyzygy)
    return by_cosyzygy


def projective_injectives_by_modules(a: AlgebraData) -> list[ModuleRep]:
    """The e_v A that ``is_injective_module`` finds injective, in order of v."""
    return [p for p in (projective_module(a, v) for v in range(len(a.idempotents))) if is_injective_module(p)]


def ext_inventory(q: Quiver, m: int, amb=None):
    """(inventory, projective-injectives) of extcheck on q at m, inside the
    ambient A^(2m+1) (``amb`` if given): the cosyzygy chains of the embedded
    projectives and simples, up to 2m steps, then the projective-injectives
    (``projective_injectives_by_modules``)."""
    amb = amb if amb is not None else build_replicated(q, 2 * m + 1)
    pis = projective_injectives_by_modules(amb.algebra)
    inventory = []
    for make in (projective_module, simple_module):
        for v in range(len(q.vertices)):
            chain = [embed(make(amb.base, v), 0, amb)]
            for _ in range(2 * m):
                nxt = cosyzygy(chain[-1])
                if nxt.dim == 0:
                    break
                chain.append(nxt)
            inventory.extend(chain)
    return inventory + pis, pis


def extcheck_stable_homs(q: Quiver, m: int, labels: Optional[dict] = None):
    """(certificate, calls) of ``verify_ext_stablehom(q, m)``: calls holds
    (y, z, value) for each of its ``stable_hom_dim`` calls, in order.  The
    first ``pairs_checked`` are the identity pairs (y, Omega^-1 x), the
    rest the lemma-3.2 pairs, so a test reads the pairs that extcheck
    checks rather than a copy of how it forms them.

    A dict ``labels`` receives id(x): (x, i, (kind, v)) for each module x
    = Omega^{-i} of the copy-0 e_v kQ (kind "P") or its top (kind "S")
    that the run builds, read off its own ``embed`` and ``cosyzygy`` calls;
    the projective-injectives carry no label."""
    calls = []

    def recorded(y, z):
        value = stable_hom_dim(y, z)
        calls.append((y, z, value))
        return value

    def embedded(x, copy, amb):
        out = embed(x, copy, amb)
        stack = x.extras.get("projective_stack")
        labels[id(out)] = (out, copy, ("P", stack[0]) if stack else ("S", x.vertex_of[0]))
        return out

    def shifted(x):
        out = cosyzygy(x)
        if id(x) in labels:
            _, i, start = labels[id(x)]
            labels[id(out)] = (out, i + 1, start)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replalg.verify, "stable_hom_dim", recorded)
        if labels is not None:
            mp.setattr(replalg.verify, "embed", embedded)
            mp.setattr(replalg.verify, "cosyzygy", shifted)
        cert = verify_ext_stablehom(q, m)
    return cert, calls


def happel_ext(q: Quiver, d: int, y0: tuple[str, int], x0: tuple[str, int]) -> int:
    """dim Ext^d over kQ of Y0 and X0, each ("P", v), the right module e_v kQ,
    or ("S", v), its top, from path counts and the Euler form: the oracle
    of every ``extcheck`` value.  Happel's equivalence of the stable category
    of the repetitive algebra with D^b(mod kQ), Omega^{-1} the shift, gives
    dim StHom(Omega^{-i} Y0, Omega^{-k} X0) = dim Ext^{k-i}(Y0, X0) (Happel,
    LMS Lecture Notes 119, 1988, ch. II).  Over kQ: Hom(P_u, Z) = (dim Z)_u,
    Hom(S_u, S_v) = delta_uv, Hom(S_u, P_v) = the paths v -> u when u is a
    sink, else 0; Ext^1 = Hom - <dim Y0, dim X0>, with <x, y> = sum x_i y_i -
    sum over arrows s -> t of x_s y_t (Ringel, LNM 1099, 1984); Ext^d = 0
    for d < 0 and d >= 2, kQ being hereditary."""
    n = len(q.vertices)
    paths = [[0] * n for _ in range(n)]  # paths[v][u]: the paths v -> u, so (dim e_v kQ)_u
    for p in enumerate_paths(q):
        paths[p.start][path_end(q, p)] += 1

    def dims(kind, v):
        return paths[v] if kind == "P" else [int(u == v) for u in range(n)]

    (ky, vy), (kx, vx) = y0, x0
    if ky == "P":
        hom = dims(kx, vx)[vy]
    elif kx == "S":
        hom = int(vy == vx)
    else:
        hom = paths[vx][vy] if all(q.vindex[a.source] != vy for a in q.arrows) else 0
    if d != 1:
        return hom if d == 0 else 0
    y, x = dims(*y0), dims(*x0)
    euler = sum(a * b for a, b in zip(y, x)) - sum(y[q.vindex[a.source]] * x[q.vindex[a.target]] for a in q.arrows)
    return hom - euler


def end_structure(m: ModuleRep):
    """(endo basis, structure constants c[i][j] as dense rows) with f*g = g o f,
    from a dense solve of all products in the flattened basis."""
    endos = hom_basis(m, m)
    n = len(endos)
    stacked = RatMatrix.from_columns([f.flat() for f in endos])
    products = [endos[i].then(endos[j]).flat() for i in range(n) for j in range(n)]
    sol = stacked.solve(RatMatrix.from_columns(products))
    if sol is None:
        raise InternalCheckFailed("endomorphism products left the endomorphism space")
    c = [[[sol.data[k][i * n + j] for k in range(n)] for j in range(n)] for i in range(n)]
    return endos, c


def end_top_dimension(m: ModuleRep) -> int:
    """dim of End(m)/rad End(m), as the rank of the trace form of End(m) on
    itself; the oracle for the engine's locality certificate."""
    if m.dim == 0:
        return 0
    endos, c = end_structure(m)
    n = len(endos)
    tr = [sum((c[k][j][j] for j in range(n)), 0) for k in range(n)]
    gram = RatMatrix(n, n, [
        [sum((c[i][j][k] * tr[k] for k in range(n)), 0) for j in range(n)]
        for i in range(n)
    ])
    return gram.rank()


def minimal_injective_coresolution(x: ModuleRep, cap: int) -> Resolution:
    """Iterated injective envelopes of cosyzygies; stops at zero or at the cap."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    res = Resolution("injective", x)
    if x.dim == 0:
        return res
    current = x
    proj_prev: Optional[ModuleMap] = None
    for step in range(cap + 1):
        i, env = injective_envelope(current)
        res.terms.append(i)
        res.maps.append(env if proj_prev is None else proj_prev.then(env))
        c, cproj = cokernel(env)
        if c.dim == 0:
            return res
        current, proj_prev = c, cproj
    res.complete = False
    return res


def regular_module(a: AlgebraData) -> ModuleRep:
    """The algebra as a right module over itself, in its own basis."""
    return _right_ideal(a, list(range(a.dim)))


def walk_dominant_dimension(a: AlgebraData, cap: int) -> DimBound:
    """dom.dim a by walking the cosyzygies of the regular module, the length
    of the initial stretch whose injective envelopes are projective: the
    oracle of ``dominant_dimension``.  An all-projective coresolution, or
    one that outlives ``cap`` envelopes, reads DimBound(cap, exact=False)."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    current = regular_module(a)
    for count in range(cap):
        if not all(is_projective_module(injective_module(a, u)) for u in set(_cosyzygy_step(current)[0])):
            return DimBound(count)
        current = _cosyzygy_step(current)[1]
        if current.dim == 0:
            break  # finite all-projective coresolution
    return DimBound(cap, exact=False)


def simples_global_dimension(a: AlgebraData, cap: int) -> DimBound:
    """gl.dim a as the largest pd of its simple modules, one walk per vertex
    and no value kept on the algebra: the oracle of ``global_dimension``.  A
    walk that hits the cap makes the answer >= cap + 1."""
    pds = [projective_dimension(simple_module(a, v), cap) for v in range(len(a.idempotents))]
    return DimBound(max((pd.value for pd in pds), default=0), exact=all(pd.exact for pd in pds))


def injective_dimension(x: ModuleRep, cap: int) -> DimBound:
    if x.dim == 0:
        return DimBound(0)
    res = minimal_injective_coresolution(x, cap)
    if res.complete:
        return DimBound(res.length)
    return DimBound(cap + 1, exact=False)


def decompose(x: ModuleRep):
    """[(indecomposable, multiplicity)] with representatives up to isomorphism."""
    pieces = decompose_with_maps(x)
    groups: list[tuple[ModuleRep, int]] = []
    for piece, _, _ in pieces:
        for g in range(len(groups)):
            rep, count = groups[g]
            if is_isomorphic(rep, piece) is not None:
                groups[g] = (rep, count + 1)
                break
        else:
            groups.append((piece, 1))
    return groups
