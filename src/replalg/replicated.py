"""The m-replicated algebra of a hereditary path algebra, and the module
inventory built from it: standard embeddings, projective-injectives, the
cosyzygy ladder of the copy-0 projectives, and the generator-cogenerators
whose endomorphism algebras certify the representation-dimension bound.

A^(m) is the (m+1) x (m+1) lower-triangular matrix algebra with diagonal
copies of A = kQ and the bimodule D(A) on the subdiagonal; two subdiagonal
entries always multiply to zero.  The basis used here is

    (p, i)   a path p in copy i,               0 <= i <= m,
    (p*, i)  a dual basis vector in slot i,    1 <= i <= m,

with products: paths concatenate within a copy; (p,i)(q*,i) = (r*, i) when
q = r p; (q*,i)(p,i-1) = (r*, i) when q = p r; duals annihilate each other.
The dual (p*, i) sits between vertex (end p, copy i) and (start p, copy i-1),
so projectives of copy i >= 1 reach one copy down and are injective.

The infinite right repetitive algebra is never materialised: cosyzygy
ladders run in the finite ambient truncation A^(2m+1), guarded by an
AmbientTooSmall assertion.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .algebra import AlgebraData
from .errors import AmbientTooSmall, CopyOutOfRange, InternalCheckFailed
from .homology import (
    DimBound,
    _decided,
    _radical,
    decompose_with_maps,
    ext1_dim,
    global_dimension,
    is_isomorphic,
    projective_dimension,
)
from .modules import (
    ModuleMap,
    ModuleRep,
    _cosyzygy_step,
    _envelope_is_projective,
    _memo,
    hom_basis,
    injective_module,
    is_injective_module,
    projective_module,
    radical_submodule,
)
from .quiver import (
    Path,
    Quiver,
    build_hereditary,
    compose_paths,
    enumerate_paths,
    path_end,
    path_label,
    strip_prefix,
    strip_suffix,
)



class ReplicatedAlgebra:
    """A^(m) together with its labelled basis bookkeeping."""

    def __init__(self, quiver: Quiver, m: int):
        if m < 0:
            raise ValueError("m must be nonnegative")
        self.quiver = quiver
        self.m = m
        self.base = build_hereditary(quiver)
        paths = enumerate_paths(quiver)
        self.paths = paths
        nv = len(quiver.vertices)
        keys: list[tuple] = []
        labels: list[str] = []
        for i in range(m + 1):
            for p in paths:
                keys.append(("p", p, i))
                labels.append(f"{path_label(quiver, p)}@{i}")
        for i in range(1, m + 1):
            for p in paths:
                keys.append(("d", p, i))
                labels.append(f"{path_label(quiver, p)}*@{i}")
        self.keys = keys
        self.key_index = {k: n for n, k in enumerate(keys)}
        n = len(keys)
        # (p, i) runs from start p@i to end p@i, (p*, i) from end p@i to
        # start p@(i-1); only keys meeting at a vertex can have a product
        right, by_left = [], {}
        for b, (kind, p, i) in enumerate(keys):
            u, v = (p.start, path_end(quiver, p)) if kind == "p" else (path_end(quiver, p), p.start - nv)
            right.append(i * nv + v)
            by_left.setdefault(i * nv + u, []).append(b)
        mult = [[()] * n for _ in range(n)]
        for a, ka in enumerate(keys):
            for b in by_left.get(right[a], ()):
                prod = self._product(ka, keys[b])
                if prod is not None:
                    mult[a][b] = ((self.key_index[prod], 1),)
        unit = [0] * n
        idems = []
        for i in range(m + 1):
            for v in range(nv):
                coords = [0] * n
                idx = self.key_index[("p", Path(v, ()), i)]
                coords[idx] = 1
                unit[idx] = 1
                idems.append((f"{quiver.vertices[v]}@{i}", coords))
        self.algebra = AlgebraData(labels, mult, unit, idems)
        if self.algebra.dim != (2 * m + 1) * self.base.dim:
            raise InternalCheckFailed("replicated algebra has the wrong dimension")

    def _product(self, ka: tuple, kb: tuple) -> Optional[tuple]:
        q = self.quiver
        kind_a, pa, ia = ka
        kind_b, pb, ib = kb
        if kind_a == "p" and kind_b == "p":
            if ia != ib:
                return None
            c = compose_paths(q, pa, pb)
            return ("p", c, ia) if c is not None else None
        if kind_a == "p" and kind_b == "d":
            # (p, i) * (q*, i) = (r*, i) with q = r p
            if ia != ib:
                return None
            r = strip_suffix(q, pb, pa)
            return ("d", r, ib) if r is not None else None
        if kind_a == "d" and kind_b == "p":
            # (q*, i) * (p, i-1) = (r*, i) with q = p r
            if ib != ia - 1:
                return None
            r = strip_prefix(q, pa, pb)
            return ("d", r, ia) if r is not None else None
        return None  # D(A) x D(A) -> 0

    # -- vertex bookkeeping -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.quiver.vertices)

    def copy_of_vertex(self, idx: int) -> int:
        return idx // self.num_vertices

    def vertex_display(self, idx: int) -> str:
        copy, j = divmod(idx, self.num_vertices)
        return self.quiver.vertices[j] + "'" * copy

    def support_copies(self, x: ModuleRep) -> set[int]:
        dims = x.vertex_dims()
        return {self.copy_of_vertex(i) for i, d in enumerate(dims) if d}

    def in_a_m(self, x: ModuleRep, m: Optional[int] = None) -> bool:
        m = self.m if m is None else m
        return all(c <= m for c in self.support_copies(x))


def build_replicated(quiver: Quiver, m: int) -> ReplicatedAlgebra:
    return ReplicatedAlgebra(quiver, m)


def embed(x: ModuleRep, copy: int, into: ReplicatedAlgebra) -> ModuleRep:
    """Standard embedding of an A-module into copy i of A^(m)."""
    if x.algebra is not into.base:
        raise ValueError("module is not over the base path algebra of this instance")
    if not (0 <= copy <= into.m):
        raise CopyOutOfRange(f"copy {copy} outside 0..{into.m}")
    # the coordinates at vertex v of the copy are those at v of x: same blocks
    blocks = {into.key_index[("p", into.paths[pi], copy)]: m for pi, m in x.blocks.items()}
    vertex_of = [copy * into.num_vertices + v for v in x.vertex_of]
    return ModuleRep(into.algebra, x.dim, blocks, vertex_of)


def restrict_from_ambient(x: ModuleRep, ambient: ReplicatedAlgebra, target: ReplicatedAlgebra) -> ModuleRep:
    """View an ambient module supported in copies 0..m as an A^(m)-module.

    A^(m) is the quotient of the ambient algebra by the idempotents of the
    higher copies, so the action just restricts along the shared basis.
    """
    if x.algebra is not ambient.algebra:
        raise ValueError("module is not over the ambient algebra")
    if ambient.quiver is not target.quiver and ambient.quiver != target.quiver:
        raise ValueError("ambient and target come from different quivers")
    if not ambient.in_a_m(x, target.m):
        raise ValueError("module support leaves copies 0..m; not an A^(m)-module")
    # vertex indices agree between target and ambient for copies <= m, so
    # the blocks carry over unchanged
    blocks = {}
    for n, key in enumerate(target.keys):
        m = x.blocks.get(ambient.key_index[key])
        if m is not None:
            blocks[n] = m
    return ModuleRep(target.algebra, x.dim, blocks, x.vertex_of)


def projective_injectives(r: ReplicatedAlgebra) -> list[tuple[str, ModuleRep]]:
    """The indecomposable projectives that are also injective, with labels."""
    out = []
    for idx, (lab, _) in enumerate(r.algebra.idempotents):
        p = projective_module(r.algebra, idx)
        if is_injective_module(p):
            out.append((f"pi:{lab}", p))
    return out


@dataclass
class SigmaLayer:
    """Indecomposables of one cosyzygy layer of the copy-0 projectives."""

    k: int
    modules: list[ModuleRep] = field(default_factory=list)
    in_a_m: list[bool] = field(default_factory=list)


def sigma_layers(quiver: Quiver, m: int, upto: int, seed: int = 0,
                 ambient: Optional[ReplicatedAlgebra] = None):
    """Sigma_0 .. Sigma_upto inside the ambient truncation A^(2m+1).

    Sigma_0 is the set of copy-0 indecomposable projectives; each next layer
    collects the indecomposable summands of the cosyzygies of the previous
    one.  Every injective envelope met on the way must be projective-injective,
    otherwise the truncation would have been too small (AmbientTooSmall).
    """
    amb = ambient if ambient is not None else build_replicated(quiver, 2 * m + 1)
    nv = len(quiver.vertices)
    layer0 = SigmaLayer(0)
    for v in range(nv):
        p = projective_module(amb.algebra, v)  # idempotents of copy 0 come first
        layer0.modules.append(p)
        layer0.in_a_m.append(amb.in_a_m(p, m))
    layers = [layer0]
    for k in range(1, upto + 1):
        layer = SigmaLayer(k)
        for x in layers[-1].modules:
            if not _envelope_is_projective(x):
                raise AmbientTooSmall(
                    f"cosyzygy ladder hit a non-projective envelope at layer {k}"
                )
            c = _cosyzygy_step(x)[1]
            if c.dim == 0:
                continue
            for piece, _, _ in decompose_with_maps(c, seed=seed):
                if all(is_isomorphic(piece, other, seed=seed) is None for other in layer.modules):
                    layer.modules.append(piece)
                    layer.in_a_m.append(amb.in_a_m(piece, m))
        layers.append(layer)
    return amb, layers


def _sigma_pieces(r: ReplicatedAlgebra, t: int, seed: int) -> list[tuple[int, int, ModuleRep]]:
    """(k, i, the module i of Sigma_k restricted to A^(m)) for each module of
    the ladder Sigma_0 .. Sigma_{t-1} of :func:`sigma_layers` that lies in
    A^(m); the ambient and the layers are dropped."""
    amb, layers = sigma_layers(r.quiver, r.m, t - 1, seed=seed)
    return [(layer.k, i, restrict_from_ambient(mod, amb, r))
            for layer in layers for i, (mod, ok) in enumerate(zip(layer.modules, layer.in_a_m)) if ok]


@dataclass
class Summand:
    label: str
    module: ModuleRep          # over A^(m)
    dims: list[int]
    pd: DimBound
    layer: int = 0             # k for U_k summands, 0 for projectives/injectives


@dataclass
class GeneratorBundle:
    """A generator-cogenerator M of mod A^(m), kept as its summands, with
    their bookkeeping."""

    replicated: ReplicatedAlgebra
    summands: list[Summand]
    t: int                      # gl.dim A^(m)
    _extras: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def summand_homs(self, i: int, j: int) -> list[ModuleMap]:
        """A basis of Hom(L_i, L_j) between summands, solved on first use."""
        return _memo(self, ("hom", i, j), lambda: hom_basis(self.summands[i].module, self.summands[j].module))

    def summand_ext1(self, i: int, j: int) -> int:
        """dim Ext^1(L_i, L_j) between summands, computed on first use."""
        return _memo(self, ("ext1", i, j), lambda: ext1_dim(self.summands[i].module, self.summands[j].module))

    def summand_rad(self) -> dict:
        """:func:`_radical` of the whole table of summand_homs, formed once."""
        n = range(len(self.summands))
        return _memo(self, "rad", lambda: _radical({(i, j): self.summand_homs(i, j) for i in n for j in n}))

    def sigma_ladder(self, seed: int = 0) -> list[tuple[int, int, ModuleRep]]:
        """:func:`_sigma_pieces` of A^(m), built once per seed;
        ``auslander_generator`` stores the pieces of the ladder it used."""
        return _memo(self, ("sigma", seed), lambda: _sigma_pieces(self.replicated, self.t, seed))

    def end_summands(self) -> list[tuple[str, ModuleRep]]:
        """(label, module) of each summand, as :func:`end_global_dimension` reads them."""
        return [(s.label, s.module) for s in self.summands]


def _assemble_generator(r: ReplicatedAlgebra, labelled, t: int, cap: int, seed: int) -> GeneratorBundle:
    """De-duplicate labelled modules up to isomorphism; the bundle keeps the
    summands, not their sum."""
    chosen: list[tuple[str, ModuleRep]] = []
    for lab, mod in labelled:
        if all(is_isomorphic(mod, other, seed=seed) is None for _, other in chosen):
            chosen.append((lab, mod))
    summands = [
        Summand(
            lab, mod, mod.vertex_dims(), projective_dimension(mod, cap),
            layer=int(lab[1:].split(".")[0]) if lab.startswith("U") else 0,
        )
        for lab, mod in chosen
    ]
    bundle = GeneratorBundle(r, summands, t)
    _verify_generator_cogenerator(bundle, seed)
    return bundle


def _verify_generator_cogenerator(bundle: GeneratorBundle, seed: int) -> None:
    r = bundle.replicated
    mods = [s.module for s in bundle.summands]
    for idx, (lab, _) in enumerate(r.algebra.idempotents):
        p = projective_module(r.algebra, idx)
        if all(is_isomorphic(p, m, seed=seed) is None for m in mods):
            raise InternalCheckFailed(f"indecomposable projective at {lab} is not a summand")
        i = injective_module(r.algebra, idx)
        if all(is_isomorphic(i, m, seed=seed) is None for m in mods):
            raise InternalCheckFailed(f"indecomposable injective at {lab} is not a summand")


def default_cap(m: int) -> int:
    """The resolution length cap used when none is given."""
    return 4 * m + 4


def _minimal_summands(quiver: Quiver, m: int, cap: Optional[int]):
    """(A^(m), cap, gl.dim A^(m), the labelled modules of A + DA_m + P).

    Raises CapTooSmall when the cap ends before gl.dim A^(m) is determined.
    """
    cap = cap if cap is not None else default_cap(m)
    r = build_replicated(quiver, m)
    t_bound = _decided(global_dimension(r.algebra, cap), math.inf, cap, "A^(m)")
    nv = len(quiver.vertices)
    labelled: list[tuple[str, ModuleRep]] = []
    for v in range(nv):
        lab = r.algebra.idempotents[v][0]
        labelled.append((f"proj:{lab}", projective_module(r.algebra, v)))
    for v in range(nv):
        idx = m * nv + v
        lab = r.algebra.idempotents[idx][0]
        labelled.append((f"inj:{lab}", injective_module(r.algebra, idx)))
    labelled.extend(projective_injectives(r))
    return r, cap, t_bound.value, labelled


def auslander_generator(quiver: Quiver, m: int, cap: Optional[int] = None,
                        seed: int = 0) -> GeneratorBundle:
    """M = A + DA_m + P + U_1 + ... + U_{t-1}, de-duplicated up to isomorphism.

    t = gl.dim A^(m) is computed, never assumed.  The result is verified to
    be a generator and a cogenerator.
    """
    r, cap, t, labelled = _minimal_summands(quiver, m, cap)
    if t < 2:
        return _assemble_generator(r, labelled, t, cap, seed)
    pieces = _sigma_pieces(r, t, seed)
    count = Counter()
    for k, _i, mod in pieces:
        if k:
            labelled.append((f"U{k}.{count[k]}", mod))
            count[k] += 1
    bundle = _assemble_generator(r, labelled, t, cap, seed)
    bundle._extras[("sigma", seed)] = pieces
    return bundle


def minimal_cogenerator(quiver: Quiver, m: int, cap: Optional[int] = None,
                        seed: int = 0) -> GeneratorBundle:
    """M_0 = A + DA_m + P: the smallest obvious generator-cogenerator."""
    r, cap, t, labelled = _minimal_summands(quiver, m, cap)
    return _assemble_generator(r, labelled, t, cap, seed)


def loewy_layers(r: ReplicatedAlgebra, x: ModuleRep) -> list[str]:
    """Radical filtration layers as Loewy-series strings, top layer first."""
    layers = []
    current = x
    while current.dim:
        rad, _ = radical_submodule(current)
        dims_now = current.vertex_dims()
        dims_rad = rad.vertex_dims() + [0] * (len(dims_now) - len(rad.vertex_dims()))
        names = []
        for idx, (d0, d1) in enumerate(zip(dims_now, dims_rad)):
            names.extend([r.vertex_display(idx)] * (d0 - d1))
        layers.append(" ".join(names))
        current = rad
    return layers
