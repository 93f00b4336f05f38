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
from .quiver import Quiver, build_hereditary



class ReplicatedAlgebra:
    """A^(m) together with its labelled basis bookkeeping.

    With n = dim kQ and p the index of a path in kQ's basis, (p, i) has
    index i*n + p and (p*, i) has index (m+i)*n + p.  The table is read off
    kQ's: each nonzero product r p = c q gives (r,i)(p,i) = c (q,i) in every
    copy and, for i >= 1, the dual rules (p,i)(q*,i) = c (r*,i) and
    (q*,i)(r,i-1) = c (p*,i).  A path factors in one way only, so each cell
    is written once.
    """

    def __init__(self, quiver: Quiver, m: int):
        if m < 0:
            raise ValueError("m must be nonnegative")
        self.quiver = quiver
        self.m = m
        self.base = build_hereditary(quiver)
        n, nv = self.base.dim, len(quiver.vertices)
        labels = [f"{lab}@{i}" for i in range(m + 1) for lab in self.base.labels]
        labels += [f"{lab}*@{i}" for i in range(1, m + 1) for lab in self.base.labels]
        dim = (2 * m + 1) * n
        mult = [[()] * dim for _ in range(dim)]
        for r, row in enumerate(self.base.mult):
            for p, cell in enumerate(row):
                for q, c in cell:
                    for i in range(m + 1):
                        mult[i * n + r][i * n + p] = ((i * n + q, c),)
                    for i in range(1, m + 1):
                        mult[i * n + p][(m + i) * n + q] = (((m + i) * n + r, c),)
                        mult[(m + i) * n + q][(i - 1) * n + r] = (((m + i) * n + p, c),)
        unit = [0] * dim
        idems = []
        for i in range(m + 1):
            for v in range(nv):
                coords = [0] * dim
                coords[i * n + v] = 1  # trivial paths come first in kQ's basis
                unit[i * n + v] = 1
                idems.append((f"{quiver.vertices[v]}@{i}", coords))
        self.algebra = AlgebraData(labels, mult, unit, idems)
        for i in range(1, m + 1):
            for p, (u, v) in enumerate(self.base.grading):
                if self.algebra.grading[(m + i) * n + p] != (i * nv + v, (i - 1) * nv + u):
                    raise InternalCheckFailed("a dual basis element of A^(m) has the wrong degree")

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
    # the coordinates at vertex v of the copy are those at v of x: same
    # blocks, with path p of kQ at index copy*n + p
    n = into.base.dim
    blocks = {copy * n + p: m for p, m in x.blocks.items()}
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
    # the blocks carry over unchanged; the paths of copies 0..m share their
    # indices, and each dual sits (ambient.m - target.m)*n indices later
    n = target.base.dim
    n_paths, shift = (target.m + 1) * n, (ambient.m - target.m) * n
    blocks = {}
    for b in range(target.algebra.dim):
        m = x.blocks.get(b if b < n_paths else b + shift)
        if m is not None:
            blocks[b] = m
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


def sigma_layers(quiver: Quiver, m: int, upto: int, ambient: Optional[ReplicatedAlgebra] = None):
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
            for piece, _, _ in decompose_with_maps(c):
                if all(is_isomorphic(piece, other) is None for other in layer.modules):
                    layer.modules.append(piece)
                    layer.in_a_m.append(amb.in_a_m(piece, m))
        layers.append(layer)
    return amb, layers


def _sigma_pieces(r: ReplicatedAlgebra, t: int) -> list[tuple[int, int, ModuleRep]]:
    """(k, i, the module i of Sigma_k restricted to A^(m)) for each module of
    the ladder Sigma_0 .. Sigma_{t-1} of :func:`sigma_layers` that lies in
    A^(m); the ambient and the layers are dropped."""
    amb, layers = sigma_layers(r.quiver, r.m, t - 1)
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

    def sigma_ladder(self) -> list[tuple[int, int, ModuleRep]]:
        """:func:`_sigma_pieces` of A^(m), built once;
        ``auslander_generator`` stores the pieces of the ladder it used."""
        return _memo(self, "sigma", lambda: _sigma_pieces(self.replicated, self.t))

    def end_summands(self) -> list[tuple[str, ModuleRep]]:
        """(label, module) of each summand, as :func:`end_global_dimension` reads them."""
        return [(s.label, s.module) for s in self.summands]


def _assemble_generator(r: ReplicatedAlgebra, labelled, t: int, cap: int) -> GeneratorBundle:
    """De-duplicate labelled modules up to isomorphism; the bundle keeps the
    summands, not their sum."""
    chosen: list[tuple[str, ModuleRep]] = []
    for lab, mod in labelled:
        if all(is_isomorphic(mod, other) is None for _, other in chosen):
            chosen.append((lab, mod))
    summands = [
        Summand(
            lab, mod, mod.vertex_dims(), projective_dimension(mod, cap),
            layer=int(lab[1:].split(".")[0]) if lab.startswith("U") else 0,
        )
        for lab, mod in chosen
    ]
    bundle = GeneratorBundle(r, summands, t)
    _verify_generator_cogenerator(bundle)
    return bundle


def _verify_generator_cogenerator(bundle: GeneratorBundle) -> None:
    r = bundle.replicated
    mods = [s.module for s in bundle.summands]
    for idx, (lab, _) in enumerate(r.algebra.idempotents):
        p = projective_module(r.algebra, idx)
        if all(is_isomorphic(p, m) is None for m in mods):
            raise InternalCheckFailed(f"indecomposable projective at {lab} is not a summand")
        i = injective_module(r.algebra, idx)
        if all(is_isomorphic(i, m) is None for m in mods):
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


def auslander_generator(quiver: Quiver, m: int, cap: Optional[int] = None) -> GeneratorBundle:
    """M = A + DA_m + P + U_1 + ... + U_{t-1}, de-duplicated up to isomorphism.

    t = gl.dim A^(m) is computed, never assumed.  The result is verified to
    be a generator and a cogenerator.
    """
    r, cap, t, labelled = _minimal_summands(quiver, m, cap)
    if t < 2:
        return _assemble_generator(r, labelled, t, cap)
    pieces = _sigma_pieces(r, t)
    count = Counter()
    for k, _i, mod in pieces:
        if k:
            labelled.append((f"U{k}.{count[k]}", mod))
            count[k] += 1
    bundle = _assemble_generator(r, labelled, t, cap)
    bundle._extras["sigma"] = pieces
    return bundle


def minimal_cogenerator(quiver: Quiver, m: int, cap: Optional[int] = None) -> GeneratorBundle:
    """M_0 = A + DA_m + P: the smallest obvious generator-cogenerator."""
    r, cap, t, labelled = _minimal_summands(quiver, m, cap)
    return _assemble_generator(r, labelled, t, cap)


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
