"""Right modules over an AlgebraData and the exact functors on them.

Conventions
-----------
A :class:`ModuleRep` stores one action matrix per algebra basis element.
Matrices act on column coordinate vectors: coords(x * b) = act(b) @ coords(x),
so composing actions reverses order: act(a*b) = act(b) @ act(a).
A :class:`ModuleMap` f: X -> Y is a (dim Y x dim X) matrix with
f @ act_X(b) = act_Y(b) @ f for every basis element b.

Modules live in idempotent-adapted coordinates, always: ``vertex_of[i]``
names the idempotent whose action fixes coordinate i, and act(e_v) is then a
0/1 diagonal projector.  Together with the Peirce basis of the algebra this
makes a module a quiver representation: a basis element of degree (u, v)
maps the coordinates at u to those at v.  Every constructor builds its
result in these coordinates, so Hom spaces, kernels, covers and envelopes
are computed block by block.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .algebra import AlgebraData
from .errors import NonSplitSimple
from .linalg import EchelonSpace, RatMatrix, sparse_kernel, vstack

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _memo(x: ModuleRep, key: str, compute):
    """x's fact ``key``: compute() in full on first use, then the stored value."""
    if key not in x._extras:
        x._extras[key] = compute()
    return x._extras[key]


class ModuleRep:
    """A finite-dimensional right module, given by its action matrices.

    A module is immutable once constructed: nothing writes to its action
    matrices or ``vertex_of`` afterwards.  So a fact certified about it once
    stays true while it lives, and ``_extras`` keeps such facts on the
    object (the cache dies with it).  Keys: ``algebra_embedding`` and
    ``idempotent`` (projective e_v A), ``approximation_summands`` (source of
    a right approximation), ``is_projective`` and ``is_injective``,
    ``cosyzygy`` and ``ext1_prefix`` (the resolution start of ``ext1_dim``).
    """

    __slots__ = ("algebra", "dim", "_actions", "vertex_of", "_coords", "_extras")

    def __init__(self, algebra: AlgebraData, dim: int, actions, vertex_of: Sequence[int]):
        self.algebra = algebra
        self.dim = dim
        acts: list[Optional[RatMatrix]] = [None] * algebra.dim
        if isinstance(actions, dict):
            items = actions.items()
        else:
            items = enumerate(actions)
        for i, m in items:
            if m is None:
                continue
            if m.rows != dim or m.cols != dim:
                raise ValueError("action matrix has wrong shape")
            if not m.is_zero():
                acts[i] = m
        self._actions = acts
        self.vertex_of = list(vertex_of)
        if len(self.vertex_of) != dim:
            raise ValueError("vertex_of has wrong length")
        self._coords = None
        self._extras = {}

    # -- access -----------------------------------------------------------

    def action(self, i: int) -> RatMatrix:
        m = self._actions[i]
        return m if m is not None else RatMatrix.zeros(self.dim, self.dim)

    def action_or_none(self, i: int) -> Optional[RatMatrix]:
        return self._actions[i]

    def act_coords(self, coords: Sequence[Fraction]) -> RatMatrix:
        """Action matrix of an arbitrary algebra element."""
        out = RatMatrix.zeros(self.dim, self.dim)
        for i, c in enumerate(coords):
            if c:
                m = self._actions[i]
                if m is not None:
                    for r in range(self.dim):
                        mrow = m.data[r]
                        orow = out.data[r]
                        for j in range(self.dim):
                            x = mrow[j]
                            if x:
                                orow[j] = orow[j] + c * x
        return out

    def act_column(self, coords: Sequence[Fraction], g: int) -> list[Fraction]:
        """Column g of act_coords(coords), without building the matrix."""
        out = [_ZERO] * self.dim
        for i, c in enumerate(coords):
            if c:
                m = self._actions[i]
                if m is not None:
                    for r in range(self.dim):
                        x = m.data[r][g]
                        if x:
                            out[r] = out[r] + c * x
        return out

    def coords_at(self, v: int) -> list[int]:
        if self._coords is None:
            byv = {}
            for i, v0 in enumerate(self.vertex_of):
                byv.setdefault(v0, []).append(i)
            self._coords = byv
        return self._coords.get(v, [])

    def vertex_dims(self) -> list[int]:
        n = len(self.algebra.idempotents)
        return [len(self.coords_at(v)) for v in range(n)]

    @property
    def extras(self) -> dict:
        return self._extras

    def __repr__(self) -> str:
        return f"ModuleRep(dim={self.dim}, dims={self.vertex_dims()})"

    # -- verification -------------------------------------------------------

    def validate(self) -> None:
        """Check the module axioms exactly; used by the test-suite."""
        a = self.algebra
        unit = self.act_coords(a.unit)
        if unit != RatMatrix.identity(self.dim):
            raise ValueError("unit does not act as the identity")
        for i in range(a.dim):
            ai = self.action_or_none(i)
            for j in range(a.dim):
                aj = self.action_or_none(j)
                lhs = RatMatrix.zeros(self.dim, self.dim)
                for k, c in a.mult[i][j]:
                    ak = self.action_or_none(k)
                    if ak is not None:
                        lhs = lhs + ak.scaled(c)
                if ai is None or aj is None:
                    rhs = RatMatrix.zeros(self.dim, self.dim)
                else:
                    rhs = aj @ ai
                if lhs != rhs:
                    raise ValueError(
                        f"action violates structure constants on ({a.labels[i]}, {a.labels[j]})"
                    )
        for v, (_lab, coords) in enumerate(a.idempotents):
            ev = self.act_coords(coords)
            want = RatMatrix.zeros(self.dim, self.dim)
            for i, v0 in enumerate(self.vertex_of):
                if v0 == v:
                    want.data[i][i] = _ONE
            if ev != want:
                raise ValueError(f"idempotent {v} is not the marked coordinate projector")


class ModuleMap:
    """A morphism of right modules, stored as a (dim target x dim source) matrix."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: ModuleRep, target: ModuleRep, matrix: RatMatrix):
        if source.algebra is not target.algebra:
            raise ValueError("morphism between modules over different algebras")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("morphism matrix has wrong shape")
        self.source = source
        self.target = target
        self.matrix = matrix

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other."""
        if other.source is not self.target and other.source.dim != self.target.dim:
            raise ValueError("composition mismatch")
        return ModuleMap(self.source, other.target, other.matrix @ self.matrix)

    def rank(self) -> int:
        return self.matrix.rank()

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def is_isomorphism(self) -> bool:
        return self.source.dim == self.target.dim and self.is_injective()

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def validate(self) -> None:
        for i in range(self.source.algebra.dim):
            xs = self.source.action_or_none(i)
            ys = self.target.action_or_none(i)
            lhs = (self.matrix @ xs) if xs is not None else RatMatrix.zeros(self.target.dim, self.source.dim)
            rhs = (ys @ self.matrix) if ys is not None else RatMatrix.zeros(self.target.dim, self.source.dim)
            if lhs != rhs:
                raise ValueError(f"map does not intertwine basis element {i}")

    def __repr__(self) -> str:
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


def identity_map(x: ModuleRep) -> ModuleMap:
    return ModuleMap(x, x, RatMatrix.identity(x.dim))


def zero_map(x: ModuleRep, y: ModuleRep) -> ModuleMap:
    return ModuleMap(x, y, RatMatrix.zeros(y.dim, x.dim))


def _same_algebra(x: ModuleRep, y: ModuleRep) -> None:
    if x.algebra is not y.algebra:
        raise ValueError("modules live over different algebras")


# -- basic constructors ---------------------------------------------------


def zero_module(a: AlgebraData) -> ModuleRep:
    return ModuleRep(a, 0, {}, vertex_of=[])


def regular_module(a: AlgebraData) -> ModuleRep:
    """The algebra as a right module over itself, in its own basis."""
    actions = {}
    for b in range(a.dim):
        cols = [a.dense(a.mult[j][b]) for j in range(a.dim)]
        m = RatMatrix.from_columns(cols, nrows=a.dim)
        if not m.is_zero():
            actions[b] = m
    return ModuleRep(a, a.dim, actions, vertex_of=[g[1] for g in a.grading])


def projective_module(a: AlgebraData, v: int) -> ModuleRep:
    """The indecomposable projective e_v * A."""
    if v in a._proj_cache:
        return a._proj_cache[v]
    basis = [j for j in range(a.dim) if a.grading[j][0] == v]
    index = {j: r for r, j in enumerate(basis)}
    d = len(basis)
    actions = {}
    for b in range(a.dim):
        m = RatMatrix.zeros(d, d)
        hit = False
        for c, j in enumerate(basis):
            for k, coeff in a.mult[j][b]:
                m.data[index[k]][c] = coeff
                hit = True
        if hit:
            actions[b] = m
    mod = ModuleRep(a, d, actions, vertex_of=[a.grading[j][1] for j in basis])
    emb = RatMatrix.zeros(a.dim, d)
    for c, j in enumerate(basis):
        emb.data[j][c] = _ONE
    mod.extras["algebra_embedding"] = emb
    mod.extras["idempotent"] = v
    a._proj_cache[v] = mod
    return mod


def injective_module(a: AlgebraData, v: int) -> ModuleRep:
    """The indecomposable injective D(A e_v), computed through the opposite."""
    if v in a._inj_cache:
        return a._inj_cache[v]
    mod = dual_module(projective_module(a.opposite(), v))
    a._inj_cache[v] = mod
    return mod


def simple_module(a: AlgebraData, v: int) -> ModuleRep:
    """The simple top of e_v * A; raises NonSplitSimple if not 1-dimensional."""
    if v in a._simple_cache:
        return a._simple_cache[v]
    a.ensure_split_basic()
    t, _ = top(projective_module(a, v))
    if t.dim != 1:
        raise NonSplitSimple(f"top of projective at {a.idempotents[v][0]} has dimension {t.dim}")
    a._simple_cache[v] = t
    return t


def dual_module(x: ModuleRep) -> ModuleRep:
    """Standard duality D = Hom_Q(-, Q): a module over the opposite algebra."""
    actions = {}
    for i, m in enumerate(x._actions):
        if m is not None:
            actions[i] = m.transpose()
    return ModuleRep(x.algebra.opposite(), x.dim, actions, vertex_of=x.vertex_of)


def dual_map(f: ModuleMap) -> ModuleMap:
    return ModuleMap(dual_module(f.target), dual_module(f.source), f.matrix.transpose())


def direct_sum(xs: Sequence[ModuleRep], algebra: Optional[AlgebraData] = None):
    """Block-diagonal sum; returns (sum, injections, projections).

    The empty sum is the zero module, for which ``algebra`` must be given.
    """
    xs = list(xs)
    if not xs:
        if algebra is None:
            raise ValueError("direct_sum of an empty list needs the algebra")
        return zero_module(algebra), [], []
    a = xs[0].algebra
    for x in xs:
        if x.algebra is not a:
            raise ValueError("summands live over different algebras")
    dim = sum(x.dim for x in xs)
    offs = []
    o = 0
    for x in xs:
        offs.append(o)
        o += x.dim
    actions = {}
    for b in range(a.dim):
        parts = [x.action_or_none(b) for x in xs]
        if all(p is None for p in parts):
            continue
        m = RatMatrix.zeros(dim, dim)
        for x, off, p in zip(xs, offs, parts):
            if p is not None:
                for r in range(x.dim):
                    prow = p.data[r]
                    mrow = m.data[off + r]
                    for c in range(x.dim):
                        val = prow[c]
                        if val:
                            mrow[off + c] = val
        actions[b] = m
    total = ModuleRep(a, dim, actions, vertex_of=[v for x in xs for v in x.vertex_of])
    injections, projections = [], []
    for x, off in zip(xs, offs):
        inj = RatMatrix.zeros(dim, x.dim)
        prj = RatMatrix.zeros(x.dim, dim)
        for r in range(x.dim):
            inj.data[off + r][r] = _ONE
            prj.data[r][off + r] = _ONE
        injections.append(ModuleMap(x, total, inj))
        projections.append(ModuleMap(total, x, prj))
    return total, injections, projections


# -- Hom spaces -------------------------------------------------------------


def hom_basis(x: ModuleRep, y: ModuleRep) -> list[ModuleMap]:
    """Basis of the space of module maps x -> y."""
    _same_algebra(x, y)
    if x.dim == 0 or y.dim == 0:
        return []
    rows, where = _hom_equations(x, y)
    maps = []
    for vec in sparse_kernel(rows, len(where)):
        m = RatMatrix.zeros(y.dim, x.dim)
        for k, val in vec.items():
            i, j = where[k]
            m.data[i][j] = val
        maps.append(ModuleMap(x, y, m))
    return maps


def _hom_equations(x: ModuleRep, y: ModuleRep) -> tuple[list[dict[int, Fraction]], list[tuple[int, int]]]:
    """The equations F_v @ X_b = Y_b @ F_u, for b of degree (u, v), on the
    vertex blocks F_v of a map x -> y, as sparse rows.

    Unknown k is the matrix entry ``where[k]`` of the map.  Rows that cancel
    to zero (the idempotent equations F_v - F_v = 0) are dropped.
    """
    a = x.algebra
    nv = len(a.idempotents)
    xi = [x.coords_at(v) for v in range(nv)]
    yi = [y.coords_at(v) for v in range(nv)]
    offs = []
    where = []
    for v in range(nv):
        offs.append(len(where))
        where.extend((r, c) for r in yi[v] for c in xi[v])
    rows: list[dict[int, Fraction]] = []
    for b in range(a.dim):
        u, v = a.grading[b]
        xb = x.action_or_none(b)
        yb = y.action_or_none(b)
        if xb is None and yb is None:
            continue
        dxu, dxv = len(xi[u]), len(xi[v])
        dyu, dyv = len(yi[u]), len(yi[v])
        if dyv * dxu == 0:
            continue
        # nonzero entries of the (v, u) blocks: X_b by column, Y_b by row
        xcols = [[(s, xb.data[r][c]) for s, r in enumerate(xi[v]) if xb.data[r][c]]
                 for c in xi[u]] if xb is not None else [[]] * dxu
        yrows = [[(s, yb.data[r][c]) for s, c in enumerate(yi[u]) if yb.data[r][c]]
                 for r in yi[v]] if yb is not None else [[]] * dyv
        for r in range(dyv):
            base = offs[v] + r * dxv
            for c in range(dxu):
                row = {base + s: val for s, val in xcols[c]}
                for s, val in yrows[r]:
                    k = offs[u] + s * dxu + c
                    w = row.get(k, _ZERO) - val
                    if w:
                        row[k] = w
                    else:
                        del row[k]
                if row:
                    rows.append(row)
    return rows, where


def hom_dim(x: ModuleRep, y: ModuleRep) -> int:
    """dim Hom(x, y): the nullity of the equations, with no maps assembled."""
    _same_algebra(x, y)
    if x.dim == 0 or y.dim == 0:
        return 0
    rows, where = _hom_equations(x, y)
    return len(sparse_kernel(rows, len(where)))


# -- sub/quotient machinery --------------------------------------------------


def submodule_from_vertex_bases(x: ModuleRep, bases: dict[int, RatMatrix]):
    """Submodule spanned per vertex by the given local column bases.

    ``bases[v]`` has len(coords_at(v)) rows; its columns are vectors in the
    v-component of x, assumed module-closed as a whole.  Returns (K, incl).
    """
    a = x.algebra
    nv = len(a.idempotents)
    xi = [x.coords_at(v) for v in range(nv)]
    kdims = [bases[v].cols if v in bases else 0 for v in range(nv)]
    offs = []
    n = 0
    for v in range(nv):
        offs.append(n)
        n += kdims[v]
    incl = RatMatrix.zeros(x.dim, n)
    for v in range(nv):
        if kdims[v]:
            bv = bases[v]
            for r, g in enumerate(xi[v]):
                for c in range(bv.cols):
                    val = bv.data[r][c]
                    if val:
                        incl.data[g][offs[v] + c] = val
    actions = {}
    for b in range(a.dim):
        xb = x.action_or_none(b)
        if xb is None:
            continue
        u, v = a.grading[b]
        if kdims[u] == 0 or len(xi[v]) == 0:
            continue
        rhs = RatMatrix(
            len(xi[v]), kdims[u],
            [[sum((xb.data[g][xi[u][s]] * bases[u].data[s][c] for s in range(len(xi[u]))
                   if bases[u].data[s][c] and xb.data[g][xi[u][s]]), _ZERO)
              for c in range(kdims[u])] for g in xi[v]],
        )
        if kdims[v] == 0:
            if not rhs.is_zero():
                raise ValueError("given spans are not module-closed")
            continue
        z = bases[v].solve(rhs)
        if z is None:
            raise ValueError("given spans are not module-closed")
        if not z.is_zero():
            m = RatMatrix.zeros(n, n)
            for r in range(kdims[v]):
                for c in range(kdims[u]):
                    val = z.data[r][c]
                    if val:
                        m.data[offs[v] + r][offs[u] + c] = val
            actions[b] = m
    vertex_of = [v for v in range(nv) for _ in range(kdims[v])]
    k = ModuleRep(a, n, actions, vertex_of=vertex_of)
    return k, ModuleMap(k, x, incl)


def _blocks_of_map(f: ModuleMap) -> dict[int, RatMatrix]:
    """Per-vertex blocks of a morphism between adapted modules."""
    x, y = f.source, f.target
    nv = len(x.algebra.idempotents)
    out = {}
    for v in range(nv):
        rows = y.coords_at(v)
        cols = x.coords_at(v)
        out[v] = f.matrix.submatrix(rows, cols)
    return out


def kernel(f: ModuleMap):
    """(kernel module, inclusion)."""
    x = f.source
    blocks = _blocks_of_map(f)
    bases = {v: m.kernel_basis() for v, m in blocks.items()}
    return submodule_from_vertex_bases(x, bases)


def image(f: ModuleMap):
    """(image module, inclusion into target, factorisation of f through it)."""
    x, y = f.source, f.target
    blocks = _blocks_of_map(f)
    bases = {}
    facs = {}
    for v, m in blocks.items():
        c, _ = m.column_space_basis()
        bases[v] = c
        facs[v] = c.solve(m)
    img, incl = submodule_from_vertex_bases(y, bases)
    nv = len(y.algebra.idempotents)
    fac = RatMatrix.zeros(img.dim, x.dim)
    off = 0
    for v in range(nv):
        kv = bases[v].cols if v in bases else 0
        if kv:
            fv = facs[v]
            for r in range(kv):
                for c, g in enumerate(x.coords_at(v)):
                    val = fv.data[r][c]
                    if val:
                        fac.data[off + r][g] = val
            off += kv
    return img, incl, ModuleMap(x, img, fac)


def cokernel(f: ModuleMap):
    """(cokernel module, projection from target)."""
    y = f.target
    a = y.algebra
    nv = len(a.idempotents)
    yi = [y.coords_at(v) for v in range(nv)]
    blocks = _blocks_of_map(f)
    projs = {}   # local projection rows per vertex
    sects = {}   # local section: unit columns at the free coordinates
    qdims = []
    for v in range(nv):
        m = blocks[v]
        red, _, pivots = m.transpose().rref()
        pivset = set(pivots)
        free = [c for c in range(len(yi[v])) if c not in pivset]
        q = RatMatrix.zeros(len(free), len(yi[v]))
        for l, fc in enumerate(free):
            q.data[l][fc] = _ONE
            for i, p in enumerate(pivots):
                val = red.data[i][fc]
                if val:
                    q.data[l][p] = -val
        s = RatMatrix.zeros(len(yi[v]), len(free))
        for l, fc in enumerate(free):
            s.data[fc][l] = _ONE
        projs[v], sects[v] = q, s
        qdims.append(len(free))
    offs = []
    n = 0
    for v in range(nv):
        offs.append(n)
        n += qdims[v]
    proj = RatMatrix.zeros(n, y.dim)
    for v in range(nv):
        q = projs[v]
        for r in range(qdims[v]):
            for c, g in enumerate(yi[v]):
                val = q.data[r][c]
                if val:
                    proj.data[offs[v] + r][g] = val
    actions = {}
    for b in range(a.dim):
        yb = y.action_or_none(b)
        if yb is None:
            continue
        u, v = a.grading[b]
        if qdims[u] == 0 or qdims[v] == 0:
            continue
        yblock = RatMatrix(len(yi[v]), len(yi[u]), [[yb.data[r][c] for c in yi[u]] for r in yi[v]])
        z = projs[v] @ (yblock @ sects[u])
        if not z.is_zero():
            m = RatMatrix.zeros(n, n)
            for r in range(qdims[v]):
                for c in range(qdims[u]):
                    val = z.data[r][c]
                    if val:
                        m.data[offs[v] + r][offs[u] + c] = val
            actions[b] = m
    vertex_of = [v for v in range(nv) for _ in range(qdims[v])]
    cok = ModuleRep(a, n, actions, vertex_of=vertex_of)
    pm = ModuleMap(y, cok, proj)
    return cok, pm


# -- radical, top, socle -------------------------------------------------------


def _radical_actions(x: ModuleRep) -> list[RatMatrix]:
    """Action on x of each radical basis vector; unit vectors read the stored matrix."""
    acts = (x.action_or_none(r[0][0]) if len(r) == 1 and r[0][1] == 1 else x.act_coords(x.algebra.dense(r))
            for r in x.algebra.radical_sparse())
    return [m for m in acts if m is not None]


def _radical_vertex_spans(x: ModuleRep) -> list[EchelonSpace]:
    """Per-vertex spans of x * rad(A)."""
    nv = len(x.algebra.idempotents)
    xi = [x.coords_at(v) for v in range(nv)]
    spans = [EchelonSpace(len(xi[v])) for v in range(nv)]
    for m in _radical_actions(x):
        for j in range(x.dim):
            col = m.column_vec(j)
            if any(col):
                for v in range(nv):
                    local = [col[g] for g in xi[v]]
                    if any(local):
                        spans[v].add(local)
    return spans


def radical_submodule(x: ModuleRep):
    """(x * rad(A), inclusion)."""
    spans = _radical_vertex_spans(x)
    bases = {v: sp.basis_matrix() for v, sp in enumerate(spans)}
    return submodule_from_vertex_bases(x, bases)


def top(x: ModuleRep):
    """(x / x*rad, projection); the quotient is semisimple."""
    _, incl = radical_submodule(x)
    return cokernel(incl)


def socle(x: ModuleRep):
    """(annihilator of rad(A) in x, inclusion)."""
    a = x.algebra
    if not a.radical_sparse():
        return x, identity_map(x)
    stacked = vstack(_radical_actions(x) or [RatMatrix.zeros(0, x.dim)])
    nv = len(a.idempotents)
    bases = {}
    for v in range(nv):
        cols = x.coords_at(v)
        local = stacked.submatrix(range(stacked.rows), cols)
        bases[v] = local.kernel_basis()
    return submodule_from_vertex_bases(x, bases)


# -- covers and envelopes ---------------------------------------------------


def projective_cover(x: ModuleRep):
    """(P, f) with P projective, f onto, ker f superfluous; exact and verified."""
    if x.dim == 0:
        raise ValueError("projective cover of the zero module is not defined here")
    a = x.algebra
    a.ensure_split_basic()
    spans = _radical_vertex_spans(x)
    nv = len(a.idempotents)
    summands: list[ModuleRep] = []
    columns: list[list[Fraction]] = []
    for v in range(nv):
        coords = x.coords_at(v)
        pivset = set(spans[v].pivots)
        lifts = [coords[c] for c in range(len(coords)) if c not in pivset]
        if not lifts:
            continue
        pv = projective_module(a, v)
        emb = pv.extras["algebra_embedding"]
        for g in lifts:
            summands.append(pv)
            for beta in range(pv.dim):
                columns.append(x.act_column(emb.column_vec(beta), g))
    if not summands:
        raise ValueError("nonzero module equals its own radical")
    p, _, _ = direct_sum(summands)
    f = RatMatrix.from_columns(columns, nrows=x.dim)
    cover = ModuleMap(p, x, f)
    if not cover.is_surjective():
        raise ValueError("projective cover construction failed to be surjective")
    kmod, kincl = kernel(cover)
    pspans = _radical_vertex_spans(p)
    for j in range(kmod.dim):
        col = kincl.matrix.column_vec(j)
        for v in range(nv):
            local = [col[g] for g in p.coords_at(v)]
            if any(local) and not pspans[v].contains(local):
                raise ValueError("projective cover kernel is not superfluous")
    return p, cover


def injective_envelope(x: ModuleRep):
    """(I, f) with I injective and f an essential monomorphism.

    Computed by duality: the dual of the projective cover of the dual
    module over the opposite algebra.
    """
    if x.dim == 0:
        raise ValueError("injective envelope of the zero module is not defined here")
    xd = dual_module(x)
    p, g = projective_cover(xd)
    i = dual_module(p)
    env = ModuleMap(x, i, g.matrix.transpose())
    if not env.is_injective():
        raise ValueError("injective envelope construction failed to be injective")
    soc, sincl = socle(i)
    if soc.dim:
        span = EchelonSpace(i.dim)
        for j in range(env.matrix.cols):
            span.add(env.matrix.column_vec(j))
        for j in range(soc.dim):
            if not span.contains(sincl.matrix.column_vec(j)):
                raise ValueError("injective envelope image is not essential")
    return i, env


def is_projective_module(x: ModuleRep) -> bool:
    if x.dim == 0:
        return True
    return _memo(x, "is_projective", lambda: projective_cover(x)[1].is_isomorphism())


def is_injective_module(x: ModuleRep) -> bool:
    if x.dim == 0:
        return True
    return _memo(x, "is_injective", lambda: injective_envelope(x)[1].is_isomorphism())
