"""Right modules over an AlgebraData and the exact functors on them.

Conventions
-----------
A module is a quiver representation over the Peirce basis of its algebra.
``vertex_of[i]`` names the idempotent that fixes coordinate i, and
``coords_at(v)`` lists the coordinates at v in order.  A basis element b of
degree (u, v), that is e_u b e_v = b, maps the coordinates at u to those at
v, so a :class:`ModuleRep` stores only that block of its action:
``blocks[b]`` is a len(coords_at(v)) x len(coords_at(u)) matrix, absent
when it is zero.  Blocks act on column vectors, coords(x * b) =
blocks[b] @ coords(x) on the coordinates at u, so composing actions reverses
order: act(a*b) = act(b) @ act(a).  The dense dim x dim ``action(b)`` is a
read-only view for the checks and the tests.

A :class:`ModuleMap` f: X -> Y maps the coordinates at v to those at v, so
it is stored the same way: ``blocks[v]`` is its len(Y.coords_at(v)) x
len(X.coords_at(v)) matrix, one per vertex, with F_v @ X_b = Y_b @ F_u for
every basis element b of degree (u, v).  Composites, ranks, kernels and
linear combinations are taken block by block; the dense dim Y x dim X
``matrix`` is a read-only view for the checks and the tests.

Every constructor builds blocks directly, and Hom spaces, kernels, covers,
envelopes and radicals are computed block by block.  Constructors
trust their own blocks; :meth:`ModuleRep.from_actions` is the checked entry
for dense action matrices.  No quotient module is built: a cosyzygy is the
dual of the syzygy of the dual (:func:`_cosyzygy_step`).
"""

from __future__ import annotations

from itertools import compress
from typing import Optional, Sequence

from .algebra import AlgebraData
from .errors import InternalCheckFailed
from .linalg import EchelonSpace, RatMatrix, Scalar, _inv, _sparse_rref, scalar, sparse_kernel


def _memo(x, key, compute):
    """x's fact ``key``: compute() in full on first use, then the stored value
    (in x._extras, x a ModuleRep or a GeneratorBundle)."""
    if key not in x._extras:
        x._extras[key] = compute()
    return x._extras[key]


class ModuleRep:
    """A finite-dimensional right module, given by the Peirce blocks of its action.

    ``blocks`` maps each basis element b of degree (u, v) whose action is
    nonzero to its (v, u) block.  The constructor checks only the block
    shapes and trusts ``vertex_of``; dense action matrices enter through
    :meth:`from_actions`, which checks them against the labels.

    A module is immutable once constructed: nothing writes to its blocks or
    ``vertex_of`` afterwards.  So a fact certified about it once stays true
    while it lives, and ``_extras`` keeps such facts on the object (the cache
    dies with it).  Keys: ``algebra_basis`` (e_v A and A itself: the basis
    element at each coordinate), ``projective_stack`` (e_v A and a cover's
    source: the v of each stacked e_v A), ``injective_stack`` (an injective
    envelope: the v of each stacked I_v), ``read_off_certified`` (see
    :func:`hom_basis`), ``approximation_summands`` (source of a right
    approximation), ``is_projective``, ``cosyzygy_step`` (see
    :func:`_cosyzygy_step`) and ``syzygy_step`` (see :func:`_syzygy_step`).
    """

    __slots__ = ("algebra", "dim", "blocks", "vertex_of", "_coords", "_dims", "_extras")

    def __init__(self, algebra: AlgebraData, dim: int, blocks: dict[int, RatMatrix],
                 vertex_of: Sequence[int]):
        self.algebra = algebra
        self.dim = dim
        self.vertex_of = list(vertex_of)
        if len(self.vertex_of) != dim:
            raise ValueError("vertex_of has wrong length")
        byv: dict[int, list[int]] = {}
        for i, v in enumerate(self.vertex_of):
            byv.setdefault(v, []).append(i)
        self._coords = byv
        self._dims = [len(byv.get(v, ())) for v in range(len(algebra.idempotents))]
        for b, m in blocks.items():
            u, v = algebra.grading[b]
            if m.rows != len(byv.get(v, ())) or m.cols != len(byv.get(u, ())):
                raise ValueError("action block has wrong shape")
        self.blocks = blocks
        self._extras = {}

    @classmethod
    def from_actions(cls, algebra: AlgebraData, actions, vertex_of: Sequence[int]) -> "ModuleRep":
        """The module with dense action matrices ``actions`` ({b: matrix}),
        each sliced to its Peirce block.

        Raises ValueError if a nonzero entry of the action of b, of degree
        (u, v), lies outside the rows at v and the columns at u, or if an
        idempotent e_v does not act as the identity on the coordinates at v.
        """
        x = cls(algebra, len(vertex_of), {}, vertex_of)  # blocks sliced to shape below
        for b, m in actions.items():
            if m.rows != x.dim or m.cols != x.dim:
                raise ValueError("action matrix has wrong shape")
            u, v = algebra.grading[b]
            block = m.submatrix(x.coords_at(v), x.coords_at(u))
            if sum(1 for row in m.data for c in row if c) != sum(1 for row in block.data for c in row if c):
                raise ValueError(f"action of {algebra.labels[b]} leaves its Peirce block")
            if not block.is_zero():
                x.blocks[b] = block
        for v, (lab, coords) in enumerate(algebra.idempotents):
            d = len(x.coords_at(v))
            ev = _block_of(x, [(b, c) for b, c in enumerate(coords) if c]) or RatMatrix.zeros(d, d)
            if ev != RatMatrix.identity(d):
                raise ValueError(f"idempotent {lab} does not act as the identity at its vertex")
        return x

    # -- access -----------------------------------------------------------

    def action(self, b: int) -> RatMatrix:
        """Dense dim x dim view of the action of basis element b (checks and tests only)."""
        out = RatMatrix.zeros(self.dim, self.dim)
        m = self.blocks.get(b)
        if m is not None:
            u, v = self.algebra.grading[b]
            _scatter(out, self.coords_at(v), self.coords_at(u), m)
        return out

    def coords_at(self, v: int) -> list[int]:
        return self._coords.get(v, [])

    def vertex_dims(self) -> list[int]:
        return list(self._dims)

    @property
    def extras(self) -> dict:
        return self._extras

    def __repr__(self) -> str:
        return f"ModuleRep(dim={self.dim}, dims={self.vertex_dims()})"


def _scatter(out: RatMatrix, rows: Sequence[int], cols: Sequence[int], m: RatMatrix) -> None:
    """Write block m into the dense matrix out at the given coordinates."""
    for g, row in zip(rows, m.data):
        orow = out.data[g]
        for c, val in zip(cols, row):
            orow[c] = val


def _block_of(x: ModuleRep, vec) -> Optional[RatMatrix]:
    """The block on x of a homogeneous algebra element given as (basis index,
    coefficient) pairs; None when none of its basis elements acts."""
    out = None
    for b, c in vec:
        m = x.blocks.get(b)
        if m is not None:
            m = m if c == 1 else m.scaled(c)
            out = m if out is None else out + m
    return out


class ModuleMap:
    """A morphism of right modules f: X -> Y, stored vertex by vertex.

    ``blocks[v]`` is the len(Y.coords_at(v)) x len(X.coords_at(v)) matrix of
    f on the coordinates at v.  The constructor checks the algebra and every
    block shape.  Ranks are sums of block ranks, composites and linear
    combinations are taken block by block.
    """

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: ModuleRep, target: ModuleRep, blocks: Sequence[RatMatrix]):
        if source.algebra is not target.algebra:
            raise ValueError("morphism between modules over different algebras")
        blocks = list(blocks)
        if [(m.rows, m.cols) for m in blocks] != list(zip(target._dims, source._dims)):
            raise ValueError("morphism block has wrong shape")
        self.source = source
        self.target = target
        self.blocks = blocks

    @property
    def matrix(self) -> RatMatrix:
        """Dense dim target x dim source view (checks and tests only)."""
        out = RatMatrix.zeros(self.target.dim, self.source.dim)
        for v, m in enumerate(self.blocks):
            _scatter(out, self.target.coords_at(v), self.source.coords_at(v), m)
        return out

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other."""
        if other.source._dims != self.target._dims:
            raise ValueError("composition mismatch")
        # a block with a zero dimension composes to the zero block of its shape
        return ModuleMap(self.source, other.target,
                         [g @ f if f.rows and f.cols and g.rows else RatMatrix.zeros(g.rows, f.cols)
                          for f, g in zip(self.blocks, other.blocks)])

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, [f + g for f, g in zip(self.blocks, other.blocks)])

    def scaled(self, c) -> "ModuleMap":
        return ModuleMap(self.source, self.target, [m.scaled(c) for m in self.blocks])

    def inverse(self) -> Optional["ModuleMap"]:
        """The inverse morphism, or None when self is not an isomorphism."""
        inv = [m.inverse() if m.rows == m.cols else None for m in self.blocks]
        if any(m is None for m in inv):
            return None
        return ModuleMap(self.target, self.source, inv)

    def flat(self) -> list[Scalar]:
        """The entries of the blocks, vertex by vertex and row by row."""
        return [c for m in self.blocks for row in m.data for c in row]

    def rank(self) -> int:
        return sum(m.rank() for m in self.blocks if m.rows and m.cols)

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def is_isomorphism(self) -> bool:
        return all(m.rows == m.cols and (not m.rows or m.rank() == m.rows) for m in self.blocks)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks)

    def __repr__(self) -> str:
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


def identity_map(x: ModuleRep) -> ModuleMap:
    return ModuleMap(x, x, [RatMatrix.identity(d) for d in x._dims])


def zero_map(x: ModuleRep, y: ModuleRep) -> ModuleMap:
    return ModuleMap(x, y, [RatMatrix.zeros(dy, dx) for dx, dy in zip(x._dims, y._dims)])


def _same_algebra(x: ModuleRep, y: ModuleRep) -> None:
    if x.algebra is not y.algebra:
        raise ValueError("modules live over different algebras")


# -- basic constructors ---------------------------------------------------


def zero_module(a: AlgebraData) -> ModuleRep:
    return ModuleRep(a, 0, {}, vertex_of=[])


def _right_ideal(a: AlgebraData, basis: list[int]) -> ModuleRep:
    """The span of the basis elements ``basis`` (closed under right
    multiplication), with coordinate i at basis[i]."""
    vertex_of = [a.grading[j][1] for j in basis]
    at: dict[int, list[int]] = {}
    for j, w in zip(basis, vertex_of):
        at.setdefault(w, []).append(j)
    pos = {j: s for js in at.values() for s, j in enumerate(js)}
    blocks = {}
    for b, (u, v) in enumerate(a.grading):
        cols, rows = at.get(u), at.get(v)
        if not cols or not rows:
            continue
        m = RatMatrix.zeros(len(rows), len(cols))
        hit = False
        for c, j in enumerate(cols):
            for k, coeff in a.mult[j][b]:
                m.data[pos[k]][c] = coeff
                hit = True
        if hit:
            blocks[b] = m
    mod = ModuleRep(a, len(basis), blocks, vertex_of)
    mod.extras["algebra_basis"] = basis
    return mod


def projective_module(a: AlgebraData, v: int) -> ModuleRep:
    """The indecomposable projective e_v * A."""
    if v not in a._proj_cache:
        p = _right_ideal(a, [j for j in range(a.dim) if a.grading[j][0] == v])
        p.extras["projective_stack"] = [v]
        a._proj_cache[v] = p
    return a._proj_cache[v]


def injective_module(a: AlgebraData, v: int) -> ModuleRep:
    """The indecomposable injective D(A e_v), computed through the opposite."""
    if v in a._inj_cache:
        return a._inj_cache[v]
    mod = dual_module(projective_module(a.opposite(), v))
    a._inj_cache[v] = mod
    return mod


def simple_module(a: AlgebraData, v: int) -> ModuleRep:
    """The simple top S_v of e_v * A, one coordinate at v; raises
    NonSplitSimple or NotBasic unless the algebra is split basic.

    The corner C_v = e_v A e_v is Q e_v + rad C_v, and its trace tau_v
    (see :meth:`AlgebraData.radical_sparse`) vanishes on rad C_v, so b in
    C_v acts on S_v by its residue tau_v(b) / tau_v(e_v); no other basis
    element acts.
    """
    if v not in a._simple_cache:
        a.ensure_split_basic()
        tau = a._corner_traces[v]
        inv = _inv(sum(c * tau[b] for b, c in enumerate(a.idempotents[v][1]) if c))
        blocks = {b: RatMatrix._of(1, 1, [[scalar(t * inv)]]) for b, t in tau.items() if t}
        a._simple_cache[v] = ModuleRep(a, 1, blocks, [v])
    return a._simple_cache[v]


def dual_module(x: ModuleRep) -> ModuleRep:
    """Standard duality D = Hom_Q(-, Q): a module over the opposite algebra."""
    # b of degree (u, v) has degree (v, u) in the opposite algebra
    blocks = {b: m.transpose() for b, m in x.blocks.items()}
    return ModuleRep(x.algebra.opposite(), x.dim, blocks, x.vertex_of)


def direct_sum(xs: Sequence[ModuleRep], algebra: Optional[AlgebraData] = None):
    """Block-diagonal sum; returns (sum, injections, projections).

    The empty sum is the zero module, for which ``algebra`` must be given.
    """
    xs = list(xs)
    if not xs:
        if algebra is None:
            raise ValueError("direct_sum of an empty list needs the algebra")
        return zero_module(algebra), [], []
    total = _sum_module(xs)
    dims = list(zip(*(x._dims for x in xs)))  # dims[v][i]: summand i at v
    injections, projections = [], []
    for i, x in enumerate(xs):
        inj = [_summand_inclusion(d, i) for d in dims]
        injections.append(ModuleMap(x, total, inj))
        projections.append(ModuleMap(total, x, [m.transpose() for m in inj]))
    return total, injections, projections


def _sum_module(xs: Sequence[ModuleRep]) -> ModuleRep:
    """The block-diagonal sum of a nonempty list of modules, without maps."""
    a = xs[0].algebra
    for x in xs:
        if x.algebra is not a:
            raise ValueError("summands live over different algebras")
    # the coordinates at each vertex are those of xs[0], then of xs[1], ...;
    # each summand's block is written at its offsets into one zero block
    offs, total = [0] * len(a.idempotents), [sum(d) for d in zip(*(x._dims for x in xs))]
    blocks = {}
    for x in xs:
        for b, m in x.blocks.items():
            u, v = a.grading[b]
            if b not in blocks:
                blocks[b] = RatMatrix.zeros(total[v], total[u])
            c = offs[u]
            for row, orow in zip(m.data, blocks[b].data[offs[v]:]):
                orow[c:c + m.cols] = row
        offs = [o + d for o, d in zip(offs, x._dims)]
    return ModuleRep(a, sum(x.dim for x in xs), dict(sorted(blocks.items())),
                     [v for x in xs for v in x.vertex_of])


def _summand_inclusion(dims: Sequence[int], i: int) -> RatMatrix:
    """The inclusion of the i-th of stacked coordinate blocks of sizes dims."""
    m = RatMatrix.zeros(sum(dims), dims[i])
    off = sum(dims[:i])
    for r in range(dims[i]):
        m.data[off + r][r] = 1
    return m


# -- Hom spaces -------------------------------------------------------------


def hom_basis(x: ModuleRep, y: ModuleRep) -> list[ModuleMap]:
    """Basis of the space of module maps x -> y; empty, with no equation
    solved, when no vertex carries both.

    The basis is the one :func:`sparse_kernel` gives for the equations of
    :func:`_hom_equations`.  Out of a stack of projectives (marked
    ``projective_stack``) none is solved: Hom(e_v A, y) = y e_v, so the maps
    are read off y, certified once per (y, v) and reduced to that basis.
    """
    _same_algebra(x, y)
    if not any(p and q for p, q in zip(x._dims, y._dims)):
        return []
    stack = x._extras.get("projective_stack")
    if stack is None:
        rows, n = _hom_equations(x, y)
        vecs = sparse_kernel(rows, n)
    else:
        _certify_read_off(y, stack)
        vecs, n = _read_off(x, y, [range(y._dims[v]) for v in stack])
        vecs = _reduced_at_last_entries(vecs, n)
    return _maps_of(x, y, vecs, n)


def _maps_of(x: ModuleRep, y: ModuleRep, vecs: Sequence[dict[int, Scalar]], n: int) -> list[ModuleMap]:
    """The maps x -> y whose flat entries (as in :meth:`ModuleMap.flat`, n
    of them) are the sparse vectors vecs."""
    maps = []
    for vec in vecs:
        flat = [0] * n
        for j, a in vec.items():
            flat[j] = a
        blocks = []
        k = 0
        for v, (r, c) in enumerate(zip(y._dims, x._dims)):
            if r * c or not maps:
                blocks.append(RatMatrix._of(r, c, [flat[k + i * c:k + i * c + c] for i in range(r)]))
                k += r * c
            else:  # a block with a zero dimension has no entry: share the first map's
                blocks.append(maps[0].blocks[v])
        maps.append(ModuleMap(x, y, blocks))
    return maps


def _read_off(p: ModuleRep, y: ModuleRep, lifts: Sequence[Sequence[int]]) -> tuple[list[dict[int, Scalar]], int]:
    """Maps p -> y out of a stack of projectives, as flat sparse vectors in
    the unknowns of :func:`_hom_equations`, and their number: for the i-th
    e_v A stacked in p and each l in lifts[i], the map that sends e_v to
    coordinate l of y at v, so basis element j of e_v A to column l of Y_j,
    and the other summands to 0."""
    a = p.algebra
    offs, n = [], 0
    for dy, dp in zip(y._dims, p._dims):
        offs.append(n)
        n += dy * dp
    taken = [0] * len(p._dims)  # coordinates of p at each vertex held by earlier summands
    vecs = []
    for v, ls in zip(p._extras["projective_stack"], lifts):
        cols = []  # (flat index of the column's top entry, row stride, Y_j's rows)
        for j in projective_module(a, v).extras["algebra_basis"]:
            w = a.grading[j][1]
            m = y.blocks.get(j)
            if m is not None:
                cols.append((offs[w] + taken[w], p._dims[w], m.data))
            taken[w] += 1
        for l in ls:
            vec = {}
            for base, stride, data in cols:
                for r, row in enumerate(data):
                    if row[l]:
                        vec[base + r * stride] = row[l]
            vecs.append(vec)
    return vecs, n


def _certify_read_off(y: ModuleRep, stack: Sequence[int]) -> None:
    """Certify, once per (y, v) for v in stack (kept in y's
    ``read_off_certified``), that the maps out of e_v A read off y are
    dim y e_v module maps, else InternalCheckFailed: e_v acts as the
    identity at v, so the map for l sends e_v to y_l, and Y_b Y_j = Y_{jb}
    for every basis element j of e_v A and every b whose source is j's
    target."""
    a = y.algebra
    done = y._extras.setdefault("read_off_certified", set())
    for v in {v for v in stack if y._dims[v]} - done:
        ev = _block_of(y, [(k, c) for k, c in enumerate(a.idempotents[v][1]) if c])
        if ev != RatMatrix.identity(y._dims[v]):
            raise InternalCheckFailed("an idempotent does not act as the identity at its vertex")
        for j in projective_module(a, v).extras["algebra_basis"]:
            yj = y.blocks.get(j)
            for b in projective_module(a, a.grading[j][1]).extras["algebra_basis"]:
                yb = y.blocks.get(b)
                if not _same_block(yb @ yj if yb is not None and yj is not None else None,
                                   _block_of(y, a.mult[j][b])):
                    raise InternalCheckFailed("a map read off a module is not a module map")
        done.add(v)


def _same_block(m: Optional[RatMatrix], n: Optional[RatMatrix]) -> bool:
    """m == n, for blocks where None stands for zero."""
    if m is None:
        return n is None or n.is_zero()
    return m.is_zero() if n is None else m == n


def _reduced_at_last_entries(vecs: list[dict[int, Scalar]], n: int) -> list[dict[int, Scalar]]:
    """The span of vecs (n columns) in the unique form :func:`sparse_kernel`
    gives: 1 at each vector's last nonzero entry and 0 there in the others,
    in ascending order of it (the reduced echelon form over the reversed
    columns).  InternalCheckFailed if vecs are dependent."""
    last = n - 1
    piv = _sparse_rref([{last - j: c for j, c in vec.items()} for vec in vecs])
    if len(piv) != len(vecs):
        raise InternalCheckFailed("maps read off a module are dependent")
    return [{last - j: c for j, c in piv[q].items()} for q in sorted(piv, reverse=True)]


def _hom_equations(x: ModuleRep, y: ModuleRep) -> tuple[list[dict[int, Scalar]], int]:
    """The equations F_v @ X_b = Y_b @ F_u, for b of degree (u, v), on the
    vertex blocks F_v of a map x -> y, as sparse rows, and the number of
    unknowns.

    The unknowns are the entries of the blocks, vertex by vertex and row by
    row, as in :meth:`ModuleMap.flat`.  Rows that cancel to zero (the
    idempotent equations F_v - F_v = 0) are dropped.
    """
    a = x.algebra
    offs = []
    n = 0
    for dy, dx in zip(y._dims, x._dims):
        offs.append(n)
        n += dy * dx
    rows: list[dict[int, Scalar]] = []
    for b in sorted(x.blocks.keys() | y.blocks.keys()):
        u, v = a.grading[b]
        xb = x.blocks.get(b)
        yb = y.blocks.get(b)
        dxu, dxv = x._dims[u], x._dims[v]
        dyv = y._dims[v]
        if dyv * dxu == 0:
            continue
        # nonzero entries of the blocks: X_b by column, Y_b by row
        xcols = [[(s, row[c]) for s, row in enumerate(xb.data) if row[c]]
                 for c in range(dxu)] if xb is not None else [[]] * dxu
        yrows = [[(s, val) for s, val in enumerate(row) if val]
                 for row in yb.data] if yb is not None else [[]] * dyv
        for r in range(dyv):
            base = offs[v] + r * dxv
            for c in range(dxu):
                row = {base + s: val for s, val in xcols[c]}
                for s, val in yrows[r]:
                    k = offs[u] + s * dxu + c
                    w = row.get(k, 0) - val
                    if w:
                        row[k] = w
                    else:
                        del row[k]
                if row:
                    rows.append(row)
    return rows, n


def hom_dim(x: ModuleRep, y: ModuleRep) -> int:
    """dim Hom(x, y): the nullity of the equations, with no maps assembled;
    out of a stack of projectives, the certified sum of dim y e_v."""
    _same_algebra(x, y)
    if not any(p and q for p, q in zip(x._dims, y._dims)):
        return 0
    stack = x._extras.get("projective_stack")
    if stack is None:
        return len(sparse_kernel(*_hom_equations(x, y)))
    _certify_read_off(y, stack)
    return sum(y._dims[v] for v in stack)


# -- sub/quotient machinery --------------------------------------------------


def submodule_from_vertex_bases(x: ModuleRep, bases: Sequence[RatMatrix], units: Sequence[Sequence[int]]):
    """Submodule spanned per vertex by the given local column bases.

    ``bases[v]`` has len(coords_at(v)) rows, for every vertex v; its columns
    are vectors in the v-component of x, and its rows ``units[v]`` are the
    identity, so it has full column rank.  The block of b of degree (u, v)
    is then the unique z with bases[v] @ z = X_b @ bases[u]: it is read off
    those rows of the right side and certified by the residual, else
    ValueError (the spans are not module-closed).
    Returns (K, incl); the blocks of incl are the bases.
    """
    return _submodule(x, bases, units, None)


def kernel(f: ModuleMap):
    """(kernel module, inclusion) of a module map f: X -> Y.

    f must be a module map, as every map the engine passes here is: a
    cover, read off a module by :func:`_read_off`; a Hom basis, certified
    by the residual of :func:`sparse_kernel` or by :func:`_certify_read_off`;
    lemma24's approximation, by its block residual; a polynomial in a
    certified endomorphism.  The inclusion's block B_v is the null-space
    basis of f_v, the identity at its free rows, and f_v B_v = 0 is checked
    once per vertex, else InternalCheckFailed.  Then for b of degree
    (u, v), f_v X_b B_u = Y_b f_u B_u = 0, so X_b B_u lies in ker f_v =
    span B_v and its coordinates there are its free rows: the block of b
    is read off them with no residual.
    """
    return _submodule(f.source, *zip(*(m.null_space() for m in f.blocks)), f)


def _submodule(x: ModuleRep, bases: Sequence[RatMatrix], units: Sequence[Sequence[int]], f: Optional[ModuleMap]):
    """(K, incl) for bases that are the identity at their rows ``units``,
    else ValueError.  The block of b of degree (u, v) is read off the unit
    rows of X_b @ bases[u], through the sparse rows of bases[u], and
    certified by the residual when f is None, else by f_v @ bases[v] = 0 at
    each vertex (see :func:`kernel`)."""
    a = x.algebra
    kdims = [m.cols for m in bases]
    sparse = []
    for v, (m, rows) in enumerate(zip(bases, units)):
        if len(rows) != m.cols or any(m.data[r][i] != 1 or m.data[r].count(0) != m.cols - 1 for i, r in enumerate(rows)):
            raise ValueError("a basis is not the identity at its unit rows")
        unit = {r: [(i, 1)] for i, r in enumerate(rows)}
        sparse.append([unit.get(r) or [(j, c) for j, c in enumerate(row) if c] for r, row in enumerate(m.data)])
        if f is not None and m.cols and any(map(any, _times_sparse(f.blocks[v].data, sparse[v], m.cols))):
            raise InternalCheckFailed("a kernel basis is not killed by its map")
    blocks = {}
    for b, xb in x.blocks.items():
        u, v = a.grading[b]
        if kdims[u]:
            z = RatMatrix._of(kdims[v], kdims[u], _times_sparse([xb.data[r] for r in units[v]], sparse[u], kdims[u]))
            if f is None and bases[v] @ z != xb @ bases[u]:
                raise ValueError("given spans are not module-closed")
            if not z.is_zero():
                blocks[b] = z
    k = ModuleRep(a, sum(kdims), blocks, [v for v, d in enumerate(kdims) for _ in range(d)])
    return k, ModuleMap(k, x, bases)


def _times_sparse(rows: Sequence[Sequence[Scalar]], sparse: Sequence[Sequence[tuple[int, Scalar]]],
                  width: int) -> list[list[Scalar]]:
    """The dense rows times the matrix of ``width`` columns whose rows are
    given as their nonzero (column, value) entries."""
    out = []
    for row in rows:
        acc = [0] * width
        for k, a in compress(enumerate(row), row):
            for j, c in sparse[k]:
                acc[j] += a * c
        out.append(acc)
    return out


# -- radical -------------------------------------------------------------------


def _radical_blocks(x: ModuleRep) -> list[tuple[int, int, RatMatrix]]:
    """(u, v, block on x) for each Peirce piece of degree (u, v) of a radical
    basis vector that acts on x; a unit vector's block is a stored block."""
    units, rest = x.algebra.radical_pieces()
    grading = x.algebra.grading
    out = [(*grading[b], m) for b, m in x.blocks.items() if b in units]
    for u, v, vec in rest:
        m = _block_of(x, vec)
        if m is not None:
            out.append((u, v, m))
    return out


def _radical_vertex_spans(x: ModuleRep) -> list[EchelonSpace]:
    """Per-vertex spans of x * rad(A): a piece of degree (u, v) adds the
    columns of its block to the span at v."""
    nv = len(x.algebra.idempotents)
    spans = [EchelonSpace(len(x.coords_at(v))) for v in range(nv)]
    for _u, v, m in _radical_blocks(x):
        for j in range(m.cols):
            col = m.column_vec(j)
            if any(col):
                spans[v].add(col)
    return spans


def radical_submodule(x: ModuleRep):
    """(x * rad(A), inclusion)."""
    spans = _radical_vertex_spans(x)
    return submodule_from_vertex_bases(x, [sp.basis_matrix() for sp in spans], [sp.pivots for sp in spans])


# -- covers and envelopes ---------------------------------------------------


def projective_cover(x: ModuleRep):
    """(P, f) with P projective, f onto, ker f superfluous; exact and verified.

    P stacks one e_v A for each coordinate l at v that is no pivot of the
    echelon basis of x * rad(A) at v, and f sends its generator e_v to that
    coordinate.  Certified by its top: f is onto (by rank), and the count of
    e_v A stacked at each v is dim x_v - dim (x * rad)_v.  That proves ker f
    superfluous: f(P * rad) lies in x * rad, so f induces top f: top P ->
    top x, onto as f is.  ``ensure_split_basic`` makes top(e_v A) = S_v, so
    top P and top x have equal dimension at each v.  Then top f is an
    isomorphism, and ker f lies in P * rad (Assem-Simson-Skowronski, vol. 1,
    I.5).
    """
    if x.dim == 0:
        raise ValueError("projective cover of the zero module is not defined here")
    a = x.algebra
    a.ensure_split_basic()
    spans = _radical_vertex_spans(x)
    tops = [(v, l) for v, sp in enumerate(spans) for pivots in [set(sp.pivots)]
            for l in range(x._dims[v]) if l not in pivots]
    stack = [v for v, _ in tops]
    if not stack:
        raise ValueError("nonzero module equals its own radical")
    if [stack.count(v) for v in range(len(spans))] != [d - sp.rank for d, sp in zip(x._dims, spans)]:
        raise ValueError("projective cover stack does not match the top")
    p = _sum_module([projective_module(a, v) for v in stack])
    p.extras["projective_stack"] = stack
    # the cover sends the generator of each summand to its lifted top vector
    vecs, n = _read_off(p, x, [[l] for _, l in tops])
    cover, = _maps_of(p, x, [{k: c for vec in vecs for k, c in vec.items()}], n)
    if not cover.is_surjective():
        raise ValueError("projective cover construction failed to be surjective")
    return p, cover


def injective_envelope(x: ModuleRep):
    """(I, f) with I injective and f an essential monomorphism.

    I = D(P) and f = D(g), for g: P -> D(x) the projective cover of the dual
    module over the opposite algebra; I is marked ``injective_stack``, the v
    of each stacked I_v = D(A e_v).  Both claims are certificates of the
    cover (Assem-Simson-Skowronski, vol. 1, I.5 and III.2), so none is
    re-checked here:

    - g is certified onto by rank, so D(g) is one-to-one: its block ranks
      are those of g.  I is a sum of I_v, so it is injective.
    - The top count of the cover proves ker g in rad P.  So soc D(P) =
      ann(rad P) lies in ann(ker g) = im D(g).  Every nonzero submodule of
      D(P) meets its socle, so it meets the image: the image is essential.
    """
    if x.dim == 0:
        raise ValueError("injective envelope of the zero module is not defined here")
    p, g = projective_cover(dual_module(x))
    i = dual_module(p)
    i.extras["injective_stack"] = p.extras["projective_stack"]
    return i, ModuleMap(x, i, [m.transpose() for m in g.blocks])


def _cosyzygy_step(x: ModuleRep):
    """(stack, cosyzygy) of x != 0, memoised under ``cosyzygy_step``: the
    cosyzygy is D of the syzygy of D x, and the stack is the
    ``injective_stack`` of the envelope of x, the v of each I_v = D(A e_v).

    Lemma: the minimal injective envelope X -> I(X) dualises to the
    projective cover D I(X) -> D X over the opposite algebra (see
    :func:`injective_envelope`), so D(I(X)/X) is the kernel of that cover,
    the syzygy of D X, and I(X)/X = D Omega(D X) (Assem-Simson-Skowronski,
    vol. 1, I.5 and III.2).  No envelope or quotient is built.
    """
    def step():
        stack, syz = _syzygy_step(dual_module(x))
        return stack, dual_module(syz)
    return _memo(x, "cosyzygy_step", step)


def _syzygy_step(x: ModuleRep):
    """(stack, syzygy) of x != 0: the ``projective_stack`` of its projective
    cover and the cover's kernel, memoised under ``syzygy_step``; the cover
    and the kernel's inclusion are not kept.  A cover is onto, so one of x's
    dimension is an isomorphism: kernel 0, with no elimination."""
    def step():
        p, cover = projective_cover(x)
        return p.extras["projective_stack"], kernel(cover)[0] if p.dim > x.dim else zero_module(x.algebra)
    return _memo(x, "syzygy_step", step)


def _envelope_is_projective(x: ModuleRep) -> bool:
    """Whether the injective envelope of x != 0 is projective: it is a sum of
    I_v, so it is iff each distinct I_v is, which is memoised on the
    algebra's cached I_v."""
    return all(is_projective_module(injective_module(x.algebra, v)) for v in set(_cosyzygy_step(x)[0]))


def is_projective_module(x: ModuleRep) -> bool:
    """Whether x is projective: its cover is an isomorphism."""
    if x.dim == 0:
        return True
    return _memo(x, "is_projective", lambda: projective_cover(x)[1].is_isomorphism())


def is_injective_module(x: ModuleRep) -> bool:
    """Whether x is injective: its envelope is one-to-one, so it is iff the
    cosyzygy is 0."""
    return x.dim == 0 or _cosyzygy_step(x)[1].dim == 0
