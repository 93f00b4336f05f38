"""Finite-dimensional associative algebras given by structure constants.

An :class:`AlgebraData` is a labelled basis, a sparse multiplication table,
the coordinates of 1, and a complete set of primitive orthogonal
idempotents.  The unit law and the idempotent axioms are checked on every
basis element at construction, associativity on a generating set S:
if (xy)s = x(ys) for all basis x, y and s in S, and every basis element is
a multiple of a word in S, then (xy)(ws) = ((xy)w)s = (x(yw))s = x((yw)s)
= x(y(ws)) by induction on words.  S holds the basis elements that are not
a single-term product of two others, and every element a search over right
multiplication by S does not reach; a table of multi-term products thus
falls back to every triple.  Primitivity of the idempotents is checked
lazily because it needs the radical.

The basis must be a Peirce basis: every basis element b satisfies
e_u b e_v = b for a unique pair of idempotents, or construction raises
ValueError.  The grading table drives the radical and the block
decompositions used throughout the module layer.  A one-dimensional corner
e_u A e_u is Q e_u, so its radical is 0 without a trace form.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Optional, Sequence

from .errors import NonSplitSimple, NotBasic
from .linalg import EchelonSpace, RatMatrix, Scalar, scalar

# sparse product: tuple of (basis index, coefficient)
SparseVec = tuple[tuple[int, Scalar], ...]


def _to_sparse(pairs) -> SparseVec:
    return tuple((int(k), scalar(c)) for k, c in pairs if c)


def _sparse_coords(vec: Sequence[Scalar]) -> SparseVec:
    return tuple((i, c) for i, c in enumerate(vec) if c)


class AlgebraData:
    """Associative unital algebra over Q with chosen primitive idempotents."""

    __slots__ = (
        "labels", "dim", "mult", "unit", "idempotents",
        "grading", "_radical", "_radical_pieces", "_corner_codims", "_opposite", "_split_basic",
        "_simple_cache", "_proj_cache", "_inj_cache", "_gl_dim",
    )

    def __init__(
        self,
        labels: Sequence[str],
        mult: Sequence[Sequence],
        unit: Sequence,
        idempotents: Sequence[tuple[str, Sequence]],
        check: bool = True,
    ):
        labels = tuple(labels)
        if len(mult) != len(labels) or any(len(row) != len(labels) for row in mult):
            raise ValueError("multiplication table shape mismatch")
        mult = [[_to_sparse(cell) if cell else () for cell in row] for row in mult]
        idems = tuple((lab, tuple(scalar(x) for x in coords)) for lab, coords in idempotents)
        self._adopt(labels, mult, tuple(scalar(x) for x in unit), idems)
        self.grading = self._compute_grading()
        if check:
            self._check_axioms()

    def _adopt(self, labels, mult, unit, idempotents) -> None:
        """Take normalised data and start with empty caches; the caller sets the grading."""
        self.labels = labels
        self.dim = len(labels)
        self.mult: list[list[SparseVec]] = mult
        self.unit = unit
        self.idempotents = idempotents
        self._radical: Optional[list[SparseVec]] = None
        self._radical_pieces = None
        self._corner_codims: Optional[list[int]] = None
        self._opposite = None
        self._split_basic: Optional[bool] = None
        self._simple_cache = {}
        self._proj_cache = {}
        self._inj_cache = {}
        self._gl_dim: Optional[int] = None  # exact gl.dim, kept by homology.global_dimension

    # -- multiplication -------------------------------------------------

    def mult_sparse(self, x: SparseVec, y: SparseVec) -> SparseVec:
        acc: dict[int, Scalar] = {}
        mult = self.mult
        for i, ci in x:
            row = mult[i]
            for j, cj in y:
                c = ci * cj
                for k, ck in row[j]:
                    v = acc.get(k, 0) + c * ck
                    if v:
                        acc[k] = v
                    elif k in acc:
                        del acc[k]
        return tuple(sorted(acc.items()))

    def dense(self, sparse: SparseVec) -> list[Scalar]:
        out = [0] * self.dim
        for k, c in sparse:
            out[k] = c
        return out

    # -- construction checks ---------------------------------------------

    def _compute_grading(self) -> list[tuple[int, int]]:
        """(u, v) per basis element with e_u b e_v = b; ValueError unless exactly one.

        Only candidates are multiplied out: e_u b = b != 0 needs some l in the
        support of e_u with l*b != 0, and b e_v = b some l with b*l != 0.
        """
        dim, mult = self.dim, self.mult
        idem = [_sparse_coords(coords) for _, coords in self.idempotents]
        cands = [(set(), set()) for _ in range(dim)]
        for u, e in enumerate(idem):
            for l, _c in e:
                for side, cells in enumerate((mult[l], map(itemgetter(l), mult))):
                    for b in compress(range(dim), cells):
                        cands[b][side].add(u)
        table = []
        for b in range(dim):
            sb: SparseVec = ((b, 1),)
            us = [u for u in cands[b][0] if self.mult_sparse(idem[u], sb) == sb]
            vs = [v for v in cands[b][1] if self.mult_sparse(sb, idem[v]) == sb]
            if len(us) != 1 or len(vs) != 1:
                raise ValueError(f"basis element {self.labels[b]} is not in one Peirce block")
            table.append((us[0], vs[0]))
        return table

    def _check_axioms(self) -> None:
        dim = self.dim
        unit_sparse = _sparse_coords(self.unit)
        for j in range(dim):
            sj: SparseVec = ((j, 1),)
            if self.mult_sparse(unit_sparse, sj) != sj or self.mult_sparse(sj, unit_sparse) != sj:
                raise ValueError(f"unit law fails on basis element {self.labels[j]}")
        # idempotent system
        idem = [_sparse_coords(coords) for _, coords in self.idempotents]
        total = [0] * dim
        for (lab, coords), e in zip(self.idempotents, idem):
            if self.mult_sparse(e, e) != e:
                raise ValueError(f"idempotent {lab} is not idempotent")
            for k, c in enumerate(coords):
                total[k] += c
        if tuple(total) != self.unit:
            raise ValueError("idempotents do not sum to the unit")
        for a in range(len(idem)):
            for b in range(len(idem)):
                if a != b and self.mult_sparse(idem[a], idem[b]):
                    raise ValueError("idempotents are not orthogonal")
        self._check_associativity(idem)

    def _check_associativity(self, idem: list[SparseVec]) -> None:
        """The triples (x, y, s) of the module docstring's lemma, pruned by
        the grading; a basis-vector idempotent s = e_v needs none, as y e_v
        and (xy) e_v are fixed by the grading and the two checks below."""
        dim, mult, grading, labels = self.dim, self.mult, self.grading, self.labels
        made = set()
        for i, row in enumerate(mult):
            for j in compress(range(dim), row):
                if grading[j][0] != grading[i][1]:
                    raise ValueError("graded product does not vanish across idempotents")
                if any(grading[k] != (grading[i][0], grading[j][1]) for k, _c in row[j]):
                    raise ValueError("product expansion is not grading-homogeneous")
                if len(row[j]) == 1 and i != row[j][0][0] != j:
                    made.add(row[j][0][0])
        gens = [b for b in range(dim) if b not in made]
        reached, frontier = set(gens), list(gens)
        while frontier:
            w = frontier.pop()
            for s in compress(range(dim), mult[w]):
                if s not in made and len(mult[w][s]) == 1 and mult[w][s][0][0] not in reached:
                    reached.add(mult[w][s][0][0])
                    frontier.append(mult[w][s][0][0])
        by_right: dict[int, list[int]] = {}
        for b, (_u, v) in enumerate(grading):
            by_right.setdefault(v, []).append(b)
        units = {e[0][0] for e in idem if len(e) == 1 and e[0][1] == 1}
        for s in gens + [b for b in range(dim) if b not in reached]:
            if s in units:
                continue
            for y in by_right.get(grading[s][0], ()):
                for x in by_right.get(grading[y][0], ()):
                    xy, ys = mult[x][y], mult[y][s]
                    if (xy or ys) and self.mult_sparse(xy, ((s, 1),)) != self.mult_sparse(((x, 1),), ys):
                        raise ValueError(f"associativity fails on ({labels[x]}, {labels[y]}, {labels[s]})")

    # -- radical ---------------------------------------------------------

    def radical_basis(self) -> list[list[Scalar]]:
        """Basis of the Jacobson radical, as dense coordinate vectors."""
        return [self.dense(r) for r in self.radical_sparse()]

    def radical_sparse(self) -> list[SparseVec]:
        """The radical basis as sparse vectors; a unit vector is ((i, 1),).

        Read off the Peirce blocks when there are several idempotents; one
        idempotent, or a failed ideal check, takes the trace form.
        """
        if self._radical is None:
            if len(self.idempotents) > 1:
                self._radical = self._structural_radical()
            if self._radical is None:
                self._radical = [_sparse_coords(v) for v in self._trace_form_radical()]
                if len(self.idempotents) == 1:
                    self._corner_codims = [self.dim - len(self._radical)]
        return self._radical

    def radical_pieces(self) -> tuple[frozenset[int], list[tuple[int, int, SparseVec]]]:
        """The radical basis split into Peirce pieces: the basis elements that
        are radical basis vectors themselves, and (u, v, piece of degree (u, v))
        for every other vector.  rad A is the sum of its pieces e_u rad(A) e_v,
        so the pieces span it.
        """
        if self._radical_pieces is None:
            units, rest = set(), []
            for r in self.radical_sparse():
                if len(r) == 1 and r[0][1] == 1:
                    units.add(r[0][0])
                    continue
                pieces: dict[tuple[int, int], list] = {}
                for b, c in r:
                    pieces.setdefault(self.grading[b], []).append((b, c))
                rest.extend((u, v, tuple(vec)) for (u, v), vec in pieces.items())
            self._radical_pieces = (frozenset(units), rest)
        return self._radical_pieces

    def _structural_radical(self) -> Optional[list[SparseVec]]:
        """rad A from the grading, or None if A is not basic for its idempotents.

        R is spanned by the off-diagonal basis elements (grading (u, v),
        u != v) and each corner's verified trace-form radical.  Lemma: as
        products are homogeneous and corner radicals are corner ideals, R is
        a two-sided ideal once each off-diagonal (u, v) times (v, u) basis
        product lies in the corner radical of u.  Then R lies in rad A: a
        nonzero image of R in A/rad A holds a central idempotent f with some
        e_u f e_u != 0, yet e_u R e_u = rad(e_u A e_u) = e_u rad(A) e_u maps
        to 0.  A/R is the product of the semisimple corner quotients, so rad A
        lies in R.  A failed check (matrix units in M_2(Q), say) gives None:
        a basic algebra always passes it.  The corner codimensions are kept
        for :meth:`ensure_split_basic`.  A one-dimensional corner is Q e_u,
        with radical 0: no corner algebra is built for it.
        """
        blocks: dict[tuple[int, int], list[int]] = {}
        for b, uv in enumerate(self.grading):
            blocks.setdefault(uv, []).append(b)
        corners, codims, rad = [], [], []
        for u, (lab, coords) in enumerate(self.idempotents):
            idx = blocks.get((u, u), [])
            span = EchelonSpace(len(idx))
            if len(idx) > 1:  # else it is spanned by e_u != 0: Q, with radical 0
                local = {b: s for s, b in enumerate(idx)}
                unit = [coords[b] for b in idx]
                cmult = [[[(local[k], c) for k, c in self.mult[i][j]] for j in idx] for i in idx]
                corner = AlgebraData([self.labels[b] for b in idx], cmult, unit, [(lab, unit)], check=False)
                for w in corner.radical_basis():
                    span.add(w)
                    rad.append(tuple((b, c) for b, c in zip(idx, w) if c))
            corners.append((idx, span))
            codims.append(len(idx) - span.rank)
        for i, (u, v) in enumerate(self.grading):
            if u != v:
                idx, span = corners[u]
                for j in blocks.get((v, u), []):
                    prod = self.dense(self.mult[i][j])
                    if not span.contains([prod[b] for b in idx]):
                        return None
                rad.append(((i, 1),))
        self._corner_codims = codims
        return rad

    def _trace_form_radical(self) -> list[list[Scalar]]:
        """{x : trace(L_{x y}) = 0 for all y} (char 0), verified to be the radical."""
        dim = self.dim
        # trace of left multiplication by each basis element
        trL = []
        for k in range(dim):
            t = 0
            row = self.mult[k]
            for j in range(dim):
                for l, c in row[j]:
                    if l == j:
                        t += c
            trL.append(t)
        gram = RatMatrix(dim, dim, [
            [sum((c * trL[k] for k, c in self.mult[i][j]), 0) for j in range(dim)]
            for i in range(dim)
        ])
        rad = [gram.kernel_basis().column_vec(j) for j in range(dim - gram.rank())]
        self._verify_radical(rad)
        return rad

    def _verify_radical(self, rad: list[list[Scalar]]) -> None:
        dim = self.dim
        span = EchelonSpace(dim)
        for v in rad:
            span.add(v)
        # two-sided ideal
        for v in rad:
            sv = _sparse_coords(v)
            for j in range(dim):
                sj: SparseVec = ((j, 1),)
                if not span.contains(self.dense(self.mult_sparse(sv, sj))):
                    raise ValueError("radical candidate is not a right ideal")
                if not span.contains(self.dense(self.mult_sparse(sj, sv))):
                    raise ValueError("radical candidate is not a left ideal")
        # nilpotent: powers must vanish within dim steps
        current = [list(v) for v in rad]
        for _ in range(dim + 1):
            if not current:
                break
            nxt = EchelonSpace(dim)
            for v in current:
                sv = _sparse_coords(v)
                for w in rad:
                    prod = self.dense(self.mult_sparse(sv, _sparse_coords(w)))
                    nxt.add(prod)
            current = [list(r) for r in nxt.rows]
        else:
            raise ValueError("radical candidate is not nilpotent")
        if current:
            raise ValueError("radical candidate is not nilpotent")
        self._verify_semisimple_quotient(span)

    def _verify_semisimple_quotient(self, radspan: EchelonSpace) -> None:
        """The quotient by the radical must have zero trace-form kernel."""
        dim = self.dim
        pivset = set(radspan.pivots)
        comp = [j for j in range(dim) if j not in pivset]
        if not comp:
            return
        # quotient structure constants in the complement coordinates
        qdim = len(comp)
        qmult = [[None] * qdim for _ in range(qdim)]
        for a, i in enumerate(comp):
            for b, j in enumerate(comp):
                prod = radspan._reduce(self.dense(self.mult[i][j]))
                qmult[a][b] = [prod[c] for c in comp]
        trL = []
        for k in range(qdim):
            trL.append(sum((qmult[k][j][j] for j in range(qdim)), 0))
        gram = RatMatrix(qdim, qdim, [
            [sum((qmult[i][j][k] * trL[k] for k in range(qdim)), 0) for j in range(qdim)]
            for i in range(qdim)
        ])
        if gram.rank() != qdim:
            raise ValueError("quotient by radical candidate is not semisimple")

    # -- split-basic certificate ------------------------------------------

    def ensure_split_basic(self) -> None:
        """Check every e_i (A/rad) e_i is one-dimensional; raise NonSplitSimple.

        Over Q this is what makes tops sums of the chosen simples, covers
        correct, and the idempotents primitive.  An algebra that fails the
        Peirce ideal check of the radical is not basic: NotBasic.
        """
        if self._split_basic:
            return
        self.radical_sparse()
        codims = self._corner_codims
        if codims is None:
            raise NotBasic("the off-diagonal Peirce blocks leave the corner radicals: not basic")
        for (lab, _coords), c in zip(self.idempotents, codims):
            if c != 1:
                raise NonSplitSimple(f"e({lab}) (A/rad) e({lab}) has dimension {c}, not 1")
        self._split_basic = True

    # -- opposite ----------------------------------------------------------

    def opposite(self) -> "AlgebraData":
        """Same basis with reversed multiplication; involutive on the nose.
        The table is transposed and the grading swapped, as e_u *op b *op e_v
        = e_v b e_u: nothing is recomputed."""
        if self._opposite is not None:
            return self._opposite
        op = AlgebraData.__new__(AlgebraData)
        op._adopt(self.labels, [list(col) for col in zip(*self.mult)], self.unit, self.idempotents)
        op.grading = [(v, u) for u, v in self.grading]
        op._opposite = self
        self._opposite = op
        return op

    def __repr__(self) -> str:
        return f"AlgebraData(dim={self.dim}, idempotents={len(self.idempotents)})"
