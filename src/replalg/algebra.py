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
lazily, by the certificate of the radical.

The basis must be a Peirce basis: every basis element b satisfies
e_u b e_v = b for a unique pair of idempotents, or construction raises
ValueError.  The grading table drives the radical and the block
decompositions used throughout the module layer.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .errors import NonSplitSimple, NotBasic
from .linalg import Scalar, _inv, scalar

# sparse product: tuple of (basis index, coefficient)
SparseVec = tuple[tuple[int, Scalar], ...]


def _to_sparse(pairs) -> SparseVec:
    return tuple((int(k), scalar(c)) for k, c in pairs if c)


def _sparse_coords(vec: Sequence[Scalar]) -> SparseVec:
    return tuple((i, c) for i, c in enumerate(vec) if c)


def _local_radical(traces: Sequence[Scalar], element: Callable, trace_of_product: Callable) -> Optional[list[dict]]:
    """rad C, the trace-zero hyperplane, as coordinates {index: coefficient}
    in a basis of an algebra C whose elements have ``traces`` on a faithful
    C-module V; None unless C is local with C/rad C = Q.  ``element`` makes
    the element of given coordinates and ``trace_of_product(x, y)`` is the
    trace of x*y on V.

    C local and split: c*1 + nilpotent has trace c*dim V, so some basis
    element has nonzero trace and no product of two trace-zero elements has
    any.  Conversely, rad C is trace-zero, so the trace form tr(xy), which
    is nondegenerate on C/rad C in characteristic 0 (every simple of C is a
    composition factor of the faithful V), holds the image of the
    trace-zero hyperplane as an isotropic subspace of codimension <= 1:
    dim C/rad C <= 2.  Q x Q and quadratic fields hold a trace-zero z with
    tr(z z) != 0, so C/rad C = Q, as when the trace form has rank 1.
    """
    p = next((i for i, tr in enumerate(traces) if tr), None)
    if p is None:
        return None
    inv = _inv(traces[p])
    rad = [{i: 1, p: -tr * inv} if tr else {i: 1} for i, tr in enumerate(traces) if i != p]
    elements = [element(x) for x in rad]
    if any(trace_of_product(x, y) for x in elements for y in elements):
        return None
    return rad


class AlgebraData:
    """Associative unital algebra over Q with chosen primitive idempotents."""

    __slots__ = (
        "labels", "dim", "mult", "unit", "idempotents",
        "grading", "_radical", "_radical_pieces", "_corner_traces", "_opposite",
        "_simple_cache", "_proj_cache", "_inj_cache",
    )

    def __init__(
        self,
        labels: Sequence[str],
        mult: Sequence[Sequence],
        unit: Sequence,
        idempotents: Sequence[tuple[str, Sequence]],
    ):
        labels = tuple(labels)
        if len(mult) != len(labels) or any(len(row) != len(labels) for row in mult):
            raise ValueError("multiplication table shape mismatch")
        mult = [[_to_sparse(cell) if cell else () for cell in row] for row in mult]
        idems = tuple((lab, tuple(scalar(x) for x in coords)) for lab, coords in idempotents)
        self._adopt(labels, mult, tuple(scalar(x) for x in unit), idems)
        self.grading = self._compute_grading()
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
        self._corner_traces: Optional[list[dict[int, Scalar]]] = None  # tau_u, see radical_sparse
        self._opposite = None
        self._simple_cache = {}
        self._proj_cache = {}
        self._inj_cache = {}

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
        """The radical basis as sparse vectors, each in one Peirce block; a
        unit vector is ((i, 1),).  Raises NonSplitSimple or NotBasic.

        R is spanned by the off-diagonal basis elements (grading (u, v),
        u != v) and, in each corner C_u = e_u A e_u, the kernel of tau_u,
        the trace of left multiplication on C_u, which :func:`_local_radical`
        certifies to be rad C_u with C_u / rad C_u = Q, else NonSplitSimple.
        Lemma: as products are homogeneous and rad C_u is an ideal of C_u,
        R is a two-sided ideal once tau_u vanishes on each off-diagonal
        (u, v) times (v, u) basis product.  Then R lies in rad A: a nonzero
        image of R in A/rad A holds a central idempotent f with some
        e_u f e_u = f e_u != 0, yet e_u R e_u = rad C_u = e_u rad(A) e_u maps
        to 0.  A/R is the product of the corner quotients Q, so rad A lies
        in R, A is basic and split, and its idempotents are primitive.  In a
        basic algebra e_u A e_v lies in rad A for u != v, so a product with
        tau_u != 0 (matrix units in M_2(Q), say) raises NotBasic
        (Assem-Simson-Skowronski, vol. 1, I.4-5).
        """
        if self._radical is None:
            blocks: dict[tuple[int, int], list[int]] = {}
            for b, uv in enumerate(self.grading):
                blocks.setdefault(uv, []).append(b)
            mult, rad, taus = self.mult, [], []
            for u, (lab, _coords) in enumerate(self.idempotents):
                idx = blocks.get((u, u), [])
                tau = {b: sum((c for j in idx for k, c in mult[b][j] if k == j), 0) for b in idx}
                taus.append(tau)

                def element(x, idx=idx):
                    return tuple(sorted((idx[i], c) for i, c in x.items()))

                hyper = _local_radical([tau[b] for b in idx], element,
                                       lambda x, y, tau=tau: sum((c * tau[k] for k, c in self.mult_sparse(x, y)), 0))
                if hyper is None:
                    raise NonSplitSimple(f"e({lab}) A e({lab}) is not local with residue field Q")
                rad.extend(map(element, hyper))
            for i, (u, v) in enumerate(self.grading):
                if u != v:
                    for j in blocks.get((v, u), []):
                        if sum((c * taus[u][k] for k, c in mult[i][j]), 0):
                            raise NotBasic(f"{self.labels[i]} * {self.labels[j]} is not radical: not basic")
                    rad.append(((i, 1),))
            self._radical, self._corner_traces = rad, taus
        return self._radical

    def radical_pieces(self) -> tuple[frozenset[int], list[tuple[int, int, SparseVec]]]:
        """The radical basis as the basis elements that are radical basis
        vectors themselves (every one-term vector is one), and
        (u, v, vector of degree (u, v)) for every other vector."""
        if self._radical_pieces is None:
            rad = self.radical_sparse()
            self._radical_pieces = (frozenset(r[0][0] for r in rad if len(r) == 1),
                                    [(*self.grading[r[0][0]], r) for r in rad if len(r) > 1])
        return self._radical_pieces

    # -- split-basic certificate ------------------------------------------

    def ensure_split_basic(self) -> None:
        """Raise NonSplitSimple or NotBasic unless A/rad A is Q for each
        idempotent: the certificate of :meth:`radical_sparse`.  Over Q this
        is what makes tops sums of the chosen simples, covers correct, and
        the idempotents primitive."""
        self.radical_sparse()

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
