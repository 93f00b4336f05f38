"""Finite-dimensional associative algebras given by structure constants.

An :class:`AlgebraData` is a labelled basis, a sparse multiplication table,
the coordinates of 1, and a complete set of primitive orthogonal
idempotents.  Associativity, the unit law and the idempotent axioms are
checked exhaustively at construction; primitivity of the idempotents is
checked lazily because it needs the radical.

The basis must be a Peirce basis: every basis element b satisfies
e_u b e_v = b for a unique pair of idempotents, or construction raises
ValueError.  The grading table drives the radical and the block
decompositions used throughout the module layer.
"""

from __future__ import annotations

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
        "_simple_cache", "_proj_cache", "_inj_cache",
    )

    def __init__(
        self,
        labels: Sequence[str],
        mult: Sequence[Sequence],
        unit: Sequence,
        idempotents: Sequence[tuple[str, Sequence]],
        check: bool = True,
    ):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        if len(mult) != self.dim or any(len(row) != self.dim for row in mult):
            raise ValueError("multiplication table shape mismatch")
        self.mult: list[list[SparseVec]] = [[_to_sparse(cell) for cell in row] for row in mult]
        self.unit = tuple(scalar(x) for x in unit)
        self.idempotents = tuple((lab, tuple(scalar(x) for x in coords)) for lab, coords in idempotents)
        self._radical: Optional[list[SparseVec]] = None
        self._radical_pieces = None
        self._corner_codims: Optional[list[int]] = None
        self._opposite = None
        self._split_basic: Optional[bool] = None
        self._simple_cache = {}
        self._proj_cache = {}
        self._inj_cache = {}
        self.grading = self._compute_grading()
        if check:
            self._check_axioms()

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
        """(u, v) per basis element with e_u b e_v = b; ValueError if there is none."""
        idem_sparse = [_sparse_coords(coords) for _, coords in self.idempotents]
        table = []
        for b in range(self.dim):
            sb: SparseVec = ((b, 1),)
            left = [u for u, e in enumerate(idem_sparse) if self.mult_sparse(e, sb) == sb]
            right = [v for v, e in enumerate(idem_sparse) if self.mult_sparse(sb, e) == sb]
            if len(left) != 1 or len(right) != 1:
                raise ValueError(f"basis element {self.labels[b]} is not in one Peirce block")
            table.append((left[0], right[0]))
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
        self._check_associativity()

    def _check_associativity(self) -> None:
        dim = self.dim
        mult = self.mult
        # soundness of the triple pruning below needs homogeneous products
        for i in range(dim):
            for j in range(dim):
                expected = (self.grading[i][0], self.grading[j][1])
                for k, _c in mult[i][j]:
                    if self.grading[k] != expected:
                        raise ValueError("product expansion is not grading-homogeneous")
        # only grading-composable triples can be nonzero on either side
        by_left: dict[int, list[int]] = {}
        for j, (u, _v) in enumerate(self.grading):
            by_left.setdefault(u, []).append(j)
        for i in range(dim):
            iv = self.grading[i][1]
            js = by_left.get(iv, [])
            for j in js:
                pij = mult[i][j]
                jv = self.grading[j][1]
                for k in by_left.get(jv, []):
                    if self.mult_sparse(pij, ((k, 1),)) != self.mult_sparse(((i, 1),), mult[j][k]):
                        raise ValueError(
                            f"associativity fails on ({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )
        # cross-grading products must vanish identically
        for i in range(dim):
            iv = self.grading[i][1]
            for j in range(dim):
                if self.grading[j][0] != iv and mult[i][j]:
                    raise ValueError("graded product does not vanish across idempotents")

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
        for :meth:`ensure_split_basic`.
        """
        blocks: dict[tuple[int, int], list[int]] = {}
        for b, uv in enumerate(self.grading):
            blocks.setdefault(uv, []).append(b)
        corners, codims, rad = [], [], []
        for u, (lab, coords) in enumerate(self.idempotents):
            idx = blocks.get((u, u), [])
            local = {b: s for s, b in enumerate(idx)}
            unit = [coords[b] for b in idx]
            cmult = [[[(local[k], c) for k, c in self.mult[i][j]] for j in idx] for i in idx]
            corner = AlgebraData([self.labels[b] for b in idx], cmult, unit, [(lab, unit)], check=False)
            span = EchelonSpace(len(idx))
            for w in corner.radical_basis():
                span.add(w)
                rad.append(tuple((b, c) for b, c in zip(idx, w) if c))
            corners.append((local, span, corner))
            codims.append(len(idx) - span.rank)
        for i, (u, v) in enumerate(self.grading):
            if u != v:
                local, span, corner = corners[u]
                for j in blocks.get((v, u), []):
                    if not span.contains(corner.dense([(local[k], c) for k, c in self.mult[i][j]])):
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
        """Same basis with reversed multiplication; involutive on the nose."""
        if self._opposite is not None:
            return self._opposite
        op = AlgebraData(
            self.labels,
            [[self.mult[j][i] for j in range(self.dim)] for i in range(self.dim)],
            self.unit,
            self.idempotents,
            check=False,
        )
        op._opposite = self
        self._opposite = op
        return op

    def __repr__(self) -> str:
        return f"AlgebraData(dim={self.dim}, idempotents={len(self.idempotents)})"
