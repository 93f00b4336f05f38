"""Finite acyclic quivers and their path algebras."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .algebra import AlgebraData
from .errors import BudgetExceeded, CyclicQuiver, DuplicateLabel, EmptyQuiver, InternalCheckFailed


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Quiver:
    """A finite acyclic directed multigraph."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[tuple[str, str, str]]):
        self.vertices = tuple(str(v) for v in vertices)
        if not self.vertices:
            raise EmptyQuiver("a quiver needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise DuplicateLabel("duplicate vertex name")
        if any(not v for v in self.vertices):
            raise DuplicateLabel("empty vertex name")
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.arrows = tuple(Arrow(str(n), str(s), str(t)) for n, s, t in arrows)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise DuplicateLabel("duplicate arrow name")
        if any(not n for n in names):
            raise DuplicateLabel("empty arrow name")
        for a in self.arrows:
            if a.source not in self.vindex or a.target not in self.vindex:
                raise DuplicateLabel(f"arrow {a.name} uses an undeclared vertex")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        n = len(self.vertices)
        indeg = [0] * n
        out = [[] for _ in range(n)]
        for a in self.arrows:
            s, t = self.vindex[a.source], self.vindex[a.target]
            out[s].append(t)
            indeg[t] += 1
        queue = [v for v in range(n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if seen != n:
            raise CyclicQuiver("quiver has an oriented cycle")

    def reversed(self) -> "Quiver":
        return Quiver(self.vertices, [(a.name, a.target, a.source) for a in self.arrows])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __repr__(self) -> str:
        return f"Quiver({list(self.vertices)}, {[tuple(a) for a in self.arrows]})"


class Path(NamedTuple):
    """A path in a quiver: a start vertex and a tuple of composable arrows.

    ``(p then q)`` is written p*q, so arrows are listed in traversal order.
    """

    start: int
    arrows: tuple[int, ...]


def path_end(q: Quiver, p: Path) -> int:
    if not p.arrows:
        return p.start
    return q.vindex[q.arrows[p.arrows[-1]].target]


def path_label(q: Quiver, p: Path) -> str:
    if not p.arrows:
        return f"e({q.vertices[p.start]})"
    return ".".join(q.arrows[i].name for i in p.arrows)


def enumerate_paths(q: Quiver) -> list[Path]:
    """All paths, trivial ones first, then by length and discovery order."""
    paths = [Path(v, ()) for v in range(len(q.vertices))]
    by_start: dict[int, list[int]] = {}
    for i, a in enumerate(q.arrows):
        by_start.setdefault(q.vindex[a.source], []).append(i)
    frontier = list(paths)
    while frontier:
        nxt = []
        for p in frontier:
            for i in by_start.get(path_end(q, p), []):
                ext = Path(p.start, p.arrows + (i,))
                nxt.append(ext)
        paths.extend(nxt)
        frontier = nxt
    return paths


MAX_ALGEBRA_DIM = 2000  # the largest kQ or A^(m) whose dense multiplication table is built


def build_hereditary(q: Quiver) -> AlgebraData:
    """The path algebra kQ: basis all paths, product = concatenation or zero."""
    paths = enumerate_paths(q)
    index = {p: i for i, p in enumerate(paths)}
    n = len(paths)
    if n > MAX_ALGEBRA_DIM:
        raise BudgetExceeded(f"kQ has dimension {n}, over the budget of {MAX_ALGEBRA_DIM}")
    by_start: dict[int, list[int]] = {}
    for j, r in enumerate(paths):
        by_start.setdefault(r.start, []).append(j)
    mult = [[()] * n for _ in range(n)]
    for i, p in enumerate(paths):
        # only paths starting where p ends compose with it: p then r
        for j in by_start.get(path_end(q, p), ()):
            mult[i][j] = ((index[Path(p.start, p.arrows + paths[j].arrows)], 1),)
    unit = [0] * n
    idems = []
    for v in range(len(q.vertices)):
        coords = [0] * n
        coords[index[Path(v, ())]] = 1
        unit[index[Path(v, ())]] = 1
        idems.append((q.vertices[v], coords))
    labels = [path_label(q, p) for p in paths]
    alg = AlgebraData(labels, mult, unit, idems)
    from .homology import global_dimension  # deferred; homology sits above this layer

    if not global_dimension(alg, cap=2).at_most(1):
        raise InternalCheckFailed("path algebra of an acyclic quiver must be hereditary")
    return alg


# -- small catalogue used by tests and the docs ------------------------------


def one_vertex() -> Quiver:
    return Quiver(["1"], [])


def linear_quiver(n: int) -> Quiver:
    """A_n with all arrows pointing to the smaller vertex: 1 <- 2 <- ... <- n."""
    vertices = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i + 1}", str(i + 2), str(i + 1)) for i in range(n - 1)]
    return Quiver(vertices, arrows)


def kronecker() -> Quiver:
    return Quiver(["1", "2"], [("a", "2", "1"), ("b", "2", "1")])
