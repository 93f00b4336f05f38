"""Checks and conveniences that only the tests use.

They read the engine's public objects and never feed back into it.
"""

from replalg.algebra import _sparse_coords
from replalg.linalg import RatMatrix


def from_rows(rows):
    """The RatMatrix with the given rows."""
    rows = [list(r) for r in rows]
    return RatMatrix(len(rows), len(rows[0]) if rows else 0, rows)


def is_invertible(m: RatMatrix) -> bool:
    return m.rows == m.cols and m.rank() == m.rows


def mult_coords(a, x, y):
    """The product x * y in the algebra a, all three as dense coordinates."""
    return a.dense(a.mult_sparse(_sparse_coords(x), _sparse_coords(y)))


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
        if res.complete and res.maps and not res.maps[-1].is_injective():
            raise ValueError("resolution not exact at the last term")
    else:
        if res.terms and not res.maps[0].is_injective():
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
