"""Homological machinery: resolutions, dimensions, Ext^1, stable Hom,
direct-sum decomposition, isomorphism testing, endomorphism algebras and
minimal right approximations.

Everything is exact and deterministic, and a negative answer is always
backed by a certificate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate
from operator import add
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .algebra import AlgebraData, _local_radical as _trace_hyperplane
from .errors import CapTooSmall, InternalCheckFailed, NotBasic, NotProjInjective, UndecidableDecomposition
from .linalg import EchelonSpace, RatMatrix, Scalar, SparseSpan, hstack, scalar, sparse_kernel
from .modules import (
    ModuleMap,
    ModuleRep,
    _cosyzygy_step,
    _certify_read_off,
    _syzygy_step,
    direct_sum,
    hom_basis,
    hom_dim,
    identity_map,
    kernel,
    projective_cover,
    zero_map,
    zero_module,
)


@dataclass(frozen=True)
class DimBound:
    """An exact homological dimension, or a certified lower bound.

    ``exact`` means the value is the dimension; otherwise only
    "dimension >= value" has been established (a resolution cap was hit, or
    the chain outlived the cap).
    """

    value: int
    exact: bool = True

    def at_least(self, k: int) -> bool:
        return self.value >= k

    def at_most(self, k: int) -> bool:
        return self.exact and self.value <= k

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">={self.value}"

    def to_json(self):
        return self.value if self.exact else f">={self.value}"


def _decided(g: DimBound, need: float, cap: int, what: str) -> DimBound:
    """g, or CapTooSmall if g is a lower bound that does not exceed ``need``;
    ``math.inf`` refuses every lower bound."""
    if not g.exact and g.value <= need:
        raise CapTooSmall(f"resolution cap {cap} too small to determine gl.dim {what}")
    return g


def projective_dimension(x: ModuleRep, cap: int) -> DimBound:
    """pd x: the first j whose j-th syzygy is projective, walking the
    kernels of projective covers with no map composed and no term kept;
    DimBound(cap + 1, exact=False) when the cap-th syzygy is not projective.
    A stack of projectives (marked ``projective_stack``) is 0 with no walk."""
    if x.dim == 0:
        return DimBound(0)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if "projective_stack" in x._extras:
        return DimBound(0)
    for step in range(cap + 1):
        x = kernel(projective_cover(x)[1])[0]
        if x.dim == 0:
            return DimBound(step)
    return DimBound(cap + 1, exact=False)


def cosyzygy(x: ModuleRep) -> ModuleRep:
    """Cokernel of the injective envelope, D Omega D x; zero for injective modules."""
    return x if x.dim == 0 else _cosyzygy_step(x)[1]


def global_dimension(a: AlgebraData, cap: int) -> DimBound:
    """gl.dim a = 1 + pd(rad A_A), or 0 when rad A = 0, as each e_t A is
    local with top S_t and minimal resolutions add over sums (Assem-Simson-
    Skowronski, vol. 1, I.5): all simples at once, in End(A) coordinates
    (:func:`_peirce_table`) from Hom(e_t A, rad A_A) = rad(e_t A, A)."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    hom, rad, mu = _peirce_table(a)
    slots = range(len(a.idempotents))
    offs = _offsets(hom, len(slots), slots)
    have = [[{o[s] + k: c for k, c in r.items()} for s in slots for r in rad[t, s]] for t, o in enumerate(offs)]
    return _resolve(mu, hom, rad, slots, have, cap)


def dominant_dimension(a: AlgebraData, cap: int) -> DimBound:
    """Length of the initial projective-injective stretch of the minimal
    injective coresolution of A_A.  D takes it to the minimal projective
    resolution of D(A_A), slot n of :func:`_peirce_table` of B = a^op.  It
    ends at the first step with a generator (u, k), D(I_u) in D(I^j), whose
    I_u = D(A e_u) is not projective: u is no value of ``a.nakayama()``."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    hom, rad, mu = _peirce_table(a.opposite())
    n = len(a.idempotents)
    slots, have = [n], [[{k: 1} for k in range(len(hom[t, n]))] for t in range(n)]
    for j in range(cap):
        gens, have = _resolution_step(mu, hom, rad, slots, have)
        if not set(a.nakayama().values()).issuperset(u for u, _ in gens):
            return DimBound(j)
        slots = [u for u, _ in gens]
    return DimBound(cap, exact=False)  # also when K_j = 0, which has no generator


# -- Ext^1 and the stable Hom --------------------------------------------------


def _map_space(x: ModuleRep, y: ModuleRep) -> EchelonSpace:
    """An empty span of flattened maps x -> y."""
    return EchelonSpace(sum(p * q for p, q in zip(x.vertex_dims(), y.vertex_dims())))


def _span_rank(x: ModuleRep, y: ModuleRep, maps: Iterable[ModuleMap]) -> int:
    """The dimension of the span of the given maps x -> y."""
    sp = _map_space(x, y)
    for f in maps:
        sp.add(f.flat())
    return sp.rank


def ext1_dim(y: ModuleRep, x: ModuleRep) -> int:
    """dim Ext^1(y, x) = dim Hom(K, x) - dim Hom(P, x) + dim Hom(y, x), for
    0 -> K -> P -> y -> 0 the projective cover of y (:func:`_syzygy_step`);
    0 when y, x or K is 0.

    Ext^1(P, x) = 0, so Hom(-, x) takes the sequence to the exact sequence
    0 -> Hom(y, x) -> Hom(P, x) -> Hom(K, x) -> Ext^1(y, x) -> 0
    (Assem-Simson-Skowronski, vol. 1, Appendix A).  Hom(e_v A, x) = x e_v,
    so dim Hom(P, x) is the sum of dim x e_v over P's stack; the call
    hom_dim(y, x) certifies that read-off.  No map is composed.  A negative
    value raises InternalCheckFailed.
    """
    if y.dim == 0 or x.dim == 0:
        return 0
    stack, k = _syzygy_step(y)
    if k.dim == 0:
        return 0
    ext = hom_dim(k, x) - sum(x._dims[v] for v in stack) + hom_dim(y, x)
    if ext < 0:
        raise InternalCheckFailed("Ext^1 from the long exact Hom sequence is negative")
    return ext


def stable_hom_dim(y: ModuleRep, z: ModuleRep) -> int:
    """dim StHom(y, z), Hom(y, z) modulo the maps through add W, W the
    e_v A = D(A e_u) for {v: u} the algebra's ``nakayama()``.  Lemma
    (Auslander-Reiten-Smalo, ch. IV; Assem-Simson-Skowronski, vol. 1, App.
    A): for 0 -> Omega z -> P -> z -> 0 the cover of z (:func:`_syzygy_step`)
    with P in add W, P -> z is a right add W-approximation and Hom(y, -) is
    left exact, so dim StHom(y, z) = dim Hom(y, z) - dim Hom(y, P) +
    dim Hom(y, Omega z), and dim Hom(y, e_v A) = dim y e_u by duality.  P
    outside add W is NotProjInjective, and y in add W gives 0.  Only Hom(y, z)
    and Hom(y, Omega z) are solved; a negative value is InternalCheckFailed."""
    if y.dim == 0 or z.dim == 0:
        return 0
    nu = y.algebra.nakayama()
    if not (ys := _syzygy_step(y))[1].dim and nu.keys() >= set(ys[0]):
        return 0  # y lies in add W, so every map out of it factors
    stack, k = _syzygy_step(z)
    if not nu.keys() >= set(stack):
        raise NotProjInjective("the projective cover of the target leaves add of the projective-injectives")
    dim_hom = hom_dim(y, z)
    st = dim_hom and dim_hom - sum(y._dims[nu[v]] for v in stack) + hom_dim(y, k)
    if st < 0:
        raise InternalCheckFailed("a stable Hom from the projective cover is negative")
    return st


# -- decomposition into indecomposables ----------------------------------------


def _minimal_polynomial(phi: ModuleMap) -> list[Scalar]:
    """Monic minimal polynomial of an endomorphism, ascending coefficients."""
    powers = [identity_map(phi.source)]
    sp = _map_space(phi.source, phi.source)
    sp.add(powers[0].flat())
    while True:
        nxt = powers[-1].then(phi)
        v = nxt.flat()
        if not sp.add(v):
            stacked = RatMatrix.from_columns([p.flat() for p in powers])
            sol = stacked.solve(RatMatrix.column(v))
            coeffs = [-sol.data[i][0] for i in range(len(powers))]
            coeffs.append(1)
            return coeffs
        powers.append(nxt)


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _primitive(cs: list[Scalar]) -> list[Fraction]:
    """The positive multiple of cs with coprime integer entries."""
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = math.gcd(*ints)
    return [Fraction(c // g) for c in ints]


def _coprime_factors(coeffs: list[Scalar]) -> list[tuple[list[Fraction], int]]:
    """Pairwise coprime factors (f, e) of a monic polynomial, ascending
    coefficients.

    Each rational root r gives (x - r)^e; r = p/q has p | a_0 and q | a_n
    once the polynomial is scaled to integers and x is taken out.  A
    root-free cofactor stays one factor.  Factors are primitive integer
    polynomials in the usual order of a factor list: by degree, then
    multiplicity, then coefficients from the leading one.
    """
    ints = _primitive(coeffs)
    low = next(k for k, c in enumerate(ints) if c)
    factors = [([Fraction(0), Fraction(1)], low)] if low else []
    rest = list(coeffs[low:])
    roots = {Fraction(s * p, q) for p in _divisors(abs(int(ints[low])))
             for q in _divisors(int(ints[-1])) for s in (1, -1)}
    for r in roots:
        e = 0
        while len(rest) > 1:
            # synthetic division by x - r, top coefficient first
            quot = [rest[-1]]
            for c in reversed(rest[1:-1]):
                quot.append(c + r * quot[-1])
            if rest[0] + r * quot[-1]:
                break
            rest, e = quot[::-1], e + 1
        if e:
            factors.append((_primitive([-r, 1]), e))
    if len(rest) > 1:
        factors.append((_primitive(rest), 1))
    return sorted(factors, key=lambda f: (len(f[0]), f[1], f[0][::-1]))


def _matrix_poly(a: RatMatrix, coeffs: Sequence[Scalar]) -> RatMatrix:
    n = a.rows
    result = RatMatrix.identity(n).scaled(coeffs[-1])
    for c in map(scalar, reversed(coeffs[:-1])):
        result = result @ a
        if c:
            for i in range(n):
                result.data[i][i] = result.data[i][i] + c
    return result


def _fitting_split(m: ModuleRep, phi: ModuleMap):
    """Split m along the coprime factorisation of phi's minimal polynomial."""
    coeffs = _minimal_polynomial(phi)
    factors = _coprime_factors(coeffs)
    if len(factors) < 2:
        return None
    pieces = []
    for cs, e in factors:
        p = ModuleMap(m, m, [_matrix_poly(b, cs) for b in phi.blocks])
        pe = p
        for _ in range(e - 1):
            pe = pe.then(p)
        pieces.append(kernel(pe))
    if sum(k.dim for k, _ in pieces) != m.dim or any(k.dim == 0 for k, _ in pieces):
        raise InternalCheckFailed("Fitting decomposition failed to partition the module")
    # the inclusions side by side are an isomorphism from the sum of the
    # pieces; its inverse followed by a projection splits off each piece
    c, projections = _from_sum([kincl for _, kincl in pieces], m)
    cinv = c.inverse()
    if cinv is None:
        raise InternalCheckFailed("Fitting pieces are not independent")
    return [(k, kincl, cinv.then(prj)) for (k, kincl), prj in zip(pieces, projections)]


def _from_sum(maps: Sequence[ModuleMap], target: ModuleRep):
    """(f, projections): the map f from the direct sum of the sources of
    ``maps`` that is maps[i] on summand i, and the projections of the sum."""
    src, _, projections = direct_sum([f.source for f in maps])
    # the coordinates of the sum at v are those of each summand at v, in order
    nv = len(target.algebra.idempotents)
    return ModuleMap(src, target, [hstack([f.blocks[v] for f in maps]) for v in range(nv)]), projections


def _splitting_candidates(endos: list[ModuleMap]):
    """The basis of End, the sums of near pairs, then the n combinations
    sum_k lam^k endos[k] for lam = 2, ..., n+1 (n = len(endos)).  Their
    coefficient vectors form a Vandermonde matrix, so they span End: if the
    maps that do not split lie in a proper subspace, one of these splits."""
    yield from endos
    n = len(endos)
    for i in range(n):
        for j in range(i + 1, min(n, i + 6)):
            yield endos[i] + endos[j]
    for lam in range(2, n + 2):
        yield reduce(add, (f.scaled(lam ** k) for k, f in enumerate(endos)))


def decompose_with_maps(x: ModuleRep, endos: Optional[list[ModuleMap]] = None):
    """Split x into certified indecomposables; returns (piece, incl, proj)
    triples.  A piece no endomorphism splits is a leaf once
    :func:`_local_radical` of the same End basis certifies it local.
    ``endos``, if given, is a basis of End(x) already solved."""
    if x.dim == 0:
        return []
    work = [(x, identity_map(x), identity_map(x), endos)]
    out = []
    while work:
        m, inc, prj, endos = work.pop(0)
        split = None
        endos = hom_basis(m, m) if endos is None else endos
        if len(endos) > 1:
            for phi in _splitting_candidates(endos):
                split = _fitting_split(m, phi)
                if split is not None:
                    break
        if split is None:
            if _local_radical(endos) is None:
                raise UndecidableDecomposition("no splitting endomorphism found but End is not local")
            out.append((m, inc, prj))
        else:
            for piece, pinc, pprj in split:
                work.append((piece, pinc.then(inc), prj.then(pprj), None))
    return out


# -- isomorphism testing --------------------------------------------------------


def is_isomorphic(x: ModuleRep, y: ModuleRep) -> Optional[ModuleMap]:
    """An isomorphism x -> y, or None (certified) when there is none.

    Four stages: unequal dimension vectors give None; a zero module gives
    the zero map; the first basis map of Hom(x, y) that is an isomorphism is
    returned (None when Hom(x, y) = 0); else None if :func:`_local_radical`
    certifies End(x) local, and the Krull-Schmidt matching of
    :func:`_match_decompositions` otherwise.

    The lemma behind the last stage (Assem-Simson-Skowronski, vol. 1, I.4):
    if End(x) is local and g: x -> y is an isomorphism, then Hom(x, y) =
    g o End(x), and f = g o (g^-1 f) is an isomorphism iff g^-1 f is a unit.
    The non-units of End(x) form rad End(x), a proper subspace, so the
    non-isomorphisms form the proper subspace g o rad End(x), which holds no
    basis of Hom(x, y): some basis map is an isomorphism.  So with End(x)
    local and none of them an isomorphism, x and y are not isomorphic.
    """
    if x.algebra is not y.algebra:
        raise ValueError("modules live over different algebras")
    if x.vertex_dims() != y.vertex_dims():
        return None
    if x.dim == 0:
        return zero_map(x, y)
    hxy = hom_basis(x, y)
    if not hxy:
        return None
    for f in hxy:
        if f.is_isomorphism():
            return f
    if _local_radical(ex := hom_basis(x, x)) is not None:
        return None
    return _match_decompositions(x, y, ex)


def _match_decompositions(x: ModuleRep, y: ModuleRep, ex: list[ModuleMap]) -> Optional[ModuleMap]:
    """The Krull-Schmidt matching of x and y; ex is a basis of End(x),
    handed to the first level of x's decomposition (y's solves End(y))."""
    xs = decompose_with_maps(x, ex)
    ys = decompose_with_maps(y)
    if len(xs) != len(ys):
        return None
    used = [False] * len(ys)
    total = zero_map(x, y)
    for piece, _, prj in xs:
        found = False
        for j, (ypiece, yinc, _) in enumerate(ys):
            if used[j]:
                continue
            iso = is_isomorphic(piece, ypiece)
            if iso is not None:
                used[j] = True
                total = total + prj.then(iso).then(yinc)
                found = True
                break
        if not found:
            return None
    if not total.is_isomorphism():
        # matched leafwise, but the assembled map must then be invertible
        raise InternalCheckFailed("Krull-Schmidt matching produced a singular map")
    return total


# -- minimal right add(M)-approximations ----------------------------------------------


def _trace(f: ModuleMap) -> Scalar:
    return sum((m.data[i][i] for m in f.blocks for i in range(m.rows)), 0)


def _complement(vecs: Iterable[dict[int, Scalar]], n: int) -> list[int]:
    """The indices k < n of the unit vectors {k: 1} that extend the span of
    ``vecs``, a subspace of the first n coordinates; the span is grown only
    until it may fill them."""
    span = SparseSpan()
    for v in vecs:
        if span.rank == n:
            return []
        span.add(v)
    return [k for k in range(n) if span.add({k: 1})]


def _local_radical(basis: Sequence[ModuleMap]) -> Optional[list[dict[int, Scalar]]]:
    """rad End(L), the trace-zero maps, as coordinates {index: coefficient}
    in ``basis``, a basis of End(L); None unless End(L) is local and split.
    The certificate is :func:`replalg.algebra._local_radical` on L."""
    return _trace_hyperplane([_trace(f) for f in basis],
                             lambda x: reduce(add, (basis[i] if c == 1 else basis[i].scaled(c) for i, c in x.items())),
                             lambda f, g: _trace(f.then(g)))


def _radical(hom: dict) -> dict[tuple[int, int], list[dict[int, Scalar]]]:
    """rad(L_t, L_s) for each key (t, s) of ``hom``, a table of bases of
    Hom(L_t, L_s) that holds (s, s) beside each (t, s), as coordinates
    {index: coefficient} in hom[t, s]: :func:`_local_radical` of End(L_t)
    for t = s, and all of Hom(L_t, L_s) for t != s.

    End(L_t) is certified local for every diagonal key first, else
    InternalCheckFailed.  Then the L_t are pairwise non-isomorphic, else
    NotBasic: with End(L_s) local, L_t and L_s are isomorphic iff a basis
    map of hom[t, s] is an isomorphism (the lemma of :func:`is_isomorphic`),
    which is tested where the dimension vectors agree.
    """
    rad = {}
    for (t, s), basis in hom.items():
        if t == s:
            rad[t, t] = _local_radical(basis)
            if rad[t, t] is None:
                if not any(map(_trace, basis)):
                    raise InternalCheckFailed("End(L) has no map of nonzero trace")
                raise InternalCheckFailed("a summand has an endomorphism ring that is not local")
    for (t, s), basis in hom.items():
        if t != s:
            if basis and basis[0].source._dims == basis[0].target._dims and any(f.is_isomorphism() for f in basis):
                raise NotBasic(f"summands {t} and {s} are isomorphic")
            rad[t, s] = [{a: 1} for a in range(len(basis))]
    return rad


def _top(dims: Sequence[int], composites: Callable[[int, int], Iterable]) -> Iterator[list[int]]:
    """For each t in turn, the generators k at t of a minimal right
    add(L)-approximation of K, in coordinates: dims[t] = dim Hom(L_t, K),
    and ``composites(t, u)``, asked only when dims[t] and dims[u] are
    nonzero, yields the composites r o phi, r in rad(L_t, L_u) and phi in
    Hom(L_u, K), as vectors {k: coefficient}.  By Nakayama's lemma the
    generators at t are a complement of those among the unit vectors
    {k: 1}, k < dims[t].  The caller certifies that Hom(L_t, -) of the
    result is onto for every t.
    """
    for t, d in enumerate(dims):
        yield _complement((v for u, du in enumerate(dims) if du for v in composites(t, u)), d) if d else []


def right_approximation(addset: Sequence[ModuleRep], x: ModuleRep,
                        homs: Optional[Callable[[int, int], list[ModuleMap]]] = None) -> ModuleMap:
    """A minimal right add(addset)-approximation of x, for an addset of
    pairwise non-isomorphic indecomposables L_t.

    It is one :func:`_resolution_step` over the Hom table of the L_t with x
    as one more slot n, hom[t, n] = hom_basis(L_t, x).  Its source holds L_t
    once for each generator (t, k), which maps by hom[t, n][k], and it is
    certified onto under Hom(L_t, -) for every t by rank-nullity.
    ``homs(i, j)``, when given, is a basis of Hom(addset[i], addset[j]), so
    that a caller approximating many targets solves each of these systems
    once; by default it is solved here.  An addset with two isomorphic
    modules, or one that is not indecomposable, never gets a wrong map:
    :func:`_radical` raises NotBasic or InternalCheckFailed.
    """
    return _approximation(addset, x, homs)[0]


def _approximation(addset: Sequence[ModuleRep], x: ModuleRep,
                   homs: Optional[Callable[[int, int], list[ModuleMap]]] = None, rad: Optional[dict] = None):
    """:func:`right_approximation` g with what a next step on ker g needs:
    (g, gens, ker, hom, mu) as :func:`_resolution_step` has them.  Given
    ``rad``, :func:`_radical` of the whole table homs(t, u), hom is that
    whole table; else it holds only the L_u with Hom(L_u, x) != 0."""
    addset = list(addset)
    if not addset:
        raise ValueError("addset must be nonempty")
    for l in addset:
        if l.algebra is not x.algebra:
            raise ValueError("addset modules live over a different algebra")
    maps = [hom_basis(l, x) for l in addset]
    used = [u for u, hu in enumerate(maps) if hu]
    if not used:
        return zero_map(zero_module(x.algebra), x), [], [[] for _ in addset], None, None
    if homs is None:
        def homs(i: int, j: int) -> list[ModuleMap]:
            return hom_basis(addset[i], addset[j])
    n = len(addset)
    hom = {key: homs(*key) for key in rad} if rad else {(t, u): homs(t, u) for t in range(n) for u in used}
    rad = rad or _radical(hom)
    hom.update(((t, n), f) for t, f in enumerate(maps))
    mu = _structure_constants(hom)
    gens, ker = _resolution_step(mu, hom, rad, [n], [[{k: 1} for k in range(len(f))] for f in maps])
    out, _ = _from_sum([maps[t][k] for t, k in gens], x)
    out.source.extras["approximation_summands"] = [t for t, _ in gens]
    return out, gens, ker, hom, mu


# -- gl.dim End(M) from add(M)-resolutions, in End(M) coordinates -----------------------


def _free_columns(vecs: Sequence[dict[int, Scalar]]) -> list[int]:
    """The free column of each vector {column: value} of a basis in the form
    :func:`sparse_kernel` gives: its last nonzero entry, where it reads 1
    and every other vector reads 0.  So the coordinates of a vector of the
    span are its entries at these columns.  Certified, else
    InternalCheckFailed."""
    free = [max(v, default=-1) for v in vecs]
    cols = set(free)
    if len(cols) != len(free) or any(v.get(f) != 1 or sum(j in cols for j in v) != 1
                                     for v, f in zip(vecs, free)):
        raise InternalCheckFailed("a basis is not reduced at its free columns")
    return free


def _coordinates(vec, free: Sequence[int]) -> dict[int, Scalar]:
    """The coordinates {k: c} of a vector of a span in the basis whose free
    columns are ``free`` (:func:`_free_columns`)."""
    return {k: vec[f] for k, f in enumerate(free) if vec[f]}


def _structure_constants(hom: dict) -> Callable[[int, int, int, int], list[dict[int, Scalar]]]:
    """mu(t, u, s, b)[a]: the coordinates in hom[t, s] of hom[t, u][a]
    followed by hom[u, s][b], formed on first use of (t, u, s, b).

    Each basis of ``hom`` must be as :func:`hom_basis` gives it, reduced
    at its free columns (:func:`_free_columns`), so the coordinates of a map
    are its entries at those columns.  Each entry is certified by a full
    residual: the composite equals the combination of the basis that its
    coordinates name, else InternalCheckFailed.
    """
    reduced: dict = {}
    table: dict = {}

    def mu(t: int, u: int, s: int, b: int) -> list[dict[int, Scalar]]:
        if (t, u, s, b) not in table:
            if (t, s) not in reduced:
                vecs = [{j: x for j, x in enumerate(f.flat()) if x} for f in hom[t, s]]
                reduced[t, s] = vecs, _free_columns(vecs)
            vecs, free = reduced[t, s]
            g = hom[u, s][b]
            col = []
            for f in hom[t, u]:
                # f followed by g, flat as ModuleMap.flat reads it, with no map built
                c = [x for a, b in zip(f.blocks, g.blocks) if b.rows and a.cols for row in (b @ a).data for x in row]
                coords = _coordinates(c, free)
                want = [0] * len(c)
                for k, x in coords.items():
                    for j, y in vecs[k].items():
                        want[j] += x * y
                if want != c:
                    raise InternalCheckFailed("a composite of summand maps is not the combination its coordinates name")
                col.append(coords)
            table[t, u, s, b] = col
        return table[t, u, s, b]

    return mu


def _peirce_table(a: AlgebraData):
    """(hom, rad, mu) of the e_t A off the Peirce cells of ``a``: Hom(A, -)
    is an equivalence from mod A onto the projectives of End(A_A) = A
    (Auslander-Reiten-Smalo, ch. II).  hom[t, u] lists the basis of
    e_u A e_t, acting by left multiplication, rad[t, u] its part of
    ``radical_sparse``, and mu(t, u, s, b)[a] = hom[u, s][b] * hom[t, u][a]
    in hom[t, s].  Slot n is D(_A A): hom[t, n] lists the basis of e_t A,
    dual to that of D(e_t A), and y sends phi to d -> phi(y d).  The
    associativity check of ``a`` certifies mu, and ``ensure_split_basic``
    the e_t A local and pairwise non-isomorphic."""
    n = len(a.idempotents)
    hom: dict[tuple[int, int], list[int]] = {(t, u): [] for t in range(n) for u in range(n + 1)}
    for b, (u, t) in enumerate(a.grading):
        hom[t, u].append(b)
        hom[u, n].append(b)
    pos = {b: k for (_, u), cell in hom.items() if u < n for k, b in enumerate(cell)}
    rad: dict = {key: [] for key in hom}
    for r in a.radical_sparse():
        u, t = a.grading[r[0][0]]
        rad[t, u].append({pos[b]: c for b, c in r})

    @cache
    def mu(t: int, u: int, s: int, b: int) -> list[dict[int, Scalar]]:
        z = hom[u, s][b]
        if s < n:
            return [{pos[k]: c for k, c in a.mult[z][y]} for y in hom[t, u]]
        # phi dual to z, after y: the coefficient of z in y d at each d
        return [{j: x for j, d in enumerate(hom[t, n]) for k, x in a.mult[y][d] if k == z} for y in hom[t, u]]

    return hom, rad, mu


def _offsets(hom: dict, n: int, slots: Sequence[int]) -> list[list[int]]:
    """For each t, the coordinates of Hom(L_t, M), M the sum of the L_s for s
    in ``slots``: one block per slot g over the basis hom[t, slots[g]], in
    order.  Gives the offset of each block, then dim Hom(L_t, M)."""
    return [list(accumulate((len(hom[t, s]) for s in slots), initial=0)) for t in range(n)]


def _precompose(mu, offs, slots: Sequence[int], t: int, u: int, na: int,
                phi: dict[int, Scalar]) -> list[dict[int, Scalar]]:
    """hom[t, u][a] followed by phi for each of the ``na`` indices a, in the
    coordinates of Hom(L_t, M) (:func:`_offsets`), for phi: L_u -> M in
    those of Hom(L_u, M), all as {index: coefficient}."""
    ot, ou = offs[t], offs[u]
    out: list[dict[int, Scalar]] = [{} for _ in range(na)]
    for i, x in phi.items():
        g = bisect_right(ou, i) - 1
        base = ot[g]
        for o, coords in zip(out, mu(t, u, slots[g], i - ou[g])):
            for k, z in coords.items():
                o[base + k] = o.get(base + k, 0) + x * z
    return out


def _resolution_step(mu, hom: dict, rad: dict, slots: Sequence[int], have):
    """One step of a minimal add(M)-resolution, in End(M) coordinates.

    have[t] is a basis of Hom(L_t, K), for K a submodule of the sum of the
    L_s for s in ``slots``, as vectors {index: coefficient} in the
    coordinates of :func:`_offsets`, reduced at their free columns.  Returns
    the generators (u, k), L_u by have[u][k], of the minimal right
    add(M)-approximation d: M' -> K (:func:`_top`) and, for each t, a basis
    of Hom(L_t, ker d): the kernel of d_t = Hom(L_t, d), solved in the
    coordinates of Hom(L_t, M').  d_t maps into the span of have[t], so by
    rank-nullity it is onto iff N_t - dim ker d_t = len(have[t]), N_t =
    dim Hom(L_t, M'); else InternalCheckFailed.  Both use each composite of
    hom[t, u] with have[u][k], formed once.
    """
    n = len(have)
    offs = _offsets(hom, n, slots)
    # a vector of the span of have[t] has its coordinates at the free columns
    coord = [{f: k for k, f in enumerate(_free_columns(h))} for h in have]
    # pre[u][t, k]: hom[t, u] followed by have[u][k] as the top at t forms it,
    # kept for d_t while (u, k) may be a generator: the tops at u < t are taken
    pre: list[dict] = [{} for _ in range(n)]
    taken: set[tuple[int, int]] = set()

    def precomposed(t: int, u: int, k: int) -> list[dict[int, Scalar]]:
        return _precompose(mu, offs, slots, t, u, len(hom[t, u]), have[u][k]) if hom[t, u] else []

    def composites(t: int, u: int):
        at = coord[t]
        for k in range(len(have[u])) if rad[t, u] else ():
            p = precomposed(t, u, k)
            if u >= t or (u, k) in taken:
                pre[u][t, k] = p
            comps = [{at[j]: x for j, x in c.items() if j in at} for c in p]
            for r in rad[t, u]:
                c: dict[int, Scalar] = {}
                for a, y in r.items():
                    for i, x in comps[a].items():
                        c[i] = c.get(i, 0) + y * x
                yield c

    for t, ks in enumerate(_top([len(h) for h in have], composites)):
        taken.update((t, k) for k in ks)
        pre[t] = {key: p for key, p in pre[t].items() if (t, key[1]) in taken}
    gens = sorted(taken)
    out = []
    for t, noffs in enumerate(_offsets(hom, n, [u for u, _ in gens])):
        rows: dict[int, dict[int, Scalar]] = {}
        for g, (u, k) in enumerate(gens) if have[t] else ():  # d_t = 0 when Hom(L_t, K) = 0
            for a, c in enumerate(pre[u].pop((t, k), None) or precomposed(t, u, k)):
                for i, x in c.items():
                    if x:
                        rows.setdefault(i, {})[noffs[g] + a] = x
        ker = sparse_kernel(list(rows.values()), noffs[-1])
        if noffs[-1] - len(ker) != len(have[t]):
            raise InternalCheckFailed("an add(M)-approximation is not onto under Hom(L, -)")
        out.append(ker)
    return gens, out


def end_global_dimension(summands, homs: Callable[[int, int], list[ModuleMap]], cap: int) -> tuple[DimBound, int]:
    """(gl.dim End(M), dim End(M)) for the basic module M with the
    indecomposable summands L_t of the (label, module) pairs
    ``summands``, without assembling End(M).

    Hom(M, -) takes a minimal add(M)-resolution ... -> M_2 -> M_1 -> L to a
    minimal projective resolution of the simple S_L = Hom(M, L)/rad(M, L).
    Each step is a minimal right add(M)-approximation (:func:`_top`): M_1 ->
    L of rad(M, L), which makes it the minimal right almost split map, and
    each later M_j of all of Hom(M, K) for the kernel K before it.  pd S_L
    is the first j with Hom(M, K_j) = 0; ``cap`` is as in
    :func:`projective_dimension`.

    No module but the L_t is built.  Hom(L_t, M_j) is the sum of the
    Hom(L_t, L_s) over the summands L_s of M_j, Hom(L_t, K_j) is the kernel
    of Hom(L_t, M_j) -> Hom(L_t, M_{j-1}), and composites are read off the
    structure constants of End(M) (:func:`_structure_constants`, each entry
    certified by its residual).  Each step is certified onto by
    rank-nullity (:func:`_resolution_step`).  ``homs(i, j)`` is a basis of
    Hom(L_i, L_j) as :func:`hom_basis` gives it, as from
    :meth:`GeneratorBundle.summand_homs`.  :func:`_radical` of that table
    certifies M basic: NotBasic when two summands are isomorphic.
    """
    if cap < 0 or any(s[1].dim == 0 for s in summands):
        raise ValueError("cap must be nonnegative and every summand nonzero")
    n = len(summands)
    hom = {(t, s): homs(t, s) for t in range(n) for s in range(n)}
    rad = _radical(hom)
    mu = _structure_constants(hom)
    gs = [_resolve(mu, hom, rad, [j], [rad[t, j] for t in range(n)], cap) for j in range(n)]
    return DimBound(max((g.value for g in gs), default=0), all(g.exact for g in gs)), sum(map(len, hom.values()))


def _resolve(mu, hom: dict, rad: dict, slots: Sequence[int], have, cap: int) -> DimBound:
    """1 + pd K for the K that ``have`` names (:func:`_resolution_step`), or
    0 when K = 0; DimBound(cap + 1, exact=False) when K_cap is not 0."""
    step = 0
    while any(have) and step < cap:
        gens, have = _resolution_step(mu, hom, rad, slots, have)
        slots = [u for u, _ in gens]
        step += 1
    return DimBound(step + 1, exact=False) if any(have) else DimBound(step)
