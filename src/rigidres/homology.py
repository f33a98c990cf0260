"""Reduced simplicial homology over an exact field.

Coefficients are exact: rationals (characteristic 0) or a prime field
GF(p).  Besides ranks, this module fixes *deterministic* cycle
representatives for every homology class — faces are ordered
lexicographically and elimination always pivots on the first nonzero
row — so that anything built on top of the representatives (connecting
maps, resolutions) is byte-for-byte reproducible.

The empty complex {∅} is a first-class citizen: its reduced homology is
one-dimensional in degree −1, and that class (the empty face with
coefficient 1) seeds the bottom of every frame downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


# --------------------------------------------------------------------------
# exact scalars

def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (rationals) or a prime p."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")

    def coerce(self, x):
        if self.characteristic == 0:
            return Fraction(x)
        return int(x) % self.characteristic

    @property
    def one(self):
        return self.coerce(1)

    def add(self, a, b):
        s = a + b
        return s % self.characteristic if self.characteristic else s

    def neg(self, a):
        return (-a) % self.characteristic if self.characteristic else -a

    def mul(self, a, b):
        p = a * b
        return p % self.characteristic if self.characteristic else p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverting zero")
        if self.characteristic == 0:
            return Fraction(1) / a
        return pow(a, self.characteristic - 2, self.characteristic)


def axpy(target, c, source, F):
    """target += c * source for sparse vectors (dicts), dropping zeros."""
    for k, v in source.items():
        s = F.add(target.get(k, F.coerce(0)), F.mul(c, v))
        if s:
            target[k] = s
        else:
            target.pop(k, None)
    return target


# --------------------------------------------------------------------------
# complexes and chains

def vertex_key(v):
    """Deterministic total order on vertices.

    Vertices are either plain hashables (ints, strings) or frozensets of
    ints (poset elements); frozensets sort by (size, sorted members).
    """
    if isinstance(v, frozenset):
        return (len(v), tuple(sorted(v)))
    return v


def face_key(face):
    return (len(face), tuple(sorted(vertex_key(v) for v in face)))


class SimplicialComplex:
    """An abstract simplicial complex, stored downward-closed with ∅.

    The constructor closes the given faces under subsets, so
    SimplicialComplex([{1,2},{2,3}]) is the path on three vertices.
    The void complex (no faces at all) is unrepresentable: ∅ is always
    a face.  dim({∅}) = −1.
    """

    def __init__(self, faces=()):
        closed = {frozenset()}
        stack = [frozenset(f) for f in faces]
        while stack:
            f = stack.pop()
            if f in closed:
                continue
            closed.add(f)
            for v in f:
                stack.append(f - {v})
        self.faces = frozenset(closed)
        self.vertices = tuple(sorted({v for f in closed for v in f}, key=vertex_key))
        self.dim = max((len(f) for f in closed)) - 1
        self._by_dim = {}
        for f in closed:
            self._by_dim.setdefault(len(f) - 1, []).append(f)
        for fs in self._by_dim.values():
            fs.sort(key=face_key)

    def faces_of_dim(self, i):
        """Faces with i+1 vertices, in the fixed lexicographic order."""
        return list(self._by_dim.get(i, ()))

    def __contains__(self, face):
        return frozenset(face) in self.faces

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.faces == other.faces

    def __hash__(self):
        return hash(self.faces)

    def __repr__(self):
        facets = [f for f in self.faces if not any(f < g for g in self.faces)]
        inner = ", ".join(str(set(f) or "{}") for f in sorted(facets, key=face_key))
        return f"SimplicialComplex[{inner}]"

    def euler_characteristic_reduced(self):
        """Σ (−1)^i (#i-faces), counting ∅ in degree −1."""
        return sum((-1) ** (len(f) - 1) for f in self.faces)


def cone(apex, K):
    """The cone apex ∗ K (apex must be a fresh vertex)."""
    if apex in K.vertices:
        raise ValueError("cone apex already a vertex")
    return SimplicialComplex([f | {apex} for f in K.faces])


@dataclass
class Chain:
    """A formal sum of equal-dimension faces with nonzero coefficients."""

    dimension: int
    terms: dict  # face (frozenset) -> nonzero scalar

    def __post_init__(self):
        for f in self.terms:
            if len(f) - 1 != self.dimension:
                raise ValueError(f"face {set(f)} not of dimension {self.dimension}")

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.dimension == other.dimension
                and self.terms == other.terms)


def face_boundary(face, F):
    """∂(face) with alternating signs; removing the j-th vertex (in the
    global vertex order) contributes (−1)^j.  For a vertex this is +1·∅."""
    verts = sorted(face, key=vertex_key)
    out = {}
    sign = F.one
    for j, v in enumerate(verts):
        out[face - {v}] = sign if j % 2 == 0 else F.neg(sign)
    return out


def chain_boundary(chain, F):
    out = {}
    for f, c in chain.terms.items():
        axpy(out, c, face_boundary(f, F), F)
    return Chain(chain.dimension - 1, out)


def boundary_matrix(K, i, F):
    """Columns of ∂_i: C_i → C_{i−1}, keyed by i-face, in the fixed
    face order.  ∂_0 is the augmentation onto the empty face; ∂_{−1} = 0."""
    cols = {}
    for f in K.faces_of_dim(i):
        cols[f] = face_boundary(f, F) if i >= 0 else {}
    return cols


# --------------------------------------------------------------------------
# elimination with provenance

class SpanBasis:
    """Incremental row-reduced span of sparse columns.

    Columns may carry a tag; the basis remembers, for each reduced
    column, its expansion over the *tagged* originals.  This turns
    "write cycle z as a combination of chosen representatives modulo
    boundaries" into a single reduction pass.

    Pivoting is deterministic: a column's pivot is its first nonzero
    row in the global row order (the `key` argument, faces by default),
    and reduction eliminates pivots smallest-first, so results do not
    depend on dict iteration order.
    """

    def __init__(self, F, key=face_key):
        self.F = F
        self.key = key
        self._pivots = {}  # pivot row -> (column dict, combo dict)
        self.rank = 0

    def _reduce(self, col, combo):
        col = dict(col)
        combo = dict(combo)
        while col:
            pivot = min(col, key=self.key)
            hit = self._pivots.get(pivot)
            if hit is None:
                return col, combo, pivot
            bcol, bcombo = hit
            c = self.F.neg(self.F.mul(col[pivot], self.F.inv(bcol[pivot])))
            axpy(col, c, bcol, self.F)
            axpy(combo, c, bcombo, self.F)
        return col, combo, None

    def insert(self, col, tag=None):
        """Add a column; returns True if it enlarged the span."""
        combo = {tag: self.F.one} if tag is not None else {}
        col, combo, pivot = self._reduce(col, combo)
        if pivot is None:
            return False
        self._pivots[pivot] = (col, combo)
        self.rank += 1
        return True

    def express(self, col):
        """(residue, combo): col − residue lies in the span, and the
        tagged part of the decomposition is −combo … i.e. col =
        Σ (−combo[t])·column_t + untagged part + residue."""
        col, combo, _ = self._reduce(col, {})
        return col, {t: self.F.neg(c) for t, c in combo.items()}


# --------------------------------------------------------------------------
# reduced homology

@dataclass
class HomologyBasis:
    """Ranks and fixed cycle representatives of H̃_i, plus the internal
    eliminators needed to express further cycles in this basis."""

    ranks: dict = field(default_factory=dict)  # i -> h_i (only nonzero kept)
    representatives: dict = field(default_factory=dict)  # i -> [Chain]
    _reducers: dict = field(default_factory=dict, repr=False)

    def rank(self, i):
        return self.ranks.get(i, 0)

    def nonzero_degrees(self):
        return sorted(self.ranks)


def reduced_homology(K, F=FieldSpec(0)):
    """Reduced homology of K over F with deterministic representatives.

    For each dimension i the eliminator first absorbs all boundaries of
    (i+1)-faces, then feeds it the kernel of ∂_i (computed by the same
    deterministic reduction); kernel elements that survive become the
    representatives of H̃_i.

    >>> K = SimplicialComplex([{1}, {2}])
    >>> reduced_homology(K).ranks
    {0: 1}
    >>> reduced_homology(SimplicialComplex()).ranks
    {-1: 1}
    """
    basis = HomologyBasis()
    for i in range(-1, K.dim + 1):
        reducer = SpanBasis(F)
        for col in boundary_matrix(K, i + 1, F).values():
            reducer.insert(col)
        # kernel of the i-th boundary, deterministically
        ker_finder = SpanBasis(F)
        kernel = []
        for f, col in boundary_matrix(K, i, F).items():
            if not ker_finder.insert(col, tag=f):
                _, combo = ker_finder.express(col)
                vec = {t: F.neg(c) for t, c in combo.items()}
                vec[f] = F.one
                kernel.append(vec)
        reps = []
        for vec in kernel:
            if reducer.insert(dict(vec), tag=len(reps)):
                reps.append(Chain(i, vec))
        if reps:
            basis.ranks[i] = len(reps)
            basis.representatives[i] = reps
        basis._reducers[i] = reducer
    return basis


def reduce_cycle(z, K, basis, F=FieldSpec(0)):
    """Coordinates of the cycle z over basis.representatives[z.dimension].

    z must be a cycle supported on K; the result c satisfies
    z − Σ c_j · rep_j ∈ boundaries.  All-zero means z bounds.
    """
    for f in z.terms:
        if f not in K:
            raise ValueError(f"face {set(f)} not in the complex")
    if z.dimension >= 0 and any(chain_boundary(z, F).terms.values()):
        raise ValueError("not a cycle")
    reducer = basis._reducers.get(z.dimension)
    reps = basis.representatives.get(z.dimension, [])
    if reducer is None:
        reducer = SpanBasis(F)
    residue, combo = reducer.express(dict(z.terms))
    if residue:
        raise ValueError("cycle not in the span of boundaries and representatives")
    return [combo.get(j, F.coerce(0)) for j in range(len(reps))]
