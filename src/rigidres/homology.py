"""Reduced simplicial homology over an exact field.

Coefficients are exact: rationals (characteristic 0) or a prime field
GF(p).  Besides ranks, this module fixes *deterministic* cycle
representatives for every homology class — faces are ordered
lexicographically and elimination always pivots on the first nonzero
row — so that anything built on top of the representatives (connecting
maps, resolutions) is byte-for-byte reproducible.

A face is the increasing tuple of its int vertices, from enumeration
(order and crosscut complexes are built as such tuples) to boundary
columns, where ∂ deletes position j with sign (−1)^j.

All of it runs on one sparse elimination kernel (`Elimination`):

  - faces get integer ids once per complex, their positions in face
    order, so a column's pivot is the smallest id in it;
  - over GF(p) entries are plain ints mod p; over Q updates are
    fraction-free (x ← a·x − c·b, then the content is divided out), and
    a `Fraction` is made only when a coordinate is handed back;
  - one cleared pass eliminates the boundaries from the top dimension
    down with clearing (Chen–Kerber): a column of ∂_i whose face is a
    pivot row of ∂_{i+1} is never built or reduced, and no
    combinations are tracked.  It gives h_i = n_i − rank ∂_i −
    rank ∂_{i+1} and, for each i, pivots spanning im ∂_{i+1};
  - `homology_ranks` is that pass's ranks;
  - `reduced_homology` takes the pivots of ∂_{i+1} as the reducer of
    H̃_i, and runs a tagged pass over ∂_i, in face order and without
    clearing, only where h_i ≠ 0: the columns that reduce to zero give
    the cycles that become representatives of H̃_i, and the pass stops
    at the h_i-th representative.

A representative is the cycle f − (its unique expression over the
earlier independent faces), scaled to coefficient 1 on its face f; the
arithmetic is exact, so these do not depend on how pivots are reduced.
It is handed back as the kernel holds it: integers on face ids, over d,
in a `HomologyBasis` that carries the field `reduce_cycle` works in.
`SpanBasis` is a separate, plain field elimination kept for the
checkers (`frames.taylor_betti` and `verify_resolution`, which
`verify_frame` runs), which therefore share no code with the kernel.  It
compares rows in their natural order (the checkers number their rows),
stores each pivot column scaled to pivot entry one, and takes integral
scalars as ints (`plain`), so over Q a `Fraction` is made only where an
entry really is fractional.

The empty complex {∅} is a first-class citizen: its reduced homology is
one-dimensional in degree −1, and that class (the empty face with
coefficient 1) seeds the bottom of every frame downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd


# --------------------------------------------------------------------------
# exact scalars

# Primality is tested by trial division, so larger characteristics are
# refused before any division instead of running for minutes.
MAX_CHARACTERISTIC = 2**31 - 1


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
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"characteristic must be an int, got {c!r}")
        if c > MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic must be at most "
                             f"{MAX_CHARACTERISTIC}, got {c}")
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")

    def coerce(self, x):
        """x as an element of the field; over GF(p) a rational a/b is
        a·b⁻¹, and ValueError when p divides b."""
        p = self.characteristic
        if p == 0:
            return Fraction(x)
        if isinstance(x, int):
            return x % p
        x = Fraction(x)
        if x.denominator % p == 0:
            raise ValueError(f"{x} has no value mod {p}")
        return x.numerator * pow(x.denominator, p - 2, p) % p

    @property
    def one(self):
        return self.coerce(1)

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
    p = F.characteristic
    get = target.get
    for k, v in source.items():
        s = get(k, 0) + c * v
        if p:
            s %= p
        if s:
            target[k] = s
        else:
            target.pop(k, None)
    return target


def plain(x):
    """x with an integral `Fraction` as its int numerator.  ℤ ⊂ ℚ, so
    nothing exact changes, and int arithmetic is far cheaper."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


# --------------------------------------------------------------------------
# complexes

def generated_levels(masks):
    """The faces of the complex on vertices 0…k−1 generated by a family
    of sets, given as one bit mask per vertex: bit b of masks[j] is set
    when the b-th set holds vertex j, and every vertex lies in some
    set.  A face is an increasing index tuple whose masks meet, a
    subset of one of the sets.

    Returns one list per dimension from −1 up, each in face order.  A
    face extends a face of the level below by a larger index, carrying
    the meet of its masks, so the family is closed and already in face
    order.

    >>> generated_levels([0b01, 0b11, 0b10])
    [[()], [(0,), (1,), (2,)], [(0, 1), (1, 2)]]
    """
    levels = [[()]]
    level = [((j,), m) for j, m in enumerate(masks)]
    while level:
        levels.append([t for t, _ in level])
        level = [(t + (j,), m & masks[j]) for t, m in level
                 for j in range(t[-1] + 1, len(masks)) if m & masks[j]]
    return levels


class SimplicialComplex:
    """An abstract simplicial complex on int vertices, stored
    downward-closed with ∅.

    A face is the increasing tuple of its vertices, and each dimension
    is kept in lexicographic order of these tuples (face order).  The
    constructor builds the complex the given faces generate
    (`generated_levels`, on the sorted vertices), so
    SimplicialComplex([{1,2},{2,3}]) is the path on three vertices.
    The void complex (no faces at all) is unrepresentable: ∅ is always
    a face.  dim({∅}) = −1.

    A complex compares and hashes by its face levels, one tuple per
    dimension.  A closed family in face order has exactly one such
    form, so two complexes are equal exactly when their face sets are,
    and a complex can key a memo of what is computed from it.
    """

    def __init__(self, faces=()):
        masks = {}  # vertex -> bit mask of the given faces that hold it
        for b, f in enumerate(faces):
            for v in f:
                # ints are totally ordered, so face order is defined
                if not isinstance(v, int):
                    raise ValueError(f"vertex {v!r} is not an int")
                masks[v] = masks.get(v, 0) | 1 << b
        vertices = sorted(masks)
        levels = generated_levels([masks[v] for v in vertices])
        self._set_levels([[tuple(vertices[j] for j in t) for t in fs]
                          for fs in levels])

    @classmethod
    def _closed(cls, levels):
        """The complex whose i-faces are levels[i + 1], for a family
        already closed under subsets, with no empty level and every
        level already in face order; none of this is checked or
        redone."""
        K = cls.__new__(cls)
        K._set_levels(levels)
        return K

    def _set_levels(self, levels):
        self.dim = len(levels) - 2
        self.vertices = tuple(v for (v,) in levels[1]) if self.dim >= 0 else ()
        self._levels = tuple(map(tuple, levels))

    @cached_property
    def faces(self):
        """Every face, as a frozenset of tuples; built on first read."""
        return frozenset(itertools.chain.from_iterable(self._levels))

    def faces_of_dim(self, i):
        """Faces with i+1 vertices, in face order."""
        return list(self._levels[i + 1]) if -1 <= i <= self.dim else []

    @cached_property
    def _hash(self):
        return hash(self._levels)

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self._levels == other._levels)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        covered = {f[:j] + f[j + 1:] for f in self.faces for j in range(len(f))}
        facets = sorted(self.faces - covered, key=lambda f: (len(f), f))
        inner = ", ".join("{" + ", ".join(map(str, f)) + "}" for f in facets)
        return f"SimplicialComplex[{inner}]"


# --------------------------------------------------------------------------
# the reference elimination of the checkers

class SpanBasis:
    """Incremental row-reduced span of sparse columns over F.

    The checkers' elimination, kept apart from the kernel below.

    Columns may carry a tag; the basis remembers, for each reduced
    column, its expansion over the *tagged* originals.

    Pivoting is deterministic: a column's pivot is its first nonzero
    row, with rows compared in their natural order (ints, or tuples of
    ints such as faces of one dimension), and reduction eliminates
    pivots smallest-first, so results do not depend on dict iteration
    order.  A stored column is scaled to pivot entry one, so a reduction
    step subtracts it without a field inversion.  Over Q the entries may
    mix ints and `Fraction`s; integral scalars given as ints (see
    `plain`) keep the arithmetic in ints wherever it stays integral.

    >>> basis = SpanBasis(FieldSpec(0))
    >>> basis.insert({0: 2, 1: 1}), basis.insert({0: 4, 1: 2})
    (True, False)
    >>> basis.insert({1: 3}), basis.rank
    (True, 2)
    >>> basis._pivots[0]
    ({0: 1, 1: Fraction(1, 2)}, {})
    """

    def __init__(self, F):
        self.F = F
        # pivot row -> (column with pivot entry 1, combo dict)
        self._pivots = {}
        self.rank = 0

    def _reduce(self, col, combo):
        col = dict(col)
        combo = dict(combo)
        F, pivots = self.F, self._pivots
        while col:
            pivot = min(col)
            hit = pivots.get(pivot)
            if hit is None:
                return col, combo, pivot
            bcol, bcombo = hit
            c = -col[pivot]  # axpy reduces mod p
            axpy(col, c, bcol, F)
            if bcombo:
                axpy(combo, c, bcombo, F)
        return col, combo, None

    def copy(self):
        """A basis of the same span that grows apart from this one; a
        stored pivot is never changed, so the two share them."""
        other = SpanBasis(self.F)
        other._pivots = dict(self._pivots)
        other.rank = self.rank
        return other

    def insert(self, col, tag=None):
        """Add a column; returns True if it enlarged the span."""
        F = self.F
        combo = {tag: F.one} if tag is not None else {}
        col, combo, pivot = self._reduce(col, combo)
        if pivot is None:
            return False
        a = col[pivot]
        if a != 1:
            inv = -1 if a == -1 else plain(F.inv(a))
            for vec in (col, combo):
                for k, v in vec.items():
                    vec[k] = plain(F.mul(inv, v))
        self._pivots[pivot] = (col, combo)
        self.rank += 1
        return True


# --------------------------------------------------------------------------
# the elimination kernel

def _integer_boundaries(K, p):
    """K with integer row ids: for each i from −1 to dim K, the i-faces
    in face order (a face's id is its position), the id of each face,
    and the boundary `column(f)` of an i-face as {(i−1)-face id: ±1},
    with −1 written as p − 1 over GF(p): deleting position j of the
    increasing tuple f gives sign (−1)^j.  Columns are built on
    request, so a pass that skips a face never builds its column."""
    minus = p - 1 if p else -1
    levels = []
    below = None
    for i in range(-1, K.dim + 1):
        faces = K.faces_of_dim(i)
        index = {f: k for k, f in enumerate(faces)}

        def column(f, below=below):
            return {below[f[:j] + f[j + 1:]]: minus if j % 2 else 1
                    for j in range(len(f))}

        levels.append((i, faces, index, column))
        below = index
    return levels


def _axpy(target, m, source, p):
    """target += m·source over the integers (p = 0) or mod p, dropping
    zeros; m is nonzero (mod p)."""
    get = target.get
    for k, v in source.items():
        s = get(k, 0) + m * v
        if p:
            s %= p
        if s:
            target[k] = s
        else:
            del target[k]


def _scale(vec, a, p):
    for k, v in vec.items():
        vec[k] = v * a % p if p else v * a


class Elimination:
    """Pivot columns of a sparse matrix over Q or GF(p), in exact ints.

    A column is a dict {row id: nonzero int}; its pivot is its smallest
    row id.  A column may carry a combination {tag: int} recording it
    as a combination of tagged original columns, updated alongside.
    Over GF(p) entries are ints mod p and a stored column is scaled to
    pivot entry 1.  Over Q the update x ← a·x − c·b is fraction-free,
    and a column that had to be scaled (|a| > 1 after dividing a and c
    by their gcd) is divided by the gcd of all its entries and its
    combination's, its content.
    """

    def __init__(self, characteristic, pivots=None):
        self.p = characteristic
        # pivot row -> (column, combination or None)
        self.pivots = {} if pivots is None else pivots

    def reduce(self, col, combo=None):
        """Eliminate col's pivots against the stored ones, smallest row
        first, updating col and combo in place.  Returns the pivot row
        col is left with, or None when col reduced to zero."""
        pivots, p = self.pivots, self.p
        while col:
            r = min(col)
            hit = pivots.get(r)
            if hit is None:
                return r
            b, bc = hit
            c, a = col[r], 1
            if p:
                m = p - c  # a stored pivot has b[r] == 1
            else:
                g = gcd(b[r], c)
                a, c = b[r] // g, c // g
                if a == -1:  # −x − c·b and x + c·b differ only in sign
                    a, c = 1, -c
                m = -c
                if a != 1:  # x ← a·x − c·b
                    _scale(col, a, 0)
                    if combo is not None:
                        _scale(combo, a, 0)
            _axpy(col, m, b, p)
            if combo is not None and bc:
                _axpy(combo, m, bc, p)
            if a != 1:
                _divide_content(col, combo)
        return None

    def insert(self, col, combo=None):
        """Reduce col and store it under its pivot row, which is
        returned; None (nothing stored) when col reduced to zero."""
        r = self.reduce(col, combo)
        if r is not None:
            if self.p and col[r] != 1:
                inv = pow(col[r], self.p - 2, self.p)
                _scale(col, inv, self.p)
                if combo:
                    _scale(combo, inv, self.p)
            self.pivots[r] = (col, combo)
        return r


def _divide_content(col, combo):
    g = gcd(*col.values(), *(combo.values() if combo else ()))
    if g > 1:
        for vec in (col, combo or {}):
            for k, v in vec.items():
                vec[k] = v // g


# --------------------------------------------------------------------------
# reduced homology

@dataclass
class HomologyBasis:
    """Ranks and fixed cycle representatives of H̃_i over `field`, plus
    the internal eliminators that express further cycles in this basis."""

    ranks: dict = field(default_factory=dict)  # i -> h_i ≠ 0, ascending
    # i -> [(vector, d)]: the cycle Σ vector[k]/d · (k-th i-face of K)
    representatives: dict = field(default_factory=dict)
    # i -> (the level of `_integer_boundaries` in degree i, Elimination
    # over the boundaries B_i and the representatives, tagged by index,
    # or None where h_i = 0 and every cycle bounds)
    _reducers: dict = field(default_factory=dict, repr=False)
    field: FieldSpec = FieldSpec(0)  # last: it shadows dataclasses.field

    def rank(self, i):
        return self.ranks.get(i, 0)


def _cleared_pass(levels, p):
    """The ranks {i: h_i ≠ 0} of the complex with boundaries `levels`
    (from `_integer_boundaries`), in ascending degree, and for each i
    the pivots stored for ∂_i, each a column {row id: int} under its
    pivot row.

    The boundaries are eliminated from the top dimension down, with
    clearing: a column of ∂_i whose face is the pivot row of a column
    stored for ∂_{i+1} is skipped.  This leaves rank ∂_i unchanged.  The
    stored columns of ∂_{i+1} have distinct pivots, each its column's
    smallest row, so on their set P of pivot rows they form a triangular
    matrix with nonzero diagonal.  For f in P some combination b of
    them, a boundary, therefore has coefficient 1 at f and 0 at the
    rest of P.  Since ∂_i b = 0, ∂_i f = ∂_i (f − b), and f − b lies on
    faces outside P.  So the kept columns span im ∂_i, and the pivots
    stored for ∂_i are an echelon basis of im ∂_i.
    """
    ranks, pivots = {}, {}
    cleared = {}  # pivot rows of the columns stored for ∂_{i+1}
    for i, faces, _, column in reversed(levels):
        elimination = Elimination(p)
        for k, f in enumerate(faces):
            if k not in cleared:
                elimination.insert(column(f))
        h = len(faces) - len(elimination.pivots) - len(cleared)
        if h:
            ranks[i] = h
        cleared = pivots[i] = elimination.pivots
    return dict(sorted(ranks.items())), pivots


def homology_ranks(K, F=FieldSpec(0)):
    """Ranks {i: h_i} of the nonzero reduced homology of K over F,
    h_i = #i-faces − rank ∂_i − rank ∂_{i+1}, without representatives,
    in ascending degree: the ranks of one cleared pass
    (`_cleared_pass`, where the proof that clearing keeps the ranks is
    given).

    >>> homology_ranks(SimplicialComplex([{1, 2}, {2, 3}, {1, 3}]))
    {1: 1}
    """
    p = F.characteristic
    return _cleared_pass(_integer_boundaries(K, p), p)[0]


def reduced_homology(K, F=FieldSpec(0)):
    """Reduced homology of K over F with deterministic representatives.

    One cleared pass (`_cleared_pass`) gives the ranks and, for every
    i, pivots spanning im ∂_{i+1}.  The level of every degree from −1
    to dim K is kept, and only where h_i ≠ 0 do those pivots become
    the reducer of H̃_i, and is ∂_i eliminated again, in a tagged pass
    over its columns in face order without clearing.  A column that
    reduces to zero gives the cycle z_f = f + (a combination of earlier
    independent faces); the cycles that stay independent of the reducer
    and of the earlier ones become the representatives of H̃_i, with
    coefficient 1 on their own face f, and the pass stops at the h_i-th.
    They are fixed by the face order alone, and the coordinates of
    `reduce_cycle` do not depend on which echelon basis of the
    boundaries the reducer holds.

    >>> K = SimplicialComplex([{1}, {2}])
    >>> reduced_homology(K).ranks
    {0: 1}
    >>> reduced_homology(SimplicialComplex()).ranks
    {-1: 1}

    A representative is a pair (vector, d) on face ids: on the hollow
    triangle, H̃_1 is spanned by {1, 2} − {1, 3} + {2, 3}.

    >>> triangle = SimplicialComplex([{1, 2}, {2, 3}, {1, 3}])
    >>> triangle.faces_of_dim(1)
    [(1, 2), (1, 3), (2, 3)]
    >>> reduced_homology(triangle).representatives[1]
    [({0: 1, 1: -1, 2: 1}, 1)]
    """
    p = F.characteristic
    levels = _integer_boundaries(K, p)
    ranks, pivots = _cleared_pass(levels, p)
    basis = HomologyBasis(ranks=ranks, field=F)
    for level in levels:
        i, faces, _, column = level
        h = ranks.get(i, 0)
        reducer = Elimination(p, pivots.get(i + 1, {})) if h else None
        if h:
            tagged = Elimination(p)
            reps = []
            for k, f in enumerate(faces):
                z = {k: 1}
                if (tagged.insert(column(f), z) is None
                        and reducer.insert(dict(z), {len(reps): z[k]})
                        is not None):
                    reps.append((dict(sorted(z.items())), z[k]))
                    if len(reps) == h:
                        break
            basis.representatives[i] = reps
        basis._reducers[i] = (level, reducer)
    return basis


def reduce_cycle(z, i, basis):
    """Coordinates of the i-cycle z = (vector, d), given as the
    representatives are (d prime to the characteristic), over
    basis.representatives[i], in the field of the basis.  z must be a
    cycle supported on K; the result c satisfies z − Σ c_j · rep_j ∈
    boundaries.  All-zero means z bounds, as every cycle does where
    h_i = 0."""
    vec, d = z
    p = basis.field.characteristic
    if not (d % p if p else d):
        raise ValueError(f"denominator {d} is zero in the field")
    # outside degrees −1 … dim K there are no i-faces
    level, reducer = basis._reducers.get(i, ((i, ()), None))
    faces = level[1]
    col = {}
    for k, c in vec.items():
        if not 0 <= k < len(faces):
            raise ValueError(f"face id {k} not in the complex")
        c = c % p if p else c
        if c:
            col[k] = c
    boundary = {}
    for k, c in col.items():  # nonempty only on a full level
        _axpy(boundary, c, level[3](faces[k]), p)
    if boundary:
        raise ValueError("not a cycle")
    if reducer is None:  # h_i = 0: every cycle bounds
        return []
    combo = {-1: 1}  # tag −1 tracks the multiple of z that col holds
    if col and reducer.reduce(col, combo) is not None:
        raise ValueError("cycle not in the span of boundaries and representatives")
    s = combo.pop(-1) * d
    if p:
        inv = pow(s, p - 2, p)
        return [-combo.get(j, 0) * inv % p for j in range(basis.rank(i))]
    return [Fraction(-combo.get(j, 0), s) for j in range(basis.rank(i))]
