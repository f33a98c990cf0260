"""From Betti posets to minimal free resolutions.

A *frame* over a poset B with minimum 0̂ is a sequence of vector spaces
and maps assembled from the reduced homology of B's open intervals:

  - position 0 holds a single generator, the class of the empty face;
  - position ℓ ≥ 1 holds one component per element q whose interval
    homology h_{ℓ−2} is nonzero, with that rank;
  - the map out of a component at q has one block per lower cover p of
    q, computed as a Mayer-Vietoris connecting map from the link of p:
    p is maximal in (0̂, q), so a chain through p ends at p, and the
    link lk_p(z) of a fixed representative i-cycle z is z's entries on
    the chains σ ∪ {p}, each put on σ.  The coordinates of
    (−1)^i · lk_p(z), a cycle of the open interval below p, in p's
    fixed homology basis give the block column.  A chain is the
    increasing tuple of its elements' positions in (0̂, q); the link's
    chains are renumbered into positions of (0̂, p) once per cover, so
    the map runs in integers up to its coordinates.

The link is the connecting map.  That map splits z = a + b, with a
the chains inside (0̂, p], and reads the class of ∂a.  No chain of b
holds p, so ∂a = −∂b has no chain through p.  Deleting p, the last
vertex, from σ ∪ {p} gives (−1)^i σ, so ∂a = (−1)^i · lk_p(z) + ∂a′,
with a′ the chains of a below p: the two cycles differ by a boundary
of (0̂, p) and have the same coordinates.

Homogenization turns a frame over a degree-labelled poset into a
multigraded free resolution (scalar c on a cover p ⋖ q becomes
c · degree(q)/degree(p)); relabeling transports a resolution across a
poset isomorphism by moving each basis key (q, j) to (σ(q), j), keeping
its index j and all scalars, and recomputing the monomial parts from
the new degrees.  Either degree map may be a lattice's whole
`degrees`.  Verification is independent of how the
object was produced, and there is one verifier: `verify_frame` is
`verify_resolution` of the frame homogenized by the ambient lattice's
degrees.  The Taylor-complex Betti oracle at the bottom of this module
shares nothing with the interval-homology path: interval homology runs
on the elimination kernel of `homology`, while the oracle and
`verify_resolution` eliminate with the separate `SpanBasis`.  That is
what makes the cross-checks in the test suite meaningful.  The verifier
numbers each position's basis keys once, in canonical order, and reads
every entry once: an entry between two basis keys joins its column on
numbered rows, with integral scalars as ints, and any other entry is
only reported.  The ∂∂ = 0 check and every strand read that one
numbered map.  The strands lie at the lcm closure of the degrees; each
strand's members are one AND of bit masks per variable, and it grows
copies of the span bases of the largest strand one exponent below it:
a rank does not depend on the order of its columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import le, sub

from .betti import BettiTable, betti_poset
from .homology import (
    FieldSpec,
    SimplicialComplex,
    SpanBasis,
    axpy,
    plain,
    reduce_cycle,
    reduced_homology,
)
from .monomials import Monomial
from .posets import (FiniteAtomicLattice, Poset, bit_indices, element_key,
                     lcm_lattice, order_complex, support_text)


def _key_order(key):
    q, j = key
    return (element_key(q), j)


# --------------------------------------------------------------------------
# frames

@dataclass
class Frame:
    """Homology components and connecting-map blocks over a poset.

    components: ℓ → tuple of (element, multiplicity), canonical order.
    maps: ℓ → {column key → {row key → scalar}} with key = (element, j);
    columns at ℓ map into rows at ℓ−1; `block` reads one connecting-map
    block back out.
    """

    poset: Poset
    field: FieldSpec
    components: dict
    maps: dict

    def rank(self, position):
        return sum(m for _, m in self.components.get(position, ()))

    def ranks(self):
        top = max(self.components, default=-1)
        return tuple(self.rank(i) for i in range(top + 1))

    @property
    def length(self):
        return max((i for i, comps in self.components.items() if comps), default=0)

    def basis_keys(self, position):
        return [(q, j) for q, mult in self.components.get(position, ())
                for j in range(mult)]

    def block(self, position, q, p):
        """The block of φ_position between component q (columns) and
        component p (rows) as a dense row-major matrix."""
        q, p = frozenset(q), frozenset(p)
        cols = dict(self.components.get(position, ())).get(q)
        rows = dict(self.components.get(position - 1, ())).get(p)
        if cols is None or rows is None:
            raise ValueError("no such component pair")
        zero = self.field.coerce(0)
        return [
            [self.maps[position].get((q, j), {}).get((p, k), zero)
             for j in range(cols)]
            for k in range(rows)
        ]


def _link_vertices(elements, p):
    """For a cover p ⋖ q, with (0̂, q) given by its elements in vertex
    order: p's vertex in (0̂, q), and each vertex below p → its vertex
    in (0̂, p), the part of (0̂, q) below p, in order."""
    below = (k for k, e in enumerate(elements) if e < p)
    return elements.index(p), {k: n for n, k in enumerate(below)}


def _connecting_column(z, i, link, basis_q, basis_p):
    """One column of the connecting map along a cover p ⋖ q: the
    coordinates of (−1)^i · lk_p(z) in p's fixed homology basis, for an
    i-cycle z = (vector, d) of (0̂, q) and link = `_link_vertices` of p
    (the bases are those of the order complexes, over one field)."""
    vec, d = z
    v, renumber = link
    faces = basis_q._reducers[i][0][1]
    rows = basis_p._reducers[i - 1][0][2]
    c = basis_p.field.characteristic
    sign = (c - 1 if c else -1) if i % 2 else 1
    lk = {}
    for k, x in vec.items():
        chain = faces[k]
        if chain[-1] == v:
            lk[rows[tuple(map(renumber.__getitem__, chain[:-1]))]] = sign * x
    return reduce_cycle((lk, d), i - 1, basis_p)


def build_frame(B, F=FieldSpec(0)):
    """Assemble the frame of a poset with minimum 0̂.

    Intended for Betti posets of rigid ideals, where the result carries
    a minimal free resolution; any poset with a minimum is accepted and
    verify_frame decides whether the homogenized outcome is a minimal
    resolution.

    Intervals with equal order complexes share one homology basis: a
    basis is a function of the face lists and the field, and the
    connecting map only reads it.

    >>> from rigidres.monomials import parse_ideal
    >>> B = betti_poset(lcm_lattice(parse_ideal("x*y; y*z; z*w")))
    >>> build_frame(B).ranks()
    (1, 3, 2)
    """
    bot = B.bottom
    others = [q for q in B.elements if q != bot]
    intervals = {q: B.open_interval(q) for q in others}
    bases, shared = {}, {}
    for q in others:
        K = order_complex(intervals[q])
        if K not in shared:
            shared[K] = reduced_homology(K, F)
        bases[q] = shared[K]

    components = {0: ((bot, 1),)}
    for q in others:  # canonical order keeps each level sorted
        for i, h in bases[q].ranks.items():
            components[i + 2] = components.get(i + 2, ()) + ((q, h),)

    maps = {level: {} for level in sorted(components) if level}
    for q in others:
        links = {p: _link_vertices(intervals[q].elements, p)
                 for p in B.lower_covers(q) if p != bot}
        for i, reps in bases[q].representatives.items():
            for j, z in enumerate(reps):
                col = {}
                for p in B.lower_covers(q):
                    if p == bot:
                        # only atoms cover 0̂; their class is the empty
                        # face itself, sent identically to position 0
                        col[(bot, 0)] = F.one
                        continue
                    if bases[p].rank(i - 1) == 0:
                        continue
                    coords = _connecting_column(z, i, links[p], bases[q],
                                                bases[p])
                    for k, c in enumerate(coords):
                        if c:
                            col[(p, k)] = c
                maps[i + 2][(q, j)] = col
    return Frame(B, F, components, maps)


# --------------------------------------------------------------------------
# checker helpers: witness text, and the strand ranks shared by
# verify_resolution and the Taylor oracle

def _entry_text(position, colkey, rowkey):
    (q, j), (p, k) = colkey, rowkey
    return (f"position {position}, column {support_text(q)}#{j}, "
            f"row {support_text(p)}#{k}")


def _strand_homology(F, strand):
    """{position: h ≠ 0} of a strand given as position → the columns of
    its basis vectors (sparse over the basis one position down, rows
    compared in their natural order: numbers in `verify_resolution`, subset
    tuples in the Taylor oracle): h = #vectors − rank out − rank in."""
    ranks = {}
    for pos, cols in strand.items():
        basis = SpanBasis(F)
        for col in cols:
            basis.insert(col)
        ranks[pos] = basis.rank
    return _homology_of_ranks(
        {pos: len(cols) for pos, cols in strand.items()}, ranks)


def _homology_of_ranks(sizes, ranks):
    """{position: h ≠ 0} of a strand given its vector counts and column
    ranks per position."""
    top = max((pos for pos, n in sizes.items() if n), default=0)
    h = {pos: sizes.get(pos, 0) - ranks.get(pos, 0) - ranks.get(pos + 1, 0)
         for pos in range(top + 1)}
    return {pos: x for pos, x in h.items() if x}


# --------------------------------------------------------------------------
# graded resolutions

@dataclass
class GradedFreeResolution:
    """A multigraded complex of free modules.

    modules: position → tuple of (key, degree Monomial); keys are
    (poset element, index) pairs.  differentials: position →
    {column key → {row key → (scalar, monomial ratio)}}.
    """

    field: FieldSpec
    modules: dict
    differentials: dict

    def ranks(self):
        top = max(self.modules, default=-1)
        return tuple(len(self.modules.get(i, ())) for i in range(top + 1))

    @property
    def length(self):
        return max((i for i, mods in self.modules.items() if mods), default=0)


def _check_strict_ratio(deg_q, deg_p, *entry):
    if not deg_p.divides(deg_q) or deg_p == deg_q:
        raise ValueError(f"degrees not strictly compatible at "
                         f"{_entry_text(*entry)}: "
                         f"{tuple(deg_p)} vs {tuple(deg_q)}")
    return deg_q.ratio(deg_p)


def _attach_degrees(F, keys, maps, degrees):
    """The graded resolution of scalar maps laid out as in a `Frame`,
    given each level's basis keys, with degrees attached as
    `homogenize` describes and each module's keys in canonical order;
    `relabel` uses it too."""
    degs = {frozenset(e): Monomial(m) for e, m in (degrees or {}).items()}

    def degree(key):
        if key[0] not in degs:
            raise ValueError(f"no degree for element {support_text(key[0])}")
        return degs[key[0]]

    modules = {level: tuple((key, degree(key))
                            for key in sorted(ks, key=_key_order))
               for level, ks in sorted(keys.items())}
    differentials = {
        level: {colkey: {rowkey: (c, _check_strict_ratio(
                             degree(colkey), degree(rowkey),
                             level, colkey, rowkey))
                         for rowkey, c in col.items()}
                for colkey, col in cols.items()}
        for level, cols in sorted(maps.items())}
    return GradedFreeResolution(F, modules, differentials)


def homogenize(frame, degrees):
    """Attach monomial degrees to a frame, yielding a graded resolution.

    degrees maps every component element to a Monomial, and may name
    other elements too (a lattice's whole `degrees`); each basis key
    (q, j) keeps its index j, and each scalar c on a pair (q column,
    p row) becomes (c, degree(q)/degree(p)), which must be a non-unit
    monomial.
    """
    keys = {level: frame.basis_keys(level) for level in frame.components}
    return _attach_degrees(frame.field, keys, frame.maps, degrees)


def resolve(I, F=FieldSpec(0), memo=None):
    """The lcm-lattice L of I, its Betti poset B, and the frame over B
    homogenized by the degrees of L: the minimal free resolution when I
    is rigid (verify_resolution decides).

    I is a monomial ideal or a degree-labelled atomic lattice, which is
    read as the lcm-lattice of an ideal and returned as L.  memo is
    passed to `betti_poset` (see `betti.interval_ranks`).
    """
    L = I if isinstance(I, FiniteAtomicLattice) else lcm_lattice(I)
    B = betti_poset(L, F, memo)
    res = homogenize(build_frame(B, F), L.degrees)
    return L, B, res


def _check_mapping(mapping, used):
    """Raise ValueError unless mapping covers every element of used and
    is injective on them: a map `relabel` can transport along."""
    missing = [e for e in used if e not in mapping]
    if missing:
        raise ValueError(f"mapping does not cover element "
                         f"{support_text(min(missing, key=element_key))}")
    if len({frozenset(mapping[e]) for e in used}) != len(used):
        raise ValueError("mapping is not injective on the resolution's elements")


def relabel(resolution, mapping, new_degrees):
    """Transport a resolution across a poset isomorphism.

    mapping is a dict from source poset elements to target elements;
    each basis key (q, j) becomes (mapping[q], j), keeping its index j.
    Scalars are kept and every monomial entry is recomputed as the ratio
    of the mapped endpoints' new degrees; new_degrees may name other
    elements too (a lattice's whole `degrees`).
    """
    _check_mapping(mapping, {key[0] for mods in resolution.modules.values()
                             for key, _ in mods})

    def move(key):
        q, j = key
        return (frozenset(mapping[frozenset(q)]), j)

    keys = {level: [move(key) for key, _ in mods]
            for level, mods in resolution.modules.items()}
    maps = {level: {move(colkey): {move(rowkey): c
                                   for rowkey, (c, _) in col.items()}
                    for colkey, col in cols.items()}
            for level, cols in resolution.differentials.items()}
    return _attach_degrees(resolution.field, keys, maps, new_degrees)


@dataclass
class ResolutionReport:
    """Outcome of graded-resolution verification, read from its table
    of failure kinds (`failure_kinds()`: failure list, description,
    witness formatter).  The table lists six kinds: inhomogeneous
    entries, unit entries (the resolution is not minimal), nonzero
    compositions and inexact strand positions (it is not exact),
    malformed modules at positions 0 and 1, and the refusal of a frame
    that `verify_frame` cannot homogenize; it is ok when all six lists
    are empty."""

    homogeneity_failures: list = field(default_factory=list)
    unit_entries: list = field(default_factory=list)  # minimality
    bad_compositions: list = field(default_factory=list)
    strand_failures: list = field(default_factory=list)  # (degree, position)
    module_failures: list = field(default_factory=list)  # (position, what)
    homogenize_errors: list = field(default_factory=list)  # (message,)
    strands_checked: int = 0

    @property
    def ok(self):
        """No list in the table holds a failure."""
        return not any(failures for failures, _, _ in self.failure_kinds())

    def summary(self):
        """One line: for each nonempty failure list its count and its
        first witness, or the success line when there is none."""
        return "; ".join(
            f"{len(fails)} {what} (first: {text(*fails[0])})"
            for fails, what, text in self.failure_kinds() if fails) or (
            f"minimal multigraded resolution, {self.strands_checked} "
            f"degree strands exact")

    def failure_kinds(self):
        return (
            (self.homogeneity_failures, "inhomogeneous entries", _entry_text),
            (self.unit_entries, "unit entries (not minimal)", _entry_text),
            (self.bad_compositions, "nonzero compositions", _entry_text),
            (self.strand_failures, "inexact strand positions", _strand_text),
            (self.module_failures, "malformed modules",
             "position {} {}".format),
            (self.homogenize_errors, "homogenize errors", str))


def _strand_text(degree, position):
    return f"degree [{','.join(map(str, degree))}], position {position}"


def verify_resolution(resolution):
    """Independent check of a graded resolution.

    Homogeneity (entry monomial = ratio of endpoint degrees),
    minimality (no unit-monomial entries), ∂∂ = 0 on scalars, a
    position 0 of one generator in degree 0 over a nonempty position 1,
    and exactness of the scalar strand at every multidegree in the lcm
    closure of the degrees at positions ≥ 1 — at all positions,
    including surjectivity onto position 0.  Every basis vector outside
    position 0 lies in the strand at its own degree, so none goes
    unchecked.
    """
    F = resolution.field
    report = ResolutionReport()
    # each position's basis keys in canonical order, numbered once, with
    # their degrees as exponent tuples
    keys, degs = {}, {}
    for level, mods in resolution.modules.items():
        mods = sorted(mods, key=lambda kd: _key_order(kd[0]))
        keys[level] = [key for key, _ in mods]
        degs[level] = [tuple(deg) for _, deg in mods]
    number = {level: {key: n for n, key in enumerate(ks)}
              for level, ks in keys.items()}
    dims = sorted({len(d) for ds in degs.values() for d in ds})
    if len(dims) > 1:
        raise ValueError(f"ambient dimension mismatch: {dims[0]} vs "
                         f"{dims[-1]}")

    # level → the column of each basis key on numbered rows, with
    # integral scalars as ints; an entry that is zero or names no basis
    # key is only reported, so it is never an elimination pivot
    columns = {level: [{} for _ in ks] for level, ks in keys.items()}
    for level, cols in resolution.differentials.items():
        out, rows = number.get(level, {}), number.get(level - 1, {})
        for colkey, col in cols.items():
            n = out.get(colkey)
            for rowkey, (c, mono) in col.items():
                r = rows.get(rowkey)
                if not c or n is None or r is None:
                    report.homogeneity_failures.append((level, colkey, rowkey))
                    continue
                dq, dp = degs[level][n], degs[level - 1][r]
                if (not all(map(le, dp, dq))
                        or tuple(map(sub, dq, dp)) != mono):
                    report.homogeneity_failures.append((level, colkey, rowkey))
                if mono.is_unit:
                    report.unit_entries.append((level, colkey, rowkey))
                columns[level][n][r] = plain(c)

    # ∂∂ = 0 on that map: a composite's rows are two positions down
    for level in sorted(columns):
        lower = columns.get(level - 1)
        for n, col in enumerate(columns[level] if lower else ()):
            acc = {}
            for r, c in col.items():
                axpy(acc, c, lower[r], F)
            report.bad_compositions.extend(
                (level, keys[level][n], keys[level - 2][r])
                for r in sorted(acc))

    top = degs.get(0, [])
    if len(top) != 1 or any(top[0]):
        report.module_failures.append((0, "is not one generator of degree 0"))
    if not degs.get(1):
        report.module_failures.append((1, "is empty"))
    values = set()  # the lcm closure of the degrees seen so far
    for level, ds in sorted(degs.items()):
        for a in ds if level >= 1 else ():
            if a not in values:
                values |= {a, *(tuple(map(max, a, b)) for b in values)}
    # the strand at b keeps the vectors of degree ≤ b, numbered across
    # positions: the AND over variables k of those with exponent ≤ b[k]
    vectors, spans = [], {}  # level → the bits of its vectors
    for level, cols in sorted(columns.items()):
        spans[level] = ((1 << len(cols)) - 1) << len(vectors)
        vectors += zip(degs[level], [level] * len(cols), cols)
    steps = [sorted(set(es)) for es in zip(*values)]
    lower = [dict(zip(es[1:], es)) for es in steps]
    cuts = [{e: sum(1 << n for n, (d, _, _) in enumerate(vectors) if d[k] <= e)
             for e in es} for k, es in enumerate(steps)]
    bases = {}  # the members of each checked strand → its span bases
    for b in sorted(values):  # lexicographic order extends divisibility
        members = (1 << len(vectors)) - 1
        for cut, e in zip(cuts, b):
            members &= cut[e]
        # lowering one exponent of b gives the members of a strand
        # checked before b (at their lcm); the largest one's bases grow
        downs = (members & cuts[k][lower[k][e]]
                 for k, e in enumerate(b) if e in lower[k])
        start = max((m for m in downs if m in bases), key=int.bit_count,
                    default=0)
        grown = {level: bases[start][level].copy() if start
                 else SpanBasis(F) for level in spans}
        for i in bit_indices(members & ~start):
            _, level, col = vectors[i]
            grown[level].insert(col)
        bases[members] = grown
        report.strand_failures.extend(
            (Monomial(b), level) for level in _homology_of_ranks(
                {level: (members & span).bit_count()
                 for level, span in spans.items()},
                {level: basis.rank for level, basis in grown.items()}))
    report.strands_checked = len(values)
    return report


def verify_frame(frame, ambient):
    """`verify_resolution` of the frame homogenized by the degrees of
    the ambient lattice.  The frame's strand at an element m collects
    the components ≤ m; it is the degree strand at the join of those
    components, which lies in the lcm closure `verify_resolution` walks,
    so every such strand is checked (the strand criterion for labelled
    complexes, Bayer–Sturmfels 1998).  A frame that `homogenize`
    refuses (an element with no degree, or an entry whose ratio is not
    a non-unit monomial) gives a failed report with its message, which
    names the element or the entry; nothing is raised.
    """
    try:
        res = homogenize(frame, ambient.degrees)
    except ValueError as exc:
        return ResolutionReport(homogenize_errors=[(str(exc),)])
    return verify_resolution(res)


# --------------------------------------------------------------------------
# independent oracles: Taylor strands and the Scarf complex

# Both oracles enumerate all 2^n generator subsets; beyond this many
# generators they refuse instead of running for minutes or longer.
MAX_SUBSET_GENERATORS = 12


def _subsets_by_lcm(I):
    """Every generator subset (a sorted index tuple) grouped by its
    lcm, the empty one under the unit monomial, in order of size and
    lexicographically within a size.  The lcm of S extends the lcm of
    S[:-1], kept from the level below."""
    gens = I.generators
    if len(gens) > MAX_SUBSET_GENERATORS:
        raise ValueError(f"{len(gens)} generators exceed the bound "
                         f"{MAX_SUBSET_GENERATORS}")
    unit = Monomial([0] * I.ambient_dim)
    by_lcm = {unit: [()]}
    prev = {(): unit}
    for r in range(1, len(gens) + 1):
        level = {}
        for S in itertools.combinations(range(len(gens)), r):
            b = level[S] = prev[S[:-1]].lcm(gens[S[-1]])
            by_lcm.setdefault(b, []).append(S)
        prev = level
    return by_lcm


def taylor_betti(I, F=FieldSpec(0)):
    """Betti table via the Taylor complex, bypassing lattice homology.

    Basis in position i: the i-element subsets S of the generators,
    in multidegree lcm(S).  After passing to the residue field, the
    differential keeps the terms S → S∖{j} with unchanged lcm, with
    alternating signs; β_{i,b} is the homology rank of the strand at b.
    """
    table = BettiTable()
    p = F.characteristic
    minus = p - 1 if p else -1
    for b, subsets in sorted(_subsets_by_lcm(I).items()):
        members = set(subsets)
        strand = {}
        for S in subsets:
            col = {}
            for pos in range(len(S)):
                T = S[:pos] + S[pos + 1:]
                if T in members:
                    col[T] = 1 if pos % 2 == 0 else minus
            strand.setdefault(len(S), []).append(col)
        for i, h in _strand_homology(F, strand).items():
            table.entries[(i, b)] = h
    return table


def scarf_complex(I):
    """Generator subsets whose lcm no other subset attains."""
    unique = [subsets[0]
              for subsets in _subsets_by_lcm(I).values() if len(subsets) == 1]
    K = SimplicialComplex(unique)
    if K.faces != set(unique):
        raise AssertionError("unique-lcm subsets failed to be subset-closed")
    return K
