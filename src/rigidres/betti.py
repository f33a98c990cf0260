"""Homological contribution, Betti posets, Betti numbers, rigidity.

An element q of a poset with minimum 0̂ "contributes" when the order
complex of the open interval (0̂, q) has some nonzero reduced homology.
The Betti poset keeps 0̂ and the contributors.  `betti_numbers` reads
the Betti table off any such poset: one generator at 0̂, and
β_{i, q} = h_{i−2} of the interval below q, by `betti_table`, the one
rule from interval ranks to Betti numbers.  On an lcm-lattice, with q
keyed by its degree, these are the multigraded Betti numbers of the
quotient by the ideal.

Rank-only queries take one of two routes.  On an atomic lattice, the
interval (0̂, q) has the homology of its coatom crosscut, the nerve of
its coatoms (the lower covers of q other than 0̂), whose faces are the
sets of them with a nonempty intersection (`crosscut_complex`, which
takes the coatoms its caller already holds, property-tested against
the order-complex route).  That nerve is fixed by the coatoms alone,
so the ranks are keyed by ("crosscut", the coatom set,
characteristic), and intervals of different lattices with the same
coatoms share one complex.  A miss looks the ranks up under
("facets", the crosscut's facets, characteristic), read off the
coatoms without building it, so a crosscut is built and eliminated
only for a new facet family.  On any other poset (Betti posets, ranked
fragments) the ranks come from the order complex of the interval,
keyed by ("complex", the complex, characteristic).  The tags keep the
key kinds apart.  Intervals of one poset repeat a handful of
complexes: each distinct complex is eliminated once.
A caller that reads many intervals — across candidate lattices, Betti
posets and ranked fragments alike — passes one plain dict `memo`.
With none, every reader keeps one for the length of the call, and
nothing outlives it.  Ranks come from the rank-only path
`homology_ranks`; the resolution builder, which needs cycle
representatives, uses the order complex directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .homology import (FieldSpec, SimplicialComplex, generated_levels,
                       homology_ranks)
from .posets import (
    FiniteAtomicLattice,
    Poset,
    element_key,
    lcm_lattice,
    order_complex,
)


def crosscut_complex(coatoms):
    """The coatom crosscut of an interval of an atomic lattice, given
    its coatoms, an antichain that the caller already holds (the lower
    covers of the top other than 0̂, or a `maximal_members` result).

    Its vertices 0…k−1 are the coatoms in canonical order, and its
    faces are the increasing index tuples whose coatoms have a nonempty
    intersection: the complex generated by the sets {j : atom a lies in
    coatom j}, whose masks are the coatoms' atom sets
    (`generated_levels`).

    >>> from rigidres.monomials import parse_ideal
    >>> from rigidres.posets import lcm_lattice
    >>> L = lcm_lattice(parse_ideal("x; y; z"))
    >>> crosscut_complex(frozenset(L.lower_covers(L.top)))
    SimplicialComplex[{0, 1}, {0, 2}, {1, 2}]
    >>> crosscut_complex(frozenset())
    SimplicialComplex[{}]
    """
    return SimplicialComplex._closed(generated_levels(
        [sum(1 << a for a in c) for c in sorted(coatoms, key=element_key)]))


def crosscut_facets(coatoms):
    """The facets of `crosscut_complex(coatoms)`, which determine it:
    the maximal sets S_a = {j : atom a lies in coatom j}, each a bit
    mask over the coatoms in canonical order, as a frozenset.

    >>> sorted(crosscut_facets(frozenset(map(frozenset, [{0, 1}, {1, 2}]))))
    [3]
    """
    held = {}
    for j, c in enumerate(sorted(coatoms, key=element_key)):
        for a in c:
            held[a] = held.get(a, 0) | 1 << j
    facets = []
    for S in sorted(set(held.values()), key=int.bit_count, reverse=True):
        for f in facets:
            if not S & ~f:  # S lies in a larger set
                break
        else:
            facets.append(S)
    return frozenset(facets)


def _memo_ranks(key, build, F, memo):
    """The ranks of the complex build() under key in memo (a dict;
    None keeps one for the length of the call), eliminated on a miss
    and stored, so each distinct complex is eliminated once."""
    memo = {} if memo is None else memo
    ranks = memo.get(key)
    if ranks is None:
        ranks = memo[key] = homology_ranks(build(), F)
    return dict(ranks)


def interval_ranks(P, q, F=FieldSpec(0), memo=None):
    """Reduced homology ranks {i: h_i} of the open interval (0̂, q).

    The ranks are looked up in, and stored into, `memo` (a dict owned
    by the caller, or None, which keeps one for the length of the
    call).  On an atomic lattice they are `coatom_ranks` of the
    coatoms of (0̂, q), the lower covers of q other than 0̂.  On any
    other poset they are the ranks of the order complex K of
    `P.open_interval(q)`, under the key ("complex", K, characteristic).

    The coatom key is sound.  Every lattice here is intersection-closed
    with bottom ∅, so the elements strictly between 0̂ and q are closed
    under nonempty intersections.  Every chain of them then lies below
    its top element, and so below some coatom c.  The chains below c
    form a cone with apex c.  The chains below c_1, …, c_r are those
    below c_1 ∩ … ∩ c_r when that intersection is nonempty, a cone
    again, and there are none otherwise.  By the nerve lemma, the order
    complex has the homology of the nerve of these cones, which is the
    coatom crosscut (Björner's crosscut theorem for the coatoms).
    Whether a set of coatoms meets is a fact about the sets alone, so
    two intervals with the same coatoms, in one lattice or in two, have
    the same ranks.
    """
    q = frozenset(q)
    bot = P.bottom
    if q == bot:
        raise ValueError("the interval below the bottom element is undefined")
    if isinstance(P, FiniteAtomicLattice):
        return coatom_ranks(frozenset(P.lower_covers(q)) - {bot}, F, memo)
    K = order_complex(P.open_interval(q))
    return _memo_ranks(("complex", K, F.characteristic), lambda: K, F, memo)


def coatom_ranks(coatoms, F=FieldSpec(0), memo=None):
    """The ranks of `interval_ranks` for an interval of an atomic
    lattice, given its coatoms (a frozenset of frozensets) instead of
    the lattice.  A caller that knows an interval's coatoms without
    building its lattice, such as the deformation scan, reads it here
    under the key `interval_ranks` would use.  Two levels of memo
    key: ("crosscut", coatoms, characteristic) first, then on a miss
    ("facets", `crosscut_facets(coatoms)`, characteristic), and the
    crosscut is built only for a facet family not seen before."""
    memo = {} if memo is None else memo
    key = ("crosscut", coatoms, F.characteristic)
    ranks = memo.get(key)
    if ranks is None:
        ranks = memo[key] = _memo_ranks(
            ("facets", crosscut_facets(coatoms), F.characteristic),
            lambda: crosscut_complex(coatoms), F, memo)
    return dict(ranks)


def _intervals(P, F, memo=None):
    """(q, interval_ranks(P, q, F, memo)) for every q of P other than
    0̂, in canonical order, read one at a time, so a reader that stops
    early reads no further interval.  With memo None, one is kept for
    the length of the walk."""
    memo = {} if memo is None else memo
    bot = P.bottom
    for q in P.elements:
        if q != bot:
            yield q, interval_ranks(P, q, F, memo)


def betti_poset(P, F=FieldSpec(0), memo=None):
    """The induced subposet on 0̂ and all contributing elements.  memo
    is passed to `interval_ranks`; with none, one is kept for the
    length of the call."""
    return Poset([P.bottom] + [q for q, ranks in _intervals(P, F, memo)
                               if ranks])


@dataclass
class BettiTable:
    """Betti numbers: (homological index, key) → rank, the key being a
    multidegree when read off a degree-labelled lattice and a poset
    element otherwise (`graded` and `to_json_dict` read multidegrees)."""

    entries: dict = field(default_factory=dict)

    def totals(self):
        """(Σ_key β_{0, key}, Σ_key β_{1, key}, …) up to the highest
        index held, summed in one pass over the entries."""
        sums = {}
        for (i, _), b in self.entries.items():
            sums[i] = sums.get(i, 0) + b
        return tuple(sums.get(i, 0) for i in range(max(sums, default=-1) + 1))

    def graded(self):
        """Sorted list of (i, degree, beta) triples."""
        return sorted(((i, d, b) for (i, d), b in self.entries.items()),
                      key=lambda t: (t[0], t[1]))

    def to_json_dict(self):
        return {
            "totals": list(self.totals()),
            "graded": [
                {"i": i, "degree": list(d), "beta": b} for i, d, b in self.graded()
            ],
        }


def betti_numbers(P, F=FieldSpec(0), memo=None):
    """Betti table of a poset with 0̂: one generator at 0̂ in index 0,
    then β_{i, q} = h_{i−2} of the open interval (0̂, q).

    P is any poset with a unique minimum, or a monomial ideal, read as
    its lcm-lattice.  Keys are degrees when P is a degree-labelled
    atomic lattice, so an ideal's table is its multigraded one, and
    elements otherwise; the totals agree either way, because degree
    labels are distinct.  memo is passed to `interval_ranks`; with
    none, one is kept for the length of the call.

    >>> L = FiniteAtomicLattice([set(), {0}, {1}, {0, 1}], 2)
    >>> table = betti_numbers(L)
    >>> table.totals()
    (1, 2, 1)
    >>> table.entries[(2, frozenset({0, 1}))]
    1
    """
    P = P if isinstance(P, Poset) else lcm_lattice(P)
    labelled = isinstance(P, FiniteAtomicLattice) and P.degrees is not None
    return betti_table(P.bottom, _intervals(P, F, memo),
                       P.degree if labelled else frozenset)


def betti_table(bottom, intervals, key=frozenset):
    """The Betti table read off (q, ranks) pairs, ranks being the
    reduced homology {i: h_i} of the open interval (0̂, q): one
    generator at key(bottom) in index 0, and β_{i + 2, key(q)} = h_i.
    A pair with no ranks adds nothing, so the contributors alone give
    the same table.  This is the one rule that turns interval ranks
    into Betti numbers: `betti_numbers` reads it over every interval of
    a poset, and the deformation scan over a candidate's contributors.

    >>> betti_table(frozenset(), [(frozenset({0, 1}), {0: 2})]).totals()
    (1, 0, 2)
    """
    table = BettiTable({(0, key(bottom)): 1})
    for q, ranks in intervals:
        for i, h in ranks.items():
            table.entries[(i + 2, key(q))] = h
    return table


@dataclass
class RigidityReport:
    """Verdict of the two rigidity conditions, with a witness on failure.

    rule is None when rigid; otherwise "interval-multiplicity" (some
    element has total interval homology rank above one) or
    "comparable-pair" (two comparable elements contribute in the same
    homological index).
    """

    rigid: bool
    rule: str = None
    witnesses: tuple = ()
    detail: str = ""

    def __bool__(self):
        return self.rigid


def rigidity_report(L, F=FieldSpec(0), memo=None):
    """Check rigidity of an atomic lattice, or of a monomial ideal's
    lcm-lattice: `rigidity_of_intervals` over its intervals, read
    lazily, so the walk stops at an interval-multiplicity witness.
    memo is passed to `interval_ranks`; with none, one is kept for the
    length of the call.
    """
    L = L if isinstance(L, Poset) else lcm_lattice(L)
    return rigidity_of_intervals(_intervals(L, F, memo))


def rigidity_of_intervals(intervals):
    """The two rigidity rules over (q, ranks) pairs, ranks being the
    reduced homology {i: h_i} of the interval (0̂, q), in any order.  A
    pair with no ranks may be left out: neither rule reads it.

    Rigid means: every interval (0̂, q) has homology of total rank at
    most one, and elements contributing in the same homological index
    are pairwise incomparable.  The pairs are read one at a time, so
    the first interval-multiplicity witness in the order given ends
    the reading.  The contributors are then sorted into canonical order
    (`element_key`), and the first comparable pair in that order is
    reported, whatever order they came in.  Rigidity is an isomorphism
    invariant: both rules read only ranks and inclusions.

    >>> rigidity_of_intervals([(frozenset({0}), {-1: 1}),
    ...                        (frozenset({0, 1}), {-1: 1})]).rule
    'comparable-pair'
    """
    contributing = {}
    for e, ranks in intervals:
        if sum(ranks.values()) > 1:
            what = ", ".join(f"h_{i}={h}" for i, h in sorted(ranks.items()))
            return RigidityReport(
                False, "interval-multiplicity", (e,),
                f"interval below {sorted(e)} has {what}")
        if ranks:
            ((i, _),) = ranks.items()
            contributing[e] = i
    # canonical order extends inclusion, so a later q never lies in p
    ordered = sorted(contributing, key=element_key)
    for p, q in itertools.combinations(ordered, 2):
        if contributing[p] == contributing[q] and p < q:
            return RigidityReport(
                False, "comparable-pair", (p, q),
                f"{sorted(p)} < {sorted(q)} both contribute in "
                f"homology degree {contributing[p]}")
    return RigidityReport(True)
