"""Homological contribution, Betti posets, Betti numbers, rigidity.

An element q of a poset with minimum 0̂ "contributes" when the order
complex of the open interval (0̂, q) has some nonzero reduced homology.
The Betti poset keeps 0̂ and the contributors.  `betti_numbers` reads
the Betti table off any such poset: one generator at 0̂, and
β_{i, q} = h_{i−2} of the interval below q.  On an lcm-lattice, with q
keyed by its degree, these are the multigraded Betti numbers of the
quotient by the ideal.

Rank-only queries take one of two routes, each with its own memo key.
On an atomic lattice, the interval (0̂, q) has the homology of its
coatom crosscut, the nerve of its coatoms (the lower covers of q other
than 0̂), whose faces are the sets of them with a nonempty intersection
(`crosscut_complex`, which takes the coatoms its caller already holds,
property-tested against the order-complex route).
That nerve is fixed by the coatoms alone, so the ranks are keyed by
("crosscut", the coatom set, characteristic), and intervals of
different lattices with the same coatoms share one complex.  On any
other poset (Betti posets, the ranked fragments of `verify_frame`) the
ranks come from the order complex of the interval and are keyed by
("order", the elements strictly inside, characteristic).  The tags keep
the two apart: one set of sets can be both an antichain of coatoms and
a fragment's content, with different homology.  These keys are the
first level.  On a miss the complex is built, and its ranks are looked
up under the second-level key ("complex", the complex,
characteristic): intervals of one lattice repeat a handful of
complexes, and each distinct complex is eliminated once.  A caller that
reads many intervals — across candidate lattices, Betti posets and
ranked fragments alike — passes one plain dict `memo`.  With none,
`betti_numbers`, `rigidity_report` and `betti_poset` keep one for the
length of the call, and nothing outlives it.  Ranks come from the
rank-only path `homology_ranks`; the resolution builder, which needs
cycle representatives, uses the order complex directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .homology import FieldSpec, SimplicialComplex, homology_ranks
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
    intersection.  Faces are enumerated level by level, each level in
    lexicographic order: a face extends a face of the level below by a
    larger index, so the family is closed and already in face order.

    >>> from rigidres.monomials import parse_ideal
    >>> from rigidres.posets import lcm_lattice
    >>> L = lcm_lattice(parse_ideal("x; y; z"))
    >>> crosscut_complex(frozenset(L.lower_covers(L.top)))
    SimplicialComplex[{0, 1}, {0, 2}, {1, 2}]
    >>> crosscut_complex(frozenset())
    SimplicialComplex[{}]
    """
    # atom sets as bit masks, in canonical order
    masks = [sum(1 << a for a in c) for c in sorted(coatoms, key=element_key)]
    k = len(masks)
    levels = [[()]]
    level = [((j,), m) for j, m in enumerate(masks)]
    while level:
        levels.append([t for t, _ in level])
        level = [(t + (j,), m & masks[j]) for t, m in level
                 for j in range(t[-1] + 1, k) if m & masks[j]]
    return SimplicialComplex._closed(levels)


def _memo_ranks(key, build, F, memo):
    """homology_ranks(build(), F), looked up in and stored into memo
    (a dict, or None) under key.  On a miss the complex K = build() is
    looked up under the second-level key ("complex", K,
    characteristic), so each distinct complex is eliminated once."""
    if memo is None:
        return homology_ranks(build(), F)
    ranks = memo.get(key)
    if ranks is None:
        K = build()
        by_complex = ("complex", K, F.characteristic)
        ranks = memo.get(by_complex)
        if ranks is None:
            ranks = memo[by_complex] = homology_ranks(K, F)
        memo[key] = ranks
    return dict(ranks)


def interval_ranks(P, q, F=FieldSpec(0), memo=None):
    """Reduced homology ranks {i: h_i} of the open interval (0̂, q).

    The ranks are looked up in, and stored into, `memo` (a dict owned
    by the caller, or None) under one key per route.  On an atomic
    lattice they are `coatom_ranks` of the coatoms of (0̂, q), the
    lower covers of q other than 0̂.  On any other poset they come from
    the order complex of the elements `inside` strictly between 0̂ and
    q, under the key ("order", inside, characteristic).  A miss looks
    up the complex itself under the second-level key ("complex", the
    complex, characteristic) before eliminating it.  With memo None
    nothing is kept: each call eliminates.

    The coatom key is sound.  Every lattice here is intersection-closed
    with bottom ∅, so `inside` is closed under nonempty intersections.
    Every chain of `inside` then lies below its top element, and so
    below some coatom c.  The chains below c form a cone with apex c.
    The chains below c_1, …, c_r are those below c_1 ∩ … ∩ c_r when
    that intersection is nonempty, a cone again, and there are none
    otherwise.  By the nerve lemma, the order complex has the homology
    of the nerve of these cones, which is the coatom crosscut
    (Björner's crosscut theorem for the coatoms).  Whether a set of
    coatoms meets is a fact about the sets alone, so two intervals with
    the same coatoms, in one lattice or in two, have the same ranks.
    """
    q = frozenset(q)
    bot = P.bottom
    if q == bot:
        raise ValueError("the interval below the bottom element is undefined")
    if isinstance(P, FiniteAtomicLattice):
        return coatom_ranks(frozenset(P.lower_covers(q)) - {bot}, F, memo)
    inside = frozenset(P.below(q)) - {bot}
    return _memo_ranks(("order", inside, F.characteristic),
                       lambda: order_complex(Poset(inside)), F, memo)


def coatom_ranks(coatoms, F=FieldSpec(0), memo=None):
    """The ranks of `interval_ranks` for an interval of an atomic
    lattice, given its coatoms (a frozenset of frozensets) instead of
    the lattice, under the memo key ("crosscut", coatoms,
    characteristic).  A caller that knows an interval's coatoms without
    building its lattice, such as the deformation scan, reads it here
    under the key `interval_ranks` would use."""
    return _memo_ranks(("crosscut", coatoms, F.characteristic),
                       lambda: crosscut_complex(coatoms), F, memo)


def betti_poset(P, F=FieldSpec(0), memo=None):
    """The induced subposet on 0̂ and all contributing elements.  memo
    is passed to `interval_ranks`; with none, one is kept for the
    length of the call."""
    memo = {} if memo is None else memo
    bot = P.bottom
    return Poset([bot] + [e for e in P.elements
                          if e != bot and interval_ranks(P, e, F, memo)])


@dataclass
class BettiTable:
    """Betti numbers: (homological index, key) → rank, the key being a
    multidegree when read off a degree-labelled lattice and a poset
    element otherwise (`graded` and `to_json_dict` read multidegrees)."""

    entries: dict = field(default_factory=dict)

    def total(self, i):
        return sum(b for (j, _), b in self.entries.items() if j == i)

    def totals(self):
        top = max((i for i, _ in self.entries), default=-1)
        return tuple(self.total(i) for i in range(top + 1))

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
    memo = {} if memo is None else memo
    P = P if isinstance(P, Poset) else lcm_lattice(P)
    labelled = isinstance(P, FiniteAtomicLattice) and P.degrees is not None
    key = P.degree if labelled else frozenset
    bot = P.bottom
    table = BettiTable({(0, key(bot)): 1})
    for q in P.elements:
        if q != bot:
            for i, h in interval_ranks(P, q, F, memo).items():
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
    lcm-lattice.

    Rigid means: every interval (0̂, q) has homology of total rank at
    most one, and elements contributing in the same homological index
    are pairwise incomparable.  The first violation in the canonical
    element order is reported.  memo is passed to `interval_ranks`;
    with none, one is kept for the length of the call.
    """
    memo = {} if memo is None else memo
    L = L if isinstance(L, Poset) else lcm_lattice(L)
    bot = L.bottom
    contributing = {}
    for e in L.elements:
        if e == bot:
            continue
        ranks = interval_ranks(L, e, F, memo)
        if sum(ranks.values()) > 1:
            what = ", ".join(f"h_{i}={h}" for i, h in sorted(ranks.items()))
            return RigidityReport(
                False, "interval-multiplicity", (e,),
                f"interval below {sorted(e)} has {what}")
        if ranks:
            ((i, _),) = ranks.items()
            contributing[e] = i
    for p, q in itertools.combinations(sorted(contributing, key=element_key), 2):
        if contributing[p] == contributing[q] and (p < q or q < p):
            lo, hi = (p, q) if p < q else (q, p)
            return RigidityReport(
                False, "comparable-pair", (lo, hi),
                f"{sorted(lo)} < {sorted(hi)} both contribute in "
                f"homology degree {contributing[p]}")
    return RigidityReport(True)
