"""Homological contribution, Betti posets, Betti numbers, rigidity.

An element q of a poset with minimum 0̂ "contributes" when the order
complex of the open interval (0̂, q) has some nonzero reduced homology.
The Betti poset keeps 0̂ and the contributors; for an lcm-lattice its
elements index the multigraded Betti numbers of the quotient by the
ideal: β_{i, degree(q)} = h_{i−2} of the interval below q, plus the
rank-one degree-unit term in homological index 0.

Rank-only queries on atomic lattices take a shortcut: the interval
(0̂, q) deformation-retracts onto the nerve of its atoms, the complex
generated by the elements strictly below q ("crosscut" complex).  That
complex lives on ≤ n vertices instead of the whole interval, and the
equality of ranks is itself property-tested against the order-complex
route.  Ranks come from the rank-only path `homology_ranks`.  They
depend only on the set of elements inside the interval, so a caller
that reads many intervals — across candidate lattices, Betti posets
and ranked fragments alike — passes one plain dict `memo` keyed by
(that set, characteristic); with no memo nothing is kept.  Anything
needing actual cycle representatives (the resolution builder) uses the
order complex directly.
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


def crosscut_complex(L, q):
    """The crosscut complex of (0̂, q): the atom sets whose join is
    strictly below q, homotopy-equivalent to the order complex of the
    open interval.

    L is intersection-closed with bottom ∅, so an atom set has its join
    below q exactly when it lies inside some element strictly between
    ∅ and q: the complex is the one generated by those elements.

    >>> from rigidres.monomials import parse_ideal
    >>> from rigidres.posets import lcm_lattice
    >>> L = lcm_lattice(parse_ideal("x; y; z"))
    >>> crosscut_complex(L, frozenset({0, 1, 2}))
    SimplicialComplex[{0, 1}, {0, 2}, {1, 2}]
    >>> crosscut_complex(L, frozenset({0}))
    SimplicialComplex[{}]
    """
    return SimplicialComplex(p for p in L.elements if p and p < q)


def interval_ranks(P, q, F=FieldSpec(0), memo=None):
    """Reduced homology ranks {i: h_i} of the open interval (0̂, q).

    The ranks are looked up in, and stored into, `memo` (a dict owned
    by the caller, or None) under (the frozenset of elements strictly
    between 0̂ and q, characteristic).  On an atomic lattice they come
    from the complex generated by that set (`crosscut_complex`), on any
    other poset from its order complex.  The key is sound across both
    routes: both order the same set by inclusion, and a set that comes
    from an intersection-closed family is closed under nonempty
    intersections.  Sending a face of the generated complex to the
    least member containing it then has contractible fibres, so by
    Quillen's fibre lemma the generated complex has the homology of the
    order complex.
    """
    q = frozenset(q)
    bot = P.bottom
    if q == bot:
        raise ValueError("the interval below the bottom element is undefined")
    if memo is None:
        memo = {}
    inside = frozenset(p for p in P.elements if p < q and p != bot)
    key = (inside, F.characteristic)
    if key not in memo:
        if isinstance(P, FiniteAtomicLattice):
            K = crosscut_complex(P, q)
        else:
            K = order_complex(Poset(inside))
        memo[key] = homology_ranks(K, F)
    return dict(memo[key])


def is_contributor(P, q, F=FieldSpec(0), memo=None):
    """Whether the open interval below q has any nonzero reduced homology."""
    return bool(interval_ranks(P, q, F, memo))


def betti_poset(P, F=FieldSpec(0), memo=None):
    """The induced subposet on 0̂ and all contributing elements."""
    bot = P.bottom
    return Poset([bot] + [e for e in P.elements
                          if e != bot and is_contributor(P, e, F, memo)])


@dataclass
class BettiTable:
    """Multigraded Betti numbers: (homological index, multidegree) → rank."""

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


def betti_numbers(I, F=FieldSpec(0)):
    """Betti table of the quotient by I: the unit degree in index 0,
    then β_{i,b} = h_{i−2} of the interval below b in the lcm-lattice.

    I is a monomial ideal or a degree-labelled atomic lattice, which is
    read as the lcm-lattice of an ideal (its bottom carries the unit).
    """
    L = I if isinstance(I, FiniteAtomicLattice) else lcm_lattice(I)
    table = BettiTable()
    table.entries[(0, L.degree(frozenset()))] = 1
    for e in L.elements:
        if e:
            for i, h in interval_ranks(L, e, F).items():
                table.entries[(i + 2, L.degree(e))] = h
    return table


def lattice_betti_totals(P, F=FieldSpec(0), memo=None):
    """Total Betti numbers read off a poset with 0̂: one generator at the
    bottom, and position i ≥ 1 collects h_{i−2} over all open intervals.
    For an lcm-lattice this equals the ideal's total Betti numbers."""
    bot = P.bottom
    totals = {0: 1}
    for q in P.elements:
        if q == bot:
            continue
        for i, h in interval_ranks(P, q, F, memo).items():
            totals[i + 2] = totals.get(i + 2, 0) + h
    return tuple(totals.get(i, 0) for i in range(max(totals) + 1))


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
    """Check rigidity of an atomic lattice (of an lcm-lattice, usually).

    Rigid means: every interval (0̂, q) has homology of total rank at
    most one, and elements contributing in the same homological index
    are pairwise incomparable.  The first violation in the canonical
    element order is reported.
    """
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


def is_rigid(I, F=FieldSpec(0)):
    """RigidityReport for a monomial ideal (via its lcm-lattice)."""
    return rigidity_report(lcm_lattice(I), F)


def contributing_index(P, q, F=FieldSpec(0)):
    """The homological resolution index of q: i+2 for the unique i with
    h_i ≠ 0.  Raises unless exactly one such i exists with rank one."""
    ranks = interval_ranks(P, q, F)
    if sum(ranks.values()) != 1:
        raise ValueError(f"{sorted(q)} does not contribute with rank one: {ranks}")
    ((i, _),) = ranks.items()
    return i + 2
