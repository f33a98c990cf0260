"""Homological contribution, Betti posets, Betti numbers, rigidity.

An element q of a poset with minimum 0̂ "contributes" when the order
complex of the open interval (0̂, q) has some nonzero reduced homology.
The Betti poset keeps 0̂ and the contributors; for an lcm-lattice its
elements index the multigraded Betti numbers of the quotient by the
ideal: β_{i, degree(q)} = h_{i−2} of the interval below q, plus the
rank-one degree-unit term in homological index 0.

Rank-only queries on atomic lattices take a shortcut: the interval
(0̂, q) deformation-retracts onto the nerve of its atoms, the complex
of atom subsets whose join stays below q ("crosscut" complex).  That
complex lives on ≤ n vertices instead of the whole interval, and the
equality of ranks is itself property-tested against the order-complex
route.  Ranks come from the rank-only path `homology_ranks` and are
memoized on the poset per (element, characteristic).  Anything needing
actual cycle representatives (the resolution builder) uses the order
complex directly.
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
    """Atom subsets of (0̂, q] whose join is strictly below q.

    Homotopy-equivalent to the order complex of (0̂, q); for an atom the
    result is the empty complex {∅}.
    """
    atoms = sorted(i for i in q)
    faces = [()]
    for r in range(1, len(atoms) + 1):
        hits = []
        for s in itertools.combinations(atoms, r):
            if L.join([s]) != frozenset(q):
                hits.append(s)
        if not hits:
            break  # larger subsets join to q as well once all r-subsets do
        faces.extend(hits)
    return SimplicialComplex(map(frozenset, faces))


def interval_ranks(P, q, F=FieldSpec(0)):
    """Reduced homology ranks {i: h_i} of the open interval (0̂, q)."""
    q = frozenset(q)
    if q == P.bottom:
        raise ValueError("the interval below the bottom element is undefined")
    key = (q, F.characteristic)
    if key not in P.interval_rank_memo:
        if isinstance(P, FiniteAtomicLattice):
            K = crosscut_complex(P, q)
        else:
            K = order_complex(P.open_interval(q))
        P.interval_rank_memo[key] = homology_ranks(K, F)
    return dict(P.interval_rank_memo[key])


def is_contributor(P, q, F=FieldSpec(0)):
    """Whether the open interval below q has any nonzero reduced homology."""
    return bool(interval_ranks(P, q, F))


def betti_poset(P, F=FieldSpec(0)):
    """The induced subposet on 0̂ and all contributing elements."""
    bot = P.bottom
    return Poset([bot] + [e for e in P.elements
                          if e != bot and is_contributor(P, e, F)])


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


def lattice_betti_totals(P, F=FieldSpec(0)):
    """Total Betti numbers read off a poset with 0̂: one generator at the
    bottom, and position i ≥ 1 collects h_{i−2} over all open intervals.
    For an lcm-lattice this equals the ideal's total Betti numbers."""
    bot = P.bottom
    totals = {0: 1}
    for q in P.elements:
        if q == bot:
            continue
        for i, h in interval_ranks(P, q, F).items():
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


def rigidity_report(L, F=FieldSpec(0)):
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
        ranks = interval_ranks(L, e, F)
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
