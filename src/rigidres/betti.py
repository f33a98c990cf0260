"""Homological contribution, Betti posets, Betti numbers, rigidity.

An element q of a poset with minimum 0̂ "contributes" when the order
complex of the open interval (0̂, q) has some nonzero reduced homology.
The Betti poset keeps 0̂ and the contributors.  `betti_numbers` reads
the Betti table off any such poset: one generator at 0̂, and
β_{i, q} = h_{i−2} of the interval below q.  On an lcm-lattice, with q
keyed by its degree, these are the multigraded Betti numbers of the
quotient by the ideal.

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


def betti_poset(P, F=FieldSpec(0), memo=None):
    """The induced subposet on 0̂ and all contributing elements."""
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
    labels are distinct.  memo is passed to `interval_ranks`.

    >>> L = FiniteAtomicLattice([set(), {0}, {1}, {0, 1}], 2)
    >>> table = betti_numbers(L)
    >>> table.totals()
    (1, 2, 1)
    >>> table.entries[(2, frozenset({0, 1}))]
    1
    """
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
    element order is reported.
    """
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
