"""Finite posets and finite atomic lattices as inclusion families.

Every poset element in this package is identified by a frozenset of
atom indices, and the order is set inclusion.  That single invariant
covers everything we build — lcm-lattices (an element's id is the set
of generators dividing it), their sub-posets, face lattices, and meet
closures — and it makes meets literal intersections and isomorphism /
join-preservation checks pure set manipulation.

A Poset is any finite inclusion family (fragments like open intervals
need no minimum); a FiniteAtomicLattice additionally contains ∅, the
full atom set, and all singletons, and is closed under intersection,
which forces joins and meets to exist.  One closure routine builds the
lcm-lattice (from coordinate cuts) and meet closures, and the same walk
checks closure in the constructor, stopping at the first missing meet.

Every order query reads one index, built on first use: the strict
down-set of each element q as a bit mask over canonical indices, the
elements before q (canonical order sorts by size first) that hold no
atom outside q.  Covers, `below`, minimal and maximal elements, bottom
and top, open intervals, ranked fragments, order complexes and the
memo keys of `betti.interval_ranks` all come from it.

Order isomorphisms come from a VF2 search over the covers
(`is_isomorphic`).  Which map it returns is part of what `relabel` and
the deformation certificates write, and those outputs are frozen, so it
returns the first map networkx's VF2 matcher finds on the same Hasse
diagrams, keys in the same order.  networkx is the tests' oracle for
that; the package needs nothing outside the standard library.
"""

from __future__ import annotations

from functools import cached_property

from .homology import SimplicialComplex
from .monomials import Monomial, MonomialIdeal


def element_key(e):
    """Canonical total order on elements; sorting by it is a linear
    extension of inclusion (smaller sets sort first)."""
    return (len(e), tuple(sorted(e)))


def support_text(e):
    """An element as its 1-based atom indices, e.g. {1,3}, as in files."""
    return "{" + ",".join(str(i + 1) for i in sorted(e)) + "}"


class Poset:
    """A finite family of frozensets ordered by inclusion."""

    def __init__(self, members):
        self.elements = tuple(sorted({frozenset(m) for m in members}, key=element_key))
        self._index = {e: i for i, e in enumerate(self.elements)}

    # -- basic queries ------------------------------------------------

    def __contains__(self, e):
        return frozenset(e) in self._index

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, Poset) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"{type(self).__name__}({len(self.elements)} elements)"

    def _check(self, e):
        if frozenset(e) not in self._index:
            raise ValueError(f"{set(e) or '{}'} is not an element")

    @cached_property
    def _down(self):
        """The strict down-set of each element, in canonical order, as
        a bit mask over canonical indices."""
        els = self.elements
        holders = {}  # atom → the elements that hold it
        for i, e in enumerate(els):
            for a in e:
                holders[a] = holders.get(a, 0) | 1 << i
        down = []
        for i, e in enumerate(els):
            outside = 0
            for a, held in holders.items():
                if a not in e:
                    outside |= held
            down.append(((1 << i) - 1) & ~outside)
        return down

    def below(self, q):
        """The strict down-set of q: every element p < q, in canonical
        order.

        >>> B3 = face_lattice(SimplicialComplex([{0, 1, 2}]))
        >>> [sorted(p) for p in B3.below({0, 1})]
        [[], [0], [1]]
        >>> B3.below(set())
        ()
        """
        self._check(q)
        return tuple(map(self.elements.__getitem__,
                         bit_indices(self._down[self._index[frozenset(q)]])))

    def minimal_elements(self):
        return [e for e, down in zip(self.elements, self._down) if not down]

    def maximal_elements(self):
        under = 0
        for down in self._down:
            under |= down
        return [e for i, e in enumerate(self.elements) if not under >> i & 1]

    @cached_property
    def bottom(self):
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise ValueError(f"no unique minimal element ({len(mins)} minima)")
        return mins[0]

    @cached_property
    def top(self):
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            raise ValueError(f"no unique maximal element ({len(maxs)} maxima)")
        return maxs[0]

    # -- covers -------------------------------------------------------

    @cached_property
    def _lower_covers(self):
        """Lower covers of every element, in canonical order: peeling
        its down-set mask, the highest index left is maximal, since an
        element above it comes later and took it away with its own."""
        els, down = self.elements, self._down
        covers = {}
        for q, left in zip(els, down):
            peeled = []
            while left:
                k = left.bit_length() - 1
                peeled.append(els[k])
                left &= ~(down[k] | 1 << k)
            covers[q] = tuple(reversed(peeled))
        return covers

    def lower_covers(self, q):
        self._check(q)
        return self._lower_covers[frozenset(q)]

    def cover_pairs(self):
        """All (p, q) with p covered by q, in canonical order."""
        return [(p, q) for q in self.elements for p in self.lower_covers(q)]

    # -- fragments ----------------------------------------------------

    def open_interval(self, q):
        """The fragment (0̂, q): everything strictly between bottom and q."""
        below = self.below(q)
        bot = self.bottom
        if frozenset(q) == bot:
            raise ValueError("open interval below the bottom element is undefined")
        return Poset([p for p in below if p != bot])

    # -- levels and ranked subposets -----------------------------------

    def level(self, q):
        """Most cover steps on a chain from a minimal element up to q:
        minimal elements have level 0, so with a bottom the atoms have
        level 1.  An isomorphism invariant that needs no bottom."""
        self._check(q)
        return self._levels[frozenset(q)]

    @cached_property
    def _levels(self):
        levels = {}
        for e in self.elements:  # canonical order is a linear extension
            below = [levels[p] for p in self.lower_covers(e)]
            levels[e] = 1 + max(below, default=-1)
        return levels

    def max_ranked(self, q):
        """The fragment of (0̂, q] of elements lying on some chain of
        level(q) non-bottom elements ending at q; the result is ranked.

        Such a chain drops one level at each cover, so its elements are
        those reached from q down lower covers that each drop one level.
        """
        self._check(q)
        q = frozenset(q)
        bot = self.bottom
        if q == bot:
            raise ValueError("the bottom element has no ranked fragment")
        levels = self._levels
        kept, stack = {q}, [q]
        while stack:
            s = stack.pop()
            for p in self._lower_covers[s]:
                if p != bot and p not in kept and levels[p] == levels[s] - 1:
                    kept.add(p)
                    stack.append(p)
        return Poset(kept)


def order_complex(fragment):
    """Faces are the chains (totally ordered subsets) of the fragment.

    Vertex k is `fragment.elements[k]`, so a chain is the tuple of its
    canonical indices, increasing because canonical order extends
    inclusion; it grows upward by a larger index above its last
    element.  The empty fragment gives the empty complex {∅}; two
    incomparable elements give two isolated vertices.  Faces are
    enumerated level by level, each level in lexicographic order of
    these tuples, which is face order, so the family is closed and
    already in face order.

    >>> P = Poset([{0}, {0, 1}, {0, 1, 2}])
    >>> order_complex(P).faces_of_dim(1)
    [(0, 1), (0, 2), (1, 2)]
    >>> [sorted(P.elements[k]) for k in (0, 2)]
    [[0], [0, 1, 2]]
    >>> order_complex(Poset([]))
    SimplicialComplex[{}]
    """
    above = [[] for _ in fragment.elements]
    for j, down in enumerate(fragment._down):
        for p in bit_indices(down):
            above[p].append(j)
    levels = [[()]]
    level = [(j,) for j in range(len(above))]
    while level:
        levels.append(level)
        level = [t + (j,) for t in level for j in above[t[-1]]]
    return SimplicialComplex._closed(levels)


# --------------------------------------------------------------------------
# atomic lattices

class FiniteAtomicLattice(Poset):
    """An intersection-closed inclusion family on atoms {0..n−1}
    containing ∅, the full set, and every singleton.  Meets are
    intersections; the join of a family is the smallest member
    containing its union.  Optional degree labels attach a distinct
    Monomial, all of one length, to every element (as in lcm-lattices)."""

    def __init__(self, members, n_atoms, degrees=None):
        super().__init__(members)
        if n_atoms <= 0:
            raise ValueError("need a positive number of atoms")
        self.n_atoms = n_atoms
        family = set(self.elements)
        if frozenset() not in family:
            raise ValueError("missing bottom ∅")
        # the largest member bounds n_atoms before the full set is built
        if (n_atoms > len(self.elements[-1])
                or frozenset(range(n_atoms)) not in family):
            raise ValueError("missing top (full atom set)")
        for i in range(n_atoms):
            if frozenset({i}) not in family:
                raise ValueError(f"atom {i} not realized as a singleton")
        full = frozenset(range(n_atoms))
        for e in self.elements:
            if not e <= full:
                raise ValueError(f"atom {min(e - full)} is not one of "
                                 f"0..{n_atoms - 1}")
        _closure(reversed(self.elements), inside=family)
        self.degrees = None
        if degrees is not None:
            self.degrees = {frozenset(e): Monomial(m) for e, m in degrees.items()}
            if set(self.degrees) != family:
                raise ValueError("degree labels must cover exactly the elements")
            labels = set(self.degrees.values())
            if len(labels) != len(family) or len(set(map(len, labels))) > 1:
                raise ValueError("degree labels must be distinct and of "
                                 "equal length")

    def join(self, members):
        """Smallest element containing every given member: the family is
        intersection-closed and its elements sort by size first, so the
        first superset of the union is the least one."""
        u = frozenset().union(*members)
        for e in self.elements:
            if u <= e:
                return e
        raise ValueError(f"atom {min(u - self.elements[-1])} is not one "
                         f"of 0..{self.n_atoms - 1}")

    def degree(self, e):
        if self.degrees is None:
            raise ValueError("this lattice has no degree labels")
        return self.degrees[frozenset(e)]


def maximal_members(family):
    """The members of a family of sets that lie inside no other member,
    as a frozenset.  Scanned largest first, a set is kept unless it
    lies inside one kept before, because any set that holds it is
    larger and so was scanned before it.

    >>> family = [frozenset(s) for s in ({0}, {0, 1}, {2}, {1})]
    >>> sorted(map(sorted, maximal_members(family)))
    [[0, 1], [2]]
    """
    kept = []
    for p in sorted(family, key=len, reverse=True):
        if not any(map(p.__lt__, kept)):
            kept.append(p)
    return frozenset(kept)


def bit_indices(mask):
    """The indices of the set bits of mask, increasing.

    >>> bit_indices(0b10110)
    [1, 2, 4]
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _closure(sets, inside=None, start=()):
    """The intersection closure of some frozensets, taken largest first,
    together with `start`, a family that is already closed.

    A set already present is skipped; any other set x is added with its
    intersection with every set kept so far.  That keeps the family
    closed: if C is, so is C ∪ {x} ∪ {x ∩ c : c ∈ C}, as (x ∩ c) ∩ c'
    and (x ∩ c) ∩ (x ∩ c') both equal x ∩ (c ∩ c').  An intersection of
    larger sets is present by its turn, so only the rest cost a pass,
    and the members of `start` are never intersected with each other:
    adding k sets to a closed family costs O(k·|result|).
    With `inside`, a family meant to be closed already, the walk stops
    at the first intersection outside it and raises, naming the pair:
    the closure of an unclosed family is never built."""
    closed = set(start)
    for x in sorted(sets, key=len, reverse=True):
        if x in closed:
            continue
        new = {x & c for c in closed}
        if inside is not None and not new <= inside:
            c = next(c for c in closed if x & c not in inside)
            raise ValueError(f"not intersection-closed: {set(x)} ∩ {set(c)} missing")
        closed.add(x)
        closed |= new
    return closed


def lcm_lattice(ideal):
    """The lattice of all least common multiples of subsets of the
    minimal generators, ordered by divisibility, with 1 at the bottom.
    Element ids are the supports {i : generator i divides the lcm};
    degree labels carry the monomials themselves, each the `Monomial.lcm`
    of its support's generators in one pass (1 for ∅).

    It is the intersection closure of the coordinate cuts {i : deg_k(m_i)
    ≤ e}, one per variable x_k and e in {0} ∪ {exponents of x_k}: the
    support of m is ∩_k cut(k, deg_k m), and an intersection T of cuts
    is the support of lcm(m_T), which stays within each cut's bound.
    """
    gens = ideal.generators
    n = len(gens)
    cuts = {frozenset(i for i, g in enumerate(gens) if g[k] <= e)
            for k in range(ideal.ambient_dim) for e in {0, *(g[k] for g in gens)}}
    members = _closure(cuts | {frozenset(), frozenset(range(n))})
    unit = Monomial([0] * ideal.ambient_dim)
    return FiniteAtomicLattice(members, n, degrees={
        T: unit.lcm(*(gens[i] for i in T)) for T in members})


def meet_closure(family, n_atoms):
    """Smallest intersection-closed family containing the input, ∅, the
    full set and all singletons.  Idempotent.  It keeps the input's own
    frozensets, so memo keys built from them share their elements."""
    members = ({frozenset(m) for m in family} | {frozenset(), frozenset(range(n_atoms))}
               | {frozenset({i}) for i in range(n_atoms)})
    return FiniteAtomicLattice(members | _closure(members), n_atoms)


def face_lattice(X):
    """Faces of a simplicial complex ordered by inclusion, with ∅ at the
    bottom and the full vertex set adjoined on top when it is not
    already a face.  Meet-closed because face sets are subset-closed."""
    if not X.vertices:
        raise ValueError("the empty complex has no face lattice")
    index = {v: i for i, v in enumerate(X.vertices)}
    members = {frozenset(index[v] for v in f) for f in X.faces}
    members.add(frozenset(range(len(X.vertices))))
    return FiniteAtomicLattice(members, len(X.vertices))


# --------------------------------------------------------------------------
# maps and comparisons

def is_isomorphic(P, Q):
    """An order-isomorphism P → Q as a dict of elements, or None.

    VF2 (Cordella, Foggia, Sansone and Vento, IEEE TPAMI 26(10), 2004)
    on the Hasse diagrams: an element's predecessors are its lower
    covers, its successors the elements covering it in canonical order,
    and two elements match only at equal level.  A pair (p, q) is added
    when it maps matched covers to matched covers both ways and the
    look-ahead counts of `_Side.look` agree; the counts only prune.

    Which isomorphism comes first is part of the output: `relabel`
    writes the resolution it carries, and a deformation certificate
    names it.  So candidates are tried in the order of networkx's
    DiGraphMatcher, and the result is its first isomorphism of the same
    diagrams, the same dict with keys in the order matched: P's free
    elements iterate as `set(P.elements)` does, the terminal sets are
    insertion-ordered and each step fills them from a set built as
    networkx builds it, and Q's candidate is the least in canonical
    order.  The search keeps its own stack, so a long match never meets
    the recursion limit.

    >>> chain = Poset([set(), {0}, {0, 1}])
    >>> [sorted(q) for q in is_isomorphic(chain, Poset([set(), {1}, {0, 1}])).values()]
    [[], [1], [0, 1]]
    >>> is_isomorphic(chain, Poset([set(), {0}, {1}])) is None
    True
    """
    if len(P) != len(Q):
        return None
    one, two = _Side(P), _Side(Q)
    free = set(P.elements)  # networkx's node set of P, in its order

    def feasible(p, q):
        if one.level[p] != two.level[q]:
            return False
        for x1, x2 in ((one.lower[p], two.lower[q]), (one.upper[p], two.upper[q])):
            if ({one.core[v] for v in x1 if v in one.core} != {v for v in x2 if v in two.core}
                    or one.look(x1) != two.look(x2)):
                return False
        return True

    def candidates():
        for d1, d2 in ((one.out, two.out), (one.inn, two.inn)):
            t1 = [v for v in d1 if v not in one.core]
            t2 = [v for v in d2 if v not in two.core]
            if t1 and t2:
                return iter(t1), min(t2, key=Q._index.__getitem__)
        return ((v for v in free if v not in one.core),
                next(v for v in Q.elements if v not in two.core))

    stack = []  # per matched depth: the candidates left, and Q's element
    while len(one.core) < len(P):
        if len(stack) == len(one.core):
            stack.append(candidates())
        ps, q = stack[-1]
        p = next((p for p in ps if feasible(p, q)), None)
        if p is not None:
            one.extend(p, q)
            two.extend(q, p)
            continue
        stack.pop()
        if not stack:
            return None
        one.retract()
        two.retract()
    return dict(one.core)


class _Side:
    """One side of the search in `is_isomorphic`: a poset's Hasse
    diagram (lower covers, upper covers in canonical order, levels), the
    matched map `core`, and the in- and out-terminal sets `inn` and
    `out`, insertion-ordered dicts that keep the matched elements too."""

    def __init__(self, P):
        self.lower, self.level = P._lower_covers, P._levels
        self.upper = {e: [] for e in P.elements}
        for q, lower in self.lower.items():
            for p in lower:
                self.upper[p].append(q)
        self.core, self.inn, self.out = {}, {}, {}
        self._sizes = []  # the terminal sizes before each extend

    def look(self, x):
        """VF2's look-ahead over covers x: how many there are, how many
        lie unmatched in the in- and in the out-terminal set, and how
        many lie in neither."""
        core, inn, out = self.core, self.inn, self.out
        return (len(x), sum(v in inn and v not in core for v in x),
                sum(v in out and v not in core for v in x),
                sum(v not in inn and v not in out for v in x))

    def extend(self, node, image):
        """Match node to image, and add the unmatched covers of matched
        elements to the terminal sets.  Each step rebuilds the set of
        them, adding covers in the order networkx's DiGMState adds them,
        because the order a set iterates in depends on that order."""
        self._sizes.append((len(self.inn), len(self.out)))
        core = self.core
        core[node] = image
        for terminal, covers in ((self.inn, self.lower), (self.out, self.upper)):
            terminal.setdefault(node)
            for u in {u for v in core for u in covers[v] if u not in core}:
                terminal.setdefault(u)

    def retract(self):
        """Undo the last extend: what it added is last in each dict."""
        for terminal, size in zip((self.inn, self.out), self._sizes.pop()):
            while len(terminal) > size:
                terminal.popitem()
        self.core.popitem()


def join_preserving_map(P, Q):
    """A join-preserving map P → Q restricting to a bijection on atoms,
    as a dict of elements, or None.  Atom assignments σ are tried in
    lexicographic order, the identity first (`_pullback_sigma`).

    Such a map is determined by σ: it must send p to f(p) = join_Q(σ(p)).
    Joins in both lattices are least members containing a union, so f
    preserves joins exactly when σ⁻¹ carries every member q of Q into P.
    If it does, take q = join_Q(σ(a ∪ b)) = f(a) ∨ f(b): σ⁻¹(q) is a
    member of P containing a ∪ b, hence a ∨ b, so f(a ∨ b) = q.
    Conversely f preserves the join of the atoms s = σ⁻¹(q), so
    join_Q(σ(join_P(s))) = q, which puts join_P(s) inside s: s is in P.
    In particular the identity is such a σ when P contains every member
    of Q (on the same atoms).  σ⁻¹ sends distinct members of Q to
    distinct members of P, so no map exists when Q has more elements
    than P, and none is tried; nor when the atom counts differ, since
    then no atom bijection exists.
    """
    if not isinstance(P, FiniteAtomicLattice) or not isinstance(Q, FiniteAtomicLattice):
        raise ValueError("join-preserving comparison needs atomic lattices")
    if P.n_atoms != Q.n_atoms or len(Q) > len(P):
        return None
    sigma = _pullback_sigma(P, Q)()
    if sigma is None:
        return None
    return {p: Q.join([{sigma[i] for i in p}]) for p in P.elements}


def _pullback_sigma(P, Q):
    """The search for atom bijections σ (σ[i] the atom of Q that atom i
    of P goes to) with σ⁻¹(q) in P for every member q of Q, as a
    function `first(choices=None, nodes=None)`: the lexicographically
    first such σ with σ[i] in choices[i] for every atom i, or None.
    choices[i] is an ascending sequence of atoms of Q, every atom when
    choices is None.

    σ is fixed one atom of P at a time, and a prefix is rejected as soon
    as a member of Q made only of the atoms it has assigned pulls back
    outside P: every extension of that prefix fails on the same member,
    so the first σ that survives is the first of all n! that passes.
    With `nodes`, an iterator, each atom assignment tried takes one item
    from it, and the search gives up with None once it runs dry.  Sets
    are bit masks, built once for all the searches of P and Q."""
    n = P.n_atoms
    in_p = {sum(1 << a for a in p) for p in P.elements}
    # members of Q through each atom j, as (mask, atoms)
    through = [[(sum(1 << a for a in q), tuple(q)) for q in Q.elements if j in q]
               for j in range(n)]

    def first(choices=None, nodes=None):
        choices = choices or [range(n)] * n
        back = [0] * n  # atom j of Q ↦ the bit of its preimage in P
        sigma = []

        def extend(used):
            i = len(sigma)
            if i == n:
                return True
            for j in choices[i]:
                if used >> j & 1:
                    continue
                if nodes is not None and next(nodes, None) is None:
                    return False
                back[j] = 1 << i
                now = used | 1 << j
                if all(sum(back[a] for a in atoms) in in_p
                       for mask, atoms in through[j] if not mask & ~now):
                    sigma.append(j)
                    if extend(now):
                        return True
                    sigma.pop()
            return False

        return tuple(sigma) if extend(0) else None

    return first


# The automorphism search tries at most this many atom assignments in
# all (`_pullback_sigma`'s nodes) and then keeps the generators it has:
# they generate a subgroup of Aut(L), and a subgroup's orbits only split
# Aut(L)'s, so an orbit-wise reader stays exact and reads more.  The
# hexagon takes 95 assignments, the all-but-one-variable ideal in 9
# variables 72, and C12's lcm-lattice 1,130.
MAX_AUTOMORPHISM_NODES = 10_000


def automorphism_generators(L):
    """Atom permutations σ (σ[i] the image of atom i) that carry L onto
    itself and generate its automorphism group Aut(L), or a subgroup of
    it when the search runs past `MAX_AUTOMORPHISM_NODES`.

    σ is an automorphism exactly when σ⁻¹ carries every member of L
    into L (a bijection of a finite family into itself is onto), which
    is the test of `_pullback_sigma` with P = Q = L.  An automorphism
    also keeps each atom's colour, the sizes of the members through it,
    so an atom is only sent to one of its colour.  Atoms i are taken
    from the last to the first.  The permutations found at atoms above
    i fix every atom up to i, so together they generate the stabilizer
    G_{i+1} of atoms 0…i, and each atom j > i not yet in the orbit of i
    under the permutations found so far gets the first automorphism
    that fixes the atoms below i and sends i to j, if one exists.  Then
    the orbit of i is its whole G_i-orbit, and G_{i+1} together with a
    representative of each coset generates G_i; at i = 0 that is Aut(L).
    The group itself is never listed: on the all-but-one-variable ideal
    in 8 variables it has 8! elements and 7 generators here.

    >>> automorphism_generators(face_lattice(SimplicialComplex([{0, 1, 2}])))
    [(0, 2, 1), (1, 0, 2)]
    """
    n = L.n_atoms
    colour = [sorted(len(q) for q in L.elements if a in q) for a in range(n)]
    alike = [[j for j in range(n) if colour[j] == colour[i]]
             for i in range(n)]
    first = _pullback_sigma(L, L)
    nodes = iter(range(MAX_AUTOMORPHISM_NODES))
    generators = []
    for i in reversed(range(n)):
        orbit = {i}
        fixed = [[k] for k in range(i)]
        for j in alike[i]:
            if j <= i or j in orbit:
                continue
            sigma = first(fixed + [[j]] + alike[i + 1:], nodes)
            if sigma is not None:
                generators.append(sigma)
                orbit = orbit_of(i, lambda x: (s[x] for s in generators))
    return generators


def orbit_of(start, images):
    """Everything reached from start by following `images`, a function
    giving the images of one member under each generator of a group, as
    a set: the orbit of start under the group they generate.

    >>> sorted(orbit_of(0, lambda x: [(x + 2) % 6]))
    [0, 2, 4]
    """
    orbit, stack = {start}, [start]
    while stack:
        for y in images(stack.pop()):
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def coordinatize(L):
    """A monomial ideal whose lcm-lattice is isomorphic to L.

    One variable per non-bottom element; the generator for atom a is the
    product of the variables of all elements not above a.  (A one-atom
    lattice degenerates — the formula would give the unit — so it maps
    to the principal ideal on one variable.)
    """
    if L.n_atoms == 1:
        return MonomialIdeal(("x1",), [Monomial((1,))])
    others = [e for e in L.elements if e]
    variables = tuple(f"x{j + 1}" for j in range(len(others)))
    gens = []
    for a in range(L.n_atoms):
        gens.append(Monomial(tuple(0 if a in p else 1 for p in others)))
    return MonomialIdeal(variables, gens)
