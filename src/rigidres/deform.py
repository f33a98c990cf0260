"""Rigid deformations at the lattice level.

A deformation of a monomial ideal I replaces its lcm-lattice by a
finer atomic lattice T (same atoms, join-preserving map T → L_I) whose
coordinatized ideal J is rigid and whose minimal resolution relabels
to a minimal resolution of I.  Every T built here contains L_I, so the
identity on atoms gives that map, and the result carries L_J, the
lcm-lattice of J, which has T's elements and J's degrees.  Two entry
points:

  - simplicial_rigid_deformation: when a simplicial complex X on the
    generators supports the minimal resolution of I, the meet closure
    of L_I together with X's face lattice is such a T, and every new
    element is homologically silent — so total Betti numbers are
    preserved by construction.
  - search_rigid_deformation: a bounded, deterministic scan over
    augmentations of L_I by missing support sets (meet-closed after
    each addition), certifying only candidates whose total Betti numbers
    match the source and which are rigid, since a certificate requires
    both.  The Betti poset, when it is a lattice other than L_I, is
    logged with L_I's totals but never certified: it has the same
    contributors, so the same totals, and is rigid exactly when L_I is
    (see `search_rigid_deformation`).  Each augmentation is read as a
    change to L_I, in one pass over the candidate's elements: only the
    added sets are closed, an interval whose coatoms they leave
    unchanged keeps its ranks, and the pass yields the contributors,
    whose Betti table (`betti.betti_table`) gives the totals and from
    which the two rigidity rules decide the verdict.  A lattice is
    built only for a candidate that keeps the totals and is rigid, the
    ones that reach certification, each from its own closure.  L_I's
    own totals and verdict are read the same way, as the change that
    adds nothing.  Only one augmentation per orbit of the automorphism
    group Aut(L_I) is read: an atom permutation σ that carries L_I
    onto itself carries the closure of L_I ∪ A onto the closure of
    L_I ∪ σ(A), an isomorphic lattice with the same size, totals and
    verdict, so the rest of the orbit copies those.  The log records
    what was read, never a verdict of certification: the candidate
    that certifies is the result.  Used mostly as a negative control:
    for the hexagon edge ideal every single-support augmentation
    strictly increases total Betti numbers, so the scan comes back
    empty.

Certification never trusts the construction: it re-checks rigidity,
Betti totals, and the full relabeled resolution independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .betti import (betti_numbers, betti_poset, betti_table, coatom_ranks,
                    rigidity_of_intervals, rigidity_report)
from .frames import _check_mapping, relabel, resolve, verify_resolution
from .homology import FieldSpec, SimplicialComplex, homology_ranks
from .posets import (
    FiniteAtomicLattice,
    _closure,
    automorphism_generators,
    coordinatize,
    element_key,
    is_isomorphic,
    join_preserving_map,
    lcm_lattice,
    maximal_members,
    orbit_of,
)


# --------------------------------------------------------------------------
# certification

@dataclass
class Certificate:
    """Outcome of checking one candidate ideal J against the source I:
    the three facts a successful deformation must exhibit, the route
    its resolution was relabeled along, and why a check failed."""

    rigid: bool = False
    betti_preserved: bool = False
    relabel_verified: bool = False
    route: str = ""  # "betti-poset-isomorphism" | "join-preserving" | ""
    detail: str = ""

    def __bool__(self):
        """The verdict: J is a rigid deformation of I."""
        return self.rigid and self.betti_preserved and self.relabel_verified


@dataclass
class DeformationResult:
    target_lattice: FiniteAtomicLattice  # L_J, with J's degrees
    target_ideal: object  # MonomialIdeal
    certificate: Certificate
    added: tuple = ()


def certify_rigid_deformation(J, I, F=FieldSpec(0), memo=None):
    """Check independently that J is a rigid deformation of I: J rigid,
    Betti posets isomorphic (or a join-preserving comparability map
    available), and J's minimal resolution relabels to a verified
    minimal resolution of I.

    I and J are each a monomial ideal or its degree-labelled
    lcm-lattice, and memo is an interval-rank memo (see
    `betti.interval_ranks`), made here when none is given: a caller that
    certifies many candidates builds L_I once and computes each interval
    once.

    A verified relabeled resolution is one of I, generators included:
    its first module holds one basis element in the degree of each
    generator of I.  Position 1 of J's resolution holds one key ({i}, 0)
    per atom of L_J, since an atom's open interval is empty, so every
    atom contributes to B_J and nothing else has an empty interval below
    it.  Once `_check_mapping` passes, the assignment sends those atoms
    one-to-one onto L_I's atoms on either route: `is_isomorphic` matches
    levels, so B_J's atoms go to B_I's, which are L_I's, and a
    join-preserving map is an atom bijection σ that sends {i} to
    {σ(i)}.  `relabel` then gives each key L_I's degree.
    """
    memo = {} if memo is None else memo
    LI = I if isinstance(I, FiniteAtomicLattice) else lcm_lattice(I)
    LJ = J if isinstance(J, FiniteAtomicLattice) else lcm_lattice(J)
    cert = Certificate()
    cert.rigid = rigidity_report(LJ, F, memo).rigid
    cert.betti_preserved = (betti_numbers(LJ, F, memo).totals()
                            == betti_numbers(LI, F, memo).totals())

    BI, BJ = betti_poset(LI, F, memo), betti_poset(LJ, F, memo)
    assignment = is_isomorphic(BJ, BI)
    if assignment is not None:
        cert.route = "betti-poset-isomorphism"
    else:
        assignment = join_preserving_map(LJ, LI)
        if assignment is None:
            cert.detail = ("Betti posets not isomorphic and no "
                           "join-preserving map onto the source lattice")
            return cert
        cert.route = "join-preserving"

    # the resolution's elements are BJ's: ask relabel's own rule about
    # the assignment before resolving
    try:
        _check_mapping(assignment, BJ.elements)
    except ValueError as err:
        cert.detail = f"relabel failed: {err}"
        return cert
    _, _, res = resolve(LJ, F, memo)
    moved = relabel(res, assignment, LI.degrees)
    verdict = verify_resolution(moved)
    cert.relabel_verified = verdict.ok
    if not verdict.ok:
        cert.detail = verdict.summary()
    return cert


# --------------------------------------------------------------------------
# the simplicial construction

def simplicial_rigid_deformation(I, X, F=FieldSpec(0)):
    """Deform I along a simplicial complex X that supports its minimal
    resolution (vertices = generator indices; every restriction X_{≤b},
    b in the lcm-lattice, must be acyclic — checked).

    The target ideal J is the coordinatization of the meet closure T
    of the lcm supports together with X's faces (only the faces are
    closed against L_I, already closed), and the target lattice is
    L_J, which has T's elements.
    """
    n = len(I.generators)
    if set(X.vertices) != set(range(n)):
        raise ValueError("complex vertices must be the generator indices "
                         f"0..{n - 1}")
    L = lcm_lattice(I)
    for q in L.elements:
        if q == L.bottom:
            continue
        # lcm(m_i : i ∈ f) divides degree(q) exactly when f ⊆ q
        ranks = homology_ranks(
            SimplicialComplex(f for f in X.faces if q.issuperset(f)), F)
        if ranks:
            raise ValueError(
                f"restriction to degree of {sorted(q)} is not acyclic "
                f"(nonzero reduced homology {ranks}); the complex does not "
                "support the minimal resolution")

    T = FiniteAtomicLattice(
        _closure(map(frozenset, X.faces), start=L.elements), n)
    added = tuple(e for e in T.elements if e not in L)
    return _deformation(T, L, F, {}, added)


# --------------------------------------------------------------------------
# bounded search

@dataclass
class ScanEntry:
    """What the scan read of one lattice: the added sets, its size and
    its total Betti numbers.  It holds no verdict of certification: a
    certified candidate becomes the search's result."""

    added: tuple
    lattice_size: int
    totals: tuple


@dataclass
class SearchOutcome:
    """What a search scanned and found: L's totals, the certified
    result or None, every augmentation read, in scan order, and the
    Betti poset when it is an atomic lattice other than L, or None.
    The Betti-poset candidate is logged and never certified (see
    `search_rigid_deformation`)."""

    base_totals: tuple
    result: DeformationResult = None
    augmentation_log: list = field(default_factory=list)
    betti_poset_candidate: ScanEntry = None

    def __bool__(self):
        return self.result is not None


def _deformation(T, L, F, memo, added):
    """The deformation of L's ideal to T: T coordinatized as J, and
    L_J checked to have T's elements, certified against L and kept as
    the target lattice.

    L_J is comparable to L, by a join-preserving map L_J → L that is
    the identity on atoms, because it contains L's elements: the
    identity then pulls every member of L back into L_J, which is all
    that `join_preserving_map` asks of an atom bijection.  Every T
    built here contains L (the scan and the simplicial construction
    close from L's elements, and the rigid shortcut passes L itself),
    so a result records no comparability of its own."""
    J = coordinatize(T)
    LJ = lcm_lattice(J)
    if set(LJ.elements) != set(T.elements):
        raise ValueError("coordinatization changed the support family")
    return DeformationResult(
        target_lattice=LJ,
        target_ideal=J,
        certificate=certify_rigid_deformation(LJ, L, F, memo),
        added=added,
    )


def _certified_result(T, L, F, memo, added):
    """The certified deformation to T, or None.  The search passes only
    a T it has read as rigid (`_rigid`), since a certificate requires
    L_J, which has T's support family, to be rigid; certification
    checks that again on L_J."""
    result = _deformation(T, L, F, memo, added)
    return result if result.certificate else None


def _rigid(contributors):
    """Whether a lattice is rigid, given its contributors as
    `_augmentation_reader` returns them: `rigidity_of_intervals` over
    them in canonical order."""
    return rigidity_of_intervals(sorted(
        contributors.items(), key=lambda item: element_key(item[0]))).rigid


def _augmentation_reader(L, F, memo):
    """A function `read(added)` giving the closure T of L ∪ added, as a
    set of frozensets, T's total Betti numbers, and T's contributors,
    {q: ranks} for every q whose interval (0̂, q) has nonzero ranks,
    without building T as a lattice: T is read as a change to L.

    Only the added sets are intersected (`_closure` from L's elements,
    already closed).  Then one pass reads each interval (0̂, q) of T,
    L's elements first and the new ones after, by its coatoms, as
    `interval_ranks` keys it on T, so the ranks come from
    `coatom_ranks` under the same memo keys.  The coatoms of q in T are
    the maximal members of its coatoms in L and the new elements below
    q: every other element below q lies inside one of those.  For q in
    L, its coatoms in L are its lower covers other than 0̂; for a new q
    they are the maximal elements of L inside q, kept in the same dict
    from one call to the next.  An element of L whose coatoms do not
    change keeps the ranks read when the reader was made.  The totals
    are those of the contributors' Betti table (`betti_table`).
    `read(())` reads L itself, and is where the search takes L's
    elements, totals and contributors from."""
    bot = L.bottom
    family = frozenset(L.elements)
    coatoms = {q: frozenset(L.lower_covers(q)) - {bot}
               for q in L.elements if q != bot}
    stored = {q: coatom_ranks(c, F, memo) for q, c in coatoms.items()}

    def read(added):
        closed = _closure(added, start=family)
        new = closed - family
        contributors = {}
        for q in itertools.chain(stored, new):
            if q not in coatoms:
                # q holds two atoms of L, so ∅ is never maximal in it
                coatoms[q] = maximal_members(filter(q.__gt__, family))
            under = [p for p in new if p < q]
            tops = (maximal_members(coatoms[q].union(under)) if under
                    else coatoms[q])
            if q in stored and tops == coatoms[q]:
                ranks = stored[q]
            else:
                ranks = coatom_ranks(tops, F, memo)
            if ranks:
                contributors[q] = ranks
        totals = betti_table(bot, contributors.items()).totals()
        return closed, totals, contributors

    return read


def _augmentations(L, budget):
    """Every augmentation of L by up to `budget` of the supports it
    misses (the atom sets of 2 to n − 1 atoms outside L), in scan order:
    by how many are added, then as `itertools.combinations` gives them.
    Each comes as (added, orbit), the tuple of added sets and the index
    of its Aut(L)-orbit, numbered in the order the scan first meets
    them, so an augmentation with a new orbit index is the first of its
    orbit, and the rest of the orbit comes after it.

    The orbits are those of the group that `automorphism_generators`
    returns, acting on the indices of the missing sets (an automorphism
    carries L's complement onto itself, size by size): when an
    augmentation starts a new orbit, the orbit is filled by following
    the generators out from it, and its other members are remembered
    until the scan reaches them."""
    n = L.n_atoms
    # combinations by ascending size come out in `element_key` order
    missing = [s for r in range(2, n)
               for s in map(frozenset, itertools.combinations(range(n), r))
               if s not in L]
    if budget < 1 or not missing:
        return
    index = {s: k for k, s in enumerate(missing)}
    moves = [[index[frozenset(sigma[a] for a in s)] for s in missing]
             for sigma in automorphism_generators(L)]

    def images(combo):
        return (tuple(sorted(move[k] for k in combo)) for move in moves)

    later = {}  # orbit index of each member not yet reached
    orbits = 0
    for r in range(1, min(budget, len(missing)) + 1):
        for combo in itertools.combinations(range(len(missing)), r):
            orbit = later.pop(combo, None)
            if orbit is None:
                orbit, orbits = orbits, orbits + 1
                members = orbit_of(combo, images)
                members.discard(combo)
                later.update(dict.fromkeys(members, orbit))
            yield tuple(missing[k] for k in combo), orbit


def search_rigid_deformation(I, budget=1, F=FieldSpec(0)):
    """Bounded deterministic search for a rigid deformation of I.

    An already-rigid ideal certifies against its own lattice at once.
    Otherwise the scan tries meet closures of L plus up to `budget` of
    the missing support sets, certifying only candidates whose total
    Betti numbers match the source and which are rigid, since a
    certificate requires both: a relabeled *minimal* resolution cannot
    exist otherwise, and the deformation must be rigid.  Absent result
    means none within budget, not a proof that no deformation exists.

    The Betti poset B, 0̂ and L's contributors, when it is an atomic
    lattice T_B other than L, is logged with its size and L's totals,
    never certified, because it is rigid exactly when L is.  For q in
    B, (0̂, q) has the same homology over F in T_B as in L (the open
    intervals of the Betti poset have the homology of those of L), and
    the elements of L outside B carry none.  So both lattices have the
    same contributors with the same ranks, in the same order: the same
    totals, which are sums of those ranks, and the same report from
    `rigidity_of_intervals`, rule and witnesses included.  The scan
    reaches T_B only after L has failed.

    L's elements, totals and contributors, and each candidate's, are
    read by one reader (`_augmentation_reader`), L's as the augmentation
    that adds nothing: the added sets are closed against L's elements,
    and only the intervals whose coatoms change, or that are new, are
    looked up.  L's verdict, and a candidate's when its totals are the
    source's, is `rigidity_of_intervals` over those contributors
    (`_rigid`); no lattice is built to decide it.  The reader runs once
    per orbit of Aut(L), the first member of each orbit in scan order
    (`_augmentations`), and every other member copies its size, totals
    and verdict.  That is exact: an automorphism σ of L is an atom
    permutation with σ(L) = L, so it maps the intersection closure of
    L ∪ A onto that of L ∪ σ(A), inclusion and intervals included.  The
    two lattices are isomorphic, and lattice_size, the totals, which
    are sums of interval homology, and rigidity, which reads only
    ranks and inclusions, agree.  The log is still complete and in
    scan order.  Only the numbers are copied: each candidate that keeps
    the source's totals and is rigid closes its own added sets, and is
    then built as a lattice from that closure, in order of size, by the
    constructor, which checks it, and certified on its own, since the
    map a certificate finds is not carried along.  The first that
    certifies is the result.  One interval-rank memo serves L, every
    candidate and every certification.

    >>> from rigidres.monomials import parse_ideal
    >>> out = search_rigid_deformation(parse_ideal("x0*x1*x3; x0*x2; x2*x3"))
    >>> out.result.added
    (frozenset({0, 1}),)
    >>> len(out.result.target_lattice.elements), out.result.certificate.route
    (7, 'join-preserving')
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    L = lcm_lattice(I)
    n = len(I.generators)
    memo = {}
    read = _augmentation_reader(L, F, memo)
    family, base, contributors = read(())
    outcome = SearchOutcome(base_totals=base)

    if _rigid(contributors):
        outcome.result = _certified_result(L, L, F, memo, added=())
        return outcome

    # B ⊆ L, so B is another lattice only when it is smaller
    size = len(contributors) + 1
    if size < len(family):
        try:
            FiniteAtomicLattice([L.bottom, *contributors], n)
        except ValueError:  # B is not an atomic lattice
            pass
        else:
            outcome.betti_poset_candidate = ScanEntry(
                added=(), lattice_size=size, totals=base)

    candidates = []
    numbers = []  # (lattice size, totals, rigid) of each orbit
    for combo, orbit in _augmentations(L, budget):
        if orbit == len(numbers):
            closed, totals, contributors = read(combo)
            numbers.append((len(closed), totals,
                            totals == base and _rigid(contributors)))
        size, totals, rigid = numbers[orbit]
        entry = ScanEntry(added=combo, lattice_size=size, totals=totals)
        outcome.augmentation_log.append(entry)
        if rigid:
            candidates.append(entry)

    candidates.sort(key=lambda entry: (
        entry.lattice_size, tuple(element_key(s) for s in entry.added)))
    for entry in candidates:
        T = FiniteAtomicLattice(_closure(entry.added, start=family), n)
        outcome.result = _certified_result(T, L, F, memo, added=entry.added)
        if outcome.result is not None:
            break
    return outcome
