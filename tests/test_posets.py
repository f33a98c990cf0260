import ast
import functools
import itertools
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (HASSE_17, HASSE_TWIN_A, HASSE_TWIN_B,
                      random_generic_ideal, random_lattices)
from test_frames import cycle_edge_ideal
from test_golden import FIXTURES
from rigidres import posets
from rigidres.betti import betti_poset
from rigidres.homology import FieldSpec, SimplicialComplex, reduced_homology
from rigidres.monomials import Monomial, MonomialIdeal, minimalize, parse_ideal
from rigidres.posets import (
    FiniteAtomicLattice,
    Poset,
    coordinatize,
    element_key,
    face_lattice,
    is_isomorphic,
    join_preserving_map,
    lcm_lattice,
    meet_closure,
    order_complex,
)


def digraph(pairs):
    g = nx.DiGraph()
    g.add_edges_from(pairs)
    return g


def cover_digraph(poset):
    """The Hasse diagram as networkx reads it, each node's "h" its level:
    the oracle that `is_isomorphic` is compared against."""
    g = nx.DiGraph()
    g.add_nodes_from((e, {"h": poset.level(e)}) for e in poset.elements)
    g.add_edges_from(poset.cover_pairs())
    return g


def hasse_matches(poset, pairs):
    return nx.is_isomorphic(
        cover_digraph(poset), digraph(pairs),
    ) and nx.algorithms.isomorphism.DiGraphMatcher(
        cover_digraph(poset), digraph(pairs)
    ).is_isomorphic()


def boolean_lattice(n):
    members = [frozenset(s) for k in range(n + 1)
               for s in itertools.combinations(range(n), k)]
    return FiniteAtomicLattice(members, n)


# -- basic poset mechanics --------------------------------------------------

def test_value_objects_compare_hash_and_print():
    # the dunder methods no other test reaches, and inverting zero
    I = parse_ideal("x*y; y^2")
    assert I.__eq__("x*y; y^2") is NotImplemented and I != "x*y; y^2"
    assert hash(I) == hash(parse_ideal("y^2; x*y"))
    assert repr(I) == "MonomialIdeal('x*y; y^2')"
    P = Poset([frozenset(), frozenset({0}), frozenset({1})])
    assert hash(P) == hash(Poset([{1}, {0}, set()]))
    assert repr(P) == "Poset(3 elements)"
    for F in (FieldSpec(0), FieldSpec(2)):
        with pytest.raises(ZeroDivisionError, match="^inverting zero$"):
            F.inv(0)


def test_linear_extension_and_bottom():
    p = Poset([frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})])
    assert p.elements[0] == frozenset()
    assert p.bottom == frozenset()
    assert p.top == frozenset({0, 1})
    assert [set(a) for a in p.elements
            if p.lower_covers(a) == (p.bottom,)] == [{0}, {1}]


def test_cover_relation():
    b3 = boolean_lattice(3)
    assert len(b3.cover_pairs()) == 12
    assert b3.lower_covers(frozenset({0, 1})) == (frozenset({0}), frozenset({1}))
    assert tuple(q for q in b3.elements
                 if frozenset() in b3.lower_covers(q)) == (
        frozenset({0}), frozenset({1}), frozenset({2}))


def test_fragment_membership_errors():
    p = Poset([frozenset(), frozenset({0})])
    with pytest.raises(ValueError):
        p.below(frozenset({9}))
    with pytest.raises(ValueError):
        p.open_interval(frozenset())


def test_no_unique_bottom_raises():
    p = Poset([frozenset({0}), frozenset({1})])
    with pytest.raises(ValueError):
        p.bottom


# -- lcm lattices -----------------------------------------------------------

def test_lcm_lattice_two_variables():
    lat = lcm_lattice(parse_ideal("x; y"))
    assert len(lat) == 4
    assert lat.degree(frozenset({0, 1})) == Monomial((1, 1))
    assert lat.degree(frozenset()) == Monomial((0, 0))


def test_lcm_lattice_boolean_on_three():
    lat = lcm_lattice(parse_ideal("x; y; z"))
    assert len(lat) == 8
    assert is_isomorphic(lat, boolean_lattice(3)) is not None


def test_lcm_lattice_twins_match_frozen_hasse(twin_a, twin_b):
    lat_a = lcm_lattice(twin_a)
    lat_b = lcm_lattice(twin_b)
    assert len(lat_a) == len(lat_b) == 14
    assert hasse_matches(lat_a, HASSE_TWIN_A)
    assert hasse_matches(lat_b, HASSE_TWIN_B)
    # the two diagrams are genuinely different
    assert not hasse_matches(lat_a, HASSE_TWIN_B)


def test_lcm_lattice_squarefree17_matches_frozen_hasse(squarefree17):
    lat = lcm_lattice(squarefree17)
    assert len(lat) == 17
    assert len(lat.cover_pairs()) == 31
    assert hasse_matches(lat, HASSE_17)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_lcm_lattice_degrees_join_compatible(data):
    lat = data.draw(random_lattices())
    ideal = coordinatize(lat)
    rebuilt = lcm_lattice(ideal)
    for a, b in itertools.combinations(rebuilt.elements, 2):
        j = rebuilt.join([a, b])
        assert rebuilt.degree(j) == rebuilt.degree(a).lcm(rebuilt.degree(b))
        above = [e for e in rebuilt.elements if a | b <= e]
        assert j == frozenset.intersection(*above)


def reference_lcm_lattice(ideal):
    """Support → lcm for every lcm of generators, found by taking lcms
    with each generator until no new value appears (the construction
    `lcm_lattice` used before it closed coordinate cuts)."""
    gens = ideal.generators
    values = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for m in frontier:
            for g in gens:
                j = m.lcm(g)
                if j not in values:
                    new.add(j)
        values |= new
        frontier = new
    values.add(Monomial([0] * ideal.ambient_dim))
    supports = {}
    for m in values:
        s = frozenset(i for i, g in enumerate(gens) if g.divides(m))
        if s in supports:
            raise AssertionError("distinct lattice values share a support")
        supports[s] = m
    return supports


# the exponent lists of small_ideals for each variable count, built once
_EXPONENT_LISTS = {d: st.lists(st.tuples(*[st.integers(0, 3)] * d),
                               min_size=1, max_size=7)
                   for d in range(1, 6)}


def small_ideals():
    """Ideals in 1–5 variables with exponents 0–3."""
    def ideal(exps):
        gens = minimalize(m for m in map(Monomial, exps) if any(m))
        return MonomialIdeal([f"x{j + 1}" for j in range(len(exps[0]))], gens)
    return st.integers(1, 5).flatmap(_EXPONENT_LISTS.__getitem__).filter(
        lambda exps: any(map(any, exps))).map(ideal)


@given(small_ideals())
@settings(max_examples=150, deadline=None)
def test_lcm_lattice_matches_lcm_frontier_reference(ideal):
    lat = lcm_lattice(ideal)
    supports = reference_lcm_lattice(ideal)
    assert set(lat.elements) == set(supports)
    assert lat.degrees == supports


def test_lcm_lattice_labels_are_pairwise_lcm_folds():
    # each label is the lcm of its support's generators, folded here
    # one generator at a time; 1 labels ∅
    ideals = [parse_ideal(text) for source, target, _ in FIXTURES.values()
              for text in dict.fromkeys((source, target))]
    ideals += [cycle_edge_ideal(n) for n in range(6, 11)]
    rng = random.Random(39)
    ideals += [random_generic_ideal(rng) for _ in range(5)]
    for ideal in ideals:
        lat = lcm_lattice(ideal)
        folds = {}
        for T in lat.elements:
            label = Monomial([0] * ideal.ambient_dim)
            for i in sorted(T):
                label = label.lcm(ideal.generators[i])
            folds[T] = label
        assert lat.degrees == folds


# -- intervals, order complexes, levels -------------------------------------

def test_open_interval_two_atoms():
    lat = lcm_lattice(parse_ideal("x; y"))
    frag = lat.open_interval(frozenset({0, 1}))
    assert len(frag) == 2
    assert order_complex(frag) == SimplicialComplex(
        [{frag.elements.index(frozenset({0}))},
         {frag.elements.index(frozenset({1}))}])


def test_open_interval_below_atom_is_empty():
    lat = lcm_lattice(parse_ideal("x; y"))
    frag = lat.open_interval(frozenset({0}))
    assert len(frag) == 0
    assert order_complex(frag) == SimplicialComplex()


def test_b3_open_interval_is_hexagon():
    b3 = boolean_lattice(3)
    frag = b3.open_interval(frozenset({0, 1, 2}))
    k = order_complex(frag)
    assert len(k.faces_of_dim(0)) == 6
    assert len(k.faces_of_dim(1)) == 6
    assert k.dim == 1
    assert reduced_homology(k).ranks == {1: 1}


def test_half_open_interval_and_down_set():
    b3 = boolean_lattice(3)
    q = frozenset({0, 1})
    assert len([p for p in b3.below(q) if p != b3.bottom] + [q]) == 3
    assert len(b3.below(q) + (q,)) == 4
    assert len(Poset(e for e in b3.elements if e != q)) == 7


def test_order_complex_of_chain_is_simplex():
    chain = Poset([frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})])
    k = order_complex(chain)
    assert k.dim == 2
    assert len(k.faces) == 8


def test_levels():
    b3 = boolean_lattice(3)
    assert b3.level(frozenset()) == 0
    assert b3.level(frozenset({1})) == 1
    assert b3.level(frozenset({0, 2})) == 2
    assert b3.level(frozenset({0, 1, 2})) == 3


def test_levels_squarefree17(squarefree17):
    lat = lcm_lattice(squarefree17)
    assert lat.level(lat.top) == 4
    levels = sorted(lat.level(e) for e in lat.elements)
    assert levels == [0] + [1] * 6 + [2] * 8 + [3] + [4]


def test_max_ranked_on_ranked_lattice_keeps_everything():
    b3 = boolean_lattice(3)
    frag = b3.max_ranked(frozenset({0, 1, 2}))
    assert len(frag) == 7


def test_max_ranked_atom():
    b3 = boolean_lattice(3)
    frag = b3.max_ranked(frozenset({2}))
    assert frag.elements == (frozenset({2}),)


def test_max_ranked_squarefree17_drops_short_chains(squarefree17):
    lat = lcm_lattice(squarefree17)
    frag = lat.max_ranked(lat.top)
    assert len(frag) == 7
    assert lat.top in frag
    kept_levels = sorted(lat.level(e) for e in frag.elements)
    assert kept_levels == [1, 1, 1, 2, 2, 3, 4]
    assert set(frag.elements) == {
        frozenset({0}), frozenset({2}), frozenset({5}),
        frozenset({0, 5}), frozenset({2, 5}), frozenset({0, 2, 5}),
        lat.top,
    }


def maximal_chain_lengths(fragment):
    lengths = set()
    stack = [(e, 1) for e in fragment.maximal_elements()]
    assert stack
    while stack:
        e, n = stack.pop()
        downs = fragment.lower_covers(e)
        if not downs:
            lengths.add(n)
        for d in downs:
            stack.append((d, n + 1))
    return lengths


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_max_ranked_is_ranked(data):
    lat = data.draw(random_lattices())
    q = data.draw(st.sampled_from([e for e in lat.elements if e]))
    frag = lat.max_ranked(q)
    assert maximal_chain_lengths(frag) == {lat.level(q)}
    assert q in frag


def reference_covers(P):
    """Lower covers found by testing every pair below each element, as
    `Poset` did before its down-set index."""
    lower = {}
    for q in P.elements:
        below = [p for p in P.elements if p < q]
        lower[q] = tuple(sorted(
            (p for p in below if not any(p < r for r in below if r < q)),
            key=element_key))
    return lower


def all_chains(elements):
    """Every totally ordered subset, the empty one included."""
    found, k = [()], 1
    while True:
        level = [c for c in itertools.combinations(elements, k)
                 if all(a < b or b < a for a, b in itertools.combinations(c, 2))]
        if not level:
            return found
        found += level
        k += 1


def assert_order_queries_match_brute_force(P):
    els = P.elements
    lower = reference_covers(P)
    for q in els:
        assert P.below(q) == tuple(p for p in els if p < q)
        assert P.lower_covers(q) == lower[q]
    mins = [e for e in els if not any(f < e for f in els)]
    maxs = [e for e in els if not any(e < f for f in els)]
    assert (P.minimal_elements(), P.maximal_elements()) == (mins, maxs)
    for name, extremes in (("bottom", mins), ("top", maxs)):
        if len(extremes) == 1:
            assert getattr(P, name) == extremes[0]
        else:
            with pytest.raises(ValueError):
                getattr(P, name)
    assert_order_complex_matches_closing_constructor(P)
    if len(mins) != 1:
        return
    bot = mins[0]

    @functools.cache
    def steps(a, b):
        """Most steps on a chain a = c0 < … < ck = b."""
        if a == b:
            return 0
        return max(1 + steps(m, b) for m in els if a < m <= b)

    for q in els:
        if q == bot:
            with pytest.raises(ValueError):
                P.open_interval(q)
            with pytest.raises(ValueError):
                P.max_ranked(q)
            continue
        assert P.open_interval(q).elements == tuple(
            p for p in els if bot < p < q)
        assert P.max_ranked(q).elements == tuple(
            p for p in els if bot < p <= q
            and steps(bot, p) + steps(p, q) == steps(bot, q))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_order_queries_match_brute_force(data):
    lat = data.draw(random_lattices())
    P = lat
    if data.draw(st.booleans()):
        # subfamilies may have no bottom, no top, or no elements at all
        P = Poset(data.draw(st.lists(st.sampled_from(lat.elements),
                                     unique=True)))
    assert_order_queries_match_brute_force(P)
    assert_order_queries_match_brute_force(betti_poset(lat))


def assert_order_complex_matches_closing_constructor(P):
    """`order_complex` enumerates its faces closed; the closing
    constructor on every chain must give the same faces, dimension by
    dimension, in the same order."""
    K = order_complex(P)
    closed = SimplicialComplex({P.elements.index(e) for e in c}
                               for c in all_chains(P.elements))
    assert K.faces == closed.faces
    assert K.dim == closed.dim
    assert K.vertices == closed.vertices
    for i in range(-1, closed.dim + 2):
        assert K.faces_of_dim(i) == closed.faces_of_dim(i)


@given(st.sets(st.frozensets(st.integers(0, 4), max_size=4), max_size=12))
@settings(max_examples=80, deadline=None)
def test_order_complex_matches_closing_constructor(family):
    assert_order_complex_matches_closing_constructor(Poset(family))


@pytest.mark.parametrize("family", [
    [],
    [{0}, {1}, {2}, {3}],  # an antichain: four isolated vertices
    [{0, 1}, {1, 2}, {0, 2}],
], ids=["empty", "antichain", "antichain-of-pairs"])
def test_order_complex_matches_closing_constructor_at_the_edges(family):
    assert_order_complex_matches_closing_constructor(Poset(family))


def test_order_queries_match_brute_force_on_fixtures(
        squarefree17, twin_a, twin_b):
    for ideal in (squarefree17, twin_a, twin_b):
        assert_order_queries_match_brute_force(lcm_lattice(ideal))
        assert_order_queries_match_brute_force(betti_poset(lcm_lattice(ideal)))


@pytest.mark.parametrize("family", [
    [],
    [{0}],
    [set()],
    [{0}, {1}, {0, 1, 2}, {0, 1, 3}],  # two minima under two maxima
    [{0}, {0, 1}, {2}, {2, 3}, {0, 1, 2, 3, 4}],  # two chains under a top
    [set(), {0, 1}, {1, 2}, {0, 2}],  # a bottom under an antichain
], ids=["empty", "one-element", "bottom-only", "bowtie", "two-chains",
        "claw"])
def test_order_queries_match_brute_force_on_fragments(family):
    assert_order_queries_match_brute_force(Poset(family))


# -- meet closure and face lattices -----------------------------------------

def test_meet_closure_adds_intersection():
    lat = meet_closure([{0, 1}, {1, 2}], 3)
    assert len(lat) == 7
    assert frozenset({1}) in lat


def test_meet_closure_idempotent():
    lat = meet_closure([{0, 1}, {1, 2}], 3)
    again = meet_closure(lat.elements, 3)
    assert again.elements == lat.elements


def test_meet_closure_of_path_union_lcm_lattice():
    lat = lcm_lattice(parse_ideal("x*y; y*z; z*w"))
    path = face_lattice(SimplicialComplex([{0, 1}, {1, 2}]))
    merged = meet_closure(set(lat.elements) | set(path.elements), 3)
    assert merged.elements == lat.elements


def all_pairs_meet_closure(family, n_atoms):
    """Reference: intersect every pair again until a round adds nothing."""
    members = {frozenset(m) for m in family}
    members |= {frozenset(), frozenset(range(n_atoms))}
    members |= {frozenset({i}) for i in range(n_atoms)}
    while True:
        new = {a & b for a, b in itertools.combinations(members, 2)} - members
        if not new:
            return members
        members |= new


def _closure_draws(n, max_holes):
    """A family of atom sets over n atoms, and the holes of up to
    max_holes sets that miss one or two atoms."""
    atoms = st.integers(0, n - 1)
    return (st.lists(st.sets(atoms), max_size=4),
            st.lists(st.sets(atoms, min_size=1, max_size=2),
                     max_size=max_holes))


# the two closure tests' strategies for each atom count, built once
MEET_CLOSURE_DRAWS = {n: _closure_draws(n, 6) for n in range(1, 8)}
CLOSURE_CHECK_DRAWS = {n: _closure_draws(n, 4) for n in range(1, 7)}


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_meet_closure_matches_all_pairs_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    families, hole_lists = MEET_CLOSURE_DRAWS[n]
    family = data.draw(families)
    # sets missing one or two atoms take several rounds to close
    holes = data.draw(hole_lists)
    family += [set(range(n)) - h for h in holes]
    assert set(meet_closure(family, n).elements) == \
        all_pairs_meet_closure(family, n)


def test_meet_closure_keeps_the_input_objects(hexagon_ideal):
    lat = lcm_lattice(hexagon_ideal)
    for extra in ([{0, 2}], [{0, 3}, {1, 4, 5}], [set(range(6))], [{0}]):
        family = set(lat.elements) | {frozenset(e) for e in extra}
        kept = {id(e) for e in meet_closure(family, 6).elements}
        assert all(id(m) in kept for m in family)


def test_meet_closure_adds_threefold_intersections():
    # {0, 1} is no pairwise intersection of the input: a second round
    lat = meet_closure([{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 3, 4}], 5)
    assert frozenset({0, 1}) in lat
    assert set(lat.elements) == all_pairs_meet_closure(lat.elements, 5)


def test_face_lattice_full_simplex():
    lat = face_lattice(SimplicialComplex([{1, 2, 3}]))
    assert len(lat) == 8
    assert is_isomorphic(lat, boolean_lattice(3)) is not None


def test_face_lattice_path():
    lat = face_lattice(SimplicialComplex([{1, 2}, {2, 3}]))
    assert len(lat) == 7
    assert lat.top == frozenset({0, 1, 2})


def test_face_lattice_hexagon_boundary():
    edges = [{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {1, 6}]
    lat = face_lattice(SimplicialComplex(edges))
    assert len(lat) == 14


def test_face_lattice_rejects_empty():
    with pytest.raises(ValueError):
        face_lattice(SimplicialComplex())


def test_lattice_validation():
    with pytest.raises(ValueError):
        FiniteAtomicLattice([frozenset(), frozenset({0, 1})], 2)  # no singletons
    with pytest.raises(ValueError):
        FiniteAtomicLattice(
            [frozenset(), frozenset({0}), frozenset({1})], 2)  # no top
    with pytest.raises(ValueError):
        FiniteAtomicLattice(
            [frozenset({0}), frozenset({1}), frozenset({0, 1})], 2)  # no bottom
    with pytest.raises(ValueError, match="positive number of atoms"):
        FiniteAtomicLattice([frozenset()], 0)
    members = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    with pytest.raises(ValueError, match="cover exactly the elements"):
        FiniteAtomicLattice(members, 2, {e: (len(e), 0) for e in members[:3]})
    with pytest.raises(ValueError, match="no degree labels"):
        FiniteAtomicLattice(members, 2).degree(frozenset({0}))


def test_lattice_refuses_an_atom_outside_its_range():
    # closed under intersection and holding 0..2 as singletons, but {5}
    # would be a second maximum
    members = [set(), {0}, {1}, {2}, {0, 1, 2}, {5}]
    with pytest.raises(ValueError, match="atom 5 "):
        FiniteAtomicLattice(members, 3)


NAMED_PAIR = re.compile(r"not intersection-closed: (\{.*\}) ∩ (\{.*\}) missing")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_closure_check_matches_pairwise_brute_force(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    families, hole_lists = CLOSURE_CHECK_DRAWS[n]
    family = {frozenset(s) for s in data.draw(families)}
    # sets missing an atom or two rarely meet inside the family
    holes = data.draw(hole_lists)
    family |= {frozenset(range(n)) - h for h in holes}
    family |= {frozenset(), frozenset(range(n))}
    family |= {frozenset({i}) for i in range(n)}
    if data.draw(st.booleans()):
        family = all_pairs_meet_closure(family, n)
        # dropping one member may or may not break closure
        others = sorted(e for e in family if len(e) > 1 and len(e) < n)
        if others:
            family.discard(data.draw(st.sampled_from(others)))
    closed = all(a & b in family for a, b in itertools.combinations(family, 2))
    if closed:
        assert set(FiniteAtomicLattice(family, n).elements) == family
        return
    with pytest.raises(ValueError) as err:
        FiniteAtomicLattice(family, n)
    a, b = (frozenset(ast.literal_eval(t))
            for t in NAMED_PAIR.fullmatch(str(err.value)).groups())
    assert a in family and b in family and a & b not in family


CLOSE_24_COATOMS = """
import time
from rigidres.posets import FiniteAtomicLattice
n = 24
members = [frozenset(), frozenset(range(n))]
members += [frozenset({i}) for i in range(n)]
members += [frozenset(range(n)) - {i} for i in range(n)]
start = time.perf_counter()
try:
    FiniteAtomicLattice(members, n)
except ValueError as err:
    print(err)
print(time.perf_counter() - start)
"""


def test_closure_check_stops_at_the_first_missing_intersection():
    # closing 24 coatoms of size 23 would build all 2^24 subsets, so the
    # check runs in a child process with 1 GiB of address space
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CLOSE_24_COATOMS], env=env, capture_output=True,
        text=True, timeout=30, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    message, seconds = done.stdout.splitlines()
    assert message.startswith("not intersection-closed: ")
    assert float(seconds) < 1.0


def test_join_and_meet():
    lat = meet_closure([{0, 1}, {1, 2}], 3)
    assert lat.join([frozenset({0}), frozenset({2})]) == frozenset({0, 1, 2})
    assert lat.join([]) == frozenset()
    a, b = frozenset({0, 1}), frozenset({1, 2})
    common = set(lat.below(a) + (a,)) & set(lat.below(b) + (b,))
    assert max(common, key=len) == frozenset({1})
    assert lat.join([{0, 1}]) == frozenset({0, 1})


def test_join_refuses_an_atom_outside_the_lattice():
    # no member holds atom 3, so no member is an upper bound: the
    # constructor's wording, not a StopIteration out of the scan
    lat = meet_closure([{0, 1}, {1, 2}], 3)
    with pytest.raises(ValueError, match=r"^atom 3 is not one of 0\.\.2$"):
        lat.join([frozenset({0}), frozenset({3})])


def test_degree_labels_keep_a_monomial_and_check_anything_else():
    members = [frozenset(), frozenset({0})]
    m = Monomial((1,))
    lat = FiniteAtomicLattice(members, 1, {members[0]: Monomial((0,)),
                                           members[1]: m})
    assert lat.degree({0}) is m
    with pytest.raises(ValueError, match="negative exponent"):
        FiniteAtomicLattice(members, 1, {members[0]: (0,), members[1]: (-1,)})


# -- isomorphism and join-preserving comparisons ----------------------------

def is_order_preserving(P, Q, mapping):
    els = P.elements
    return (set(mapping) == set(els)
            and set(mapping.values()) <= set(Q.elements)
            and all(mapping[a] <= mapping[b]
                    for a in els for b in els if a <= b))


def is_bijective(P, Q, mapping):
    return (len(set(mapping.values())) == len(P.elements)
            == len(Q.elements))


def test_is_isomorphic_identity():
    b3 = boolean_lattice(3)
    m = is_isomorphic(b3, b3)
    assert m is not None
    assert is_order_preserving(b3, b3, m) and is_bijective(b3, b3, m)


def test_is_isomorphic_rejects_different_shapes():
    chain = Poset([frozenset(), frozenset({0}), frozenset({0, 1})])
    b2 = boolean_lattice(2)
    assert is_isomorphic(chain, b2) is None
    fork = Poset([frozenset(), frozenset({0}), frozenset({1})])
    assert is_isomorphic(chain, fork) is None


def test_is_isomorphic_across_relabelings():
    a = meet_closure([{0, 1}], 3)
    b = meet_closure([{1, 2}], 3)
    m = is_isomorphic(a, b)
    assert m is not None
    assert is_order_preserving(a, b, m)


def networkx_first_map(P, Q):
    """networkx's first isomorphism of the two Hasse diagrams with levels
    matched: the map `is_isomorphic` must return, keys in order."""
    if len(P) != len(Q):
        return None
    iso = nx.algorithms.isomorphism
    return next(iso.DiGraphMatcher(
        cover_digraph(P), cover_digraph(Q),
        node_match=iso.categorical_node_match("h", -1)).isomorphisms_iter(),
        None)


def assert_first_map_is_networkx(P, Q):
    ours, theirs = is_isomorphic(P, Q), networkx_first_map(P, Q)
    assert ours == theirs
    if ours is not None:  # key order too: it is the order of the match
        assert list(ours.items()) == list(theirs.items())


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_is_isomorphic_returns_networkx_first_map(data):
    n = data.draw(st.integers(2, 5))
    families = st.lists(st.frozensets(st.integers(0, n - 1)),
                        min_size=3, max_size=9)
    family = data.draw(families)
    sigma = data.draw(st.permutations(range(n)))
    moved = [frozenset(sigma[i] for i in s) for s in family]
    P, other = Poset(family), Poset(data.draw(families))
    for Q in (P, Poset(moved), other):
        assert_first_map_is_networkx(P, Q)
        assert_first_map_is_networkx(Q, P)
    L, M = meet_closure(family, n), meet_closure(moved, n)
    assert_first_map_is_networkx(L, M)
    F = FieldSpec(data.draw(st.sampled_from([0, 2])))
    assert_first_map_is_networkx(betti_poset(L, F), betti_poset(M, F))


@pytest.mark.parametrize("family, matched", [
    # free elements are tried as set(P.elements) iterates, not canonically
    ([{0}, {1}], [({1}, {0}), ({0}, {1})]),
    # the out-terminal set (uncovered upper covers) is read before the in
    ([{0}, {0, 2}, {0, 4}, {2}],
     [({0}, {0}), ({0, 2}, {0, 2}), ({0, 4}, {0, 4}), ({2}, {2})]),
])
def test_is_isomorphic_tries_candidates_in_networkx_order(family, matched):
    P = Poset(family)
    assert_first_map_is_networkx(P, P)
    assert list(is_isomorphic(P, P).items()) == [
        (frozenset(p), frozenset(q)) for p, q in matched]


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_is_isomorphic_returns_networkx_first_map_on_the_fixtures(fixture,
                                                                  char):
    source, target, _ = FIXTURES[fixture]
    F = FieldSpec(char)
    LS, LT = lcm_lattice(parse_ideal(source)), lcm_lattice(parse_ideal(target))
    BS, BT = betti_poset(LS, F), betti_poset(LT, F)
    for P, Q in ((BS, BT), (BT, BS), (LS, LT), (LT, LS)):
        assert_first_map_is_networkx(P, Q)


MATCH_UNDER_A_LOW_LIMIT = """
import sys
from rigidres.posets import Poset, is_isomorphic
P = Poset([frozenset()] + [frozenset({i}) for i in range(300)])
sys.setrecursionlimit(200)
iso = is_isomorphic(P, P)
print(len(iso), sys.getrecursionlimit())
"""


def test_a_match_leaves_the_recursion_limit_alone():
    # networkx raised the limit to 1.5 |Q| (451 here) and never restored
    # it; the search keeps its own stack, so 301 pairs match under 200
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", MATCH_UNDER_A_LOW_LIMIT],
                          env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "301 200\n"


def test_exists_join_preserving_identity_reflexive():
    b3 = boolean_lattice(3)
    assert join_preserving_map(b3, b3) is not None


def test_exists_join_preserving_collapse():
    b3 = boolean_lattice(3)
    five = FiniteAtomicLattice(
        [frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
         frozenset({0, 1, 2})], 3)
    assert join_preserving_map(b3, five) is not None
    assert join_preserving_map(five, b3) is None


def test_exists_join_preserving_counts_atoms():
    assert join_preserving_map(boolean_lattice(2), boolean_lattice(3)) is None
    with pytest.raises(ValueError, match="needs atomic lattices"):
        join_preserving_map(Poset(boolean_lattice(2).elements),
                            boolean_lattice(2))


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_join_preserving_reflexive(data):
    lat = data.draw(random_lattices())
    assert join_preserving_map(lat, lat) is not None


def pairwise_join_map(P, Q):
    """Reference search: build every candidate map p ↦ join_Q(σ(p)) and
    check it against a table of all pairwise joins of P.  Returns the
    assignment of the first σ that passes, or None."""
    pair_joins = [(a, b, P.join([a, b]))
                  for a, b in itertools.combinations(P.elements, 2)]
    for sigma in itertools.permutations(range(P.n_atoms)):
        f = {p: Q.join([{sigma[i] for i in p}]) for p in P.elements}
        if all(f[j] == Q.join([f[a], f[b]]) for a, b, j in pair_joins):
            return f
    return None


def matches_pairwise_reference(P, Q):
    found = join_preserving_map(P, Q)
    expected = pairwise_join_map(P, Q)
    assert found == expected
    return found


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_join_preserving_map_matches_pairwise_reference(data):
    P = data.draw(random_lattices())
    Q = data.draw(random_lattices())
    assert P.n_atoms == Q.n_atoms
    refine = data.draw(st.booleans())
    if refine:
        # P made finer than a relabelled Q: σ⁻¹ carries Q into P
        sigma = data.draw(st.permutations(range(Q.n_atoms)))
        P = meet_closure(list(P.elements)
                         + [{sigma[i] for i in q} for q in Q.elements],
                         Q.n_atoms)
    found = matches_pairwise_reference(P, Q)
    assert found is not None or not refine
    matches_pairwise_reference(Q, P)


def test_join_preserving_map_matches_pairwise_reference_on_twins(
        twin_a, twin_b):
    A, B = lcm_lattice(twin_a), lcm_lattice(twin_b)
    assert matches_pairwise_reference(A, B) is None
    assert matches_pairwise_reference(B, A) is None


def test_join_preserving_map_matches_pairwise_reference_c6_p7():
    C6 = lcm_lattice(cycle_edge_ideal(6))
    P7 = lcm_lattice(parse_ideal(
        "; ".join(f"x{i}*x{i + 1}" for i in range(1, 7))))
    assert matches_pairwise_reference(C6, P7) is None
    assert matches_pairwise_reference(P7, C6) is not None


def test_join_preserving_map_refuses_a_larger_target_without_search(
        monkeypatch):
    # σ⁻¹ sends distinct members of Q to distinct members of P
    C8 = lcm_lattice(cycle_edge_ideal(8))
    P9 = lcm_lattice(parse_ideal(
        "; ".join(f"x{i}*x{i + 1}" for i in range(1, 9))))
    assert len(P9) > len(C8)

    def no_search(*args, **kwargs):
        raise AssertionError("atom bijections enumerated")

    monkeypatch.setattr(posets, "_pullback_sigma", no_search)
    assert join_preserving_map(C8, P9) is None


def permutation_loop_map(P, Q):
    """Reference search: every atom bijection σ in lexicographic order,
    each tested on all members of Q at once.  Returns the map of the
    first σ that passes, or None."""
    if len(Q) > len(P):
        return None
    for sigma in itertools.permutations(range(P.n_atoms)):
        if all(frozenset(map(sigma.index, q)) in P for q in Q.elements):
            return {p: Q.join([{sigma[i] for i in p}]) for p in P.elements}
    return None


def wider_lattices(n):
    """Atomic lattices on n atoms, meet closures of up to 6 supports."""
    return st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=2, max_size=n),
        max_size=6).map(lambda fam: meet_closure(fam, n))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pruned_search_matches_permutation_loop(data):
    n = data.draw(st.integers(2, 6), label="atoms")
    P, Q = data.draw(wider_lattices(n)), data.draw(wider_lattices(n))
    if data.draw(st.booleans()):
        # P made finer than a relabelled Q, so a map exists
        sigma = data.draw(st.permutations(range(n)))
        P = meet_closure(list(P.elements)
                         + [{sigma[i] for i in q} for q in Q.elements], n)
    for A, B in ((P, Q), (Q, P)):
        assert join_preserving_map(A, B) == permutation_loop_map(A, B)


def test_pruned_search_matches_permutation_loop_on_fixtures(
        twin_a, twin_b, squarefree17, hexagon_ideal):
    lattices = [lcm_lattice(I) for I in
                (twin_a, twin_b, squarefree17, hexagon_ideal,
                 cycle_edge_ideal(6))]
    for P, Q in itertools.product(lattices, repeat=2):
        if P.n_atoms == Q.n_atoms:
            assert join_preserving_map(P, Q) == permutation_loop_map(P, Q)


def test_pruned_search_proves_no_map_quickly():
    # the permutation loop tries all 8! bijections here (about 0.5 s)
    C8 = lcm_lattice(cycle_edge_ideal(8))
    Q = meet_closure([{0, 1, 2, 4}, {0, 1, 2, 5, 6, 7}, {0, 1, 3, 7},
                      {0, 2, 6, 7}, {1, 2, 3}, {2, 3, 4, 6}], 8)
    assert len(Q) == 26
    start = time.perf_counter()
    assert join_preserving_map(C8, Q) is None
    assert time.perf_counter() - start < 0.25


# -- coordinatization -------------------------------------------------------

def test_coordinatize_b2_gives_two_variables():
    ideal = coordinatize(boolean_lattice(2))
    assert len(ideal.generators) == 2
    for g in ideal.generators:
        assert sum(g) == 1  # a single bare variable each


def test_coordinatize_single_atom():
    lat = FiniteAtomicLattice([frozenset(), frozenset({0})], 1)
    ideal = coordinatize(lat)
    assert len(lcm_lattice(ideal)) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_coordinatize_round_trip_boolean(n):
    lat = boolean_lattice(n)
    assert is_isomorphic(lcm_lattice(coordinatize(lat)), lat) is not None


def test_coordinatize_round_trip_twin(twin_a):
    lat = lcm_lattice(twin_a)
    assert is_isomorphic(lcm_lattice(coordinatize(lat)), lat) is not None


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_coordinatize_round_trip_random(data):
    lat = data.draw(random_lattices())
    assert is_isomorphic(lcm_lattice(coordinatize(lat)), lat) is not None
