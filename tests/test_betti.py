import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rigidres import betti, deform
from rigidres.betti import (
    betti_numbers,
    betti_poset,
    crosscut_complex,
    interval_ranks,
    rigidity_report,
)
from rigidres.deform import search_rigid_deformation
from rigidres.homology import (FieldSpec, SimplicialComplex, homology_ranks,
                               reduced_homology)
from rigidres.monomials import Monomial, MonomialIdeal, minimalize, parse_ideal
from rigidres.posets import (FiniteAtomicLattice, Poset, element_key,
                             lcm_lattice, meet_closure, order_complex)

from conftest import random_lattices
from test_frames import cycle_edge_ideal, resolution_index
from test_homology import assert_matches_stack_closure

Q = FieldSpec(0)

# Betti poset of both twin ideals: identical as support families
TWIN_BETTI_SUPPORTS = [
    [], [0], [1], [2], [3], [4], [5],
    [0, 1], [0, 3], [1, 2], [2, 3],
    [3, 4, 5], [0, 1, 2, 3, 4, 5],
]


# -- crosscut shortcut -------------------------------------------------------

def coatom_crosscut(L, q):
    """The crosscut of the coatoms of (0̂, q), as `interval_ranks`
    builds it: the lower covers of q other than 0̂."""
    return crosscut_complex(frozenset(L.lower_covers(q)) - {L.bottom})


def test_every_crosscut_is_built_on_an_antichain(monkeypatch, hexagon_ideal):
    # crosscut_complex reads its argument as the coatoms themselves, so
    # every caller must hand it an antichain
    built = []
    crosscut = betti.crosscut_complex

    def recorded(coatoms):
        built.append(coatoms)
        return crosscut(coatoms)

    monkeypatch.setattr(betti, "crosscut_complex", recorded)
    L = lcm_lattice(cycle_edge_ideal(8))
    for F in (Q, FieldSpec(2)):
        for q in L.elements:
            if q:
                interval_ranks(L, q, F)
    scanned = len(built)
    search_rigid_deformation(hexagon_ideal, budget=1, F=Q)
    assert scanned == 2 * 89 and len(built) > scanned
    for coatoms in built:
        assert not any(a < b for a in coatoms for b in coatoms)


def test_equal_facet_families_give_equal_crosscuts(monkeypatch, twin_a):
    # a crosscut is generated by the sets of coatoms that share an atom,
    # so its facets determine it, and one memo builds each family once
    # per characteristic, on a lattice and across a scan
    crosscut, ranks = betti.crosscut_complex, betti.coatom_ranks
    asked, built = [], []

    def recorded_ranks(coatoms, F=Q, memo=None):
        asked.append(coatoms)
        return ranks(coatoms, F, memo)

    def recorded_crosscut(coatoms):
        built.append(coatoms)
        return crosscut(coatoms)

    monkeypatch.setattr(betti, "coatom_ranks", recorded_ranks)
    monkeypatch.setattr(deform, "coatom_ranks", recorded_ranks)
    monkeypatch.setattr(betti, "crosscut_complex", recorded_crosscut)
    memo = {}
    C8 = lcm_lattice(cycle_edge_ideal(8))
    runs = [(lambda: [betti_numbers(C8, F, memo) for F in (Q, FieldSpec(2))],
             2, 82, 10),
            (lambda: search_rigid_deformation(twin_a, budget=1, F=Q),
             1, 78, 25)]
    for run, chars, coatom_sets, families in runs:
        asked.clear()
        built.clear()
        run()
        complexes = {}
        for coatoms in set(asked):
            complexes.setdefault(betti.crosscut_facets(coatoms),
                                 set()).add(crosscut(coatoms))
        assert (len(set(asked)), len(complexes)) == (coatom_sets, families)
        assert all(len(Ks) == 1 for Ks in complexes.values())
        assert len(set().union(*complexes.values())) == families
        built_families = [betti.crosscut_facets(c) for c in built]
        assert sorted(map(built_families.count, complexes)) == (
            [chars] * families)


def atom_crosscut(L, q):
    """The reference: the atom crosscut complex of (0̂, q), the atom sets
    whose join is strictly below q.  L is intersection-closed with
    bottom ∅, so an atom set has its join below q exactly when it lies
    inside some element strictly between ∅ and q: the complex is the
    one generated by those elements."""
    return SimplicialComplex(p for p in L.elements if p and p < q)


def test_crosscut_of_atom_is_empty_complex():
    lat = lcm_lattice(parse_ideal("x; y"))
    K = coatom_crosscut(lat, frozenset({0}))
    assert K.faces == frozenset({()})


def test_crosscut_of_boolean_top_is_sphere():
    lat = lcm_lattice(parse_ideal("x; y; z"))
    K = coatom_crosscut(lat, frozenset({0, 1, 2}))
    assert reduced_homology(K, Q).ranks == {1: 1}


def enumerated_crosscut(L, q):
    """The crosscut complex by its definition: the atom subsets of q
    whose join is not q."""
    return SimplicialComplex(
        frozenset(s) for r in range(len(q) + 1)
        for s in itertools.combinations(sorted(q), r) if L.join([s]) != q)


def assert_crosscut_is_enumerated(L):
    for q in L.elements:
        if q:
            assert atom_crosscut(L, q) == enumerated_crosscut(L, q), \
                sorted(q)


@given(random_lattices())
@settings(max_examples=50, deadline=None)
def test_crosscut_is_the_complex_generated_below_q(lat):
    assert_crosscut_is_enumerated(lat)


def test_crosscut_is_the_complex_generated_below_q_on_fixtures(
        twin_a, twin_b, squarefree17):
    for I in (cycle_edge_ideal(6), cycle_edge_ideal(7), cycle_edge_ideal(8),
              twin_a, twin_b, squarefree17):
        assert_crosscut_is_enumerated(lcm_lattice(I))


def test_crosscut_is_the_complex_generated_below_q_on_closures(
        hexagon_ideal):
    # the hexagon's budget-1 augmentations, as deform-search scans them
    L = lcm_lattice(hexagon_ideal)
    family = set(L.elements)
    missing = [frozenset(s) for r in range(2, 6)
               for s in itertools.combinations(range(6), r)
               if frozenset(s) not in family]
    assert len(missing) == 35
    for s in missing:
        assert_crosscut_is_enumerated(meet_closure(family | {s}, 6))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_crosscut_matches_order_complex(data):
    lat = data.draw(random_lattices())
    q = data.draw(st.sampled_from([e for e in lat.elements if e]))
    via_crosscut = reduced_homology(coatom_crosscut(lat, q), Q).ranks
    via_chains = reduced_homology(order_complex(lat.open_interval(q)), Q).ranks
    assert via_crosscut == via_chains


def test_crosscut_matches_order_complex_on_twin(twin_a):
    lat = lcm_lattice(twin_a)
    for q in lat.elements:
        if not q:
            continue
        assert reduced_homology(coatom_crosscut(lat, q), Q).ranks == \
            reduced_homology(order_complex(lat.open_interval(q)), Q).ranks


@given(random_lattices())
@settings(max_examples=50, deadline=None)
def test_coatom_crosscut_ranks_match_the_atom_crosscut_and_chains(lat):
    for F in (Q, FieldSpec(2)):
        for q in lat.elements:
            if q:
                ranks = homology_ranks(coatom_crosscut(lat, q), F)
                assert ranks == homology_ranks(atom_crosscut(lat, q), F)
                assert ranks == homology_ranks(
                    order_complex(lat.open_interval(q)), F), sorted(q)


@pytest.mark.parametrize("n,coatom,atom", [(6, 145, 193), (8, 961, 1377)],
                         ids=["hexagon", "C8"])
def test_interval_ranks_build_the_coatom_crosscut(n, coatom, atom):
    # faces (with ∅) over all intervals: the route is the coatom one
    L = lcm_lattice(cycle_edge_ideal(n))
    intervals = [q for q in L.elements if q]
    assert sum(len(coatom_crosscut(L, q).faces) for q in intervals) == coatom
    assert sum(len(atom_crosscut(L, q).faces) for q in intervals) == atom


def assert_crosscut_matches_stack_walk(L, q):
    # the crosscut is generated by the sets {j : atom a lies in coatom
    # j}, closed here by the stack-walk reference
    coatoms = sorted(frozenset(L.lower_covers(q)) - {L.bottom},
                     key=element_key)
    generators = [{j for j, c in enumerate(coatoms) if a in c} for a in q]
    assert_matches_stack_closure(coatom_crosscut(L, q), generators)


def test_closed_path_matches_constructor_on_fixtures(squarefree17,
                                                     hexagon_ideal):
    for I in (squarefree17, hexagon_ideal):
        L = lcm_lattice(I)
        for q in L.elements:
            if q:
                assert_crosscut_matches_stack_walk(L, q)


@given(random_lattices())
@settings(max_examples=50, deadline=None)
def test_closed_path_matches_constructor(lat):
    for q in lat.elements:
        if q:
            assert_crosscut_matches_stack_walk(lat, q)


# -- one memo across posets --------------------------------------------------

def ranked_fragments(P):
    """Every max_ranked fragment of P with P's bottom put back: posets
    that are neither lattices nor Betti posets, read by order complex."""
    bot = P.bottom
    return [Poset(list(P.max_ranked(q).elements) + [bot])
            for q in P.elements if q != bot]


@given(st.lists(random_lattices(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_one_memo_serves_lattices_betti_posets_and_fragments(lattices):
    # one memo holds the coatom keys of lattices (crosscut route) and
    # the complex keys of Betti posets and fragments (order-complex route)
    memo = {}
    for F in (Q, FieldSpec(2)):
        posets = []
        for L in lattices:
            B = betti_poset(L, F, memo)
            posets += [L, B] + ranked_fragments(L) + ranked_fragments(B)
        for P in posets:
            for q in P.elements:
                if q == P.bottom:
                    continue
                fresh = homology_ranks(order_complex(P.open_interval(q)), F)
                if isinstance(P, FiniteAtomicLattice):
                    assert homology_ranks(coatom_crosscut(P, q), F) == fresh
                assert interval_ranks(P, q, F, memo) == fresh, sorted(q)
    assert {char for _, _, char in memo} == {0, 2}


@pytest.mark.parametrize("lattice_first", [True, False],
                         ids=["lattice-first", "fragment-first"])
def test_coatom_and_content_keys_never_collide(lattice_first):
    # X = {{0,1},{1,2}} is the content of a fragment, whose order
    # complex is two points, and the coatom set of (∅, {0,1,2}) in a
    # lattice, whose crosscut is an edge
    X = [frozenset({0, 1}), frozenset({1, 2})]
    lattice = meet_closure(X, 3)
    fragment = Poset([frozenset()] + X + [frozenset({0, 1, 2})])
    top = frozenset({0, 1, 2})
    assert frozenset(lattice.lower_covers(top)) == frozenset(X)
    queries = [(lattice, {}), (fragment, {0: 1})]
    memo = {}
    for P, fresh in queries if lattice_first else queries[::-1]:
        assert homology_ranks(order_complex(P.open_interval(top)), Q) == fresh
        assert interval_ranks(P, top, Q, memo) == fresh
    # the lattice's coatom key with, under it, the crosscut's facet
    # family (one facet, {0, 1}: the edge), and the fragment's complex
    points = SimplicialComplex([{0}, {1}])
    assert set(memo) == {("crosscut", frozenset(X), 0),
                         ("facets", frozenset({0b11}), 0),
                         ("complex", points, 0)}


def record_eliminations(monkeypatch):
    """Patch `betti.homology_ranks` and return the list of the complexes
    it eliminates."""
    calls = []
    ranks = betti.homology_ranks

    def counted(K, F):
        calls.append(K)
        return ranks(K, F)

    monkeypatch.setattr(betti, "homology_ranks", counted)
    return calls


@pytest.mark.parametrize("F", [Q, FieldSpec(2)], ids=["char0", "char2"])
def test_a_call_with_no_memo_eliminates_each_complex_once(monkeypatch, F):
    L = lcm_lattice(cycle_edge_ideal(8))
    intervals = [q for q in L.elements if q]
    # the fresh route: one elimination per interval
    complexes = [coatom_crosscut(L, q) for q in intervals]
    fresh = {q: homology_ranks(K, F) for q, K in zip(intervals, complexes)}
    assert len(intervals) == 89 and len(set(complexes)) == 10
    table = {(0, L.degree(L.bottom)): 1}
    for q, ranks in fresh.items():
        table.update(((i + 2, L.degree(q)), h) for i, h in ranks.items())
    expected = [
        (betti_numbers, table),
        (rigidity_report, rigidity_report(L, F, {})),
        (betti_poset, Poset([L.bottom] + [q for q in intervals if fresh[q]])),
    ]
    assert expected[1][1].rigid
    for call, value in expected:
        calls = record_eliminations(monkeypatch)
        got = call(L, F)
        assert (got.entries if call is betti_numbers else got) == value
        assert len(calls) == len(set(calls)) and set(calls) == set(complexes)
    # nothing is kept from one call to the next
    calls = record_eliminations(monkeypatch)
    for _ in range(2):
        assert interval_ranks(L, L.top, F) == fresh[L.top]
    assert len(calls) == 2


@pytest.mark.parametrize("F", [Q, FieldSpec(2)], ids=["char0", "char2"])
def test_a_betti_poset_memo_keys_each_order_complex_once(monkeypatch, F):
    # off a lattice, the ranks are keyed by the interval's order complex
    # alone: one key per distinct complex, each eliminated once
    B = betti_poset(lcm_lattice(cycle_edge_ideal(8)), F)
    assert not isinstance(B, FiniteAtomicLattice)
    intervals = [q for q in B.elements if q != B.bottom]
    complexes = {order_complex(B.open_interval(q)) for q in intervals}
    assert len(intervals) == 65 and len(complexes) == 11
    memo = {}
    calls = record_eliminations(monkeypatch)
    table = betti_numbers(B, F, memo)
    assert len(calls) == len(set(calls)) and set(calls) == complexes
    assert set(memo) == {("complex", K, F.characteristic) for K in complexes}
    # a second walk reads every interval from the memo
    keys = set(memo)
    calls.clear()
    assert betti_numbers(B, F, memo) == table
    assert set(memo) == keys and calls == []


# -- contribution ------------------------------------------------------------

def test_atoms_always_contribute():
    lat = lcm_lattice(parse_ideal("x*y; y*z; z*w"))
    for a in (frozenset({i}) for i in range(lat.n_atoms)):
        assert interval_ranks(lat, a) == {-1: 1}


def test_path_ideal_top_does_not_contribute():
    lat = lcm_lattice(parse_ideal("x*y; y*z; z*w"))
    assert interval_ranks(lat, lat.top) == {}


def test_interval_ranks_rejects_bottom():
    lat = lcm_lattice(parse_ideal("x; y"))
    with pytest.raises(ValueError):
        interval_ranks(lat, frozenset())


def test_twin_noncontributors(twin_a, twin_b):
    lat_a, lat_b = lcm_lattice(twin_a), lcm_lattice(twin_b)
    silent_a = [e for e in lat_a.elements if e and not interval_ranks(lat_a, e)]
    silent_b = [e for e in lat_b.elements if e and not interval_ranks(lat_b, e)]
    assert silent_a == [frozenset({1, 2, 3})]
    assert silent_b == [frozenset({0, 1, 2})]


def test_squarefree17_unique_noncontributor(squarefree17):
    lat = lcm_lattice(squarefree17)
    silent = [e for e in lat.elements if e and not interval_ranks(lat, e)]
    assert silent == [frozenset({0, 2, 5})]


# -- Betti posets ------------------------------------------------------------

def test_betti_poset_of_twins_equal_as_families(twin_a, twin_b):
    ba = betti_poset(lcm_lattice(twin_a))
    bb = betti_poset(lcm_lattice(twin_b))
    expected = tuple(sorted((frozenset(s) for s in TWIN_BETTI_SUPPORTS),
                            key=lambda e: (len(e), tuple(sorted(e)))))
    assert ba.elements == expected
    assert bb.elements == expected


def test_betti_poset_boolean_keeps_everything():
    lat = lcm_lattice(parse_ideal("x; y; z"))
    assert betti_poset(lat).elements == lat.elements


def test_betti_poset_squarefree17_removes_one(squarefree17):
    lat = lcm_lattice(squarefree17)
    b = betti_poset(lat)
    assert len(b) == 16
    (removed,) = set(lat.elements) - set(b.elements)
    assert removed == frozenset({0, 2, 5})


# -- Betti numbers -----------------------------------------------------------

def test_koszul_totals():
    assert betti_numbers(parse_ideal("x; y; z")).totals() == (1, 3, 3, 1)


def test_quadratic_plane_totals():
    assert betti_numbers(parse_ideal("x^2; x*y; y^2")).totals() == (1, 3, 2)


def test_hexagon_totals_both_characteristics(hexagon_ideal):
    assert betti_numbers(hexagon_ideal, Q).totals() == (1, 6, 9, 6, 2)
    assert betti_numbers(hexagon_ideal, FieldSpec(2)).totals() == (1, 6, 9, 6, 2)


def test_betti_table_graded_entries():
    table = betti_numbers(parse_ideal("x; y"))
    assert table.entries[(0, Monomial((0, 0)))] == 1
    assert table.entries[(1, Monomial((1, 0)))] == 1
    assert table.entries[(1, Monomial((0, 1)))] == 1
    assert table.entries[(2, Monomial((1, 1)))] == 1
    assert table.totals()[2] == 1
    d = table.to_json_dict()
    assert d["totals"] == [1, 2, 1]
    assert {"i": 2, "degree": [1, 1], "beta": 1} in d["graded"]


def test_squarefree17_totals(squarefree17):
    table = betti_numbers(squarefree17)
    assert table.totals() == (1, 6, 8, 3)
    # sixteen distinct (index, degree) pairs; the top alone carries rank 3
    assert len(table.entries) == 16


def interval_fold(P, F, memo):
    """Total Betti numbers folded straight from `interval_ranks`: one
    generator at 0̂, and index i + 2 sums h_i over every (0̂, q)."""
    totals = {0: 1}
    for q in P.elements:
        if q != P.bottom:
            for i, h in interval_ranks(P, q, F, memo).items():
                totals[i + 2] = totals.get(i + 2, 0) + h
    return tuple(totals.get(i, 0) for i in range(max(totals) + 1))


@given(st.lists(random_lattices(), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_betti_totals_are_the_interval_fold(lattices):
    memo = {}
    for F in (Q, FieldSpec(2)):
        for L in lattices:
            B = betti_poset(L, F, memo)
            for P in [L, B] + ranked_fragments(L) + ranked_fragments(B):
                assert (betti_numbers(P, F, memo).totals()
                        == interval_fold(P, F, memo)), P.elements


def random_ideals():
    """Small monomial ideals in three variables, generic or not."""
    vectors = st.tuples(*[st.integers(0, 3)] * 3).filter(any)
    return (st.lists(vectors, min_size=2, max_size=5)
            .map(lambda gens: minimalize(Monomial(g) for g in gens))
            .filter(lambda gens: len(gens) >= 2)
            .map(lambda gens: MonomialIdeal(("x", "y", "z"), gens)))


@given(random_ideals())
@settings(max_examples=30, deadline=None)
def test_labelled_and_unlabelled_lcm_lattices_have_equal_totals(I):
    L = lcm_lattice(I)
    unlabelled = FiniteAtomicLattice(L.elements, L.n_atoms)
    for F in (Q, FieldSpec(2)):
        labelled = betti_numbers(L, F)
        assert labelled == betti_numbers(I, F)
        assert labelled.totals() == betti_numbers(unlabelled, F).totals()


# -- rigidity ----------------------------------------------------------------

def test_koszul_is_rigid():
    assert rigidity_report(parse_ideal("x; y; z"))


def test_quadratic_plane_is_rigid():
    assert rigidity_report(parse_ideal("x^2; x*y; y^2"))


def test_hexagon_is_not_rigid(hexagon_ideal):
    report = rigidity_report(hexagon_ideal)
    assert not report
    assert report.rule == "interval-multiplicity"
    assert report.witnesses == (frozenset(range(6)),)  # the top: h_2 = 2


def test_twin_a_is_not_rigid(twin_a):
    report = rigidity_report(twin_a)
    assert not report
    assert report.rule == "interval-multiplicity"
    assert report.witnesses == (frozenset({3, 4, 5}),)


def test_squarefree17_not_rigid(squarefree17):
    report = rigidity_report(squarefree17)
    assert not report


def test_rigidity_report_truthiness():
    ok = rigidity_report(lcm_lattice(parse_ideal("x; y")))
    assert ok and ok.rule is None and ok.witnesses == ()


def test_contributing_index():
    # q contributes in resolution index i + 2 for the h_i of (0̂, q)
    lat = lcm_lattice(parse_ideal("x; y; z"))
    assert interval_ranks(lat, frozenset({0})) == {-1: 1}
    assert interval_ranks(lat, frozenset({0, 1})) == {0: 1}
    assert interval_ranks(lat, frozenset({0, 1, 2})) == {1: 1}


def test_stratification_on_rigid_example():
    lat = lcm_lattice(parse_ideal("x^2; x*y; y^2"))
    b = betti_poset(lat)
    idx = {q: resolution_index(lat, q) for q in b.elements if q}
    for p, q in itertools.combinations(idx, 2):
        if p < q:
            assert idx[p] < idx[q]
        if q < p:
            assert idx[q] < idx[p]


# -- deletion invariance, stability, transfer, acyclicity --------------------

@given(st.data())
@settings(max_examples=20, deadline=None)
def test_deleting_a_silent_element_preserves_homology_above(data):
    lat = data.draw(random_lattices())
    silent = [e for e in lat.elements if e and not interval_ranks(lat, e)]
    if not silent:
        return
    p = data.draw(st.sampled_from(silent))
    smaller = Poset(e for e in lat.elements if e != p)
    for q in lat.elements:
        if p < q:
            assert interval_ranks(lat, q) == interval_ranks(smaller, q)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_betti_poset_stable_under_silent_deletion(data):
    lat = data.draw(random_lattices())
    silent = [e for e in lat.elements if e and not interval_ranks(lat, e)]
    if not silent:
        return
    p = data.draw(st.sampled_from(silent))
    assert betti_poset(lat).elements == betti_poset(
        Poset(e for e in lat.elements if e != p)).elements


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_interval_transfer_to_betti_poset(data):
    lat = data.draw(random_lattices())
    b = betti_poset(lat)
    for q in b.elements:
        if q:
            assert interval_ranks(lat, q) == interval_ranks(b, q)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_betti_poset_minus_bottom_is_acyclic(data):
    lat = data.draw(random_lattices())
    b = betti_poset(lat)
    K = order_complex(Poset(e for e in b.elements if e != b.bottom))
    assert reduced_homology(K, Q).ranks == {}


def test_twin_betti_poset_minus_bottom_is_acyclic(twin_a):
    b = betti_poset(lcm_lattice(twin_a))
    K = order_complex(Poset(e for e in b.elements if e != b.bottom))
    assert reduced_homology(K, Q).ranks == {}


def test_rigidity_report_stops_at_its_first_witness(monkeypatch):
    # the interval rule fails at the twelfth of fourteen intervals, and
    # the walk reads no interval after it
    read = []
    ranks = betti.interval_ranks

    def counted(P, q, F, memo=None):
        read.append(q)
        return ranks(P, q, F, memo)

    monkeypatch.setattr(betti, "interval_ranks", counted)
    L = lcm_lattice(parse_ideal("a*c^2*d; b*d^2; a^2*d^2; a*c*d^2; a^2*b*d"))
    report = rigidity_report(L, FieldSpec(0))
    assert report.rule == "interval-multiplicity"
    assert len(L) - 1 == 14 and len(read) == 12
