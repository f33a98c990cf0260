import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rigidres.betti import (
    betti_numbers,
    betti_poset,
    crosscut_complex,
    interval_ranks,
    rigidity_report,
)
from rigidres.homology import (FieldSpec, SimplicialComplex, homology_ranks,
                               reduced_homology)
from rigidres.monomials import Monomial, MonomialIdeal, minimalize, parse_ideal
from rigidres.posets import (FiniteAtomicLattice, Poset, lcm_lattice,
                             meet_closure, order_complex)

from test_frames import cycle_edge_ideal, resolution_index

Q = FieldSpec(0)

# Betti poset of both twin ideals: identical as support families
TWIN_BETTI_SUPPORTS = [
    [], [0], [1], [2], [3], [4], [5],
    [0, 1], [0, 3], [1, 2], [2, 3],
    [3, 4, 5], [0, 1, 2, 3, 4, 5],
]


def random_lattices():
    n = st.shared(st.integers(min_value=2, max_value=4), key="atoms")
    fams = n.flatmap(
        lambda k: st.lists(
            st.sets(st.integers(min_value=0, max_value=k - 1), min_size=2, max_size=k),
            min_size=0, max_size=4,
        ).map(lambda fam: (fam, k))
    )
    return fams.map(lambda t: meet_closure(t[0], t[1]))


# -- crosscut shortcut -------------------------------------------------------

def test_crosscut_of_atom_is_empty_complex():
    lat = lcm_lattice(parse_ideal("x; y"))
    K = crosscut_complex(lat, frozenset({0}))
    assert K.faces == frozenset({frozenset()})


def test_crosscut_of_boolean_top_is_sphere():
    lat = lcm_lattice(parse_ideal("x; y; z"))
    K = crosscut_complex(lat, frozenset({0, 1, 2}))
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
            assert crosscut_complex(L, q) == enumerated_crosscut(L, q), \
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
    via_crosscut = reduced_homology(crosscut_complex(lat, q), Q).ranks
    via_chains = reduced_homology(order_complex(lat.open_interval(q)), Q).ranks
    assert via_crosscut == via_chains


def test_crosscut_matches_order_complex_on_twin(twin_a):
    lat = lcm_lattice(twin_a)
    for q in lat.elements:
        if not q:
            continue
        assert reduced_homology(crosscut_complex(lat, q), Q).ranks == \
            reduced_homology(order_complex(lat.open_interval(q)), Q).ranks


# -- one memo across posets --------------------------------------------------

def ranked_fragments(P):
    """Every max_ranked fragment of P with P's bottom put back, as the
    length check of verify_frame reads them."""
    bot = P.bottom
    return [Poset(list(P.max_ranked(q).elements) + [bot])
            for q in P.elements if q != bot]


@given(st.lists(random_lattices(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_one_memo_serves_lattices_betti_posets_and_fragments(lattices):
    # interval ranks are keyed by the interval's elements, so lattices
    # (crosscut route) and fragments (order-complex route) share keys
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
                    assert homology_ranks(crosscut_complex(P, q), F) == fresh
                assert interval_ranks(P, q, F, memo) == fresh, sorted(q)
    assert {char for _, char in memo} == {0, 2}


# -- contribution ------------------------------------------------------------

def test_atoms_always_contribute():
    lat = lcm_lattice(parse_ideal("x*y; y*z; z*w"))
    for a in lat.atoms():
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
    assert table.total(2) == 1
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
    smaller = lat.without([p])
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
    assert betti_poset(lat).elements == betti_poset(lat.without([p])).elements


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
    K = order_complex(b.without([b.bottom]))
    assert reduced_homology(K, Q).ranks == {}


def test_twin_betti_poset_minus_bottom_is_acyclic(twin_a):
    b = betti_poset(lcm_lattice(twin_a))
    K = order_complex(b.without([b.bottom]))
    assert reduced_homology(K, Q).ranks == {}
