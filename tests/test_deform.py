"""Rigid deformations: the simplicial meet-closure construction,
independent certification, and the bounded search with its scan log."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidres import betti, deform, posets
from rigidres.betti import (
    betti_numbers,
    betti_poset,
    interval_ranks,
    rigidity_of_intervals,
    rigidity_report,
)
from rigidres.deform import (
    Certificate,
    certify_rigid_deformation,
    search_rigid_deformation,
    simplicial_rigid_deformation,
)
from rigidres.frames import scarf_complex
from rigidres.homology import FieldSpec, SimplicialComplex
from rigidres.monomials import parse_ideal
from rigidres.posets import (
    FiniteAtomicLattice,
    _closure,
    automorphism_generators,
    face_lattice,
    join_preserving_map,
    lcm_lattice,
    meet_closure,
    orbit_of,
)

from conftest import (
    HEXAGON_TEXT,
    SQUAREFREE17_TEXT,
    TWIN_A_TEXT,
    TWIN_B_TEXT,
    random_generic_ideal,
)

Q = FieldSpec(0)


# --------------------------------------------------------------------------
# lattice-level Betti totals

def test_lattice_totals_match_ideal_route(squarefree17, hexagon_ideal):
    for I in (parse_ideal("x; y; z"), squarefree17, hexagon_ideal):
        L = lcm_lattice(I)
        unlabelled = FiniteAtomicLattice(L.elements, L.n_atoms)
        assert (betti_numbers(unlabelled, Q).totals()
                == betti_numbers(I, Q).totals())


@pytest.mark.parametrize("F", [Q, FieldSpec(2)], ids=["char0", "char2"])
@pytest.mark.parametrize("text", [TWIN_A_TEXT, TWIN_B_TEXT,
                                  SQUAREFREE17_TEXT, HEXAGON_TEXT],
                         ids=["twin_a", "twin_b", "squarefree17", "hexagon"])
def test_reader_reads_l_as_the_augmentation_that_adds_nothing(text, F):
    # the search takes L's elements, totals and contributors from here
    L = lcm_lattice(parse_ideal(text))
    read = deform._augmentation_reader(L, F, {})
    assert read(()) == (set(L.elements), betti_numbers(L, F).totals(),
                        {q: r for q, r in betti._intervals(L, F) if r})


def test_face_lattice_totals_are_the_f_vector():
    X = SimplicialComplex([{0, 1}, {1, 2}])
    P = face_lattice(X)
    assert betti_numbers(P, Q).totals() == (1, 3, 2)


# --------------------------------------------------------------------------
# simplicial construction

def test_koszul_deformation_along_full_simplex():
    I = parse_ideal("x; y; z")
    r = simplicial_rigid_deformation(I, SimplicialComplex([{0, 1, 2}]), Q)
    assert r.certificate
    assert set(r.target_lattice.elements) >= set(lcm_lattice(I).elements)
    assert r.added == ()
    assert len(r.target_lattice.elements) == 8
    assert betti_numbers(r.target_lattice, Q).totals() == (1, 3, 3, 1)


def test_path_deformation_along_its_scarf_path():
    I = parse_ideal("x*y; y*z; z*w")
    X = SimplicialComplex([{0, 1}, {1, 2}])
    r = simplicial_rigid_deformation(I, X, Q)
    assert r.certificate
    assert set(r.target_lattice.elements) >= set(lcm_lattice(I).elements)
    # the meet closure adds nothing: the target is the lcm-lattice itself
    assert set(r.target_lattice.elements) == set(lcm_lattice(I).elements)
    assert betti_numbers(r.target_lattice, Q).totals() == (1, 3, 2)


def test_scarf_deformation_of_plane_triple():
    I = parse_ideal("x^2; x*y; y^2")
    r = simplicial_rigid_deformation(I, scarf_complex(I), Q)
    assert r.certificate
    assert set(r.target_lattice.elements) >= set(lcm_lattice(I).elements)
    assert betti_numbers(r.target_lattice, Q).totals() == (1, 3, 2)
    assert r.certificate.route == "betti-poset-isomorphism"


def deformations_found():
    """Criterion 08's three simplicial deformations, and one found by
    the search on the join-preserving route, each with its source."""
    for text, X in (("x; y; z", SimplicialComplex([{0, 1, 2}])),
                    ("x*y; y*z; z*w", SimplicialComplex([{0, 1}, {1, 2}])),
                    ("x^2; x*y; y^2", None)):
        I = parse_ideal(text)
        X = scarf_complex(I) if X is None else X
        yield I, simplicial_rigid_deformation(I, X, Q)
    I = parse_ideal("x0*x1*x3; x0*x2; x2*x3")
    result = search_rigid_deformation(I, budget=1, F=Q).result
    assert result.certificate.route == "join-preserving"
    yield I, result


def test_deformation_keeps_the_lattice_it_certified():
    # the target lattice is L_J with J's degrees, and it contains L,
    # so the identity on atoms is the join-preserving map onto L
    for I, r in deformations_found():
        L = lcm_lattice(I)
        LJ = lcm_lattice(r.target_ideal)
        assert r.target_lattice == LJ
        assert r.target_lattice.degrees == LJ.degrees
        assert set(L.elements) <= set(r.target_lattice.elements)
        assert join_preserving_map(r.target_lattice, L) is not None


def test_oversized_complex_is_not_certified():
    # the full simplex supports a non-minimal resolution of this ideal;
    # the construction runs but honest certification must fail
    I = parse_ideal("x^2; x*y; y^2")
    r = simplicial_rigid_deformation(I, SimplicialComplex([{0, 1, 2}]), Q)
    assert r.certificate.rigid
    assert not r.certificate.betti_preserved
    assert not r.certificate.relabel_verified
    assert not r.certificate
    assert [sorted(e) for e in r.added] == [[0, 2]]


def test_non_acyclic_complex_is_rejected():
    I = parse_ideal("x; y")
    with pytest.raises(ValueError, match="not acyclic"):
        simplicial_rigid_deformation(I, SimplicialComplex([{0}, {1}]), Q)


def test_four_edge_path_scarf_cycle_is_rejected():
    # the Scarf complex of the 4-edge path ideal is a hollow square, so
    # its top restriction has a 1-cycle and cannot support the resolution
    I = parse_ideal("x*y; y*z; z*w; w*v")
    with pytest.raises(ValueError, match="not acyclic"):
        simplicial_rigid_deformation(I, scarf_complex(I), Q)


def test_vertex_set_must_match_generators():
    I = parse_ideal("x; y")
    with pytest.raises(ValueError, match="generator indices"):
        simplicial_rigid_deformation(I, SimplicialComplex([{0, 3}]), Q)


SILENT_EXAMPLE = "x1^4*x2^5*x3; x1*x2*x3^4; x1^5*x2^3*x3^2; x1^2*x2^2*x3^3"


def test_added_lattice_elements_are_homologically_silent():
    I = parse_ideal(SILENT_EXAMPLE)
    X = scarf_complex(I)
    P = face_lattice(X)
    r = simplicial_rigid_deformation(I, X, Q)
    T = r.target_lattice
    faces = set(P.elements)
    silent = [e for e in T.elements if e and e not in faces]
    assert len(silent) == 2
    for e in silent:
        assert interval_ranks(T, e, Q) == {}
    for e in P.elements:
        if e:
            assert interval_ranks(T, e, Q) == interval_ranks(P, e, Q)
    assert r.certificate
    assert betti_numbers(T, Q).totals() == betti_numbers(P, Q).totals()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_generic_ideals_deform_along_their_scarf_complex(seed):
    rng = random.Random(seed)
    I = random_generic_ideal(rng, max_generators=5)
    X = scarf_complex(I)
    r = simplicial_rigid_deformation(I, X, Q)
    assert r.certificate
    assert set(r.target_lattice.elements) >= set(lcm_lattice(I).elements)
    T = r.target_lattice
    faces = set(face_lattice(X).elements)
    for e in T.elements:
        if e and e not in faces:
            assert interval_ranks(T, e, Q) == {}


# --------------------------------------------------------------------------
# certification

def test_self_certification_of_rigid_ideal():
    I = parse_ideal("x; y; z")
    report = certify_rigid_deformation(I, I, Q)
    assert report
    assert report.route == "betti-poset-isomorphism"
    assert report.rigid and report.betti_preserved and report.relabel_verified


def test_certification_reads_either_ideal_as_its_lattice(twin_a, twin_b):
    LA, LB = lcm_lattice(twin_a), lcm_lattice(twin_b)
    expected = certify_rigid_deformation(twin_a, twin_b, Q)
    assert certify_rigid_deformation(LA, LB, Q) == expected
    assert certify_rigid_deformation(LA, twin_b, Q) == expected


def test_deformation_refuses_a_coordinatization_off_the_support_family(
        monkeypatch):
    # a ValueError rather than an assert, so `python -O` keeps the check
    L = lcm_lattice(parse_ideal("x; y"))
    monkeypatch.setattr(deform, "coordinatize",
                        lambda T: parse_ideal("x^2; x*y; y^2"))
    with pytest.raises(ValueError, match="support family"):
        deform._deformation(L, L, Q, {}, ())


def record_interval_complexes(monkeypatch):
    """Patch both interval-complex routes of `betti.interval_ranks` and
    return the list of the complexes they are asked to build, each as
    ("crosscut", the coatom set it is built on) or ("order", the
    fragment's elements)."""
    computed = []
    crosscut, order = betti.crosscut_complex, betti.order_complex

    def recorded_crosscut(coatoms):
        computed.append(("crosscut", coatoms))
        return crosscut(coatoms)

    def recorded_order(fragment):
        computed.append(("order", frozenset(fragment.elements)))
        return order(fragment)

    monkeypatch.setattr(betti, "crosscut_complex", recorded_crosscut)
    monkeypatch.setattr(betti, "order_complex", recorded_order)
    return computed


def coatom_set(L, q):
    """("crosscut", the maximal elements strictly between 0̂ and q),
    read off the elements of L, as `record_interval_complexes` records
    the crosscut of (0̂, q)."""
    inside = [p for p in L.elements if L.bottom < p < q]
    return ("crosscut",
            frozenset(p for p in inside if not any(p < r for r in inside)))


def record_memo_work(monkeypatch):
    """Patch what `betti._memo_ranks` reaches and return (the complexes
    asked for, as `record_interval_complexes` records them, the
    complexes eliminated, the memos handed to it by id)."""
    computed = record_interval_complexes(monkeypatch)
    eliminated, memos = [], {}
    ranks, memo_ranks = betti.homology_ranks, betti._memo_ranks

    def counted(K, F):
        eliminated.append(K)
        return ranks(K, F)

    def recorded(key, second, F, memo):
        memos[id(memo)] = memo
        return memo_ranks(key, second, F, memo)

    monkeypatch.setattr(betti, "homology_ranks", counted)
    monkeypatch.setattr(betti, "_memo_ranks", recorded)
    return computed, eliminated, memos


def assert_each_family_built_once(L, work):
    """One memo holds the first-level key of every coatom set of L, and
    each facet family is built and eliminated exactly once, every
    family of L among them."""
    computed, eliminated, memos = work
    (memo,) = memos.values()
    coatoms = {coatom_set(L, q)[1] for q in L.elements if q}
    assert {("crosscut", c, 0) for c in coatoms} <= set(memo)
    families = [betti.crosscut_facets(c)
                for tag, c in computed if tag == "crosscut"]
    assert len(families) == len(set(families))
    assert {betti.crosscut_facets(c) for c in coatoms} <= set(families)
    assert len(computed) == len(set(computed)) == len(eliminated)


def test_certification_computes_each_target_interval_once(monkeypatch):
    # lattice intervals are keyed by their coatoms and, on a miss, by
    # the crosscut's facets: no facet family is built twice, and every
    # coatom set of L_J has its key
    I = parse_ideal(SILENT_EXAMPLE)
    J = simplicial_rigid_deformation(I, scarf_complex(I), Q).target_ideal
    work = record_memo_work(monkeypatch)
    assert certify_rigid_deformation(J, I, Q, {})
    assert_each_family_built_once(lcm_lattice(J), work)


def test_search_computes_each_source_interval_once(monkeypatch, twin_a):
    # one memo serves L_I, every candidate and every certification
    work = record_memo_work(monkeypatch)
    search_rigid_deformation(twin_a, budget=1, F=Q)
    assert_each_family_built_once(lcm_lattice(twin_a), work)


@pytest.mark.parametrize("budget,F,expected", [
    # one elimination per distinct complex, reading one augmentation
    # per Aut(L)-orbit; 104 and 23 when every augmentation was read,
    # 235 and 93 when keyed by the coatom set alone, 742 and 123 when
    # keyed by the interval's elements, 21,404 and 1,121 when each
    # lattice kept its own memo
    (2, FieldSpec(2), 40),
    (1, Q, 11),
], ids=["budget2-char2", "budget1-char0"])
def test_hexagon_scan_computes_each_coatom_set_once(
        monkeypatch, hexagon_ideal, budget, F, expected):
    calls = []
    ranks = betti.homology_ranks

    def counted(K, F):
        calls.append(K)
        return ranks(K, F)

    monkeypatch.setattr(betti, "homology_ranks", counted)
    out = search_rigid_deformation(hexagon_ideal, budget=budget, F=F)
    assert not out
    assert len(calls) == len(set(calls))
    assert len(calls) == expected


@pytest.mark.parametrize("F", [Q, FieldSpec(2)], ids=["char0", "char2"])
def test_hexagon_scan_entries_equal_fresh_reads(hexagon_ideal, F):
    # entries copied across an orbit carry the numbers of their own read;
    # the contributors of the reads the search makes, one per orbit, are
    # those of the candidate lattice
    L = lcm_lattice(hexagon_ideal)
    out = search_rigid_deformation(hexagon_ideal, budget=2, F=F)
    read = deform._augmentation_reader(L, F, {})
    memo = {}
    orbits = set()
    assert len(out.augmentation_log) == 630
    for entry, (added, orbit) in zip(out.augmentation_log,
                                     deform._augmentations(L, 2)):
        assert entry.added == added
        closed, totals, contributors = read(entry.added)
        assert (entry.lattice_size, entry.totals) == (len(closed), totals)
        if orbit not in orbits:
            orbits.add(orbit)
            T = FiniteAtomicLattice(closed, L.n_atoms)
            assert contributors == {q: r for q, r
                                    in betti._intervals(T, F, memo) if r}
    assert len(orbits) == 74


def automorphism_count(L):
    """|Aut(L)| by brute force over every atom permutation."""
    family = set(L.elements)
    return sum({frozenset(sigma[a] for a in q) for q in family} == family
               for sigma in itertools.permutations(range(L.n_atoms)))


@pytest.mark.parametrize("fixture,augmentations,orbits,order", [
    ("hexagon_ideal", 630, 74, 12),  # the dihedral group of the 6-cycle
    ("twin_a", 1275, 750, 2),
])
def test_scan_orbits_come_from_automorphism_generators(
        request, fixture, augmentations, orbits, order):
    L = lcm_lattice(request.getfixturevalue(fixture))
    family = set(L.elements)
    generators = automorphism_generators(L)
    for sigma in generators:
        assert {frozenset(sigma[a] for a in q) for q in family} == family
    # the generated group is the whole of Aut(L)
    group = orbit_of(tuple(range(L.n_atoms)), lambda g: (
        tuple(sigma[a] for a in g) for sigma in generators))
    assert len(group) == automorphism_count(L) == order
    scan = list(deform._augmentations(L, 2))
    assert len(scan) == augmentations
    # orbits are numbered in the order the scan first meets them
    assert list(dict.fromkeys(orbit for _, orbit in scan)) == \
        list(range(orbits))


def test_automorphism_node_budget_keeps_what_it_found(
        monkeypatch, hexagon_ideal):
    L = lcm_lattice(hexagon_ideal)
    full = automorphism_generators(L)
    log = search_rigid_deformation(hexagon_ideal, 2, FieldSpec(2))
    for nodes in (0, 1, 10, 40, 80):
        monkeypatch.setattr(posets, "MAX_AUTOMORPHISM_NODES", nodes)
        found = automorphism_generators(L)
        assert found == full[:len(found)]
    assert 0 < len(found) < len(full)
    # a subgroup's orbits split Aut(L)'s, and with no generators at all
    # every augmentation is read: the log is the same
    for nodes, kept in ((80, 1), (1, 0)):
        monkeypatch.setattr(posets, "MAX_AUTOMORPHISM_NODES", nodes)
        assert len(automorphism_generators(L)) == kept
        assert search_rigid_deformation(hexagon_ideal, 2, FieldSpec(2)) == log


def record_certifications(monkeypatch):
    """Wrap `deform.certify_rigid_deformation` and return the list of
    candidates J the search asks it to certify, each the lcm-lattice of
    a candidate ideal."""
    asked = []
    certify = deform.certify_rigid_deformation

    def recorded(J, I, F=Q, memo=None):
        asked.append(J)
        return certify(J, I, F, memo)

    monkeypatch.setattr(deform, "certify_rigid_deformation", recorded)
    return asked


def record_certified_results(monkeypatch):
    """Wrap `deform._certified_result` and return the list of (T, added)
    the search passes it: the candidates it builds as lattices."""
    tried = []
    certified = deform._certified_result

    def recorded(T, L, F, memo, added):
        tried.append((T, added))
        return certified(T, L, F, memo, added)

    monkeypatch.setattr(deform, "_certified_result", recorded)
    return tried


@pytest.mark.parametrize("text,found", [
    # not rigid; adjoining the support {0, 1} deforms it
    ("x0*x1*x3; x0*x2; x2*x3", True),
    # three rigid candidates fail certification, and four candidates
    # that are not rigid are never certified
    ("x0*x2*x3*x4; x0*x1*x4; x1*x3; x1*x2", False),
])
def test_search_certifies_only_rigid_candidates(monkeypatch, text, found):
    asked = record_certifications(monkeypatch)
    assert bool(search_rigid_deformation(parse_ideal(text), 1, Q)) == found
    assert asked
    assert all(rigidity_report(LJ, Q).rigid for LJ in asked)


def test_search_skips_non_rigid_candidates_of_twin(monkeypatch, twin_a):
    # every candidate with matching totals here is not rigid
    asked = record_certifications(monkeypatch)
    out = search_rigid_deformation(twin_a, budget=1, F=Q)
    assert not out
    assert out.betti_poset_candidate is not None
    assert any(e.totals == out.base_totals for e in out.augmentation_log)
    assert asked == []


@pytest.mark.parametrize("F", [Q, FieldSpec(2)], ids=["char0", "char2"])
@pytest.mark.parametrize("fixture", ["twin_a", "squarefree17"])
def test_search_never_certifies_the_betti_poset_lattice(
        monkeypatch, request, fixture, F):
    # the Betti poset is a lattice other than L here, and it is rigid
    # exactly when L is, so the failed L has already decided it
    I = request.getfixturevalue(fixture)
    betti_family = set(betti_poset(lcm_lattice(I), F).elements)
    tried = record_certified_results(monkeypatch)
    out = search_rigid_deformation(I, 1, F)
    assert out.betti_poset_candidate is not None
    assert betti_family not in [set(T.elements) for T, _ in tried]


# each is not rigid and has a Betti poset that is an atomic lattice
# other than L: the four-generator ideal breaks the comparable-pair
# rule, the others the interval rule
BETTI_LATTICE_IDEALS = (TWIN_A_TEXT, TWIN_B_TEXT, SQUAREFREE17_TEXT,
                        "a^2*d; c*d; a*b*d^2; a^2*b",
                        "a*c^2*d; b*d^2; a^2*d^2; a*c*d^2; a^2*b*d")


def test_betti_poset_lattice_has_the_rigidity_report_of_l():
    # its open intervals have the homology of L's, and L's other
    # elements carry none: the same report, rule and witnesses included
    rules = set()
    for text in BETTI_LATTICE_IDEALS:
        L = lcm_lattice(parse_ideal(text))
        for F in (Q, FieldSpec(2)):
            TB = FiniteAtomicLattice(betti_poset(L, F).elements, L.n_atoms)
            assert set(TB.elements) != set(L.elements)
            report = rigidity_report(L, F)
            assert rigidity_report(TB, F) == report
            # the pairs in any order: the same verdict, and the same
            # comparable pair, since the rule sorts the contributors
            pairs = list(betti._intervals(L, F))
            shuffled = random.Random(len(text)).sample(pairs, len(pairs))
            for order in (pairs[::-1], shuffled):
                got = rigidity_of_intervals(order)
                assert got.rigid == report.rigid
                if report.rule == "comparable-pair":
                    assert got == report
            assert (betti_numbers(TB, F).totals()
                    == betti_numbers(L, F).totals())
            rules.add(report.rule)
    assert rules == {"interval-multiplicity", "comparable-pair"}


def test_search_certifies_a_rigid_input_once(monkeypatch):
    asked = record_certifications(monkeypatch)
    assert search_rigid_deformation(parse_ideal("x; y; z"), budget=1, F=Q)
    assert len(asked) == 1


def test_certify_twins_is_honest_about_rigidity(twin_a, twin_b):
    # the twins' shared Betti poset carries a doubled class, so neither
    # ideal is rigid; the relabel leg still verifies across the pair
    report = certify_rigid_deformation(twin_a, twin_b, Q)
    assert not report.rigid
    assert report.betti_preserved
    assert report.route == "betti-poset-isomorphism"
    assert report.relabel_verified
    assert not report


# a rigid candidate of twin A's budget-2 scan with twin A's totals,
# coordinatized: the only map to L_I is join-preserving, and it merges
# two elements of the candidate's Betti poset
TWIN_A_CANDIDATE = (
    "x2*x3*x4*x5*x6*x9*x10*x11*x12*x13*x14; x1*x3*x4*x5*x6*x8*x10*x11*x12*x14; "
    "x1*x2*x4*x5*x6*x7*x8*x11*x12*x14; x1*x2*x3*x5*x6*x7*x9*x12; "
    "x1*x2*x3*x4*x6*x7*x8*x9*x10*x11*x13; x1*x2*x3*x4*x5*x7*x8*x9*x10*x13")


def test_certification_refuses_a_merging_map_before_resolving(
        monkeypatch, twin_a):
    resolved = []
    monkeypatch.setattr(deform, "resolve", lambda *a: resolved.append(a))
    report = certify_rigid_deformation(parse_ideal(TWIN_A_CANDIDATE), twin_a, Q)
    assert report.rigid and report.betti_preserved
    assert report.route == "join-preserving"
    assert report.detail == ("relabel failed: mapping is not injective on "
                             "the resolution's elements")
    assert not report
    assert resolved == []


def test_certifying_a_non_rigid_ideal_against_itself_names_the_failure():
    # the Betti poset maps to itself, but the frame of a non-rigid
    # lattice need not be a complex, so the relabeled resolution fails
    I = parse_ideal("a*d^2; a*c*d; a*b*c; a*b^2*d")
    report = certify_rigid_deformation(I, I, Q)
    assert report.route == "betti-poset-isomorphism"
    assert not report.relabel_verified
    assert report.detail.startswith(
        "2 nonzero compositions (first: position 2, column {2,3,4}#0, "
        "row {}#0)")


def test_certify_mismatched_generator_counts():
    report = certify_rigid_deformation(
        parse_ideal("x; y"), parse_ideal("x; y; z"), Q)
    assert not report
    assert report.route == ""
    assert "not isomorphic" in report.detail


def test_certificate_dataclass_truthiness():
    # the verdict `_certified_result` and `deform-simplicial`'s exit read
    for r, b, v in itertools.product((False, True), repeat=3):
        assert bool(Certificate(r, b, v)) == (r and b and v)
    assert not Certificate()


# --------------------------------------------------------------------------
# bounded search

def test_search_returns_rigid_input_immediately():
    out = search_rigid_deformation(parse_ideal("x; y; z"), budget=1)
    assert out
    assert out.result.certificate
    assert out.result.added == ()
    assert out.augmentation_log == []


def test_search_rejects_negative_budget():
    with pytest.raises(ValueError):
        search_rigid_deformation(parse_ideal("x; y"), budget=-1)


def test_hexagon_scan_comes_back_empty(hexagon_ideal):
    out = search_rigid_deformation(hexagon_ideal, budget=1)
    assert not out
    assert out.result is None
    assert out.base_totals == (1, 6, 9, 6, 2)
    # 2^6 subsets minus the 29 lattice members = 35 candidate supports
    assert len(out.augmentation_log) == 35
    base = sum(out.base_totals)
    for entry in out.augmentation_log:
        assert sum(entry.totals) > base
    # the hexagon's Betti poset is not a lattice, so no extra candidate
    assert out.betti_poset_candidate is None


def test_squarefree17_search_logs_betti_poset_candidate(squarefree17):
    out = search_rigid_deformation(squarefree17, budget=0)
    assert not out
    entry = out.betti_poset_candidate
    assert entry is not None
    assert entry.lattice_size == 16
    assert entry.totals == (1, 6, 8, 3)
    assert out.augmentation_log == []


def test_search_log_is_deterministic(hexagon_ideal):
    first = search_rigid_deformation(hexagon_ideal, budget=1)
    second = search_rigid_deformation(hexagon_ideal, budget=1)
    assert [(e.added, e.lattice_size, e.totals)
            for e in first.augmentation_log] == \
           [(e.added, e.lattice_size, e.totals)
            for e in second.augmentation_log]


# not rigid; at budget 1 it has rigid candidates with its totals, and
# none certifies
FOUR_GENERATORS_TEXT = "x0*x2*x3*x4; x0*x1*x4; x1*x3; x1*x2"


@pytest.mark.parametrize("F", [Q, FieldSpec(2)], ids=["char0", "char2"])
@pytest.mark.parametrize("text,matching,lattices", [
    # all 35 augmentations raise the totals
    (HEXAGON_TEXT, 0, 0),
    # 20 of 50 keep them, none is rigid (20 were built while the
    # rigidity check ran on a lattice)
    (TWIN_A_TEXT, 20, 0),
    # 7 keep them, and the 3 rigid ones fail certification (7 built)
    (FOUR_GENERATORS_TEXT, 7, 3),
], ids=["hexagon", "twin_a", "four_generators"])
def test_scan_builds_lattices_only_for_matching_totals(
        monkeypatch, text, matching, lattices, F):
    # a candidate is built as a lattice only to be certified, and only
    # when it keeps the totals and its reader's verdict is rigid
    built = record_certified_results(monkeypatch)
    out = search_rigid_deformation(parse_ideal(text), 1, F)
    assert not out
    kept = [e for e in out.augmentation_log if e.totals == out.base_totals]
    assert len(kept) == matching
    assert len(built) == lattices
    assert all(rigidity_report(T, F).rigid for T, _ in built)


# the all-but-one-variable ideal in 8 variables: L is 0̂, the atoms and
# the top, Aut(L) is S_8, and all 246 augmentations keep the totals
ALL_BUT_ONE_8_TEXT = "; ".join("*".join(f"x{j}" for j in range(8) if j != i)
                               for i in range(8))


@pytest.mark.parametrize("F", [Q, FieldSpec(2)], ids=["char0", "char2"])
@pytest.mark.parametrize("text", [TWIN_A_TEXT, TWIN_B_TEXT, SQUAREFREE17_TEXT,
                                  HEXAGON_TEXT, ALL_BUT_ONE_8_TEXT,
                                  FOUR_GENERATORS_TEXT],
                         ids=["twin_a", "twin_b", "squarefree17", "hexagon",
                              "all_but_one_8", "four_generators"])
def test_scan_verdict_of_an_orbit_holds_for_each_member(monkeypatch, text, F):
    # rigidity is read once per Aut(L)-orbit, off the reader's
    # contributors; every member's closure, built fresh, has that verdict
    I = parse_ideal(text)
    L = lcm_lattice(I)
    read = deform._augmentation_reader(L, F, {})
    memo = {}  # the fresh lattices' own
    verdicts = []
    rigid = set()
    for added, orbit in deform._augmentations(L, 1):
        if orbit == len(verdicts):
            contributors = read(added)[2]
            verdicts.append(rigidity_of_intervals(contributors.items()).rigid)
        T = meet_closure(set(L.elements) | set(added), L.n_atoms)
        assert verdicts[orbit] == rigidity_report(T, F, memo).rigid
        if verdicts[orbit]:
            rigid.add(added)
    # the search certifies exactly the rigid ones that keep the totals
    # (three, of the four-generator ideal)
    recorded = record_certified_results(monkeypatch)
    out = search_rigid_deformation(I, 1, F)
    assert not out
    tried = [added for _, added in recorded]
    assert len(tried) == len(set(tried))
    assert set(tried) == {e.added for e in out.augmentation_log
                          if e.totals == out.base_totals and e.added in rigid}


@pytest.mark.parametrize("F", [Q, FieldSpec(2)], ids=["char0", "char2"])
def test_all_but_one_variable_scan_builds_no_lattice(monkeypatch, F):
    # no candidate is rigid, and the Betti poset is L itself, so no
    # lattice is built past L (nothing reaches certification, whose
    # isinstance checks the counting subclass would break)
    built = []

    class Counted(FiniteAtomicLattice):
        def __init__(self, members, n_atoms, degrees=None):
            built.append(members)
            super().__init__(members, n_atoms, degrees)

    monkeypatch.setattr(deform, "FiniteAtomicLattice", Counted)
    out = search_rigid_deformation(parse_ideal(ALL_BUT_ONE_8_TEXT), 1, F)
    assert len(out.augmentation_log) == 246
    assert all(e.totals == out.base_totals for e in out.augmentation_log)
    assert out.betti_poset_candidate is None
    assert built == []


def _scan_draws(n):
    """The support family of L and the added sets, over n atoms."""
    atoms = st.integers(0, n - 1)
    return (st.lists(st.sets(atoms, min_size=2), max_size=4),
            st.lists(st.sets(atoms), min_size=1, max_size=2))


# the scan tests' strategies for each atom count, built once
SCAN_DRAWS = {n: _scan_draws(n) for n in range(2, 6)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scan_reads_an_augmentation_as_its_meet_closure(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    family, sets = SCAN_DRAWS[n]
    L = meet_closure(data.draw(family), n)
    added = [frozenset(s) for s in data.draw(sets)]
    closed = _closure(added, start=L.elements)
    assert closed == _closure(set(L.elements) | set(added))
    T = meet_closure(set(L.elements) | set(added), n)
    for F in (Q, FieldSpec(2)):
        read = deform._augmentation_reader(L, F, {})
        family, totals, contributors = read(added)
        assert family == closed
        assert (len(family), totals) == (len(T), betti_numbers(T, F).totals())
        assert contributors == {q: r for q, r in betti._intervals(T, F) if r}


@pytest.mark.parametrize("F", [Q, FieldSpec(2)], ids=["char0", "char2"])
def test_reader_drops_an_added_set_inside_another(hexagon_ideal, F):
    # {0, 2} and {0, 2, 3} are both missing from the hexagon's lattice
    # and both lie below its element {0, 1, 2, 3}; only the larger is a
    # coatom of that interval in the closure, and the reader keys the
    # interval by that coatom set, as `interval_ranks` does on T
    L = lcm_lattice(hexagon_ideal)
    small, big = frozenset({0, 2}), frozenset({0, 2, 3})
    assert frozenset({0, 1, 2, 3}) in L and small not in L and big not in L
    memo = {}
    closed, totals, contributors = deform._augmentation_reader(L, F, memo)(
        [small, big])
    T = meet_closure(set(L.elements) | {small, big}, L.n_atoms)
    assert closed == set(T.elements)
    keys = set(memo)
    assert totals == betti_numbers(T, F, memo).totals()
    assert set(memo) == keys
    assert totals == betti_numbers(T, F).totals()
    assert contributors == {q: r for q, r in betti._intervals(T, F) if r}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scan_keys_intervals_as_interval_ranks_does(data):
    # after read(added), every interval of the candidate lattice is a
    # memo hit: a rigidity check on the built lattice computes nothing,
    # because the reader and `interval_ranks` make equal keys
    n = data.draw(st.integers(min_value=2, max_value=5))
    family, sets = SCAN_DRAWS[n]
    L = meet_closure(data.draw(family), n)
    added = [frozenset(s) for s in data.draw(sets)]
    calls = []
    ranks = betti.homology_ranks

    def counted(K, F):
        calls.append(K)
        return ranks(K, F)

    for F in (Q, FieldSpec(2)):
        memo = {}
        closed, totals, contributors = deform._augmentation_reader(
            L, F, memo)(added)
        T = meet_closure(closed, n)
        betti.homology_ranks = counted
        try:
            rigidity_report(T, F, memo)
            assert betti_numbers(T, F, memo).totals() == totals
            assert contributors == {q: r for q, r
                                    in betti._intervals(T, F, memo) if r}
        finally:
            betti.homology_ranks = ranks
        assert calls == []
