"""End-to-end acceptance checks, one test per numbered criterion.

Every test carries a wall-clock budget and asserts exact values (no
tolerances anywhere: all arithmetic is over exact fields).  The
terminal summary prints one PASS/FAIL line per criterion; see the hook
in conftest.py.

Criterion 3 compares the two truncations of the 17-element lattice.
The Betti poset deletes its single homologically silent element,
{0, 2, 5}; max_ranked keeps it, because it is the only level-3 element
and so lies on every maximum-length chain below the top.  max_ranked
instead drops nine contributing elements, so neither truncation
contains the other, and the Betti poset, unlike the lattice, is ranked.
"""

import functools
import random
import time

from rigidres.betti import (betti_numbers, betti_poset, interval_ranks,
                            rigidity_report)
from rigidres.cli import main as cli_main
from rigidres.deform import (search_rigid_deformation,
                             simplicial_rigid_deformation)
from rigidres.frames import (build_frame, homogenize, relabel, scarf_complex,
                             taylor_betti, verify_frame, verify_resolution)
from rigidres.homology import FieldSpec, SimplicialComplex, reduced_homology
from rigidres.monomials import Monomial, MonomialIdeal, minimalize, parse_ideal
from rigidres.posets import (Poset, face_lattice, is_isomorphic,
                             join_preserving_map, lcm_lattice, meet_closure,
                             order_complex)

from conftest import (HASSE_17, HASSE_TWIN_A, HASSE_TWIN_B, HEXAGON_TEXT,
                      SQUAREFREE17_TEXT, TWIN_A_TEXT, TWIN_B_TEXT,
                      random_generic_ideal)
from test_frames import assert_rigid_frame_laws, projective_plane_ideal
from test_posets import hasse_matches

Q = FieldSpec(0)
GF2 = FieldSpec(2)
SEED = 20260825


def random_small_ideal(rng):
    """Arbitrary (not necessarily generic) small monomial ideal."""
    while True:
        d = rng.randint(2, 4)
        gens = [Monomial(rng.randint(0, 3) for _ in range(d))
                for _ in range(rng.randint(2, 5))]
        gens = minimalize(g for g in gens if any(g))
        if len(gens) >= 2:
            return MonomialIdeal(tuple(f"x{j + 1}" for j in range(d)), gens)


def chains_ending_at(elements, q):
    """Every chain of nonempty members of `elements` that ends at q,
    ordered by plain set inclusion (no level or rank code)."""
    chains = [(q,)]
    for p in elements:
        if p and p < q:
            chains += [c + (q,) for c in chains_ending_at(elements, p)]
    return chains


@functools.lru_cache(maxsize=None)
def rigid_instances():
    """Three canned rigid ideals plus 100 seeded strongly generic ones,
    each with its lattice, Betti poset, and frame (shared by the rigid
    construction and rigid-law criteria)."""
    ideals = [parse_ideal(t) for t in ("x; y", "x; y; z", "x^2; x*y; y^2")]
    rng = random.Random(SEED)
    ideals += [random_generic_ideal(rng) for _ in range(100)]
    out = []
    for I in ideals:
        L = lcm_lattice(I)
        B = betti_poset(L, Q)
        out.append((I, L, B, build_frame(B, Q)))
    return out


def test_criterion_01_hexagon_totals_by_both_routes(tmp_path, capsys):
    start = time.monotonic()
    I = parse_ideal(HEXAGON_TEXT)
    for F in (Q, GF2):
        assert betti_numbers(I, F).totals() == (1, 6, 9, 6, 2)
        assert taylor_betti(I, F).totals() == (1, 6, 9, 6, 2)
    path = tmp_path / "hexagon.ideal"
    path.write_text(HEXAGON_TEXT + "\n")
    for command in ("betti-numbers", "taylor"):
        for char in ("0", "2"):
            assert cli_main([command, str(path), "--char", char]) == 0
            assert capsys.readouterr().out == "totals: 1,6,9,6,2\n"
    assert time.monotonic() - start < 5


def test_criterion_02_twin_lattices_and_betti_posets():
    start = time.monotonic()
    LM = lcm_lattice(parse_ideal(TWIN_A_TEXT))
    LN = lcm_lattice(parse_ideal(TWIN_B_TEXT))
    assert len(LM.elements) == 14 and len(LN.elements) == 14
    assert hasse_matches(LM, HASSE_TWIN_A)
    assert hasse_matches(LN, HASSE_TWIN_B)
    BM, BN = betti_poset(LM, Q), betti_poset(LN, Q)
    assert set(LM.elements) - set(BM.elements) == {frozenset({1, 2, 3})}
    assert set(LN.elements) - set(BN.elements) == {frozenset({0, 1, 2})}
    assert is_isomorphic(BM, BN) is not None
    # atom-bijective join-preserving maps: all 720 bijections, both ways
    assert join_preserving_map(LM, LN) is None
    assert join_preserving_map(LN, LM) is None
    assert time.monotonic() - start < 10


def test_criterion_03_silent_element_vs_max_ranked():
    start = time.monotonic()
    L = lcm_lattice(parse_ideal(SQUAREFREE17_TEXT))
    assert len(L.elements) == 17
    assert hasse_matches(L, HASSE_17)
    B = betti_poset(L, Q)
    removed = set(L.elements) - set(B.elements)
    assert removed == {frozenset({0, 2, 5})}
    silent = frozenset({0, 2, 5})
    kept = set(L.max_ranked(L.top).elements)
    # max_ranked keeps exactly the union of the longest chains to the
    # top, read off plain set inclusion; the silent element is the only
    # level-3 element, so every longest chain passes through it
    chains = chains_ending_at(L.elements, L.top)
    longest = max(map(len, chains))
    assert longest == L.level(L.top) == 4
    assert kept == {p for c in chains if len(c) == longest for p in c}
    assert (frozenset({0}), frozenset({0, 5}), silent, L.top) in chains
    assert silent in kept
    # max_ranked drops nine elements that the Betti poset keeps, each
    # carrying homology: neither truncation contains the other
    dropped = set(L.elements) - kept - {L.bottom}
    assert len(dropped) == 9
    assert dropped <= set(B.elements)
    assert all(interval_ranks(L, q, Q) for q in dropped)
    # deleting the silent element leaves a ranked poset of length 3
    assert B.level(B.top) == 3
    assert len(B.max_ranked(B.top)) == len(B.elements) - 1 == 15
    assert time.monotonic() - start < 10


def test_criterion_04_rigid_construction_pipeline():
    start = time.monotonic()
    instances = rigid_instances()
    assert len(instances) == 103
    for I, L, B, frame in instances:
        assert rigidity_report(I, Q).rigid
        assert frame.ranks() == taylor_betti(I, Q).totals()
        report = verify_frame(frame, ambient=L)
        assert not report.bad_compositions and report.ok
        res = homogenize(frame, {e: L.degree(e) for e in B.elements})
        assert all(not mono.is_unit
                   for cols in res.differentials.values()
                   for col in cols.values()
                   for _, mono in col.values())
    assert time.monotonic() - start < 60


def test_criterion_05_deletion_invariance_and_transfer():
    rng = random.Random(SEED)
    lattices = []
    for k in range(200):
        if k % 2:
            n = rng.randint(3, 5)
            fam = [set(rng.sample(range(n), rng.randint(2, n)))
                   for _ in range(rng.randint(0, 5))]
            lattices.append(meet_closure(fam, n))
        else:
            lattices.append(lcm_lattice(random_small_ideal(rng)))
    deletions = 0
    for lat in lattices:
        B = betti_poset(lat, Q)
        for q in B.elements:
            if q:
                assert interval_ranks(lat, q, Q) == interval_ranks(B, q, Q)
        silent = [e for e in lat.elements
                  if e and not interval_ranks(lat, e, Q)]
        for p in silent:
            smaller = Poset(e for e in lat.elements if e != p)
            deletions += 1
            for q in lat.elements:
                if p < q:
                    assert (interval_ranks(lat, q, Q)
                            == interval_ranks(smaller, q, Q))
            assert betti_poset(smaller, Q).elements == B.elements
    assert len(lattices) == 200 and deletions >= 50


def test_criterion_06_rigid_frame_laws():
    for _, L, B, frame in rigid_instances():
        assert_rigid_frame_laws(L, B, frame)


def test_criterion_07_relabeled_resolution():
    M, N = parse_ideal(TWIN_A_TEXT), parse_ideal(TWIN_B_TEXT)
    LM, LN = lcm_lattice(M), lcm_lattice(N)
    BM, BN = betti_poset(LM, Q), betti_poset(LN, Q)
    res_m = homogenize(build_frame(BM, Q), {e: LM.degree(e) for e in BM.elements})
    iso = is_isomorphic(BM, BN)
    assert iso is not None
    res_n = relabel(res_m, iso, {e: LN.degree(e) for e in LN.elements})
    report = verify_resolution(res_n)
    assert report.ok
    assert sorted(deg for _, deg in res_n.modules[1]) == sorted(N.generators)


def test_criterion_08_simplicial_rigid_deformations():
    start = time.monotonic()
    cases = [
        ("x; y; z", SimplicialComplex([{0, 1, 2}])),
        ("x*y; y*z; z*w", SimplicialComplex([{0, 1}, {1, 2}])),
        ("x^2; x*y; y^2", None),  # scarf complex
    ]
    for text, X in cases:
        I = parse_ideal(text)
        if X is None:
            X = scarf_complex(I)
        result = simplicial_rigid_deformation(I, X, Q)
        assert result.certificate
        T = result.target_lattice
        assert (betti_numbers(T, Q).totals()
                == betti_numbers(face_lattice(X), Q).totals())
        # T contains L: the identity on atoms is join-preserving T -> L
        assert set(T.elements) >= set(lcm_lattice(I).elements)
    assert time.monotonic() - start < 10


def test_criterion_09_hexagon_negative_control():
    start = time.monotonic()
    I = parse_ideal(HEXAGON_TEXT)
    assert not rigidity_report(I, Q).rigid
    outcome = search_rigid_deformation(I, budget=1, F=Q)
    assert not outcome
    base = sum(outcome.base_totals)
    assert len(outcome.augmentation_log) == 35
    assert all(sum(entry.totals) > base
               for entry in outcome.augmentation_log)
    assert time.monotonic() - start < 120


def test_criterion_10_betti_poset_acyclicity():
    ideals = [parse_ideal(t) for t in (
        "x; y", "x; y; z", "x^2; x*y; y^2", "x*y; y*z",
        "x*y; y*z; z*w", "x*y; y*z; z*w; w*v",
        HEXAGON_TEXT, TWIN_A_TEXT, TWIN_B_TEXT, SQUAREFREE17_TEXT,
    )] + [projective_plane_ideal()]
    rng = random.Random(SEED)
    ideals += [random_generic_ideal(rng, max_generators=5) for _ in range(10)]
    ideals += [random_small_ideal(rng) for _ in range(10)]
    for I in ideals:
        L = lcm_lattice(I)
        for F in (Q, GF2):
            B = betti_poset(L, F)
            K = order_complex(Poset(e for e in B.elements if e != B.bottom))
            assert reduced_homology(K, F).ranks == {}
