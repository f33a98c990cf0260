"""Frames, graded resolutions, relabeling, and the Taylor/Scarf oracles.

Frozen numbers come from three independent directions: hand Koszul
computations for two and three variables, the Taylor-complex oracle
(which never touches interval homology), and the classical
characteristic-2 jump of the projective-plane ideal.
"""

import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidres.betti import (
    betti_numbers,
    betti_poset,
    interval_ranks,
    rigidity_report,
)
from rigidres.frames import (
    Frame,
    GradedFreeResolution,
    ResolutionReport,
    build_frame,
    homogenize,
    relabel,
    resolve,
    scarf_complex,
    taylor_betti,
    verify_frame,
    verify_resolution,
)
from rigidres import frames, homology
from rigidres.cli import resolution_from_json, resolution_to_json
from rigidres.homology import (FieldSpec, axpy, homology_ranks,
                               reduce_cycle, reduced_homology)
from rigidres.monomials import Monomial, MonomialIdeal, minimalize, parse_ideal
from rigidres.posets import (FiniteAtomicLattice, is_isomorphic, lcm_lattice,
                             order_complex)

from conftest import (HEXAGON_TEXT, SQUAREFREE17_TEXT, TWIN_A_TEXT,
                      TWIN_B_TEXT, random_generic_ideal)

Q = FieldSpec(0)
GF2 = FieldSpec(2)

BOT = frozenset()


def pipeline(text, F=Q):
    I = parse_ideal(text)
    L = lcm_lattice(I)
    B = betti_poset(L, F)
    return I, L, B, build_frame(B, F)


# --------------------------------------------------------------------------
# frame structure on hand-checked examples

def test_koszul2_ranks_and_bottom_map():
    _, L, B, fr = pipeline("x; y")
    assert fr.ranks() == (1, 2, 1)
    assert fr.length == 2
    x, y = frozenset({0}), frozenset({1})
    assert fr.maps[1][(x, 0)] == {(BOT, 0): Q.coerce(1)}
    assert fr.maps[1][(y, 0)] == {(BOT, 0): Q.coerce(1)}


def test_koszul2_connecting_signs():
    _, L, B, fr = pipeline("x; y")
    top = frozenset({0, 1})
    col = fr.maps[2][(top, 0)]
    assert col == {
        (frozenset({0}), 0): Q.coerce(-1),
        (frozenset({1}), 0): Q.coerce(1),
    }


def test_block_accessor_matches_map_entries():
    _, L, B, fr = pipeline("x; y")
    top = frozenset({0, 1})
    assert fr.block(2, top, {0}) == [[Q.coerce(-1)]]
    assert fr.block(2, top, {1}) == [[Q.coerce(1)]]
    assert fr.block(1, {0}, BOT) == [[Q.coerce(1)]]
    with pytest.raises(ValueError):
        fr.block(2, top, BOT)


def test_koszul3_ranks():
    _, L, B, fr = pipeline("x; y; z")
    assert fr.ranks() == (1, 3, 3, 1)
    assert verify_frame(fr, ambient=L).ok


def test_scarf_triple_ranks():
    _, L, B, fr = pipeline("x^2; x*y; y^2")
    assert fr.ranks() == (1, 3, 2)
    assert verify_frame(fr, ambient=L).ok


def test_frame_over_full_lattice_matches_betti_poset_frame():
    # the path ideal's lcm-lattice has a silent top; building over the
    # whole lattice must give the same ranks as over the Betti poset
    I = parse_ideal("x*y; y*z; z*w")
    L = lcm_lattice(I)
    full = build_frame(L, Q)
    trimmed = build_frame(betti_poset(L, Q), Q)
    assert full.ranks() == trimmed.ranks() == (1, 3, 2)
    assert verify_frame(full, ambient=L).ok


def test_frame_over_a_non_rigid_full_lattice_is_refused(hexagon_ideal):
    # the hexagon's lcm-lattice has covers p ⋖ q with no homology below
    # p one degree down; the frame skips them and is built, but over
    # the whole lattice it is no complex
    L = lcm_lattice(hexagon_ideal)
    report = verify_frame(build_frame(L, Q), ambient=L)
    assert not report.ok
    assert report.summary().startswith(
        "12 nonzero compositions (first: position 3, column {1,2,3,4}#0, "
        "row {1}#0)")


def test_components_listed_in_canonical_order():
    _, L, B, fr = pipeline("x; y; z")
    for level, comps in fr.components.items():
        elems = [sorted(q) for q, _ in comps]
        assert elems == sorted(elems)
        assert all(mult == 1 for _, mult in comps)


def test_empty_levels_are_absent():
    _, _, _, fr = pipeline("x; y")
    assert set(fr.components) == {0, 1, 2}
    assert set(fr.maps) == {1, 2}


# --------------------------------------------------------------------------
# connecting-map blocks

def test_three_variable_blocks_are_unit_entries():
    _, L, B, fr = pipeline("x; y; z")
    top = frozenset({0, 1, 2})
    for pair in ({0, 1}, {0, 2}, {1, 2}):
        block = fr.block(3, top, pair)
        assert len(block) == 1 and len(block[0]) == 1
        assert block[0][0] in (Q.coerce(1), Q.coerce(-1))


def test_connecting_column_refuses_a_link_that_is_no_cycle():
    # a lone edge {0} < {0, 1} is no cycle: its link at {0, 1} is the
    # vertex {0}, whose boundary, the empty face, is not zero
    B = pipeline("x; y; z")[2]
    top, p = frozenset({0, 1, 2}), frozenset({0, 1})
    K_q = order_complex(B.open_interval(top))
    basis_q = reduced_homology(K_q, Q)
    basis_p = reduced_homology(order_complex(B.open_interval(p)), Q)
    elements = B.open_interval(top).elements
    k = K_q.faces_of_dim(1).index(
        (elements.index(frozenset({0})), elements.index(p)))
    with pytest.raises(ValueError, match="not a cycle"):
        frames._connecting_column(({k: 1}, 1), 1,
                                  frames._link_vertices(elements, p),
                                  basis_q, basis_p)


def split_boundary_column(z, i, p, elements, basis_q, basis_p, F):
    """The connecting map along p ⋖ q by the split route, kept as the
    reference for `frames._connecting_column`: split the i-cycle
    z = (vector, d) of (0̂, q) as a + b with a the chains inside (0̂, p]
    (their last, largest vertex is), take ∂a with the integer boundary
    columns of (0̂, q), renumber it into (0̂, p), the part of (0̂, q)
    below p, and reduce it in p's basis."""
    vec, d = z
    _, faces, _, column = basis_q._reducers[i][0]
    below = basis_q._reducers[i - 1][0][1]
    rows = basis_p._reducers[i - 1][0][2]
    renumber = {k: n for n, k in enumerate(
        k for k, e in enumerate(elements) if e < p)}
    boundary = {}
    for k, x in vec.items():
        if elements[faces[k][-1]] <= p:
            axpy(boundary, x, column(faces[k]), F)
    col = {}
    for k, x in boundary.items():
        assert renumber.keys() >= set(below[k]), "∂a leaves (0̂, p)"
        col[rows[tuple(renumber[v] for v in below[k])]] = x
    return reduce_cycle((col, d), i - 1, basis_p)


@pytest.mark.parametrize("F", [Q, GF2, FieldSpec(3)],
                         ids=["char0", "char2", "char3"])
def test_link_column_matches_the_split_boundary_route(F):
    compared = 0
    for text in (HEXAGON_TEXT, TWIN_A_TEXT, TWIN_B_TEXT, SQUAREFREE17_TEXT,
                 "; ".join(f"x{i}*x{i % 7 + 1}" for i in range(1, 8))):
        B = betti_poset(lcm_lattice(parse_ideal(text)), F)
        bot = B.bottom
        bases = {q: reduced_homology(order_complex(B.open_interval(q)), F)
                 for q in B.elements if q != bot}
        for q, basis_q in bases.items():
            elements = B.open_interval(q).elements
            for p in B.lower_covers(q):
                if p == bot:
                    continue
                link = frames._link_vertices(elements, p)
                for i, reps in basis_q.representatives.items():
                    if not bases[p].rank(i - 1):
                        continue
                    for z in reps:
                        assert frames._connecting_column(
                            z, i, link, basis_q, bases[p]
                        ) == split_boundary_column(
                            z, i, p, elements, basis_q, bases[p], F)
                        compared += 1
    assert compared > 100


def fresh_basis_frame(B, F):
    """The components and maps of `build_frame` with a fresh
    `reduced_homology` for every interval of B, kept as the reference
    for the bases `build_frame` shares between equal order complexes."""
    bot = B.bottom
    others = [q for q in B.elements if q != bot]
    bases = {q: reduced_homology(order_complex(B.open_interval(q)), F)
             for q in others}
    components = {0: ((bot, 1),)}
    for q in others:
        for i, h in bases[q].ranks.items():
            components[i + 2] = components.get(i + 2, ()) + ((q, h),)
    maps = {level: {} for level in sorted(components) if level}
    for q in others:
        elements = B.open_interval(q).elements
        for i, reps in bases[q].representatives.items():
            for j, z in enumerate(reps):
                col = {}
                for p in B.lower_covers(q):
                    if p == bot:
                        col[(bot, 0)] = F.one
                    elif bases[p].rank(i - 1):
                        coords = frames._connecting_column(
                            z, i, frames._link_vertices(elements, p),
                            bases[q], bases[p])
                        col.update(((p, k), c)
                                   for k, c in enumerate(coords) if c)
                maps[i + 2][(q, j)] = col
    return components, maps


@pytest.mark.parametrize("F", [Q, GF2, FieldSpec(3)],
                         ids=["char0", "char2", "char3"])
def test_shared_bases_give_the_fresh_basis_frame(monkeypatch, F):
    eliminated = []
    fresh = frames.reduced_homology

    def counted(K, F):
        eliminated.append(K)
        return fresh(K, F)

    monkeypatch.setattr(frames, "reduced_homology", counted)
    for text in (HEXAGON_TEXT, TWIN_A_TEXT, TWIN_B_TEXT, SQUAREFREE17_TEXT,
                 "; ".join(f"x{i}*x{i % 7 + 1}" for i in range(1, 8)),
                 "; ".join(f"x{i}*x{i % 8 + 1}" for i in range(1, 9))):
        B = betti_poset(lcm_lattice(parse_ideal(text)), F)
        eliminated.clear()
        frame = build_frame(B, F)
        assert (frame.components, frame.maps) == fresh_basis_frame(B, F)
        complexes = {order_complex(B.open_interval(q))
                     for q in B.elements if q != B.bottom}
        assert len(eliminated) == len(set(eliminated)) == len(complexes)
    # C8, the last: 65 intervals and 11 distinct order complexes
    assert len(B.elements) - 1 == 65 and len(complexes) == 11


def test_blocks_agree_with_maps_on_every_cover(hexagon_ideal):
    B = betti_poset(lcm_lattice(hexagon_ideal), Q)
    fr = build_frame(B, Q)
    rows_at = {level: dict(comps) for level, comps in fr.components.items()}
    for level in fr.maps:
        for q, mult in fr.components[level]:
            for p in B.lower_covers(q):
                block = fr.block(level, q, p)
                assert len(block) == rows_at[level - 1][p]
                for k, row in enumerate(block):
                    assert len(row) == mult
                    for j, value in enumerate(row):
                        stored = fr.maps[level].get((q, j), {}).get(
                            (p, k), Q.coerce(0))
                        assert value == stored


# --------------------------------------------------------------------------
# frame verification

def test_verify_checks_every_ambient_strand():
    _, L, B, fr = pipeline("x; y")
    report = verify_frame(fr, ambient=L)
    assert report.ok
    assert report.strands_checked == 3  # x, y, xy
    assert report.summary() == (
        "minimal multigraded resolution, 3 degree strands exact")


def test_verify_twin_frame(twin_a):
    L = lcm_lattice(twin_a)
    fr = build_frame(betti_poset(L, Q), Q)
    assert fr.ranks() == (1, 6, 6, 1)
    report = verify_frame(fr, ambient=L)
    assert report.ok and report.strands_checked == 13


def test_verify_hexagon_frame(hexagon_ideal):
    # the hexagon ideal is not rigid, yet its Betti-poset frame still
    # verifies: rigidity is sufficient, not necessary
    L = lcm_lattice(hexagon_ideal)
    fr = build_frame(betti_poset(L, Q), Q)
    assert fr.ranks() == (1, 6, 9, 6, 2)
    assert verify_frame(fr, ambient=L).ok


def test_verify_squarefree17_frame(squarefree17):
    L = lcm_lattice(squarefree17)
    fr = build_frame(betti_poset(L, Q), Q)
    assert fr.ranks() == (1, 6, 8, 3)
    assert verify_frame(fr, ambient=L).ok


def test_tampered_scalar_is_detected():
    _, L, B, fr = pipeline("x; y; z")
    level = 2
    key = next(iter(fr.maps[level]))
    broken_maps = {lv: {k: dict(col) for k, col in cols.items()}
                   for lv, cols in fr.maps.items()}
    rowkey, value = next(iter(broken_maps[level][key].items()))
    broken_maps[level][key][rowkey] = -value
    broken = Frame(fr.poset, Q, fr.components, broken_maps)
    assert not verify_frame(broken, ambient=L).ok


def test_dropped_entry_is_detected():
    _, L, B, fr = pipeline("x; y")
    broken_maps = {lv: {k: dict(col) for k, col in cols.items()}
                   for lv, cols in fr.maps.items()}
    top = frozenset({0, 1})
    del broken_maps[2][(top, 0)][(frozenset({0}), 0)]
    broken = Frame(fr.poset, Q, fr.components, broken_maps)
    report = verify_frame(broken, ambient=L)
    assert not report.ok
    assert report.bad_compositions or report.strand_failures


def test_zero_scalar_in_a_frame_is_no_pivot():
    """A zero entry is an absent entry, never a pivot: φ_1 of x set to
    0 leaves the strand at x (degree [1,0]) inexact, and the entry is
    named as one with no homogeneous monomial."""
    _, L, B, fr = pipeline("x; y")
    broken_maps = {lv: {k: dict(col) for k, col in cols.items()}
                   for lv, cols in fr.maps.items()}
    broken_maps[1][(frozenset({0}), 0)][(BOT, 0)] = Q.coerce(0)
    broken = Frame(fr.poset, Q, fr.components, broken_maps)
    assert verify_frame(broken, ambient=L).summary() == (
        "1 inhomogeneous entries (first: position 1, column {1}#0, "
        "row {}#0); 1 nonzero compositions (first: position 2, "
        "column {1,2}#0, row {}#0); 2 inexact strand positions (first: "
        "degree [1,0], position 0)")


def test_frame_summary_names_the_first_bad_composition():
    _, L, B, fr = pipeline("x; y; z")
    broken_maps = {lv: {k: dict(col) for k, col in cols.items()}
                   for lv, cols in fr.maps.items()}
    top = frozenset({0, 1, 2})
    broken_maps[3][(top, 0)][(frozenset({0, 1}), 0)] *= 2
    broken = Frame(fr.poset, Q, fr.components, broken_maps)
    assert verify_frame(broken, ambient=L).summary() == (
        "2 nonzero compositions (first: position 3, column {1,2,3}#0, "
        "row {1}#0)")


def test_frame_summary_names_the_first_strand_and_length_failures():
    _, L, B, fr = pipeline("x; y")
    components = {lv: c for lv, c in fr.components.items() if lv != 2}
    maps = {lv: m for lv, m in fr.maps.items() if lv != 2}
    truncated = Frame(fr.poset, Q, components, maps)
    # the strand at xy stops at position 1, one short of its length 2,
    # so it is inexact there
    assert verify_frame(truncated, ambient=L).summary() == (
        "1 inexact strand positions (first: degree [1,1], position 1)")


def _path_frame_with_entry(colkey, rowkey):
    """The frame of x*y; y*z; z*w with one more entry, 1, at position 2."""
    _, L, B, fr = pipeline("x*y; y*z; z*w")
    maps = {lv: {k: dict(col) for k, col in cols.items()}
            for lv, cols in fr.maps.items()}
    maps[2].setdefault(colkey, {})[rowkey] = Q.coerce(1)
    return L, B, Frame(fr.poset, Q, fr.components, maps)


@pytest.mark.parametrize("colkey, rowkey, kind, witness, text", [
    ((frozenset({0, 1}), 0), (frozenset({9}), 0), "homogenize_errors",
     ("no degree for element {10}",),
     "1 homogenize errors (first: no degree for element {10})"),
    ((frozenset({0, 1, 2}), 0), (frozenset({0}), 0), "homogeneity_failures",
     (2, (frozenset({0, 1, 2}), 0), (frozenset({0}), 0)),
     "1 inhomogeneous entries (first: position 2, column {1,2,3}#0, "
     "row {1}#0)"),
], ids=["row", "column"])
def test_an_entry_keyed_outside_the_components_fails_the_frame(
        colkey, rowkey, kind, witness, text):
    # the stray row {10} has no degree in the lattice, so the frame is
    # refused before any strand is read; the stray column {1,2,3} has a
    # degree but no basis key at position 2, so its entry is reported
    # once, as inhomogeneous, and enters no composition
    L, _, broken = _path_frame_with_entry(colkey, rowkey)
    report = verify_frame(broken, ambient=L)
    assert not report.ok
    assert getattr(report, kind) == [witness]
    assert report.summary() == text


def test_homogenize_names_an_element_with_no_degree():
    L, B, broken = _path_frame_with_entry((frozenset({0, 1}), 0),
                                          (frozenset({9}), 0))
    with pytest.raises(ValueError, match=r"no degree for element \{10\}"):
        homogenize(broken, {q: L.degree(q) for q in B.elements})


def test_frame_length_of_boolean_poset():
    _, L, B, _ = pipeline("x; y; z")
    assert len(betti_numbers(B, Q).totals()) - 1 == 3
    assert len(betti_numbers(L, Q).totals()) - 1 == 3


@pytest.mark.parametrize("F", [Q, GF2], ids=["char0", "char2"])
def test_strand_lengths_match_the_taylor_oracle(F):
    """On an exact frame, the strand below q ≠ 0̂ reaches the length of
    the minimal resolution of J_q, the ideal generated by the generators
    in q: the last position holding a component ≤ q is the length of
    taylor_betti(J_q), which never touches interval homology."""
    for text in (TWIN_A_TEXT, TWIN_B_TEXT, SQUAREFREE17_TEXT, HEXAGON_TEXT,
                 "x*y; y*z; z*w", "x^2; x*y; y^2"):
        check_strand_lengths(parse_ideal(text), F)
    for n in (7, 8):
        check_strand_lengths(cycle_edge_ideal(n), F)


def check_strand_lengths(I, F):
    L = lcm_lattice(I)
    B = betti_poset(L, F)
    fr = build_frame(B, F)
    assert verify_frame(fr, ambient=L).ok
    for q in B.elements:
        if q == B.bottom:
            continue
        in_strand = max(level for level, comps in fr.components.items()
                        if any(e <= q for e, _ in comps))
        J = MonomialIdeal(I.variables, [I.generators[i] for i in sorted(q)])
        assert in_strand == len(taylor_betti(J, F).totals()) - 1, sorted(q)


# --------------------------------------------------------------------------
# homogenization and resolution verification

def test_homogenize_koszul2_entries():
    _, L, B, fr = pipeline("x; y")
    res = homogenize(fr, {q: L.degree(q) for q in B.elements})
    assert res.ranks() == (1, 2, 1)
    x, y, top = frozenset({0}), frozenset({1}), frozenset({0, 1})
    d1 = res.differentials[1]
    assert d1[(x, 0)] == {(BOT, 0): (Q.coerce(1), Monomial((1, 0)))}
    assert d1[(y, 0)] == {(BOT, 0): (Q.coerce(1), Monomial((0, 1)))}
    d2 = res.differentials[2][(top, 0)]
    assert d2 == {
        (x, 0): (Q.coerce(-1), Monomial((0, 1))),
        (y, 0): (Q.coerce(1), Monomial((1, 0))),
    }


def test_homogenize_requires_every_degree():
    _, L, B, fr = pipeline("x; y")
    degrees = {q: L.degree(q) for q in B.elements if q != BOT}
    with pytest.raises(ValueError):
        homogenize(fr, degrees)


def test_homogenize_rejects_degree_collisions():
    _, L, B, fr = pipeline("x; y")
    flat = {q: Monomial((1, 1)) for q in B.elements}
    with pytest.raises(ValueError):
        homogenize(fr, flat)


def test_resolution_report_on_koszul2():
    _, L, B, fr = pipeline("x; y")
    res = homogenize(fr, {q: L.degree(q) for q in B.elements})
    report = verify_resolution(res)
    assert (report.ok and not report.unit_entries
            and not report.homogeneity_failures)
    assert report.strands_checked == 3


def test_tampered_resolution_flags_homogeneity_and_minimality():
    _, L, B, fr = pipeline("x; y")
    res = homogenize(fr, {q: L.degree(q) for q in B.elements})
    x = frozenset({0})
    col = res.differentials[1][(x, 0)]
    scalar, _ = col[(BOT, 0)]
    col[(BOT, 0)] = (scalar, Monomial((0, 0)))
    report = verify_resolution(res)
    assert report.homogeneity_failures
    assert report.unit_entries


def test_an_entry_outside_the_modules_is_reported_not_raised():
    # a row key that names no basis element of position 1 is an
    # inhomogeneous entry: it has no degree to compare
    _, L, B, fr = pipeline("x*y; y*z; z*w")
    res = homogenize(fr, {q: L.degree(q) for q in B.elements})
    colkey, col = next(iter(res.differentials[2].items()))
    stray = (frozenset({9}), 0)
    col[stray] = (1, Monomial((1, 0, 0, 0)))
    report = verify_resolution(res)
    assert not report.ok
    assert report.homogeneity_failures[0] == (2, colkey, stray)
    assert colkey == (frozenset({0, 1}), 0)
    assert report.summary() == ("1 inhomogeneous entries (first: position 2,"
                                " column {1,2}#0, row {10}#0)")


def test_degrees_of_two_lengths_are_refused():
    res = GradedFreeResolution(Q, {0: (((BOT, 0), Monomial((0, 0))),),
                                   1: (((frozenset({0}), 0),
                                        Monomial((1, 0, 0))),)}, {})
    with pytest.raises(ValueError, match="^ambient dimension mismatch: 2 vs 3$"):
        verify_resolution(res)


# one witness per failure list of each report, with the summary it gives
XY = (frozenset({0, 1}), 0)
ENTRY = (2, XY, (BOT, 0))
ENTRY_TEXT = "position 2, column {1,2}#0, row {}#0"
REPORT_FAILURES = [
    (ResolutionReport, "homogeneity_failures", ENTRY,
     f"1 inhomogeneous entries (first: {ENTRY_TEXT})"),
    (ResolutionReport, "unit_entries", ENTRY,
     f"1 unit entries (not minimal) (first: {ENTRY_TEXT})"),
    (ResolutionReport, "bad_compositions", ENTRY,
     f"1 nonzero compositions (first: {ENTRY_TEXT})"),
    (ResolutionReport, "strand_failures", (Monomial((1, 0, 1)), 2),
     "1 inexact strand positions (first: degree [1,0,1], position 2)"),
    (ResolutionReport, "module_failures", (1, "is empty"),
     "1 malformed modules (first: position 1 is empty)"),
    (ResolutionReport, "homogenize_errors", ("no degree for element {10}",),
     "1 homogenize errors (first: no degree for element {10})"),
]


@pytest.mark.parametrize("cls, name, witness, summary", REPORT_FAILURES,
                         ids=[f"{c.__name__}.{name}"
                              for c, name, _, _ in REPORT_FAILURES])
def test_one_failure_fails_the_report_and_names_its_witness(
        cls, name, witness, summary):
    report = cls(**{name: [witness]}, strands_checked=5)
    assert not report.ok
    assert report.summary() == summary


@pytest.mark.parametrize("cls", [ResolutionReport], ids=["ResolutionReport"])
def test_each_failure_list_is_in_its_report_table(cls):
    report = cls(strands_checked=5)
    assert report.ok and report.summary() == (
        "minimal multigraded resolution, 5 degree strands exact")
    lists = [f.name for f in dataclasses.fields(cls)
             if f.default_factory is list]
    table = [failures for failures, _, _ in report.failure_kinds()]
    assert len(table) == len(lists)
    assert all(failures is getattr(report, name)
               for failures, name in zip(table, lists))
    assert lists == [name for _, name, _, _ in REPORT_FAILURES]


def test_missing_strand_rank_is_detected():
    _, L, B, fr = pipeline("x; y")
    res = homogenize(fr, {q: L.degree(q) for q in B.elements})
    res.differentials[1][(frozenset({0}), 0)] = {}
    report = verify_resolution(res)
    assert report.strand_failures


def fresh_strands(res):
    """The reference strands: for each b in the lcm closure of the
    degrees at positions ≥ 1, in order, the vectors of degree ≤ b as
    position → their columns on numbered rows."""
    keys, degs, columns = {}, {}, {}
    for level, mods in res.modules.items():
        mods = sorted(mods, key=lambda kd: frames._key_order(kd[0]))
        keys[level] = {key: n for n, (key, _) in enumerate(mods)}
        degs[level] = [tuple(d) for _, d in mods]
    for level, ks in keys.items():
        rows, maps = keys.get(level - 1, {}), res.differentials.get(level, {})
        columns[level] = [{rows[r]: c for r, (c, _) in maps.get(key, {}).items()
                           if c and r in rows} for key in ks]
    values = set()
    for level, ds in degs.items():
        for a in ds if level >= 1 else ():
            values |= {a, *(tuple(map(max, a, b)) for b in values)}
    for b in sorted(values):
        yield b, {level: [col for d, col in zip(degs[level], cols)
                          if all(map(int.__le__, d, b))]
                  for level, cols in columns.items()}


def fresh_strand_check(res):
    """(strand failures, strands checked), each strand eliminated from
    scratch."""
    failures, count = [], 0
    for b, strand in fresh_strands(res):
        failures += [(Monomial(b), level)
                     for level in frames._strand_homology(res.field, strand)]
        count += 1
    return failures, count


def tampered(res):
    """Copies of a resolution with one scalar changed (by one, so a
    characteristic-2 scalar becomes zero), one entry dropped and one
    basis vector dropped, each at the first column of its top position
    in canonical order."""
    top = res.length
    colkey = min(res.differentials[top], key=frames._key_order)
    rowkey = min(res.differentials[top][colkey], key=frames._key_order)
    copies = []
    for change in ("scalar", "entry", "vector"):
        modules = dict(res.modules)
        maps = {level: {key: dict(col) for key, col in cols.items()}
                for level, cols in res.differentials.items()}
        col = maps[top][colkey]
        if change == "scalar":
            c, mono = col[rowkey]
            col[rowkey] = (res.field.coerce(c + 1), mono)
        elif change == "entry":
            del col[rowkey]
        else:
            modules[top] = tuple(kd for kd in modules[top] if kd[0] != colkey)
        copies.append(GradedFreeResolution(res.field, modules, maps))
    return copies


@pytest.mark.parametrize("F", [Q, GF2], ids=["char0", "char2"])
def test_strand_check_matches_fresh_elimination(F):
    # growing each strand's bases from a smaller strand's gives the
    # ranks, so the reports, of eliminating every strand from scratch
    for text in (HEXAGON_TEXT, TWIN_A_TEXT, TWIN_B_TEXT, SQUAREFREE17_TEXT):
        _, _, res = resolve(parse_ideal(text), F)
        for n, case in enumerate([res] + tampered(res)):
            report = verify_resolution(case)
            assert report.ok == (n == 0)
            assert (report.strand_failures, report.strands_checked
                    ) == fresh_strand_check(case)


def test_fractional_scalars_verify(hexagon_ideal):
    """Rescaling one basis vector at position 2 by 1/2 (its φ_2 column
    times 1/2, its φ_3 row entries times 2) keeps a resolution, now
    with genuinely fractional scalars."""
    _, _, res = resolve(hexagon_ideal, Q)
    key = res.modules[2][0][0]
    col = res.differentials[2][key]
    for rowkey, (c, mono) in col.items():
        col[rowkey] = (c / 2, mono)
    for above in res.differentials[3].values():
        if key in above:
            c, mono = above[key]
            above[key] = (2 * c, mono)
    assert {c for c, _ in col.values()} == {Fraction(1, 2), Fraction(-1, 2)}
    report = verify_resolution(res)
    assert report.ok
    assert report.strands_checked == 28
    rowkey, (c, mono) = next(iter(col.items()))
    col[rowkey] = (c * 2 / 3, mono)  # ±1/2 becomes ±1/3
    assert not verify_resolution(res).ok


def test_resolve_refuses_a_lattice_without_degrees():
    L = lcm_lattice(parse_ideal("x; y"))
    bare = FiniteAtomicLattice(L.elements, L.n_atoms)
    with pytest.raises(ValueError, match=r"^no degree for element \{\}$"):
        resolve(bare, Q)


def assert_first_module_is_the_atoms(res, L):
    """Position 1 of a resolution of L holds exactly one key ({i}, 0)
    per atom i of L, in the atom's degree: the generators."""
    first = res.modules[1]
    assert len(first) == L.n_atoms
    assert dict(first) == {(frozenset({i}), 0): L.degree({i})
                           for i in range(L.n_atoms)}


def test_resolve_accepts_the_lcm_lattice(twin_a):
    for I in (twin_a, parse_ideal("x^2; x*y; y^2")):
        for F in (Q, GF2):
            L, B, res = resolve(lcm_lattice(I), F)
            assert resolve(I, F) == (L, B, res)
            assert_first_module_is_the_atoms(res, L)


# --------------------------------------------------------------------------
# relabeling across a poset isomorphism

@pytest.mark.parametrize("text, shift", [("x; y; z", 0),
                                         ("x*y; y*z; z*w", 1)],
                         ids=["koszul3", "keys-from-1"])
def test_relabel_along_identity_is_identity(text, shift):
    # keys move as they are, so keys (q, j + shift) that do not start at
    # j = 0 come back unchanged, and the lattice's whole degree map serves
    _, L, B, fr = pipeline(text)
    res = homogenize(fr, L.degrees)

    def renamed(key):
        return (key[0], key[1] + shift)

    res = GradedFreeResolution(
        Q, {level: tuple((renamed(key), deg) for key, deg in mods)
            for level, mods in res.modules.items()},
        {level: {renamed(colkey): {renamed(rowkey): entry
                                   for rowkey, entry in col.items()}
                 for colkey, col in cols.items()}
         for level, cols in res.differentials.items()})
    assert verify_resolution(res).ok
    same = relabel(res, {q: q for q in B.elements}, L.degrees)
    assert verify_resolution(same).ok
    assert same.modules == res.modules
    assert same.differentials == res.differentials


def test_relabel_twins_and_round_trip(twin_a, twin_b):
    LM, LN = lcm_lattice(twin_a), lcm_lattice(twin_b)
    BM, BN = betti_poset(LM, Q), betti_poset(LN, Q)
    fr = build_frame(BM, Q)
    deg_m = {q: LM.degree(q) for q in BM.elements}
    deg_n = {q: LN.degree(q) for q in BN.elements}
    res_m = homogenize(fr, deg_m)
    assert verify_resolution(res_m).ok

    iso = is_isomorphic(BM, BN)
    assert iso is not None
    res_n = relabel(res_m, iso, deg_n)
    report = verify_resolution(res_n)
    assert report.ok and report.strands_checked == 13

    inverse = {v: k for k, v in iso.items()}
    back = relabel(res_n, inverse, deg_m)
    assert back.modules == res_m.modules
    assert back.differentials == res_m.differentials


def test_relabel_requires_injective_mapping():
    _, L, B, fr = pipeline("x; y")
    degrees = {q: L.degree(q) for q in B.elements}
    res = homogenize(fr, degrees)
    squash = {q: frozenset({0, 1}) for q in B.elements}
    with pytest.raises(ValueError):
        relabel(res, squash, degrees)


def test_relabel_requires_total_mapping():
    _, L, B, fr = pipeline("x; y")
    degrees = {q: L.degree(q) for q in B.elements}
    res = homogenize(fr, degrees)
    partial = {q: q for q in B.elements if q != BOT}
    with pytest.raises(ValueError):
        relabel(res, partial, degrees)


# --------------------------------------------------------------------------
# Taylor oracle and Scarf complex

def test_taylor_koszul2_graded_entries():
    I = parse_ideal("x; y")
    table = taylor_betti(I, Q)
    assert table.entries == {
        (0, Monomial((0, 0))): 1,
        (1, Monomial((1, 0))): 1,
        (1, Monomial((0, 1))): 1,
        (2, Monomial((1, 1))): 1,
    }


def test_taylor_hexagon_totals(hexagon_ideal):
    assert taylor_betti(hexagon_ideal, Q).totals() == (1, 6, 9, 6, 2)
    assert taylor_betti(hexagon_ideal, GF2).totals() == (1, 6, 9, 6, 2)


@pytest.mark.parametrize("text", [
    "x; y; z",
    "x^2; x*y; y^2",
    "x*y; y*z; z*w",
])
def test_taylor_matches_interval_homology(text):
    I = parse_ideal(text)
    assert taylor_betti(I, Q).entries == betti_numbers(I, Q).entries


def test_taylor_matches_interval_homology_on_corpus(
        twin_a, twin_b, squarefree17, hexagon_ideal):
    for I in (twin_a, twin_b, squarefree17, hexagon_ideal):
        assert taylor_betti(I, Q).entries == betti_numbers(I, Q).entries


def cycle_edge_ideal(n):
    return parse_ideal("; ".join(f"x{i}*x{i % n + 1}" for i in range(1, n + 1)))


def strongly_generic_ideal(seed, n, variables=4):
    """n generators whose exponents in each variable are a seeded
    permutation of 1..n (redrawn until no generator divides another)."""
    rng = random.Random(seed)
    while True:
        cols = [rng.sample(range(1, n + 1), n) for _ in range(variables)]
        gens = minimalize(Monomial(col[i] for col in cols) for i in range(n))
        if len(gens) == n:
            return MonomialIdeal(
                tuple(f"x{j + 1}" for j in range(variables)), gens)


@pytest.mark.parametrize("F", [Q, GF2], ids=["char0", "char2"])
def test_interval_route_matches_taylor_on_ladder(F):
    ladder = ([cycle_edge_ideal(n) for n in range(6, 13)]
              + [strongly_generic_ideal(n, n) for n in range(6, 11)])
    for I in ladder:
        assert betti_numbers(I, F) == taylor_betti(I, F), I.generators


@pytest.mark.parametrize("F", [Q, GF2], ids=["char0", "char2"])
def test_c9_resolution_survives_its_file_and_verifies(monkeypatch, F):
    """resolve → .res JSON → load → verify on the 9-cycle, against the
    Taylor totals (Taylor 1966; Bayer–Peeva–Sturmfels 1998).  The check
    grows each strand's bases from a smaller strand's, so it inserts
    fewer columns than its strands hold (958 against 2,262)."""
    I = cycle_edge_ideal(9)
    L, _, res = resolve(I, F)
    assert_first_module_is_the_atoms(res, L)
    text = json.dumps(resolution_to_json(res))
    back = resolution_from_json(json.loads(text), F)
    sizes = [sum(map(len, strand.values()))
             for _, strand in fresh_strands(back)]
    inserts = []
    insert = homology.SpanBasis.insert

    def counted(basis, col, tag=None):
        inserts.append(col)
        return insert(basis, col, tag)

    monkeypatch.setattr(homology.SpanBasis, "insert", counted)
    report = verify_resolution(back)
    assert report.ok and report.strands_checked == len(sizes)
    assert len(inserts) < sum(sizes)
    assert back.ranks() == taylor_betti(I, F).totals()


def test_checkers_run_no_kernel_code(monkeypatch):
    I = strongly_generic_ideal(7, 7)
    L, B, res = resolve(I, Q)
    frame = build_frame(B, Q)
    K = order_complex(B.open_interval(B.elements[-1]))
    table = taylor_betti(I, Q)

    def kernel_called(*args, **kwargs):
        raise AssertionError("elimination kernel called")

    monkeypatch.setattr(homology.Elimination, "__init__", kernel_called)
    with pytest.raises(AssertionError, match="kernel called"):
        homology_ranks(K, Q)
    with pytest.raises(AssertionError, match="kernel called"):
        reduced_homology(K, Q)
    assert taylor_betti(I, Q) == table
    assert verify_resolution(res).ok
    assert verify_frame(frame, ambient=L).ok


def test_checkers_eliminate_without_the_kernel(monkeypatch):
    """The checkers' strand ranks never reach the kernel's integer
    boundaries, its cleared pass, its reductions or its row
    arithmetic (`_axpy`)."""
    I = strongly_generic_ideal(7, 7)
    L, B, res = resolve(I, Q)
    frame = build_frame(B, Q)
    K = order_complex(B.open_interval(B.elements[-1]))
    table = taylor_betti(I, Q)
    report = verify_frame(frame, ambient=L)
    assert report.ok

    # patched innermost first, so each message names the newest patch
    for owner, name in ((homology, "_axpy"),
                        (homology.Elimination, "reduce"),
                        (homology, "_cleared_pass"),
                        (homology, "_integer_boundaries")):
        def kernel_called(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(owner, name, kernel_called)
        with pytest.raises(AssertionError, match=f"^{name} called"):
            homology_ranks(K, Q)
    assert taylor_betti(I, Q) == table
    assert verify_resolution(res).ok
    assert verify_frame(frame, ambient=L) == report


# scalars of the random strands: ints, integral Fractions, true
# fractions, and pivots other than ±1
STRAND_SCALARS = [1, -1, 2, -3, Fraction(1), Fraction(-2), Fraction(1, 2),
                  Fraction(-1, 2), Fraction(3, 4)]


def dense_rank(F, cols, n_rows):
    """Rank of sparse columns {row: scalar} over F, by Gaussian
    elimination on the dense matrix."""
    m = [[F.coerce(col.get(r, 0)) for col in cols] for r in range(n_rows)]
    p = F.characteristic
    rank = 0
    for c in range(len(cols)):
        pivot = next((r for r in range(rank, n_rows) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = F.inv(m[rank][c])
        for r in range(n_rows):
            if r != rank and m[r][c]:
                f = F.mul(m[r][c], inv)
                m[r] = [(x - f * y) % p if p else x - f * y
                        for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def sparse_strands(draw):
    """(F, sizes, strand): position → columns over int rows 0 … the
    size one position down, scalars from STRAND_SCALARS (those with a
    value mod p, as residues, in characteristic p)."""
    F = draw(st.sampled_from([Q, GF2, FieldSpec(3)]))
    p = F.characteristic
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=5))
    strand = {}
    for pos, n in enumerate(sizes):
        cols = []
        for _ in range(n):
            col = {}
            for r in range(sizes[pos - 1] if pos else 0):
                x = draw(st.sampled_from([0, 0, 0] + STRAND_SCALARS))
                if x and not (p and x.denominator % p == 0) and F.coerce(x):
                    col[r] = F.coerce(x) if p else x
            cols.append(col)
        strand[pos] = cols
    return F, sizes, strand


@settings(max_examples=150, deadline=None)
@given(sparse_strands())
def test_strand_homology_matches_dense_ranks(case):
    F, sizes, strand = case
    ranks = [dense_rank(F, cols, sizes[pos - 1] if pos else 0)
             for pos, cols in strand.items()] + [0]
    top = max((pos for pos, cols in strand.items() if cols), default=0)
    expected = {pos: sizes[pos] - ranks[pos] - ranks[pos + 1]
                for pos in range(top + 1)}
    assert frames._strand_homology(F, strand) == {
        pos: h for pos, h in expected.items() if h}


# sha256 of repr(frame.components) + repr(frame.maps): the golden tables
# cover only the small fixtures, so these freeze every scalar of larger
# frames
FRAME_DIGESTS = {
    "C7-char0": "ae274252404fc2f5551c9ffb0d97b2d88aef422935dc2b4986e9ff8554beea55",
    "C7-char2": "971dd488e0d7cf5c5d920bca17f89aa6ddf007583f108e1ca689b2ef895a297a",
    "C7-char3": "2f163d1e778b6e961a5e0f36802428532c5db8342f90b9e4a200e0865eee1672",
    "C8-char0": "4fca4c0cd6475992b52027828db993e2d26b9136a2f1e0151ebfeef8fd139251",
    "C8-char2": "b6593ba30f0cee78c71276449295ecbb275c2e0a345819b4ddd9977883501622",
    "C8-char3": "721d1b1b5b5dc3f8397f2a3eaccebb70918f195be7c0af9b42025bee98afda86",
    "generic77-char0":
        "1575f2d29e92d507731822f2d6d0fe5c3f47c8aea21e1d1bb71192dac04fe3fd",
    "C9-char0": "e420e049f4e213937068d527571270bad0573d90719962136f6f3c24b4133c4f",
    "C9-char2": "d975cdb368964d91375e9d8fe809474b82c83d552c5746053b1c0b40361b1986",
}


@pytest.mark.parametrize("name", FRAME_DIGESTS)
def test_frame_digests_are_frozen(name):
    ideal, char = name.split("-char")
    I = (strongly_generic_ideal(7, 7) if ideal == "generic77"
         else cycle_edge_ideal(int(ideal[1:])))
    F = FieldSpec(int(char))
    frame = build_frame(betti_poset(lcm_lattice(I), F), F)
    text = repr(frame.components) + repr(frame.maps)
    assert hashlib.sha256(text.encode()).hexdigest() == FRAME_DIGESTS[name]


def projective_plane_ideal():
    """Stanley-Reisner ideal of the 6-vertex triangulation of the real
    projective plane: the ten triangles missing from the complex."""
    import itertools

    facets = {frozenset(t) for t in [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]}
    gens = ["*".join(f"x{v}" for v in t)
            for t in itertools.combinations(range(1, 7), 3)
            if frozenset(t) not in facets]
    assert len(gens) == 10
    return parse_ideal("; ".join(gens))


def test_taylor_detects_characteristic_dependence():
    I = projective_plane_ideal()
    assert taylor_betti(I, Q).totals() == (1, 10, 15, 6)
    assert taylor_betti(I, GF2).totals() == (1, 10, 15, 7, 1)
    assert taylor_betti(I, FieldSpec(3)).totals() == (1, 10, 15, 6)


def test_interval_homology_tracks_characteristic():
    I = projective_plane_ideal()
    for F in (Q, GF2, FieldSpec(3)):
        assert betti_numbers(I, F).entries == taylor_betti(I, F).entries


def subsets_by_lcm_reference(I):
    """Every generator subset in `combinations` order, its lcm folded
    from the unit monomial with no shared work, grouped by that lcm."""
    gens = I.generators
    by_lcm = {}
    for r in range(len(gens) + 1):
        for S in itertools.combinations(range(len(gens)), r):
            b = (0,) * I.ambient_dim
            for i in S:
                b = tuple(max(x, y) for x, y in zip(b, gens[i]))
            by_lcm.setdefault(Monomial(b), []).append(S)
    return by_lcm


def assert_subsets_match_reference(I):
    # order included: Scarf reads subsets[0] and strands follow the order
    got = frames._subsets_by_lcm(I)
    assert list(got.items()) == list(subsets_by_lcm_reference(I).items())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_subsets_by_lcm_matches_scratch_fold(seed):
    assert_subsets_match_reference(
        random_generic_ideal(random.Random(seed), max_generators=7))


def test_subsets_by_lcm_matches_scratch_fold_on_fixtures(
        twin_a, twin_b, squarefree17, hexagon_ideal):
    for I in (twin_a, twin_b, squarefree17, hexagon_ideal,
              cycle_edge_ideal(10), projective_plane_ideal(),
              parse_ideal("x^2; x*y; y^2")):
        assert_subsets_match_reference(I)


def test_taylor_generator_bound():
    names = [f"x{i}" for i in range(1, 14)]
    gens = ["*".join(n for j, n in enumerate(names) if j != i)
            for i in range(13)]
    I = parse_ideal("; ".join(gens))
    assert len(I.generators) == 13
    with pytest.raises(ValueError):
        taylor_betti(I, Q)


def test_scarf_full_simplex():
    I = parse_ideal("x; y; z")
    K = scarf_complex(I)
    assert len(K.faces) == 8 and K.dim == 2


def test_scarf_collision_drops_faces():
    I = parse_ideal("x^2; x*y; y^2")
    K = scarf_complex(I)
    assert {tuple(sorted(f)) for f in K.faces} == {
        (), (0,), (1,), (2,), (0, 1), (1, 2)}


def test_scarf_hexagon_is_too_small_to_support(hexagon_ideal):
    K = scarf_complex(hexagon_ideal)
    assert len(K.faces) == 16 and K.dim == 1
    # a support of the minimal resolution would need cells up to dim 3
    assert K.dim < len(betti_numbers(hexagon_ideal, Q).totals()) - 2


def test_scarf_faces_are_contributing_lattice_elements(squarefree17):
    for I in (parse_ideal("x*y; y*z; z*w"), squarefree17):
        L = lcm_lattice(I)
        K = scarf_complex(I)
        members = set(L.elements)
        for face in K.faces:
            if not face:
                continue
            assert frozenset(face) in members
            assert interval_ranks(L, frozenset(face), Q)


def test_path_scarf_matches_betti_poset():
    I = parse_ideal("x*y; y*z; z*w")
    B = betti_poset(lcm_lattice(I), Q)
    scarf_faces = {frozenset(f) for f in scarf_complex(I).faces if f}
    assert scarf_faces == set(B.elements) - {BOT}


# --------------------------------------------------------------------------
# laws that rigid frames must satisfy

def resolution_index(P, q, F=Q):
    """i + 2 for the homological index i of (0̂, q), which must carry
    exactly one rank-one homology group."""
    ranks = interval_ranks(P, q, F)
    assert sum(ranks.values()) == 1, (sorted(q), ranks)
    ((i, _),) = ranks.items()
    return i + 2


def assert_rigid_frame_laws(L, B, fr):
    index = {q: resolution_index(B, q)
             for q in B.elements if q != B.bottom}
    for p, q in B.cover_pairs():
        if p == B.bottom:
            continue
        assert index[q] > index[p]  # stratification along chains
        if p not in set(B.max_ranked(q).elements):
            assert index[q] - index[p] > 1  # degree gap
            for level, cols in fr.maps.items():
                for (src, _), col in cols.items():
                    if src == q:
                        assert not any(row == p for row, _ in col)


@pytest.mark.parametrize("text", [
    "x; y",
    "x; y; z",
    "x^2; x*y; y^2",
    "x*y; y*z; z*w",
])
def test_rigid_laws_on_fixtures(text):
    I, L, B, fr = pipeline(text)
    assert rigidity_report(I, Q).rigid
    assert_rigid_frame_laws(L, B, fr)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_generic_ideals_resolve_minimally(seed):
    rng = random.Random(seed)
    I = random_generic_ideal(rng, max_generators=5)
    L = lcm_lattice(I)
    assert rigidity_report(I, Q).rigid
    B = betti_poset(L, Q)
    fr = build_frame(B, Q)
    assert fr.ranks() == taylor_betti(I, Q).totals()
    assert verify_frame(fr, ambient=L).ok
    res = homogenize(fr, {q: L.degree(q) for q in B.elements})
    report = verify_resolution(res)
    assert report.ok and not report.unit_entries
    assert_rigid_frame_laws(L, B, fr)
