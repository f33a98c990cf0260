"""Command-line surface: file I/O, JSON schemas, and DOT diagram export.

Dispatch: each subparser in :func:`build_parser` names its handler with
``set_defaults(run=cmd_…)``.  :func:`main` parses the command line, sets
``ns.field`` from ``--char`` (0 when it is not given, ``ns.char`` None)
once, and calls ``ns.run(ns)``; handlers
read their arguments (``ns.input``, ``ns.source``, ``ns.json``, …)
straight from the namespace.

File formats
------------
``.ideal``    text; generators separated by ``;`` or newlines, ``#`` starts
              a comment (see :func:`rigidres.monomials.parse_ideal`).
``.lattice``  JSON ``{n_atoms, supports, degrees?}``.  Supports are lists
              of 1-based atom indices (the library is 0-based internally);
              optional degrees are exponent vectors aligned with supports.
``.res``      JSON ``{characteristic?, modules, differentials}``.  Module
              entries carry a degree vector and a source element;
              differential entries are (row, col, scalar, monomial) with
              row/col indexing into the adjacent module arrays and scalars
              as strings, each exactly ``-?digits(/digits)?`` (the
              schema's pattern is the one statement of that rule).  A
              file written with ``-o`` records the characteristic of its
              field, and ``verify`` reads it there; a file without it is
              read in ``--char`` (default 0).
``.dot``      Graphviz text: the Hasse diagram, contributor nodes filled.

The schema files shipped in ``rigidres/schemas/`` state the three
JSON formats.  All JSON read here is checked against them where it is
read, by :func:`validate_payload`, which reads exactly the keywords
those files use ("integer" is an ``int``, not a ``bool`` and not
``2.0``); a violation is an input error, and its message shows the
offending value (or the list of unexpected keys) cut to 80
characters.  JSON written here is built from values that were checked
already, and is not checked again; the tests hold every writer's
output to its schema.

Exit codes: 0 success, 1 input error (bad arguments, malformed or
unreadable files), 2 computed-but-negative (a verification failed, the
input is not rigid, no isomorphism / join-preserving map / deformation
was found).
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .betti import betti_numbers, betti_poset, rigidity_report
from .deform import search_rigid_deformation, simplicial_rigid_deformation
from .frames import (GradedFreeResolution, relabel, resolve, scarf_complex,
                     taylor_betti, verify_resolution)
from .homology import FieldSpec, SimplicialComplex
from .monomials import Monomial, parse_ideal
from .posets import (FiniteAtomicLattice, Poset, element_key, is_isomorphic,
                     join_preserving_map, lcm_lattice, support_text)


class InputError(ValueError):
    """Bad command line or unusable input file (exit code 1)."""


# --------------------------------------------------------------------------
# JSON schemas and (de)serialization

@functools.cache
def load_schema(name):
    path = resources.files("rigidres").joinpath("schemas", f"{name}.schema.json")
    return json.loads(path.read_text())


_TYPES = {"object": dict, "array": list, "string": str, "integer": int}


def _cut(text):
    """text, cut to 80 characters ending in "..." if longer."""
    return text if len(text) <= 80 else text[:77] + "..."


def _violation(value, schema):
    """The first way value breaks schema, worded as the JSON Schema
    reference validator words it, or None.  The repr of an offending
    value, and the list of unexpected keys, are cut by `_cut`, so a
    long one does not fill the message.  Items are checked before
    uniqueItems, so only valid (hashable) members reach the set."""
    kind = schema["type"]
    if not isinstance(value, _TYPES[kind]) or (
            kind == "integer" and isinstance(value, bool)):
        return f"{_cut(repr(value))} is not of type {kind!r}"
    members = ()
    if kind == "object":
        for key in schema.get("required", ()):
            if key not in value:
                return f"{key!r} is a required property"
        properties = schema.get("properties", {})
        extras = sorted(set(value) - set(properties))
        if extras and schema.get("additionalProperties") is False:
            verb = "was" if len(extras) == 1 else "were"
            return (f"Additional properties are not allowed "
                    f"({_cut(', '.join(map(repr, extras)))} {verb} unexpected)")
        members = [(value[key], sub) for key, sub in properties.items()
                   if key in value]
    elif "items" in schema:
        members = [(item, schema["items"]) for item in value]
    for member, sub in members:
        error = _violation(member, sub)
        if error:
            return error
    if schema.get("uniqueItems") and len(set(value)) != len(value):
        return f"{_cut(repr(value))} has non-unique elements"
    if "minimum" in schema and value < schema["minimum"]:
        return (f"{_cut(repr(value))} is less than the minimum of "
                f"{schema['minimum']!r}")
    if "pattern" in schema and not re.search(schema["pattern"], value):
        return f"{_cut(repr(value))} does not match {schema['pattern']!r}"
    return None


def validate_payload(payload, schema_name):
    """Raise InputError naming the first schema violation of a payload
    read from a file, if it has one.  The readers `family_from_json` and
    `resolution_from_json` call it; the writers are held to the same
    schemas by the tests.  The message shows an offending value's repr
    cut to 80 characters:

    >>> try:  # doctest: +NORMALIZE_WHITESPACE
    ...     validate_payload({"n_atoms": list(range(50)), "supports": []},
    ...                      "lattice")
    ... except InputError as err:
    ...     print(err)
    invalid JSON payload: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
    14, 15, 16, 17, 18, 19, 20, 21... is not of type 'integer'
    """
    error = _violation(payload, load_schema(schema_name))
    if error:
        raise InputError(f"invalid JSON payload: {error}")


def family_to_json(P, n_atoms, degrees=None):
    """JSON payload for a family of atom supports, 1-based in files."""
    payload = {
        "n_atoms": n_atoms,
        "supports": [[i + 1 for i in sorted(e)] for e in P.elements],
    }
    if degrees is not None:
        payload["degrees"] = [list(degrees[e]) for e in P.elements]
    return payload


def family_from_json(payload):
    """Parse a support-family payload → (supports, n_atoms, degrees|None)."""
    validate_payload(payload, "lattice")
    n = payload["n_atoms"]
    supports = [frozenset(i - 1 for i in s) for s in payload["supports"]]
    if len(set(supports)) != len(supports):
        raise InputError("duplicate supports in lattice file")
    for s in supports:
        if s and max(s) >= n:
            raise InputError(f"atom index {max(s) + 1} out of range for "
                             f"{n} atoms")
    degrees = None
    if "degrees" in payload:
        if len(payload["degrees"]) != len(supports):
            raise InputError("degrees and supports differ in length")
        degrees = {s: Monomial(m)
                   for s, m in zip(supports, payload["degrees"])}
    return supports, n, degrees


def resolution_to_json(res, record_field=True):
    """JSON payload for a graded resolution (round-trips with the loader).
    With record_field, it names the characteristic of the resolution's
    field, so the loader reads it in the field it was computed in.  The
    payload `resolve` and `relabel` print on stdout leaves the field
    out, byte for byte as before it was recorded."""
    length = res.length
    modules, index = [], {}
    for pos in range(length + 1):
        rows = []
        for k, (key, deg) in enumerate(res.modules.get(pos, ())):
            index[(pos, key)] = k
            rows.append({"degree": list(deg),
                         "source_element": [i + 1 for i in sorted(key[0])]})
        modules.append(rows)
    differentials = []
    for pos in range(1, length + 1):
        entries = []
        for colkey, col in res.differentials.get(pos, {}).items():
            for rowkey, (c, mono) in col.items():
                entries.append({"row": index[(pos - 1, rowkey)],
                                "col": index[(pos, colkey)],
                                "scalar": str(c),
                                "monomial": list(mono)})
        entries.sort(key=lambda e: (e["col"], e["row"]))
        differentials.append(entries)
    payload = {"modules": modules, "differentials": differentials}
    if record_field:
        payload["characteristic"] = res.field.characteristic
    return payload


def resolution_from_json(payload, F=None):
    """Rebuild a GradedFreeResolution from its JSON payload, over F, or
    over the field the payload records when F is None (characteristic
    0 when it records none).  An F other than the recorded field is an
    input error.

    Basis keys are reconstructed positionally: repeated appearances of
    the same source element within one module get indices 0, 1, …
    in file order.
    """
    validate_payload(payload, "resolution")
    recorded = payload.get("characteristic")
    if F is None:
        F = FieldSpec(recorded or 0)
    elif recorded is not None and recorded != F.characteristic:
        raise InputError(f"characteristic {F.characteristic} conflicts with "
                         f"the recorded characteristic {recorded}")
    if len(payload["differentials"]) != max(len(payload["modules"]) - 1, 0):
        raise InputError("need exactly one differential per consecutive "
                         "pair of modules")
    modules = {}
    for pos, rows in enumerate(payload["modules"]):
        seen, mods = {}, []
        for row in rows:
            e = frozenset(i - 1 for i in row["source_element"])
            j = seen.get(e, 0)
            seen[e] = j + 1
            mods.append(((e, j), Monomial(row["degree"])))
        modules[pos] = tuple(mods)
    differentials = {}
    for pos, entries in enumerate(payload["differentials"], start=1):
        cols = {}
        for ent in entries:
            try:
                rowkey = modules[pos - 1][ent["row"]][0]
                colkey = modules[pos][ent["col"]][0]
            except IndexError:
                raise InputError(f"row/col index out of range in "
                                 f"differential {pos}") from None
            try:
                scalar = Fraction(ent["scalar"])
            except ZeroDivisionError:
                raise InputError(f"zero denominator in scalar "
                                 f"{_cut(ent['scalar'])}") from None
            except ValueError as err:  # past the int-conversion digit limit
                raise InputError(f"differential {pos}: {err}") from None
            if F.characteristic and scalar.denominator != 1:
                raise InputError(f"non-integer scalar {_cut(ent['scalar'])} in "
                                 f"characteristic {F.characteristic}")
            col = cols.setdefault(colkey, {})
            if rowkey in col:
                raise InputError(f"differential {pos} lists row {ent['row']}, "
                                 f"col {ent['col']} twice")
            col[rowkey] = (F.coerce(scalar), Monomial(ent["monomial"]))
        differentials[pos] = cols
    return GradedFreeResolution(F, modules, differentials)


# --------------------------------------------------------------------------
# DOT export

def export_dot(P, highlight, labels=None):
    """Graphviz text for the Hasse diagram of P.

    Elements of ``highlight`` (the Betti membership, normally) are drawn
    filled, everything else hollow.  Node and edge order is the canonical
    element order, so the output is byte-identical across runs.
    """
    marked = {frozenset(e) for e in highlight}
    lines = ["digraph hasse {",
             "  rankdir=BT;",
             "  node [shape=ellipse, fontsize=10];"]
    for e in P.elements:
        label = labels[e] if labels else support_text(e)
        style = "filled" if e in marked else "solid"
        lines.append(f'  "{support_text(e)}" [label="{label}", '
                     f'style={style}];')
    pairs = sorted(P.cover_pairs(),
                   key=lambda pq: (element_key(pq[0]), element_key(pq[1])))
    for p, q in pairs:
        lines.append(f'  "{support_text(p)}" -> "{support_text(q)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# input loading

def _read_text(path):
    try:
        return Path(path).read_text()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror}") from None


def _read_json(path):
    # reported like bad syntax: a file nested past the recursion limit
    # (the decoder recurses once per level) and a number past the
    # int-conversion digit limit, which json raises as a plain ValueError
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        raise InputError(f"{path}: not valid JSON ({err})") from None


def _load_ideal(path):
    if not str(path).endswith(".ideal"):
        raise InputError(f"{path}: expected an .ideal file")
    return parse_ideal(_read_text(path))


def _load_lattice(path):
    """A degree-labeled lattice from an .ideal or .lattice file, plus the
    variable names when they are known (None for .lattice files)."""
    text = str(path)
    if text.endswith(".ideal"):
        I = _load_ideal(path)
        return lcm_lattice(I), I.variables
    if text.endswith(".lattice"):
        supports, n, degrees = family_from_json(_read_json(path))
        try:
            return FiniteAtomicLattice(supports, n, degrees), None
        except ValueError as err:
            raise InputError(f"{path}: {err}") from None
    raise InputError(f"{path}: expected an .ideal or .lattice file")


def _load_family(path):
    """Like _load_lattice but tolerates non-lattice families (saved Betti
    posets, say) by falling back to a plain Poset.  Bad degree labels on
    an atomic lattice are an input error."""
    text = str(path)
    if text.endswith(".lattice"):
        supports, n, degrees = family_from_json(_read_json(path))
        try:
            return FiniteAtomicLattice(supports, n, degrees)
        except ValueError as err:
            try:
                FiniteAtomicLattice(supports, n)
            except ValueError:
                return Poset(supports)
            raise InputError(f"{path}: {err}") from None
    lattice, _ = _load_lattice(path)
    return lattice


def _parse_facets(text, n):
    """Facets like "1,2; 2,3" (1-based vertices) → SimplicialComplex on
    the generator indices 0..n−1, every one of them a vertex."""
    facets = []
    for part in text.replace(";", " ").split():
        try:
            vertices = {int(v) - 1 for v in part.split(",")}
        except ValueError:
            raise InputError(f"bad facet {part!r}: expected comma-separated "
                             f"vertex numbers") from None
        facets.append(vertices)
    if not facets:
        raise InputError("no facets given")
    vertices = set().union(*facets)
    if vertices != set(range(n)):
        got = ",".join(str(v + 1) for v in sorted(vertices))
        raise InputError(f"facets must use exactly the generator numbers "
                         f"1..{n}, got {got}")
    return SimplicialComplex(facets)


# --------------------------------------------------------------------------
# output

def _emit(text, ns):
    if ns.output:
        Path(ns.output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, ns):
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", ns)


def _emit_table(table, ns):
    """The Betti table as JSON with --json, else its totals line."""
    if ns.json:
        _emit_json(table.to_json_dict(), ns)
    else:
        _emit("totals: " + ",".join(map(str, table.totals())) + "\n", ns)


def _yesno(flag):
    return "yes" if flag else "no"


def _emit_lattice(L, ns):
    _emit_json(family_to_json(L, L.n_atoms, L.degrees), ns)


def _write_target_lattice(result, ns):
    """With -o, save the lcm-lattice of a deformation's target ideal."""
    if ns.output:
        _emit_lattice(result.target_lattice, ns)


# --------------------------------------------------------------------------
# commands

def cmd_lcm_lattice(ns):
    _emit_lattice(lcm_lattice(_load_ideal(ns.input)), ns)
    return 0


def cmd_betti_poset(ns):
    L, _ = _load_lattice(ns.input)
    B = betti_poset(L, ns.field)
    _emit_json(family_to_json(B, L.n_atoms, L.degrees), ns)
    return 0


def cmd_betti_numbers(ns):
    L, _ = _load_lattice(ns.input)
    if ns.json and L.degrees is None:
        raise InputError(f"{ns.input}: the graded table needs degree labels")
    _emit_table(betti_numbers(L, ns.field), ns)
    return 0


def cmd_rigidity(ns):
    L, _ = _load_lattice(ns.input)
    report = rigidity_report(L, ns.field)
    if report.rigid:
        _emit("rigid\n", ns)
        return 0
    _emit(f"not rigid [{report.rule}]: {report.detail}\n", ns)
    return 2


def cmd_resolve(ns):
    I = _load_ideal(ns.input)
    _, _, res = resolve(I, ns.field)
    report = verify_resolution(res)
    _emit_json(resolution_to_json(res, record_field=bool(ns.output)), ns)
    ranks = ",".join(str(r) for r in res.ranks())
    print(f"ranks: {ranks}", file=sys.stderr)
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 2


def cmd_relabel(ns):
    source = _load_ideal(ns.source)
    target = _load_ideal(ns.target)
    F = ns.field
    _, BS, res = resolve(source, F)
    LT = lcm_lattice(target)
    BT = betti_poset(LT, F)
    iso = is_isomorphic(BS, BT)
    if iso is None:
        print("Betti posets are not isomorphic; nothing to relabel",
              file=sys.stderr)
        return 2
    moved = relabel(res, iso, LT.degrees)
    report = verify_resolution(moved)
    _emit_json(resolution_to_json(moved, record_field=bool(ns.output)), ns)
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 2


def cmd_verify(ns):
    path = ns.input
    if not str(path).endswith(".res"):
        raise InputError(f"{path}: expected a .res file")
    field = None if ns.char is None else ns.field
    res = resolution_from_json(_read_json(path), field)
    report = verify_resolution(res)
    _emit(report.summary() + "\n", ns)
    return 0 if report.ok else 2


def cmd_taylor(ns):
    I = _load_ideal(ns.input)
    _emit_table(taylor_betti(I, ns.field), ns)
    return 0


def cmd_scarf(ns):
    I = _load_ideal(ns.input)
    faces = Poset(scarf_complex(I).faces)
    if ns.json:
        _emit_json(family_to_json(faces, len(I.generators)), ns)
    else:
        _emit("".join(support_text(f) + "\n" for f in faces.elements), ns)
    return 0


def cmd_deform_simplicial(ns):
    I = _load_ideal(ns.input)
    X = (scarf_complex(I) if ns.facets is None
         else _parse_facets(ns.facets, len(I.generators)))
    result = simplicial_rigid_deformation(I, X, ns.field)
    cert = result.certificate
    added = " ".join(support_text(e) for e in result.added) or "none"
    # every target contains L_I, so it is always comparable to the
    # source (see `deform._deformation`); the line stays until its
    # golden digests are recomputed on purpose (ROADMAP item 14)
    lines = [
        f"target lattice: {len(result.target_lattice.elements)} elements",
        f"added supports: {added}",
        f"certificate: rigid={_yesno(cert.rigid)} "
        f"betti-preserved={_yesno(cert.betti_preserved)} "
        f"relabel-verified={_yesno(cert.relabel_verified)}",
        f"route: {cert.route or 'none'}",
        "comparable to source: yes",
    ]
    print("\n".join(lines))
    _write_target_lattice(result, ns)
    return 0 if cert else 2


def cmd_deform_search(ns):
    I = _load_ideal(ns.input)
    outcome = search_rigid_deformation(I, budget=ns.budget, F=ns.field)
    print("base totals: " + ",".join(str(b) for b in outcome.base_totals))
    print(f"budget: {ns.budget}")
    candidate = outcome.betti_poset_candidate
    if candidate is not None:
        # never certified (see `search_rigid_deformation`); the constant
        # stays until its frozen digests are recomputed on purpose
        # (ROADMAP item 14)
        totals = ",".join(str(b) for b in candidate.totals)
        print(f"betti-poset candidate: {candidate.lattice_size} elements, "
              f"totals {totals}, certified=no")
    if outcome.augmentation_log:
        print(f"scanned {len(outcome.augmentation_log)} augmentations:")
        for entry in outcome.augmentation_log:
            added = " ".join(support_text(e) for e in entry.added)
            totals = ",".join(str(b) for b in entry.totals)
            print(f"  +{added}: {entry.lattice_size} elements, "
                  f"totals {totals}")
    if not outcome:
        print("no rigid deformation found within budget")
        return 2
    result = outcome.result
    added = " ".join(support_text(e) for e in result.added) or "none"
    print(f"rigid deformation found: added {added}; "
          f"{len(result.target_lattice.elements)} elements; "
          f"route {result.certificate.route}")
    _write_target_lattice(result, ns)
    return 0


def cmd_compare(ns):
    first = _load_family(ns.first)
    second = _load_family(ns.second)
    if ns.join_preserving:
        for which, P in (("first", first), ("second", second)):
            if not isinstance(P, FiniteAtomicLattice):
                raise InputError(f"{which} input is not an atomic lattice; "
                                 f"join-preserving comparison needs lattices")
        fwd = join_preserving_map(first, second)
        bwd = join_preserving_map(second, first)
        found = fwd is not None or bwd is not None
        _emit(f"first -> second: {'none' if fwd is None else 'found'}\n"
              f"second -> first: {'none' if bwd is None else 'found'}\n"
              + ("" if found else "none in either direction\n"), ns)
        return 0 if found else 2
    iso = is_isomorphic(first, second)
    _emit("not isomorphic\n" if iso is None else "isomorphic\n", ns)
    return 2 if iso is None else 0


def cmd_export_dot(ns):
    L, variables = _load_lattice(ns.input)
    B = betti_poset(L, ns.field)
    labels = None
    if L.degrees is not None:
        if variables is None:
            width = len(L.degree(frozenset()))
            variables = tuple(f"x{i + 1}" for i in range(width))
        labels = {e: L.degree(e).format(variables) for e in L.elements}
    _emit(export_dot(L, B.elements, labels), ns)
    return 0


# --------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing keeps its
    results in a fresh namespace per call, so calls share nothing."""
    common = _Parser(add_help=False)
    common.add_argument("--char", type=int, metavar="P",
                        help="coefficient field characteristic, 0 or a prime"
                             " up to 2^31-1 (default 0; verify defaults to "
                             "the one the file records)")
    common.add_argument("-o", "--output", metavar="PATH",
                        help="write the artifact to PATH instead of stdout")

    parser = _Parser(
        prog="rigidres",
        description="lcm-lattices, Betti posets, rigidity, minimal free "
                    "resolutions, and rigid deformations of monomial ideals",
        epilog="exit codes: 0 success, 1 input error, 2 negative verdict")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("lcm-lattice", parents=[common],
                       help="lattice of lcms of generator subsets (JSON)")
    p.add_argument("input", help=".ideal file")
    p.set_defaults(run=cmd_lcm_lattice)

    p = sub.add_parser("betti-poset", parents=[common],
                       help="subposet of homologically contributing degrees")
    p.add_argument("input", help=".ideal or .lattice file")
    p.set_defaults(run=cmd_betti_poset)

    p = sub.add_parser("betti-numbers", parents=[common],
                       help="multigraded Betti numbers via interval homology")
    p.add_argument("input", help=".ideal or degree-labeled .lattice file")
    p.add_argument("--json", action="store_true",
                   help="full graded table as JSON instead of the totals")
    p.set_defaults(run=cmd_betti_numbers)

    p = sub.add_parser("is-rigid", parents=[common],
                       help="check the two rigidity conditions")
    p.add_argument("input", help=".ideal or .lattice file")
    p.set_defaults(run=cmd_rigidity)

    p = sub.add_parser("resolve", parents=[common],
                       help="minimal free resolution from the Betti poset, "
                            "verified (JSON)")
    p.add_argument("input", help=".ideal file")
    p.set_defaults(run=cmd_resolve)

    p = sub.add_parser("relabel", parents=[common],
                       help="transport the source resolution onto the target "
                            "across a Betti-poset isomorphism")
    p.add_argument("source", help=".ideal file")
    p.add_argument("target", help=".ideal file")
    p.set_defaults(run=cmd_relabel)

    p = sub.add_parser("verify", parents=[common],
                       help="check a stored resolution: homogeneous, "
                            "minimal, exact on every degree strand")
    p.add_argument("input", help=".res file")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("taylor", parents=[common],
                       help="Betti numbers by brute force over all "
                            "generator subsets (independent oracle)")
    p.add_argument("input", help=".ideal file")
    p.add_argument("--json", action="store_true",
                   help="full graded table as JSON instead of the totals")
    p.set_defaults(run=cmd_taylor)

    p = sub.add_parser("scarf", parents=[common],
                       help="generator subsets with a unique lcm")
    p.add_argument("input", help=".ideal file")
    p.add_argument("--json", action="store_true",
                   help="faces as a JSON support family")
    p.set_defaults(run=cmd_scarf)

    p = sub.add_parser("deform-simplicial", parents=[common],
                       help="meet-closure deformation along a simplicial "
                            "complex on the generators, with certificate")
    p.add_argument("input", help=".ideal file")
    p.add_argument("--facets", metavar="FACETS",
                   help="facets as 1-based vertex lists, e.g. '1,2; 2,3' "
                        "(default: the scarf complex)")
    p.set_defaults(run=cmd_deform_simplicial)

    p = sub.add_parser("deform-search", parents=[common],
                       help="bounded scan for a rigid deformation")
    p.add_argument("input", help=".ideal file")
    p.add_argument("--budget", type=int, default=1,
                   help="max number of supports to adjoin (default 1); "
                        "the scan logs every choice of up to that many "
                        "and reads one per symmetry orbit: on the "
                        "hexagon budgets 1 / 2 / 3 / 4 log 35 / 630 / "
                        "7,175 / 59,535 augmentations")
    p.set_defaults(run=cmd_deform_search)

    p = sub.add_parser("compare", parents=[common],
                       help="compare two posets: isomorphism, or "
                            "join-preserving maps with --join-preserving")
    p.add_argument("first", help=".ideal or .lattice file")
    p.add_argument("second", help=".ideal or .lattice file")
    p.add_argument("--join-preserving", action="store_true",
                   help="look for atom-bijective join-preserving maps "
                        "in both directions")
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("export-dot", parents=[common],
                       help="Hasse diagram as Graphviz DOT, contributors "
                            "filled")
    p.add_argument("input", help=".ideal or .lattice file")
    p.set_defaults(run=cmd_export_dot)

    return parser


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
        ns.field = FieldSpec(ns.char or 0)
        return ns.run(ns)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
