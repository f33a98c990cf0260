"""Command-line surface: exit codes, file formats, schema validation,
and the DOT export."""

import argparse
import copy
import functools
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from rigidres.cli import (
    InputError,
    build_parser,
    export_dot,
    family_from_json,
    family_to_json,
    load_schema,
    main,
    resolution_from_json,
    resolution_to_json,
    validate_payload,
)
from rigidres.frames import build_frame, homogenize
from rigidres.betti import betti_poset
from rigidres.homology import FieldSpec
from rigidres.posets import Poset, lcm_lattice
from rigidres.monomials import parse_ideal

from conftest import HEXAGON_TEXT, TWIN_A_TEXT, TWIN_B_TEXT
from test_frames import projective_plane_ideal


def ideal_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


# --------------------------------------------------------------------------
# tables

def test_betti_numbers_totals(tmp_path, capsys):
    path = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    assert main(["betti-numbers", path]) == 0
    assert capsys.readouterr().out == "totals: 1,6,9,6,2\n"


def test_taylor_agrees_with_interval_route(tmp_path, capsys):
    path = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    assert main(["taylor", path, "--char", "2"]) == 0
    assert capsys.readouterr().out == "totals: 1,6,9,6,2\n"


def test_betti_numbers_json_validates(tmp_path, capsys):
    path = ideal_file(tmp_path, "triple.ideal", "x^2; x*y; y^2")
    assert main(["betti-numbers", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_schema("betti"))
    assert payload["totals"] == [1, 3, 2]
    assert payload["graded"][0] == {"i": 0, "degree": [0, 0], "beta": 1}


def test_characteristic_changes_the_answer(tmp_path, capsys):
    path = ideal_file(tmp_path, "rp2.ideal", projective_plane_ideal().to_text())
    assert main(["betti-numbers", path]) == 0
    assert capsys.readouterr().out == "totals: 1,10,15,6\n"
    assert main(["betti-numbers", path, "--char", "2"]) == 0
    assert capsys.readouterr().out == "totals: 1,10,15,7,1\n"


def test_consecutive_calls_share_no_parsed_state(tmp_path, capsys):
    """The parser is built once per process; --json, -o and --char
    each revert to their defaults on the next call."""
    assert build_parser() is build_parser()
    path = ideal_file(tmp_path, "rp2.ideal", projective_plane_ideal().to_text())
    out = tmp_path / "rp2.json"
    assert main(["betti-numbers", path, "--json", "-o", str(out),
                 "--char", "2"]) == 0
    assert capsys.readouterr().out == ""
    written = out.read_text()
    assert json.loads(written)["totals"] == [1, 10, 15, 7, 1]
    assert main(["betti-numbers", path]) == 0
    assert capsys.readouterr().out == "totals: 1,10,15,6\n"
    assert out.read_text() == written


# --------------------------------------------------------------------------
# lattice files

def test_lcm_lattice_file_round_trip(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "xyz.ideal", "x; y; z")
    out = str(tmp_path / "xyz.lattice")
    assert main(["lcm-lattice", ideal, "-o", out]) == 0
    payload = json.loads((tmp_path / "xyz.lattice").read_text())
    jsonschema.validate(payload, load_schema("lattice"))
    assert payload["n_atoms"] == 3
    assert len(payload["supports"]) == 8
    # a labeled lattice file is as good as the ideal it came from
    assert main(["betti-numbers", out]) == 0
    assert capsys.readouterr().out == "totals: 1,3,3,1\n"


def test_betti_poset_drops_the_non_contributor(tmp_path):
    ideal = ideal_file(tmp_path, "m.ideal", TWIN_A_TEXT)
    out = str(tmp_path / "bm.lattice")
    assert main(["betti-poset", ideal, "-o", out]) == 0
    payload = json.loads((tmp_path / "bm.lattice").read_text())
    assert len(payload["supports"]) == 13
    assert [2, 3, 4] not in payload["supports"]


def test_unlabeled_lattice_needs_no_degrees_for_totals(tmp_path, capsys):
    out = tmp_path / "square.lattice"
    out.write_text(json.dumps({
        "n_atoms": 2,
        "supports": [[], [1], [2], [1, 2]],
    }))
    assert main(["betti-numbers", str(out)]) == 0
    assert capsys.readouterr().out == "totals: 1,2,1\n"


@pytest.mark.parametrize("degrees", [
    [[0, 0], [1, 0], [1, 0], [1, 1]],  # two atoms share one label
    [[0, 0], [1, 0], [0, 1], [1, 1, 0]],  # one label is longer
], ids=["repeated", "unequal-length"])
def test_bad_degree_labels_are_input_errors(tmp_path, capsys, degrees):
    path = tmp_path / "square.lattice"
    path.write_text(json.dumps({
        "n_atoms": 2,
        "supports": [[], [1], [2], [1, 2]],
        "degrees": degrees,
    }))
    for command in ("betti-numbers", "export-dot"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: degree labels "
                                           "must be distinct and of equal "
                                           "length\n")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_atom_count_is_refused_without_building_the_full_set(tmp_path):
    path = tmp_path / "huge.lattice"
    path.write_text(json.dumps({"n_atoms": 10**12, "supports": [[], [1]]}))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "rigidres.cli", "betti-numbers", str(path)],
        env=env, capture_output=True, text=True, timeout=5,
        preexec_fn=_limit_address_space)
    assert done.returncode == 1
    assert done.stderr == f"error: {path}: missing top (full atom set)\n"


@functools.cache
def _modules_after_importing_the_cli():
    """The names in sys.modules of a fresh interpreter that has imported
    the CLI, from one launch shared by every check that reads them."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, rigidres.cli; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    names = json.loads(done.stdout)
    assert "rigidres.cli" in names, done.stdout
    return frozenset(names)


def _loaded_by_importing_the_cli(module):
    """Whether a fresh interpreter holds module after importing the CLI."""
    return module in _modules_after_importing_the_cli()


def test_importing_the_cli_does_not_load_networkx():
    assert not _loaded_by_importing_the_cli("networkx")


def test_importing_the_cli_does_not_load_jsonschema():
    assert not _loaded_by_importing_the_cli("jsonschema")


WITHOUT_NETWORKX = """
import json, sys
sys.modules["networkx"] = None  # import networkx now raises ImportError
from rigidres.cli import main
print(json.dumps([main(args) for args in json.loads(sys.argv[1])]))
"""


def test_isomorphism_commands_run_without_networkx(tmp_path):
    twin_a = ideal_file(tmp_path, "m.ideal", TWIN_A_TEXT)
    twin_b = ideal_file(tmp_path, "n.ideal", TWIN_B_TEXT)
    path = ideal_file(tmp_path, "path.ideal", "x*y; y*z; z*w")
    hexagon = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    out = str(tmp_path / "out")
    commands = [
        ["relabel", twin_a, twin_b, "-o", out + ".res"],
        ["relabel", twin_a, path],
        ["compare", twin_a, twin_b],
        ["compare", path, path],
        ["deform-search", path, "--budget", "1", "-o", out + ".lattice"],
        ["deform-search", hexagon, "--budget", "1"],
        ["deform-simplicial", path, "--facets", "1,2; 2,3"],
        ["deform-simplicial", twin_a],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_NETWORKX, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, 2, 2, 0, 0, 2, 0, 1]
    assert "Traceback" not in done.stderr


def test_lattice_file_errors_are_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.lattice"
    bad.write_text(json.dumps({"n_atoms": 2, "supports": [[], [1], [2]]}))
    assert main(["betti-poset", str(bad)]) == 1  # missing top: not a lattice
    bad.write_text(json.dumps({"n_atoms": 2, "supports": "nope"}))
    assert main(["betti-poset", str(bad)]) == 1  # schema violation
    bad.write_text("{not json")
    capsys.readouterr()
    assert main(["betti-poset", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not valid JSON")


@pytest.mark.parametrize("command, name", [("verify", "deep.res"),
                                           ("betti-numbers", "deep.lattice")])
def test_json_nested_past_the_recursion_limit_is_an_input_error(
        tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_text("[" * 100_000)
    capsys.readouterr()
    assert main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: not valid JSON")
    assert err.count("\n") == 1 and "Traceback" not in err


def _nested(depth):
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.mark.parametrize("command, change, message", [
    ("betti-numbers", {"supports": "a" * 100_000},
     "'" + "a" * 76 + "... is not of type 'array'"),
    ("verify", {"modules": _nested(900)},
     "[" * 77 + "... is not of type 'object'"),
    ("betti-numbers", {f"k{i}": 0 for i in range(10_000)},
     "Additional properties are not allowed ('k0', 'k1', 'k10', 'k100', "
     "'k1000', 'k1001', 'k1002', 'k1003', 'k1004', 'k100... were "
     "unexpected)"),
], ids=["long-string", "deep-list", "many-keys"])
def test_schema_violation_cuts_the_offending_value(
        tmp_path, capsys, command, change, message):
    """A violation shows the value's repr, or the list of unexpected
    keys, cut to 80 characters."""
    if command == "verify":
        path, payload = path_resolution(tmp_path)
    else:
        path, payload = tmp_path / "bad.lattice", {"n_atoms": 2,
                                                   "supports": []}
    payload.update(change)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: invalid JSON payload: {message}\n"
    assert len(err) < 200


def test_json_number_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    """json.loads raises a plain ValueError, not a JSONDecodeError."""
    path = tmp_path / "big.lattice"
    path.write_text('{"n_atoms": ' + "1" * 5001 + ', "supports": [[]]}')
    capsys.readouterr()
    assert main(["betti-numbers", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: not valid JSON (")
    assert "5001 digits" in err and err.count("\n") == 1


def test_scalar_past_the_digit_limit_names_its_differential(tmp_path, capsys):
    path, payload = path_resolution(tmp_path)
    payload["differentials"][1][0]["scalar"] = "1" * 5001
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: differential 2: ")
    assert "5001 digits" in err and err.count("\n") == 1


def test_family_json_helpers_reject_bad_payloads():
    with pytest.raises(InputError):
        family_from_json({"n_atoms": 2, "supports": [[], [1], [1], [1, 2]]})
    with pytest.raises(InputError):
        family_from_json({"n_atoms": 1, "supports": [[], [3]]})
    with pytest.raises(InputError):
        family_from_json({"n_atoms": 1, "supports": [[], [1]],
                          "degrees": [[1]]})


def test_family_json_round_trip_of_a_poset():
    P = Poset([frozenset(), frozenset({0}), frozenset({0, 2})])
    payload = family_to_json(P, 3)
    supports, n, degrees = family_from_json(payload)
    assert Poset(supports) == P and n == 3 and degrees is None


# --------------------------------------------------------------------------
# the schema checker, with jsonschema as its oracle

SCHEMAS = ("betti", "lattice", "resolution")
CHECKED_KEYWORDS = {"type", "required", "properties", "additionalProperties",
                    "items", "minimum", "uniqueItems", "pattern"}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


@pytest.mark.parametrize("name", SCHEMAS)
def test_shipped_schemas_pass_their_metaschema(name):
    schema = load_schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_shipped_schemas_use_only_the_checked_keywords():
    """A keyword the checker does not read would be silently ignored."""
    folder = resources.files("rigidres").joinpath("schemas")
    assert sorted(f.name for f in folder.iterdir()) == [
        f"{name}.schema.json" for name in SCHEMAS]
    for name in SCHEMAS:
        root = load_schema(name)
        for sub in _subschemas(root):
            allowed = CHECKED_KEYWORDS | ({"$schema", "title"}
                                          if sub is root else set())
            assert set(sub) <= allowed, (name, set(sub) - allowed)
            assert sub["type"] in ("object", "array", "string", "integer")
            assert sub.get("additionalProperties", False) is False
            assert sub.get("uniqueItems", True) is True


# each JSON writer: its command line, which writes the JSON to {out}
# with -o and to stdout without, and the schema it is held to; it runs
# on the path ideal, whose deformation succeeds and writes its target
# lattice
WRITERS = {
    "lcm-lattice -o": (["lcm-lattice", "{ideal}", "-o", "{out}"], "lattice"),
    "betti-poset": (["betti-poset", "{ideal}"], "lattice"),
    "betti-numbers --json": (["betti-numbers", "{ideal}", "--json"], "betti"),
    "taylor --json": (["taylor", "{ideal}", "--json"], "betti"),
    "scarf --json": (["scarf", "{ideal}", "--json"], "lattice"),
    "resolve -o": (["resolve", "{ideal}", "-o", "{out}"], "resolution"),
    "resolve": (["resolve", "{ideal}"], "resolution"),
    "relabel -o": (["relabel", "{ideal}", "{ideal}", "-o", "{out}"],
                   "resolution"),
    "deform-simplicial -o": (["deform-simplicial", "{ideal}", "--facets",
                              "1,2; 2,3", "-o", "{out}"], "lattice"),
    "deform-search -o": (["deform-search", "{ideal}", "-o", "{out}"],
                         "lattice"),
}


@pytest.mark.parametrize("char", ["0", "2"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_every_json_writer_is_held_to_its_schema(tmp_path, capsys, writer,
                                                 char):
    # the CLI checks JSON where it reads it; what it writes is held to
    # the shipped schemas here
    args, name = WRITERS[writer]
    paths = {"ideal": ideal_file(tmp_path, "path.ideal", "x*y; y*z; z*w"),
             "out": str(tmp_path / "out.json")}
    assert main([a.format(**paths) for a in args] + ["--char", char]) == 0
    stdout = capsys.readouterr().out
    text = (tmp_path / "out.json").read_text() if "-o" in args else stdout
    jsonschema.validate(json.loads(text), load_schema(name))


def valid_payloads(schema):
    """Payloads the schema accepts: small, integers only, no floats.
    Arrays are never empty, so every keyword has members to mutate; the
    "wrong type" mutation can still put [] anywhere."""
    kind = schema["type"]
    if kind == "integer":
        low = schema.get("minimum", 0)
        return st.integers(low, low + 3)
    if kind == "string":
        return st.from_regex(schema["pattern"], fullmatch=True)
    if kind == "array":
        return st.lists(valid_payloads(schema["items"]), min_size=1,
                        max_size=2, unique=schema.get("uniqueItems", False))
    properties = schema["properties"]
    return st.fixed_dictionaries(
        {key: valid_payloads(properties[key]) for key in schema["required"]},
        optional={key: valid_payloads(sub) for key, sub in properties.items()
                  if key not in schema["required"]})


def _slots(value):
    """Every (container, key) that holds a value inside value."""
    keys = (list(value) if isinstance(value, dict)
            else range(len(value)) if isinstance(value, list) else ())
    return [slot for key in keys
            for slot in [(value, key)] + _slots(value[key])]


REPLACEMENTS = {
    "wrong type": st.sampled_from(["7", 0.5, None, [], {}, 7]),
    "negative": st.integers(-3, -1),
    "bool": st.booleans(),
    "bad scalar": st.sampled_from(["", "1/", "1.5", "x", "--1", "1/2/3",
                                   " 1", "1\n"]) | st.text(max_size=3),
}
# the values each kind of mutation applies to; uniqueItems only ever
# constrains lists of integers, so members are duplicated in those
TARGETS = {"negative": int, "bool": int, "bad scalar": str,
           "extra key": dict, "duplicate member": list}


def _mutate(kind, data, holder):
    """Apply one mutation of this kind to a value in holder, if any fits."""
    wanted = TARGETS.get(kind, object)
    slots = [(c, k) for c, k in _slots(holder) if isinstance(c[k], wanted)
             and (kind != "deleted key" or isinstance(c, dict))
             and (kind != "duplicate member" or isinstance(c[k][0], int))]
    if not slots:
        return
    container, key = data.draw(st.sampled_from(slots))
    if kind == "deleted key":
        del container[key]
    elif kind == "extra key":
        container[key]["extra"] = 0
    elif kind == "duplicate member":
        member = data.draw(st.sampled_from(container[key]))
        container[key].append(copy.deepcopy(member))
    else:
        container[key] = data.draw(REPLACEMENTS[kind])


def _checked(schema):
    return (valid_payloads(schema),
            jsonschema.validators.validator_for(schema)(schema))


# each schema's payload strategy and jsonschema validator, built once
CHECKED = {name: _checked(load_schema(name)) for name in SCHEMAS}


@pytest.mark.parametrize("kind", sorted(REPLACEMENTS) + [
    "deleted key", "extra key", "duplicate member"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_checker_agrees_with_jsonschema_on_mutated_payloads(kind, data):
    for name in SCHEMAS:
        payloads, validator = CHECKED[name]
        holder = [data.draw(payloads)]
        _mutate(kind, data, holder)
        payload = holder[0]
        errors = list(validator.iter_errors(payload))
        try:
            validate_payload(payload, name)
        except InputError as err:
            assert errors, f"only the checker refuses: {err}"
            if len(errors) == 1:
                assert str(err) == ("invalid JSON payload: "
                                    f"{errors[0].message}")
        else:
            assert not errors, f"only jsonschema refuses: {errors[0].message}"


@pytest.mark.parametrize("command, where", [
    ("betti-numbers", ("n_atoms",)),
    ("betti-numbers", ("supports", 1, 0)),
    ("verify", ("differentials", 0, 0, "row")),
], ids=["atom-count", "support", "row"])
def test_integral_floats_are_not_integers(tmp_path, capsys, command, where):
    """jsonschema lets 2.0 through as an integer; the CLI then crashed."""
    if command == "verify":
        path, payload = path_resolution(tmp_path)
    else:
        path = tmp_path / "square.lattice"
        payload = {"n_atoms": 2, "supports": [[], [1], [2], [1, 2]],
                   "degrees": [[0, 0], [1, 0], [0, 1], [1, 1]]}
    *route, last = where
    container = payload
    for key in route:
        container = container[key]
    bad = container[last] = float(container[last])
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: invalid JSON payload: {bad!r} "
                                       "is not of type 'integer'\n")


# --------------------------------------------------------------------------
# rigidity and comparison

def test_is_rigid_exit_codes(tmp_path, capsys):
    rigid = ideal_file(tmp_path, "xyz.ideal", "x; y; z")
    wobbly = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    assert main(["is-rigid", rigid]) == 0
    assert capsys.readouterr().out == "rigid\n"
    assert main(["is-rigid", wobbly]) == 2
    assert capsys.readouterr().out.startswith("not rigid [interval-multiplicity]")


def test_compare_twin_betti_posets_isomorphic(tmp_path, capsys):
    m = ideal_file(tmp_path, "m.ideal", TWIN_A_TEXT)
    n = ideal_file(tmp_path, "n.ideal", TWIN_B_TEXT)
    bm, bn = str(tmp_path / "bm.lattice"), str(tmp_path / "bn.lattice")
    assert main(["betti-poset", m, "-o", bm]) == 0
    assert main(["betti-poset", n, "-o", bn]) == 0
    assert main(["compare", bm, bn]) == 0
    assert capsys.readouterr().out == "isomorphic\n"


def test_compare_twin_lattices_no_join_preserving_map(tmp_path, capsys):
    m = ideal_file(tmp_path, "m.ideal", TWIN_A_TEXT)
    n = ideal_file(tmp_path, "n.ideal", TWIN_B_TEXT)
    lm, ln = str(tmp_path / "m.lattice"), str(tmp_path / "n.lattice")
    assert main(["lcm-lattice", m, "-o", lm]) == 0
    assert main(["lcm-lattice", n, "-o", ln]) == 0
    assert main(["compare", "--join-preserving", lm, ln]) == 2
    out = capsys.readouterr().out
    assert "none in either direction" in out


def test_compare_join_preserving_across_atom_counts_finds_none(tmp_path,
                                                              capsys):
    two = ideal_file(tmp_path, "two.ideal", "x; y")
    three = ideal_file(tmp_path, "three.ideal", "x; y; z")
    assert main(["compare", "--join-preserving", two, three]) == 2
    assert capsys.readouterr().out == (
        "first -> second: none\nsecond -> first: none\n"
        "none in either direction\n")


def test_compare_join_preserving_needs_lattices(tmp_path, capsys):
    hexagon = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    b = str(tmp_path / "b.lattice")
    assert main(["betti-poset", hexagon, "-o", b]) == 0  # not a lattice
    assert main(["compare", "--join-preserving", b, b]) == 1
    capsys.readouterr()


def test_compare_reads_a_betti_poset_that_is_not_a_lattice(tmp_path,
                                                          capsys):
    hexagon = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    b = str(tmp_path / "b.lattice")
    assert main(["betti-poset", hexagon, "-o", b]) == 0  # not a lattice
    capsys.readouterr()
    assert main(["compare", b, b]) == 0
    assert capsys.readouterr().out == "isomorphic\n"


def test_compare_two_empty_families_is_an_isomorphism(tmp_path, capsys):
    """The isomorphism between empty families is the empty map."""
    path = tmp_path / "e.lattice"
    path.write_text(json.dumps({"n_atoms": 1, "supports": []}))
    assert main(["compare", str(path), str(path)]) == 0
    assert capsys.readouterr().out == "isomorphic\n"


@pytest.mark.parametrize("flags", [[], ["--join-preserving"]],
                         ids=["isomorphism", "join-preserving"])
def test_compare_names_repeated_degree_labels(tmp_path, capsys, flags):
    path = tmp_path / "square.lattice"
    path.write_text(json.dumps({
        "n_atoms": 2,
        "supports": [[], [1], [2], [1, 2]],
        "degrees": [[0, 0], [1, 0], [1, 0], [1, 1]],
    }))
    assert main(["compare", str(path), str(path)] + flags) == 1
    assert capsys.readouterr() == ("", f"error: {path}: degree labels must "
                                       "be distinct and of equal length\n")


def test_compare_finds_the_deformation_direction(tmp_path, capsys):
    triple = ideal_file(tmp_path, "triple.ideal", "x^2; x*y; y^2")
    lat = str(tmp_path / "t.lattice")
    deformed = str(tmp_path / "d.lattice")
    assert main(["lcm-lattice", triple, "-o", lat]) == 0
    assert main(["deform-simplicial", triple, "-o", deformed]) == 0
    assert main(["compare", "--join-preserving", deformed, lat]) == 0
    assert "first -> second: found" in capsys.readouterr().out


@pytest.mark.parametrize("flags,verdict", [
    ([], "isomorphic\n"),
    (["--join-preserving"], "first -> second: found\n"
                            "second -> first: found\n"),
], ids=["isomorphism", "join-preserving"])
def test_compare_writes_its_verdict_to_the_output_file(tmp_path, capsys,
                                                       flags, verdict):
    ideal = ideal_file(tmp_path, "xyz.ideal", "x; y; z")
    out = tmp_path / "verdict.txt"
    assert main(["compare", ideal, ideal] + flags) == 0
    assert capsys.readouterr().out == verdict
    assert main(["compare", ideal, ideal, "-o", str(out)] + flags) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == verdict


def test_compare_cycle_c8_and_path_p9_edge_ideals(tmp_path, capsys):
    c8 = ideal_file(tmp_path, "c8.ideal", "; ".join(
        f"x{i}*x{i % 8 + 1}" for i in range(1, 9)))
    p9 = ideal_file(tmp_path, "p9.ideal", "; ".join(
        f"x{i}*x{i + 1}" for i in range(1, 9)))
    start = time.perf_counter()
    assert main(["compare", "--join-preserving", c8, p9]) == 0
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().out == (
        "first -> second: none\nsecond -> first: found\n")


# --------------------------------------------------------------------------
# resolutions: resolve / verify / relabel

def test_resolve_writes_a_verified_koszul_resolution(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "xyz.ideal", "x; y; z")
    out = str(tmp_path / "xyz.res")
    assert main(["resolve", ideal, "-o", out]) == 0
    assert "ranks: 1,3,3,1" in capsys.readouterr().err
    payload = json.loads((tmp_path / "xyz.res").read_text())
    jsonschema.validate(payload, load_schema("resolution"))
    assert [len(m) for m in payload["modules"]] == [1, 3, 3, 1]
    assert main(["verify", out]) == 0


def test_verify_detects_a_corrupted_scalar(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "xyz.ideal", "x; y; z")
    out = tmp_path / "xyz.res"
    assert main(["resolve", ideal, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["differentials"][1][0]["scalar"] = "7"
    out.write_text(json.dumps(payload))
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().out == (
        "2 nonzero compositions (first: position 2, column {1,2}#0, "
        "row {}#0); 2 inexact strand positions (first: degree [1,1,1], "
        "position 1)\n")


def test_verify_reads_fractional_scalars(tmp_path, capsys):
    """The hexagon's resolution with one basis vector at position 2
    rescaled by 1/2 verifies; corrupting a "1/2" names a first witness."""
    ideal = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    out = tmp_path / "hexagon.res"
    assert main(["resolve", ideal, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    column = [e for e in payload["differentials"][1] if e["col"] == 0]
    for e in column:
        e["scalar"] = str(Fraction(e["scalar"]) / 2)
    for e in payload["differentials"][2]:
        if e["row"] == 0:
            e["scalar"] = str(2 * Fraction(e["scalar"]))
    assert [e["scalar"] for e in column] == ["-1/2", "1/2"]
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out == (
        "minimal multigraded resolution, 28 degree strands exact\n")
    column[0]["scalar"] = "-1/3"
    out.write_text(json.dumps(payload))
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().out == (
        "4 nonzero compositions (first: position 2, column {1,2}#0, "
        "row {}#0); 8 inexact strand positions (first: degree "
        "[1,1,1,0,1,1], position 1)\n")


def path_resolution(tmp_path):
    ideal = ideal_file(tmp_path, "path.ideal", "x*y; y*z; z*w")
    out = tmp_path / "path.res"
    assert main(["resolve", ideal, "-o", str(out)]) == 0
    return out, json.loads(out.read_text())


def test_verify_refuses_a_row_index_out_of_range(tmp_path, capsys):
    out, payload = path_resolution(tmp_path)
    payload["differentials"][0][0]["row"] = 99
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: row/col index out of range in differential 1\n")


def test_verify_needs_a_res_file(tmp_path, capsys):
    path = ideal_file(tmp_path, "xy.ideal", "x; y")
    assert main(["verify", path]) == 1
    assert capsys.readouterr() == (
        "", f"error: {path}: expected a .res file\n")


def test_verify_rejects_an_entry_listed_twice(tmp_path, capsys):
    out, payload = path_resolution(tmp_path)
    first = payload["differentials"][1][0]
    assert (first["row"], first["col"], first["scalar"]) == (0, 0, "-1")
    payload["differentials"][1].insert(0, dict(first, scalar="7"))
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: differential 2 lists row 0, col 0 twice\n")


def test_verify_rejects_a_zero_denominator(tmp_path, capsys):
    out, payload = path_resolution(tmp_path)
    payload["differentials"][1][0]["scalar"] = "1/0"
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: zero denominator in scalar 1/0\n")


@pytest.mark.parametrize("scalar, args, message", [
    ("1" * 4000 + "/0", [], "zero denominator in scalar {}"),
    ("1/" + "3" * 4000, ["--char", "2"], "non-integer scalar {} in "
                                         "characteristic 2"),
], ids=["zero-denominator", "non-integer"])
def test_a_long_refused_scalar_is_cut(tmp_path, capsys, scalar, args,
                                      message):
    out, payload = path_resolution(tmp_path)
    del payload["characteristic"]
    payload["differentials"][1][0]["scalar"] = scalar
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(out), *args]) == 1
    shown = scalar[:77] + "..."
    assert capsys.readouterr() == ("", f"error: {message.format(shown)}\n")


@pytest.mark.parametrize("scalar", ["1\n", "-1/2\n", " 1", "1 "])
def test_verify_rejects_a_padded_scalar(tmp_path, capsys, scalar):
    out, payload = path_resolution(tmp_path)
    payload["differentials"][1][0]["scalar"] = scalar
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert repr(scalar) in captured.err


def test_verify_reports_a_zero_scalar(tmp_path, capsys):
    out, payload = path_resolution(tmp_path)
    payload["differentials"][0][0]["scalar"] = "0"
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().out == (
        "1 inhomogeneous entries (first: position 1, column {1}#0, "
        "row {}#0); 1 nonzero compositions (first: position 2, column "
        "{1,2}#0, row {}#0); 2 inexact strand positions (first: degree "
        "[0,1,1,0], position 0)\n")


def _reversed_rows(payload):
    """The payload with every module's rows in reverse order, and the
    row and col indices of every entry remapped to follow them."""
    sizes = [len(rows) for rows in payload["modules"]]
    moved = copy.deepcopy(payload)
    moved["modules"] = [rows[::-1] for rows in moved["modules"]]
    for pos, entries in enumerate(moved["differentials"], start=1):
        for e in entries:
            e["row"] = sizes[pos - 1] - 1 - e["row"]
            e["col"] = sizes[pos] - 1 - e["col"]
    return moved


@pytest.mark.parametrize("char", ["0", "2"])
def test_verify_reads_module_rows_in_any_order(tmp_path, capsys, char):
    """verify numbers each module's keys in canonical order, not file
    order: reversing the rows prints the same line with the same exit
    code, on the hexagon's resolution and on one with a bad scalar."""
    ideal = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    out = tmp_path / "hexagon.res"
    assert main(["resolve", ideal, "--char", char, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    corrupted = copy.deepcopy(payload)
    corrupted["differentials"][1][0]["scalar"] = "2"
    for original, code in ((payload, 0), (corrupted, 2)):
        lines = []
        for p in (original, _reversed_rows(original)):
            out.write_text(json.dumps(p))
            capsys.readouterr()
            assert main(["verify", str(out)]) == code
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert lines[0].startswith("minimal ") == (code == 0)


def xy_with(payload, kind):
    """The resolution of x; y with one defect the checks must catch:
    a vector outside the lcm closure of the position-1 degrees, a
    position beyond it, no modules, or the position-0 generator alone."""
    if kind == "stray-vector":
        payload["modules"][2].append({"degree": [5, 0],
                                      "source_element": [1]})
    elif kind == "stray-position":
        payload["modules"].append([{"degree": [7, 7],
                                    "source_element": [1, 2]}])
        payload["differentials"].append([])
    elif kind == "no-modules":
        payload = {"modules": [], "differentials": []}
    else:
        payload = {"modules": payload["modules"][:1], "differentials": []}
    return payload


XY_WITNESSES = {
    "stray-vector":
        "2 inexact strand positions (first: degree [5,0], position 2)",
    "stray-position":
        "1 inexact strand positions (first: degree [7,7], position 3)",
    "no-modules": "2 malformed modules (first: position 0 is not one "
                  "generator of degree 0)",
    "generator-only": "1 malformed modules (first: position 1 is empty)",
}


@pytest.mark.parametrize("kind", XY_WITNESSES)
def test_verify_checks_every_degree_its_modules_reach(tmp_path, capsys, kind):
    ideal = ideal_file(tmp_path, "xy.ideal", "x; y")
    out = tmp_path / "xy.res"
    assert main(["resolve", ideal, "-o", str(out)]) == 0
    out.write_text(json.dumps(xy_with(json.loads(out.read_text()), kind)))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().out == XY_WITNESSES[kind] + "\n"


def test_verify_rejects_malformed_resolution_files(tmp_path, capsys):
    bad = tmp_path / "bad.res"
    bad.write_text(json.dumps({"modules": [], "differentials": [[]]}))
    assert main(["verify", str(bad)]) == 1
    bad.write_text(json.dumps({"modules": [[{"degree": [1],
                                             "source_element": []}]],
                               "differentials": [],
                               "extra": 1}))
    assert main(["verify", str(bad)]) == 1
    capsys.readouterr()


def test_resolution_round_trip_preserves_everything():
    I = parse_ideal(TWIN_A_TEXT)
    L = lcm_lattice(I)
    B = betti_poset(L)
    res = homogenize(build_frame(B), {e: L.degree(e) for e in B.elements})
    back = resolution_from_json(resolution_to_json(res), FieldSpec(0))
    assert back.modules == res.modules
    assert back.differentials == res.differentials


def test_non_integer_scalar_rejected_in_prime_characteristic():
    payload = {
        "modules": [[{"degree": [0], "source_element": []}],
                    [{"degree": [1], "source_element": [1]}]],
        "differentials": [[{"row": 0, "col": 0, "scalar": "1/2",
                            "monomial": [1]}]],
    }
    assert resolution_from_json(payload, FieldSpec(0)) is not None
    with pytest.raises(InputError):
        resolution_from_json(payload, FieldSpec(5))


@pytest.mark.parametrize("characteristic", [0, 2])
def test_resolution_file_records_its_field(tmp_path, capsys, characteristic):
    """resolve → .res → verify on the hexagon: the file names its field,
    a bare verify reads it there, and a --char that conflicts is an
    input error."""
    ideal = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    out = tmp_path / "hexagon.res"
    char = str(characteristic)
    assert main(["resolve", ideal, "--char", char, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("resolution"))
    assert payload["characteristic"] == characteristic
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert main(["verify", str(out), "--char", char]) == 0
    assert capsys.readouterr().out == (
        "minimal multigraded resolution, 28 degree strands exact\n" * 2)
    other = str(2 - characteristic)
    assert main(["verify", str(out), "--char", other]) == 1
    assert capsys.readouterr() == ("", (
        f"error: characteristic {other} conflicts with the recorded "
        f"characteristic {char}\n"))
    # the payload printed on stdout records no field
    assert main(["resolve", ideal, "--char", char]) == 0
    assert "characteristic" not in json.loads(capsys.readouterr().out)


def test_resolution_file_without_a_field_reads_in_char_zero(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    out = tmp_path / "hexagon.res"
    assert main(["resolve", ideal, "--char", "2", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    del payload["characteristic"]
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().out.startswith("49 nonzero compositions")
    assert main(["verify", str(out), "--char", "2"]) == 0


@pytest.mark.parametrize("recorded, message", [
    (4, "characteristic must be 0 or a prime, got 4"),
    (2**61 - 1, "characteristic must be at most 2147483647, "
                "got 2305843009213693951"),
], ids=["composite", "huge"])
def test_resolution_file_recording_a_refused_field(tmp_path, capsys,
                                                    recorded, message):
    """A characteristic recorded in the .res file is refused as --char
    would refuse it, and a huge one at once."""
    ideal = ideal_file(tmp_path, "xy.ideal", "x; y")
    out = tmp_path / "xy.res"
    assert main(["resolve", ideal, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["characteristic"] = recorded
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", str(out)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_relabel_between_the_twins(tmp_path, capsys):
    m = ideal_file(tmp_path, "m.ideal", TWIN_A_TEXT)
    n = ideal_file(tmp_path, "n.ideal", TWIN_B_TEXT)
    out = str(tmp_path / "n.res")
    assert main(["relabel", m, n, "-o", out]) == 0
    assert "13 degree strands exact" in capsys.readouterr().err
    assert main(["verify", out]) == 0


def test_relabel_needs_isomorphic_betti_posets(tmp_path, capsys):
    m = ideal_file(tmp_path, "m.ideal", TWIN_A_TEXT)
    xyz = ideal_file(tmp_path, "xyz.ideal", "x; y; z")
    assert main(["relabel", m, xyz]) == 2
    assert "not isomorphic" in capsys.readouterr().err


# --------------------------------------------------------------------------
# scarf and deformations

def test_scarf_text_and_json(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "path3.ideal", "x*y; y*z; z*w")
    assert main(["scarf", ideal]) == 0
    assert capsys.readouterr().out == "{}\n{1}\n{2}\n{3}\n{1,2}\n{2,3}\n"
    assert main(["scarf", ideal, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_schema("lattice"))
    assert payload["supports"] == [[], [1], [2], [3], [1, 2], [2, 3]]


def test_subset_oracles_refuse_more_than_twelve_generators(tmp_path, capsys):
    # both enumerate all 2^n generator subsets
    cycle = "; ".join(f"x{i}*x{(i + 1) % 13}" for i in range(13))
    ideal = ideal_file(tmp_path, "c13.ideal", cycle)
    for command in ("scarf", "taylor"):
        start = time.monotonic()
        assert main([command, ideal]) == 1
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().err == (
            "error: 13 generators exceed the bound 12\n")


def test_deform_simplicial_with_explicit_facets(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "xyz.ideal", "x; y; z")
    assert main(["deform-simplicial", ideal, "--facets", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "certificate: rigid=yes betti-preserved=yes relabel-verified=yes" in out
    assert "added supports: none" in out


def test_deform_simplicial_negative_certificate(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "triple.ideal", "x^2; x*y; y^2")
    assert main(["deform-simplicial", ideal, "--facets", "1,2,3"]) == 2
    out = capsys.readouterr().out
    assert "betti-preserved=no" in out
    assert "added supports: {1,3}" in out


def test_deform_simplicial_rejects_bad_facets(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "xyz.ideal", "x; y; z")
    assert main(["deform-simplicial", ideal, "--facets", "0,1"]) == 1
    assert main(["deform-simplicial", ideal, "--facets", "a,b"]) == 1
    assert main(["deform-simplicial", ideal, "--facets", " "]) == 1
    capsys.readouterr()
    # the vertex set is checked in the 1-based numbers the option uses
    path = ideal_file(tmp_path, "path.ideal", "x*y; y*z; z*w")
    for facets in ("1,4", "1,2"):
        assert main(["deform-simplicial", path, "--facets", facets]) == 1
        assert ("facets must use exactly the generator numbers 1..3, "
                f"got {facets}") in capsys.readouterr().err


def test_deform_search_hexagon_reports_every_augmentation(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "hexagon.ideal", HEXAGON_TEXT)
    assert main(["deform-search", ideal, "--budget", "1"]) == 2
    out = capsys.readouterr().out
    assert "base totals: 1,6,9,6,2" in out
    assert "scanned 35 augmentations:" in out
    assert "no rigid deformation found" in out
    assert out.count("  +{") == 35


def test_twin_a_budget_two_scan_is_frozen(tmp_path, capsys):
    # 1,275 augmentations, some with the base totals, and a Betti-poset
    # candidate: the certification path the hexagon never reaches
    ideal = ideal_file(tmp_path, "m.ideal", TWIN_A_TEXT)
    assert main(["deform-search", ideal, "--budget", "2"]) == 2
    out = capsys.readouterr().out
    assert "scanned 1275 augmentations:" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ec197853c21e134bf9938b3b9a9d3dfe12595d4ac1ed3b575123d029dfc85656")


POSITIVE_CONTROL_A = "a*d^2; a*c*d; a*b*c; a*b^2*d"
POSITIVE_CONTROL_B = "x0*x1*x3; x0*x2; x2*x3"


@pytest.mark.parametrize("char", ["0", "2"])
@pytest.mark.parametrize("text, digest", [
    (POSITIVE_CONTROL_A,
     "70626b634e5b86d466ab72e74ef0b0f3f08382054f57f973c46c9203aabe609a"),
    (POSITIVE_CONTROL_B,
     "5a1643b2cb813495b01b6140a10b046527c1628048c80273cfff65856ae45ddd"),
], ids=["a", "b"])
def test_positive_control_scan_is_frozen(tmp_path, capsys, text, char,
                                         digest):
    # non-rigid ideals whose budget-1 scan certifies: the certificate,
    # the Betti-poset line and the written target lattice
    ideal = ideal_file(tmp_path, "m.ideal", text)
    lattice = tmp_path / "t.lattice"
    code = main(["deform-search", ideal, "--budget", "1", "--char", char,
                 "-o", str(lattice)])
    out = capsys.readouterr().out
    assert "rigid deformation found:" in out
    run = f"{code}\n{out}".encode() + lattice.read_bytes()
    assert hashlib.sha256(run).hexdigest() == digest


def test_deform_search_budget_beyond_the_missing_supports(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "triangle.ideal", "x*y; y*z; x*z")
    assert main(["deform-search", ideal, "--budget", "3"]) == 2
    small = capsys.readouterr().out
    start = time.perf_counter()
    assert main(["deform-search", ideal, "--budget", "200000"]) == 2
    assert time.perf_counter() - start < 1
    large = capsys.readouterr().out
    assert "budget: 3\n" in small and "budget: 200000\n" in large
    assert (large.replace("budget: 200000\n", "")
            == small.replace("budget: 3\n", ""))


def test_deform_search_rigid_input_is_immediate(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "xyz.ideal", "x; y; z")
    lat = str(tmp_path / "t.lattice")
    assert main(["deform-search", ideal, "-o", lat]) == 0
    assert "rigid deformation found: added none" in capsys.readouterr().out
    payload = json.loads((tmp_path / "t.lattice").read_text())
    assert len(payload["supports"]) == 8


# --------------------------------------------------------------------------
# DOT export

def test_export_dot_square_all_filled(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "pair.ideal", "x*y; y*z")
    assert main(["export-dot", ideal]) == 0
    out = capsys.readouterr().out
    assert out.count("style=filled") == 4
    assert out.count("style=solid") == 0
    assert out.count(" -> ") == 4
    assert '"{}" [label="1", style=filled];' in out


def test_export_dot_marks_the_single_non_contributor(tmp_path, capsys):
    ideal = ideal_file(tmp_path, "m.ideal", TWIN_A_TEXT)
    assert main(["export-dot", ideal]) == 0
    out = capsys.readouterr().out
    assert out.count("style=filled") == 13
    assert out.count("style=solid") == 1
    assert '"{2,3,4}" [label="a*b*c*d*e^2*f^2", style=solid];' in out


def test_export_dot_names_the_variables_of_a_lattice_file(tmp_path, capsys):
    # a .lattice file keeps degrees but not variable names: x1, x2, ...
    ideal = ideal_file(tmp_path, "pair.ideal", "a*b; b*c")
    lattice = str(tmp_path / "pair.lattice")
    assert main(["lcm-lattice", ideal, "-o", lattice]) == 0
    assert main(["export-dot", lattice]) == 0
    out = capsys.readouterr().out
    assert '"{1,2}" [label="x1*x2*x3", style=filled];' in out
    assert '"{2}" [label="x2*x3", style=filled];' in out


def test_export_dot_is_byte_identical_across_runs(tmp_path):
    ideal = ideal_file(tmp_path, "m.ideal", TWIN_A_TEXT)
    first, second = str(tmp_path / "a.dot"), str(tmp_path / "b.dot")
    assert main(["export-dot", ideal, "-o", first]) == 0
    assert main(["export-dot", ideal, "-o", second]) == 0
    assert (tmp_path / "a.dot").read_bytes() == (tmp_path / "b.dot").read_bytes()


def test_export_dot_function_orders_nodes_canonically():
    P = Poset([frozenset(), frozenset({1}), frozenset({0}),
               frozenset({0, 1})])
    text = export_dot(P, highlight=[frozenset({0, 1})])
    node_lines = [l for l in text.splitlines() if "label=" in l]
    assert node_lines[0].startswith('  "{}"')
    assert node_lines[-1] == '  "{1,2}" [label="{1,2}", style=filled];'


# --------------------------------------------------------------------------
# configuration and exit codes

def test_characteristic_is_checked_before_the_command_runs(tmp_path, capsys):
    path = ideal_file(tmp_path, "xy.ideal", "x; y")
    assert main(["betti-numbers", path, "--char", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: characteristic must be 0 or a prime, got 6\n"
    assert main(["betti-numbers", path, "--char", "5"]) == 0
    assert capsys.readouterr().out == "totals: 1,2,1\n"


def test_huge_characteristic_is_refused_at_once(tmp_path, capsys):
    path = ideal_file(tmp_path, "xy.ideal", "x; y")
    start = time.perf_counter()
    assert main(["betti-numbers", path, "--char", str(2**61 - 1)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", "error: characteristic must be at most 2147483647, "
            "got 2305843009213693951\n")
    assert main(["betti-numbers", path, "--char", str(2**31 - 1)]) == 0
    assert capsys.readouterr().out == "totals: 1,2,1\n"


def _subcommands():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_subcommand_names_its_handler():
    commands = _subcommands()
    assert len(commands) == 13
    for name, p in commands.items():
        assert callable(p.get_default("run")), name


def test_json_flag_exists_on_exactly_the_table_commands():
    with_json = {name for name, p in _subcommands().items()
                 if any("--json" in a.option_strings for a in p._actions)}
    assert with_json == {"betti-numbers", "taylor", "scarf"}


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["resolve"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_missing_and_misnamed_files_exit_one(tmp_path, capsys):
    assert main(["betti-numbers", str(tmp_path / "nope.ideal")]) == 1
    txt = tmp_path / "ideal.txt"
    txt.write_text("x; y")
    assert main(["resolve", str(txt)]) == 1
    assert main(["betti-numbers", str(tmp_path / "nope.ideal"),
                 "--char", "4"]) == 1
    capsys.readouterr()
    assert main(["betti-numbers", str(txt)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {txt}: expected an .ideal or .lattice file\n")
