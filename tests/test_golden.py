"""Frozen command-line outputs.

For each fixture and characteristic, every command below is run through
``rigidres.cli.main`` and reduced to one sha256 over its exit code,
stdout, stderr and the file it wrote with ``-o`` (if any).  A change
that is meant to keep the outputs byte-identical must leave every
digest here unchanged; a change that alters an output on purpose
recomputes the digest with ``command_digests`` and says why.

The twin, 17-element and hexagon fixtures run ``deform-simplicial`` on
their Scarf complexes, which do not support their resolutions (exit 1,
no file); the path ideal adds a deformation that succeeds and writes
its target lattice with both deform commands.

A second table, ``READERS``, freezes the commands that read interval
homology without a degree-labelled input: ``is-rigid`` and
``betti-poset`` on the ideal, and ``betti-numbers`` with and without
``--json`` on the lcm-lattice with its ``degrees`` key removed (with
``--json`` that is the exit-1 refusal, whose message names the file, so
the temporary directory is cut from the captured text before hashing).
"""

import hashlib
import json

import pytest

from rigidres.cli import main

from conftest import HEXAGON_TEXT, SQUAREFREE17_TEXT, TWIN_A_TEXT, TWIN_B_TEXT

PATH_TEXT = "x*y; y*z; z*w"

# fixture → (ideal text, relabel target text, deform-simplicial facets)
FIXTURES = {
    "twin": (TWIN_A_TEXT, TWIN_B_TEXT, None),
    "squarefree17": (SQUAREFREE17_TEXT, SQUAREFREE17_TEXT, None),
    "hexagon": (HEXAGON_TEXT, HEXAGON_TEXT, None),
    "path": (PATH_TEXT, PATH_TEXT, "1,2; 2,3"),
}


def _commands(ideal, target, lattice, out, facets):
    simplicial = ["deform-simplicial", ideal, "-o", out]
    if facets is not None:
        simplicial += ["--facets", facets]
    return {
        "resolve": ["resolve", ideal],
        "relabel": ["relabel", ideal, target],
        "betti-numbers-ideal": ["betti-numbers", ideal, "--json"],
        "betti-numbers-lattice": ["betti-numbers", lattice, "--json"],
        "export-dot": ["export-dot", ideal],
        "deform-simplicial": simplicial,
        "deform-search": ["deform-search", ideal, "--budget", "1", "-o", out],
    }


def _reader_commands(ideal, unlabelled):
    return {
        "is-rigid": ["is-rigid", ideal],
        "betti-poset": ["betti-poset", ideal],
        "betti-numbers-unlabelled": ["betti-numbers", unlabelled],
        "betti-numbers-unlabelled-json": ["betti-numbers", unlabelled,
                                          "--json"],
    }


def _write_inputs(name, directory, capsys):
    """The fixture's ideal, target ideal, lcm-lattice and the lattice
    with its degrees removed, written into directory."""
    text, target_text, _ = FIXTURES[name]
    paths = {kind: directory / f"{name}{suffix}" for kind, suffix in (
        ("ideal", ".ideal"), ("target", "-target.ideal"),
        ("lattice", ".lattice"), ("unlabelled", "-unlabelled.lattice"))}
    paths["ideal"].write_text(text + "\n")
    paths["target"].write_text(target_text + "\n")
    assert main(["lcm-lattice", str(paths["ideal"]),
                 "-o", str(paths["lattice"])]) == 0
    capsys.readouterr()
    payload = json.loads(paths["lattice"].read_text())
    del payload["degrees"]
    paths["unlabelled"].write_text(json.dumps(payload))
    return {kind: str(path) for kind, path in paths.items()}


def _digests(commands, characteristic, directory, capsys):
    """{label: sha256 hex} over exit code, stdout, stderr (with the
    directory's name cut out) and the file written to directory/out."""
    out = directory / "out"
    digests = {}
    for label, argv in commands.items():
        if out.exists():
            out.unlink()
        code = main(argv + ["--char", str(characteristic)])
        captured = capsys.readouterr()
        written = out.read_bytes() if out.exists() else b"<no file>"
        stdout, stderr = (text.replace(str(directory), "<tmp>")
                          for text in (captured.out, captured.err))
        record = b"\0".join([str(code).encode(), stdout.encode(),
                             stderr.encode(), written])
        digests[label] = hashlib.sha256(record).hexdigest()
    return digests


def command_digests(name, characteristic, directory, capsys):
    """{command: sha256 hex} for one fixture in one characteristic."""
    paths = _write_inputs(name, directory, capsys)
    commands = _commands(paths["ideal"], paths["target"], paths["lattice"],
                         str(directory / "out"), FIXTURES[name][2])
    return _digests(commands, characteristic, directory, capsys)


def reader_digests(name, characteristic, directory, capsys):
    """{command: sha256 hex} of the ``READERS`` commands."""
    paths = _write_inputs(name, directory, capsys)
    commands = _reader_commands(paths["ideal"], paths["unlabelled"])
    return _digests(commands, characteristic, directory, capsys)


GOLDEN = {
    ('twin', 0): {
        'resolve':
            'd84fe37cc95f79b1554eef35b84af5b6a78e1a8b38575801d6a5eeb977066e27',
        'relabel':
            '584590a247c66c920c1e69df8d9757cd06c138f6abb8d719c9168889c39007a5',
        'betti-numbers-ideal':
            '3c6956f3f44d70e6171039bf85ed2f415cb68efeb52962a0c906c9c46723d6af',
        'betti-numbers-lattice':
            '3c6956f3f44d70e6171039bf85ed2f415cb68efeb52962a0c906c9c46723d6af',
        'export-dot':
            'ad5d772217e5d2af167d651df32ee4c4afc6bfced4597347f9cd43f5438ab1aa',
        'deform-simplicial':
            'c4a8dbfb896a77d22bd9a7e6d4a8b1ec5cb54027da6b48fa2b22bcbe856d04b1',
        'deform-search':
            'ce8624c3703b5fca19a8b590769f902973918c3556fea6c7cb336fb469b0c399',
    },
    ('twin', 2): {
        'resolve':
            '1f62d59ede16e005bbfae8d6cbbd1ce1192f2d7d75529e4de84e9453370581c3',
        'relabel':
            'a6bee5518934ac840ef4f72a32775f9b7cff17ca7180d36571fc3fce30f24e28',
        'betti-numbers-ideal':
            '3c6956f3f44d70e6171039bf85ed2f415cb68efeb52962a0c906c9c46723d6af',
        'betti-numbers-lattice':
            '3c6956f3f44d70e6171039bf85ed2f415cb68efeb52962a0c906c9c46723d6af',
        'export-dot':
            'ad5d772217e5d2af167d651df32ee4c4afc6bfced4597347f9cd43f5438ab1aa',
        'deform-simplicial':
            'c4a8dbfb896a77d22bd9a7e6d4a8b1ec5cb54027da6b48fa2b22bcbe856d04b1',
        'deform-search':
            'ce8624c3703b5fca19a8b590769f902973918c3556fea6c7cb336fb469b0c399',
    },
    ('squarefree17', 0): {
        'resolve':
            '466a005a3b9f2636e920f62ac4d9ccd0753c7e6be6726af04ff50101df72e97d',
        'relabel':
            '8141e438b0ba9f9aa6a2f6456fca9096c079986291b1431b2ca909eab6772068',
        'betti-numbers-ideal':
            'b3def003bb59d5104aaac4ed6fac81d474d53496472941d3afd8183e6b7db9ae',
        'betti-numbers-lattice':
            'b3def003bb59d5104aaac4ed6fac81d474d53496472941d3afd8183e6b7db9ae',
        'export-dot':
            '452f495f1c31e3e19910e600533ba8204706bc847e353b4b8673607c6cb88668',
        'deform-simplicial':
            '57d14aa25f4450408838b1ef431471b4c8031ad227d0c77575690dd0cd858fbe',
        'deform-search':
            '81e815aa8eff5d7564fb4f3db7bf7fee369c89da914ce9e2da0a5d95562a4a01',
    },
    ('squarefree17', 2): {
        'resolve':
            '2f6667add53c92aef254230af401e1d35f8669fc20d980ce286e0a0bed89acf5',
        'relabel':
            '8122e37d708a31395016c046af33b42e770000a00456ebb274033117cc2eda65',
        'betti-numbers-ideal':
            'b3def003bb59d5104aaac4ed6fac81d474d53496472941d3afd8183e6b7db9ae',
        'betti-numbers-lattice':
            'b3def003bb59d5104aaac4ed6fac81d474d53496472941d3afd8183e6b7db9ae',
        'export-dot':
            '452f495f1c31e3e19910e600533ba8204706bc847e353b4b8673607c6cb88668',
        'deform-simplicial':
            '57d14aa25f4450408838b1ef431471b4c8031ad227d0c77575690dd0cd858fbe',
        'deform-search':
            '81e815aa8eff5d7564fb4f3db7bf7fee369c89da914ce9e2da0a5d95562a4a01',
    },
    ('hexagon', 0): {
        'resolve':
            '5337ee442876a0b25e1a89383fdd8d989444e3c5971d64615883e1ecd991eb75',
        'relabel':
            'eac5b230544bb02ac086936417f5569f0142dae1d1ee04d6fe26c36a485b1dec',
        'betti-numbers-ideal':
            '040b22fc0d62b2151257ed59f6710d428093bb685f52027048d21b6ec9607746',
        'betti-numbers-lattice':
            '040b22fc0d62b2151257ed59f6710d428093bb685f52027048d21b6ec9607746',
        'export-dot':
            '3b89b59c89c93f0988de3ded5bb38fc5cda018c94b5360a18eb32c308a957d3d',
        'deform-simplicial':
            '9820924f32de8495e9ce3bed66549e6eda91c002160625558873195562bc74d9',
        'deform-search':
            '285f78cb18dc769d7afcbe0e5242d205dd66303ff9b58249f7922d1d1003a8bf',
    },
    ('hexagon', 2): {
        'resolve':
            '8a24e8a76bb7cdaee7a879c2bf146eb47d7ffa4f2fb9512ccf6e10a944b8470d',
        'relabel':
            '3daad53a5ba0b5c52ccf307e85aecd9831fd6521da7bd866868afb2b187af571',
        'betti-numbers-ideal':
            '040b22fc0d62b2151257ed59f6710d428093bb685f52027048d21b6ec9607746',
        'betti-numbers-lattice':
            '040b22fc0d62b2151257ed59f6710d428093bb685f52027048d21b6ec9607746',
        'export-dot':
            '3b89b59c89c93f0988de3ded5bb38fc5cda018c94b5360a18eb32c308a957d3d',
        'deform-simplicial':
            '9820924f32de8495e9ce3bed66549e6eda91c002160625558873195562bc74d9',
        'deform-search':
            '285f78cb18dc769d7afcbe0e5242d205dd66303ff9b58249f7922d1d1003a8bf',
    },
    ('path', 0): {
        'resolve':
            '57badeeb10d9bae517d592d565673a04d68ef3ed111824ed40bcde12e8f9e8f4',
        'relabel':
            '57032e9965f02688c3b22dc53058639a2b52dc2005a67f341d992c2239c9b153',
        'betti-numbers-ideal':
            '8707e67c4a7943ce7081979615b60d33469f7228621d84dbc3be3d3308907e2a',
        'betti-numbers-lattice':
            '8707e67c4a7943ce7081979615b60d33469f7228621d84dbc3be3d3308907e2a',
        'export-dot':
            '45abe334b73b8a6441d1f19674e6988c2aeb40d87d7c2285a451a3e94e938e6e',
        'deform-simplicial':
            'e6d51d7490a3d9176d401c850fa2bc731151ba5c5785eff0d6ac3c9ecd13242b',
        'deform-search':
            'feaa2afe38bf0c69e1c4280a83ba4a76672d04abc9f46719d0135f8fc4b4a7ef',
    },
    ('path', 2): {
        'resolve':
            'ac8431571d2b02dc6c3a3ed9527ad3b20ec2ed42d4919d02346c35df2ce46d26',
        'relabel':
            '24d403ec0a1253144052e7afa99a9dfed62d4e1ab3a823f1899993a9beb05c9f',
        'betti-numbers-ideal':
            '8707e67c4a7943ce7081979615b60d33469f7228621d84dbc3be3d3308907e2a',
        'betti-numbers-lattice':
            '8707e67c4a7943ce7081979615b60d33469f7228621d84dbc3be3d3308907e2a',
        'export-dot':
            '45abe334b73b8a6441d1f19674e6988c2aeb40d87d7c2285a451a3e94e938e6e',
        'deform-simplicial':
            'e6d51d7490a3d9176d401c850fa2bc731151ba5c5785eff0d6ac3c9ecd13242b',
        'deform-search':
            'feaa2afe38bf0c69e1c4280a83ba4a76672d04abc9f46719d0135f8fc4b4a7ef',
    },
}


@pytest.mark.parametrize("name,characteristic", sorted(GOLDEN))
def test_cli_outputs_are_frozen(name, characteristic, tmp_path, capsys):
    got = command_digests(name, characteristic, tmp_path, capsys)
    assert got == GOLDEN[(name, characteristic)]


READERS = {
    ('twin', 0): {
        'is-rigid':
            'a553dde4e62c62ab7dc5051c4cd0f4657c890461731a89d07656c1cfb204f344',
        'betti-poset':
            '01de07f9105373a6693784942b92c4fe2b6b03328a7f6399a8db6d71d538496c',
        'betti-numbers-unlabelled':
            '0f8692b2a0d411b36a5054e0b666352cd49355a5f1e87f189865484bcf352c67',
        'betti-numbers-unlabelled-json':
            '82efc10265c70f0075d16a57fcc44c3d0569417d60c5f14074969e4c96388c12',
    },
    ('twin', 2): {
        'is-rigid':
            'a553dde4e62c62ab7dc5051c4cd0f4657c890461731a89d07656c1cfb204f344',
        'betti-poset':
            '01de07f9105373a6693784942b92c4fe2b6b03328a7f6399a8db6d71d538496c',
        'betti-numbers-unlabelled':
            '0f8692b2a0d411b36a5054e0b666352cd49355a5f1e87f189865484bcf352c67',
        'betti-numbers-unlabelled-json':
            '82efc10265c70f0075d16a57fcc44c3d0569417d60c5f14074969e4c96388c12',
    },
    ('squarefree17', 0): {
        'is-rigid':
            'd456e71f2d9ebf551f996ec30b0a2e9f30fb74d3b21914c4a95a36cb6f6ace37',
        'betti-poset':
            'e18f31fa00e548f804f5ae24cffe8be4460ce79a7cb07891a55af94e3f170fc4',
        'betti-numbers-unlabelled':
            '0d37e4b9353258aeeaff4c73ab22ed1c252f41259da8415a0b1471ffe4ebcb97',
        'betti-numbers-unlabelled-json':
            'c759dda7be4688068f038ac6a1bb08eef401f7a1a74db7ddae173423fefa9563',
    },
    ('squarefree17', 2): {
        'is-rigid':
            'd456e71f2d9ebf551f996ec30b0a2e9f30fb74d3b21914c4a95a36cb6f6ace37',
        'betti-poset':
            'e18f31fa00e548f804f5ae24cffe8be4460ce79a7cb07891a55af94e3f170fc4',
        'betti-numbers-unlabelled':
            '0d37e4b9353258aeeaff4c73ab22ed1c252f41259da8415a0b1471ffe4ebcb97',
        'betti-numbers-unlabelled-json':
            'c759dda7be4688068f038ac6a1bb08eef401f7a1a74db7ddae173423fefa9563',
    },
    ('hexagon', 0): {
        'is-rigid':
            '27211d422b26d513c29548aaa01551807c533afeaa796db00bd6ae775ae30635',
        'betti-poset':
            '48e5ce0f81a1b39e31e00b5515e89344cb76a6a4a60148b4971239546d404793',
        'betti-numbers-unlabelled':
            '603cf33a6573a1422b6369e785fb9a989cc15aaf6300b8768726d18fdce13290',
        'betti-numbers-unlabelled-json':
            '25cee28bfb763d55030c8166117a4229907c9257b644f4266d4b91b016371aee',
    },
    ('hexagon', 2): {
        'is-rigid':
            '27211d422b26d513c29548aaa01551807c533afeaa796db00bd6ae775ae30635',
        'betti-poset':
            '48e5ce0f81a1b39e31e00b5515e89344cb76a6a4a60148b4971239546d404793',
        'betti-numbers-unlabelled':
            '603cf33a6573a1422b6369e785fb9a989cc15aaf6300b8768726d18fdce13290',
        'betti-numbers-unlabelled-json':
            '25cee28bfb763d55030c8166117a4229907c9257b644f4266d4b91b016371aee',
    },
    ('path', 0): {
        'is-rigid':
            '047595aa9f44911f122d1bd05b5c97514269d254db2786fef29d91df84a5273b',
        'betti-poset':
            '0ea69bdf2d4272a677cc0e20662872f11cbbc73a49070c126f7573463f9fd2f6',
        'betti-numbers-unlabelled':
            'ef0ab55144e5bac4fff5f976bdcc860aacf5ace1b8f6fd3f3c4e41a3107119e4',
        'betti-numbers-unlabelled-json':
            'acd2da8ea40b554cf4e5ec23f608e67bb8e3bff3701f474ef153c7f20e66ab4c',
    },
    ('path', 2): {
        'is-rigid':
            '047595aa9f44911f122d1bd05b5c97514269d254db2786fef29d91df84a5273b',
        'betti-poset':
            '0ea69bdf2d4272a677cc0e20662872f11cbbc73a49070c126f7573463f9fd2f6',
        'betti-numbers-unlabelled':
            'ef0ab55144e5bac4fff5f976bdcc860aacf5ace1b8f6fd3f3c4e41a3107119e4',
        'betti-numbers-unlabelled-json':
            'acd2da8ea40b554cf4e5ec23f608e67bb8e3bff3701f474ef153c7f20e66ab4c',
    },
}


@pytest.mark.parametrize("name,characteristic", sorted(READERS))
def test_interval_readers_are_frozen(name, characteristic, tmp_path, capsys):
    got = reader_digests(name, characteristic, tmp_path, capsys)
    assert got == READERS[(name, characteristic)]
