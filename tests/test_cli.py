"""End-to-end tests for the command-line interface.

Everything goes through ``main(argv)`` with captured stdout/stderr, which is
much faster than spawning subprocesses; one smoke test at the bottom checks
that ``python3 -m twinbuild`` is wired up at all.
"""

import argparse
import functools
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from twinbuild import errors
from twinbuild.building import standard_chamber, weyl_matrix
from twinbuild.cli import _matrix_text, _parse_matrix, main
from twinbuild.coxeter import word_to_affine
from twinbuild.exactalg import GaussRat, LMat, LaurentPoly, mat_to_json
from twinbuild.verify import available_suites

SCHEMA_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "docs" / "envelope.schema.json"
)


def run_cli(capsys, *argv):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden text outputs
# ---------------------------------------------------------------------------


def test_codelta_of_standard_pair_is_empty_word(capsys):
    code, out, _ = run_cli(capsys, "codelta", "--n", "3")
    assert code == 0
    assert out == "\n"


def test_schubert_series_of_identity_is_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "poincare", "schubert",
        "--type", "A3", "--quotient", "J=2,3", "--w", "",
    )
    assert code == 0
    assert out == "1\n"


def test_loop_series_degree_six(capsys):
    code, out, _ = run_cli(capsys, "poincare", "loop", "--n", "4", "--deg", "6")
    assert code == 0
    assert out == "[1,0,1,0,2,0,3]\n"


def test_bott_check_inside_guaranteed_window(capsys):
    code, out, _ = run_cli(capsys, "poincare", "bott-check", "--k", "2", "--deg", "5")
    assert code == 0
    assert out == "true\n"


def test_bott_check_reports_divergence(capsys):
    code, out, _ = run_cli(capsys, "poincare", "bott-check", "--k", "2", "--deg", "6")
    assert code == 0
    assert out == "false\n"


def test_coset_representatives_listing(capsys):
    code, out, _ = run_cli(
        capsys,
        "coxeter", "cosets",
        "--type", "A~3", "--quotient", "J=2,4", "--within", "K=1,2,4",
    )
    assert code == 0
    assert out.splitlines() == ["", "1", "2,1", "4,1", "2,4,1", "1,2,4,1"]


def test_coxeter_reduce_and_length(capsys):
    code, out, _ = run_cli(
        capsys, "coxeter", "reduce", "--type", "A2", "--word", "1,1,2",
    )
    assert code == 0
    assert out == "2\n"

    code, out, _ = run_cli(
        capsys, "coxeter", "length", "--type", "A2", "--word", "1,2,1",
    )
    assert code == 0
    assert out == "3\n"


def test_coxeter_bruhat_order(capsys):
    code, out, _ = run_cli(
        capsys, "coxeter", "bruhat", "--type", "A2", "--v", "1", "--w", "1,2,1",
    )
    assert code == 0
    assert out == "true\n"

    code, out, _ = run_cli(
        capsys, "coxeter", "bruhat", "--type", "A2", "--v", "1,2", "--w", "2,1",
    )
    assert code == 0
    assert out == "false\n"


def test_veronese_spherical_golden_line(capsys):
    code, out, _ = run_cli(
        capsys, "veronese", "spherical", "--flag", "1,0", "--weights", "1",
    )
    assert code == 0
    assert out == "-1/2,0;0,1/2\n"


def test_veronese_affine_vertex(capsys):
    code, out, _ = run_cli(capsys, "veronese", "affine", "--n", "2", "--k", "1")
    assert code == 0
    assert out == "1/2,0;0,-1/2\n"


def test_veronese_caveat_default_window(capsys):
    code, out, _ = run_cli(capsys, "veronese", "caveat", "--n", "2", "--deg", "6")
    assert code == 0
    assert out == "true\n"


# ---------------------------------------------------------------------------
# word distance round trips driven through the CLI
# ---------------------------------------------------------------------------


def test_delta_recovers_planted_word(capsys):
    d = standard_chamber("+", 3).rep @ weyl_matrix(word_to_affine((1, 2, 1), 3))
    code, out, _ = run_cli(
        capsys, "delta", "--side", "+", "--n", "3", "--d", _matrix_text(d),
    )
    assert code == 0
    assert out == "1,2,1\n"


def test_matrix_text_round_trips_through_delta(capsys):
    # Echoing a chamber matrix back into delta against itself gives the
    # identity word, so the compact matrix format is parse/print stable.
    d = standard_chamber("+", 3).rep @ weyl_matrix(word_to_affine((2, 1), 3))
    text = _matrix_text(d)
    assert _parse_matrix(text) == d
    code, out, _ = run_cli(
        capsys,
        "delta", "--side", "+", "--n", "3", "--c", text, "--d", text,
    )
    assert code == 0
    assert out == "\n"


def test_json_matrix_input_is_accepted(capsys):
    blob = json.dumps([["1", "z"], ["0", "1"]])
    code, out, _ = run_cli(
        capsys, "delta", "--side", "+", "--n", "2", "--d", blob,
    )
    assert code == 0
    assert out == "\n"  # upper triangular, same chamber as the standard one


def test_coords_encode_decode_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "coords", "encode", "--n", "2",
        "--chamber", "1,0;z^2 + (i),1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("word: ")
    assert lines[1].startswith("coords: ")
    word = lines[0].removeprefix("word: ")
    coords = lines[1].removeprefix("coords: ")

    code, out, _ = run_cli(
        capsys,
        "coords", "decode", "--n", "2",
        "--word", word, "--coords", coords,
    )
    assert code == 0
    recovered = _parse_matrix(out.strip())

    # Same chamber: distance from the original must be the empty word.
    code, out, _ = run_cli(
        capsys,
        "delta", "--side", "+", "--n", "2",
        "--c", "1,0;z^2 + (i),1", "--d", _matrix_text(recovered),
    )
    assert code == 0
    assert out == "\n"


def test_coords_decode_accepts_infinity(capsys):
    """INF is the point at infinity of the letter's panel: the letter's
    factor is skipped, so the gallery stays at the identity chamber."""
    code, out, _ = run_cli(
        capsys,
        "coords", "decode", "--n", "2",
        "--word", "1", "--coords", "INF", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "coords.decode",
        "parameters": {
            "cminus": None, "coords": "INF", "cplus": None, "n": 2, "word": "1",
        },
        "result": {"chamber": [["1", "0"], ["0", "1"]]},
        "schema": "twinbuild/1",
    }


@pytest.mark.parametrize(
    "coords", ["0.5", "1,0.5", "1e3,1", "nan,INF", "1,(0.5i)", "1+2,1", "0*z,1"]
)
def test_coords_decode_of_a_float_coordinate_is_a_usage_envelope(capsys, coords):
    """A float coordinate never reaches the library from the CLI: it is a
    usage error, with an envelope that validates against the schema.  So
    is a coordinate that is not one scalar (a sum, a multiple of z)."""
    import jsonschema

    code, out, _ = run_cli(
        capsys,
        "coords", "decode", "--n", "2", "--word", "1,2", "--coords", coords,
        "--format", "json",
    )
    assert code == 2
    doc = json.loads(out)
    jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))
    assert doc["error"]["code"] == "usage"


def test_decimal_weights_are_a_usage_envelope(capsys):
    """Weights are scalars of the text grammar: a decimal weight is a
    usage error, with an envelope that validates against the schema."""
    import jsonschema

    code, out, _ = run_cli(
        capsys,
        "veronese", "spherical", "--flag", "1,0", "--weights", "0.5,0.5",
        "--format", "json",
    )
    assert code == 2
    doc = json.loads(out)
    jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))
    assert doc["error"]["code"] == "usage"


def test_coords_decode_at_zero_gives_the_apartment_chamber(capsys):
    """Root-group coordinates reserve no value: coordinate 0 of letter 1
    on the standard pair at n = 2 is the chamber n_{s_1} B+ of the
    standard apartment, at Weyl distance s_1 from cp.  A change of
    coordinates has to change this output on purpose."""
    code, out, _ = run_cli(
        capsys,
        "coords", "decode", "--n", "2", "--word", "1", "--coords", "0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "coords.decode",
        "parameters": {
            "cminus": None, "coords": "0", "cplus": None, "n": 2, "word": "1",
        },
        "result": {"chamber": [["0", "1"], ["1", "0"]]},
        "schema": "twinbuild/1",
    }


def test_opposite_and_projection(capsys):
    code, out, _ = run_cli(
        capsys,
        "opposite", "--n", "2", "--cminus", "1,0;0,1", "--cplus", "1,0;0,1",
    )
    assert code == 0
    assert out == "true\n"

    code, out, _ = run_cli(
        capsys,
        "project", "--side", "+", "--basis", "1,0;0,1", "--keep", "0",
        "--chamber", "1,0;1,1",
    )
    assert code == 0
    gate = _parse_matrix(out.strip())
    assert (gate.nrows, gate.ncols) == (2, 2)


# ---------------------------------------------------------------------------
# JSON envelopes
# ---------------------------------------------------------------------------


def test_json_envelope_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        "poincare", "loop", "--n", "4", "--deg", "6", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "twinbuild/1"
    assert doc["command"] == "poincare.loop"
    assert doc["parameters"] == {"n": 4, "deg": 6}
    assert doc["result"]["coefficients"] == [1, 0, 1, 0, 2, 0, 3]


# One argv per leaf command, with the options its envelope echoes: every
# option of the command, as given, with its default when omitted.
_LEAF_PARAMETERS = [
    (("coxeter", "reduce", "--type", "A2", "--word", "1,1,2"), {"type", "word"}),
    (("coxeter", "length", "--type", "A2", "--word", "1,2,1"), {"type", "word"}),
    (("coxeter", "bruhat", "--type", "A2", "--v", "1", "--w", "1,2,1"), {"type", "v", "w"}),
    (("coxeter", "cosets", "--type", "A3", "--quotient", "J=1"),
     {"type", "quotient", "within", "max_length"}),
    (("delta", "--n", "2", "--d", "1,0;z,1"), {"side", "n", "c", "d"}),
    (("codelta", "--n", "2"), {"n", "cminus", "cplus"}),
    (("opposite", "--n", "2"), {"n", "cminus", "cplus"}),
    (("project", "--basis", "1,0;0,1", "--keep", "0", "--chamber", "1,0;1,1"),
     {"side", "basis", "keep", "chamber"}),
    (("project-twin", "--basis", "1,0;0,1", "--keep", "0", "--chamber", "1,0;1,1"),
     {"side", "basis", "keep", "chamber"}),
    (("coords", "encode", "--n", "2", "--chamber", "1,0;z,1"),
     {"n", "cminus", "cplus", "chamber", "word"}),
    (("coords", "decode", "--n", "2", "--word", "1", "--coords", "0"),
     {"n", "cminus", "cplus", "word", "coords"}),
    (("poincare", "schubert", "--type", "A3", "--w", "1"),
     {"type", "quotient", "w", "truncation"}),
    (("poincare", "loop", "--n", "2", "--deg", "2"), {"n", "deg"}),
    (("poincare", "bott-check", "--k", "2", "--deg", "2"), {"k", "deg"}),
    (("veronese", "spherical", "--flag", "1,0", "--weights", "1"), {"flag", "weights"}),
    (("veronese", "affine", "--n", "2", "--k", "1"), {"n", "k", "loop"}),
    (("veronese", "caveat", "--n", "2", "--deg", "2"), {"n", "deg", "x"}),
    (("verify", "cell-series", "--count", "1"), {"suite", "seed", "count"}),
]


@pytest.mark.parametrize(
    "argv, keys", _LEAF_PARAMETERS, ids=[" ".join(a[:2]).split(" --")[0] for a, _ in _LEAF_PARAMETERS]
)
def test_parameters_echo_every_option_of_the_command(capsys, argv, keys):
    """A success envelope echoes each option of its command, as given or
    at its default, and nothing else: not the command path, the format or
    the handler."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    _envelope_validator().validate(doc)
    assert set(doc["parameters"]) == keys


@pytest.mark.parametrize(
    "argv",
    [
        ("delta", "--n", "4", "--c", "1,0;0,1", "--d", "1,0;z,1"),
        ("delta", "--n", "3", "--d", "1,0;z,1"),
        ("codelta", "--n", "5", "--cminus", "1,0;0,1", "--cplus", "1,0;0,1"),
        ("opposite", "--n", "3", "--cplus", "1,0;0,1"),
        ("coords", "encode", "--n", "3", "--chamber", "1,0;z,1"),
        ("coords", "decode", "--n", "3", "--cminus", "1,0;0,1", "--word", "1", "--coords", "0"),
    ],
    ids=lambda argv: " ".join(argv[:2]).split(" --")[0] + f" n={argv[argv.index('--n') + 1]}",
)
def test_a_basis_of_another_size_than_n_is_a_usage_error(capsys, argv):
    """A basis whose size differs from a given --n is a usage error, exit
    2, with a usage envelope that validates against the schema; without
    --format json the message goes to stderr."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    doc = json.loads(out)
    _envelope_validator().validate(doc)
    assert doc["error"]["code"] == "usage"
    assert "does not match --n" in doc["error"]["message"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: a 2x2 basis does not match --n ")


@pytest.mark.parametrize(
    "argv, what",
    [
        (("veronese", "affine", "--n", "3", "--k", "1", "--loop", "1,0;0,1"), "2x2 loop"),
        (("veronese", "affine", "--n", "2", "--k", "1", "--loop", "1,0,0;0,1,0"), "2x3 loop"),
        (("veronese", "caveat", "--n", "3", "--deg", "4", "--x", "z+z^-1,0;0,-z-z^-1"),
         "2x2 matrix"),
        (("veronese", "caveat", "--n", "1", "--deg", "4", "--x", "z+z^-1,0;0,-z-z^-1"),
         "2x2 matrix"),
    ],
    ids=["affine n=3", "affine 2x3", "caveat n=3", "caveat n=1"],
)
def test_a_veronese_matrix_of_another_size_than_n_is_a_usage_error(capsys, argv, what):
    """A --loop or --x that is not n x n is a usage error, exit 2, as a
    basis is: no run at the matrix's own size echoing the other n."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    doc = json.loads(out)
    _envelope_validator().validate(doc)
    assert doc["error"] == {
        "code": "usage", "message": f"a {what} does not match --n {argv[3]}",
    }
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: a {what} does not match --n {argv[3]}\n"


def test_veronese_matrices_of_size_n_run(capsys):
    assert run_cli(capsys, "veronese", "affine", "--n", "2", "--k", "1",
                   "--loop", "1,0;0,1") == (0, "1/2,0;0,-1/2\n", "")
    assert run_cli(capsys, "veronese", "caveat", "--n", "2", "--deg", "4",
                   "--x", "1/2,0;0,-1/2") == (0, "false\n", "")
    code, out, _ = run_cli(capsys, "veronese", "caveat", "--n", "2", "--deg", "4",
                           "--x", "z+z^-1,0;0,-z-z^-1", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"no_truncated_kernel": True}


def test_every_leaf_command_has_a_parameter_case():
    """The table above names every leaf command of the parser."""
    from twinbuild.cli import _build_parser

    def leaves(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return [path]
        return [leaf for name, q in subs[0].choices.items() for leaf in leaves(q, path + (name,))]

    paths = leaves(_build_parser(), ())
    assert len(paths) == len(_LEAF_PARAMETERS)
    for path in paths:
        assert any(argv[:len(path)] == path for argv, _ in _LEAF_PARAMETERS), path


def test_parameters_are_the_options_as_given(capsys):
    """Generator sets are echoed as typed, and an omitted option as its
    default."""
    _, out, _ = run_cli(
        capsys, "coxeter", "cosets", "--type", "A~3", "--quotient", "J=2,4",
        "--within", "K=1,2,4", "--format", "json",
    )
    assert json.loads(out)["parameters"] == {
        "type": "A~3", "quotient": "J=2,4", "within": "K=1,2,4", "max_length": 12,
    }
    _, out, _ = run_cli(
        capsys, "poincare", "schubert", "--type", "A3", "--w", "1", "--format", "json",
    )
    assert json.loads(out)["parameters"] == {
        "type": "A3", "quotient": "", "w": "1", "truncation": None,
    }


def test_json_output_is_deterministic(capsys):
    args = ("codelta", "--n", "3", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["result"]["word"] == []


def test_json_error_envelope(capsys):
    # With --format json the machine-readable envelope stays on stdout.
    code, out, _ = run_cli(
        capsys, "delta", "--side", "+", "--n", "2", "--d", "1,0;0,0",
        "--format", "json",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["schema"] == "twinbuild/1"
    assert doc["error"]["code"] == "not-invertible"
    assert "degenerate" in doc["error"]["message"]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_domain_error_exits_three(capsys):
    code, _, err = run_cli(
        capsys, "delta", "--side", "+", "--n", "2", "--d", "1,0;0,0",
    )
    assert code == 3
    assert "not-invertible" in err


def test_usage_error_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "coxeter", "reduce", "--type", "A2", "--word", "notaword",
    )
    assert code == 2
    assert err.startswith("usage error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("veronese", "spherical", "--flag", "1/0", "--weights", "1"),
        ("veronese", "spherical", "--flag", "1,0", "--weights", "1/0"),
        ("coords", "decode", "--n", "2", "--word", "1", "--coords", "1/0"),
    ],
)
def test_zero_denominator_is_usage_error(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "twinbuild", *argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("delta", "--n", "1", "--d", "1"),
        ("opposite", "--n", "1"),
        ("project", "--basis", "1", "--keep", "0", "--chamber", "1"),
        ("veronese", "caveat", "--n", "1", "--deg", "2"),
        ("veronese", "affine", "--n", "1", "--k", "0"),
        ("opposite", "--n", "0"),
        ("opposite", "--n", "-3"),
        ("codelta", "--n", "0"),
        ("delta", "--n", "-2", "--d", "1"),
        ("coords", "decode", "--n", "-1", "--word", "1", "--coords", "1"),
        ("veronese", "affine", "--n", "0", "--k", "0"),
    ],
)
def test_rank_one_is_a_domain_error(capsys, argv):
    import jsonschema

    # The rank is the --n value, or 1 for the 1x1 basis of `project`.
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 1
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 3
    doc = json.loads(out)
    jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))
    assert doc["error"] == {
        "code": "domain-error",
        "message": f"rank parameter n = {n} must be at least 2",
    }


@pytest.mark.parametrize("matrix", ["[1]", "[[1], 2]", '[["1","0"], "0,1"]'])
def test_malformed_json_matrix_is_usage_error(capsys, matrix):
    code, out, err = run_cli(capsys, "delta", "--n", "2", "--d", matrix)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: bad matrix")


def test_bruhat_on_a_long_word_has_no_recursion_limit():
    long_word = ",".join(["1,2,3,4"] * 400)
    proc = subprocess.run(
        [sys.executable, "-m", "twinbuild", "coxeter", "bruhat",
         "--type", "A~3", "--v", "1", "--w", long_word],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "true\n"


def test_cli_import_loads_no_introspection_modules():
    """`import twinbuild.cli` (the start of every CLI command) loads none
    of dataclasses, inspect, ast or dis, which together cost about 15 ms
    of start-up.  `import twinbuild` loads no submodule, and a command
    loads only the modules it runs: `coxeter length` needs neither the
    matrix layers nor `fractions`."""
    code = (
        "import json, sys\n"
        "def ours():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'twinbuild')\n"
        "import twinbuild\n"
        "bare = ours()\n"
        "import twinbuild.cli\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'dis')\n"
        "introspection = sorted(m for m in heavy if m in sys.modules)\n"
        "twinbuild.cli.main(['coxeter', 'length', '--type', 'A3', '--word', '1,2,1'])\n"
        "print(json.dumps([bare, introspection, ours(), 'fractions' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result, report = proc.stdout.splitlines()
    assert result == "3"
    bare, introspection, loaded, fractions_loaded = json.loads(report)
    assert bare == ["twinbuild"]
    assert introspection == []
    assert loaded == [
        "twinbuild", "twinbuild.cli", "twinbuild.coxeter", "twinbuild.errors",
        "twinbuild.record",
    ]
    assert not fractions_loaded


def test_argparse_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verification_failure_exits_one(capsys, monkeypatch):
    import twinbuild.verify as verify_mod

    def always_fails(col, rng, count):
        col.check(False, "forced failure")

    patched = dict(verify_mod._SUITES)
    patched["zz-fail"] = (always_fails, 1)
    monkeypatch.setattr(verify_mod, "_SUITES", patched)

    code, out, _ = run_cli(capsys, "verify", "zz-fail")
    assert code == 1
    assert "zz-fail: FAIL" in out
    assert "forced failure" in out


def test_unknown_suite_is_a_usage_envelope(capsys):
    """The suite name is checked by the handler, not by argparse, so that
    the parser does not load `twinbuild.verify`: an unknown name is a
    usage error with an envelope that lists the suites."""
    code, out, err = run_cli(capsys, "verify", "no-such", "--format", "json")
    assert code == 2
    assert err == ""
    doc = json.loads(out)
    _envelope_validator().validate(doc)
    assert doc["command"] == "verify"
    assert doc["error"] == {
        "code": "usage",
        "message": "unknown suite 'no-such'; choose from "
        + ", ".join(("all",) + available_suites()),
    }


def test_verify_suite_success_and_reproducibility(capsys):
    args = ("verify", "caveat-window", "--seed", "0", "--format", "json")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second
    doc = json.loads(first)
    (suite,) = doc["result"]["suites"]
    assert suite["suite"] == "caveat-window"
    assert suite["failed"] == 0
    assert suite["passed"] > 0


def test_verify_all_runs_every_suite_once_in_order(capsys):
    """`verify all` is every suite, each once, in ``available_suites()``
    order, and ``run_all`` is ``run_suite`` over that list."""
    from twinbuild.verify import run_all, run_suite

    code, out, _ = run_cli(
        capsys, "verify", "all", "--seed", "0", "--count", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    _envelope_validator().validate(doc)
    assert [s["suite"] for s in doc["result"]["suites"]] == list(available_suites())
    assert doc["result"]["failed"] == 0
    assert run_all(seed=3, count=1) == [run_suite(s, 3, 1) for s in available_suites()]


def test_factor_certificate_envelope(capsys):
    """The factor-certificate suite passes at its default count, and its
    envelope validates against the shipped schema."""
    code, out, _ = run_cli(
        capsys, "verify", "factor-certificate", "--seed", "0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    _envelope_validator().validate(doc)
    (suite,) = doc["result"]["suites"]
    assert (suite["suite"], suite["failed"], suite["passed"]) == ("factor-certificate", 0, 120)


def test_verify_text_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "cell-series")
    assert code == 0
    assert out.startswith("cell-series: ok (")


def test_envelopes_match_shipped_schema(capsys):
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())

    _, out, _ = run_cli(
        capsys, "poincare", "loop", "--n", "4", "--deg", "6",
        "--format", "json",
    )
    jsonschema.validate(json.loads(out), schema)

    _, out, _ = run_cli(
        capsys, "delta", "--side", "+", "--n", "2", "--d", "1,0;0,0",
        "--format", "json",
    )
    jsonschema.validate(json.loads(out), schema)


def test_error_codes_listed_in_schema():
    schema = json.loads(SCHEMA_PATH.read_text())
    error = schema["oneOf"][1]["properties"]["error"]
    enum = set(error["properties"]["code"]["enum"])
    classes = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.TwinbuildError)
    ]
    assert len(classes) == 5
    assert {cls.code for cls in classes} <= enum


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "twinbuild", "codelta", "--n", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, fmt):
    import jsonschema

    import twinbuild.cli as cli_mod

    def broken(args):
        raise RuntimeError("planted bug")

    monkeypatch.setattr(cli_mod, "_cmd_codelta", broken)
    code, out, err = run_cli(capsys, "codelta", "--n", "2", "--format", fmt)
    assert code == 4
    assert "Traceback" not in err
    if fmt == "json":
        doc = json.loads(out)
        jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))
        assert doc["error"]["code"] == "internal"
        assert doc["error"]["message"].startswith("RuntimeError: planted bug (at ")
    else:
        assert out == ""
        assert err.startswith("error (internal): RuntimeError: planted bug")


# ---------------------------------------------------------------------------
# fuzzing the argument grammar of the chamber commands
# ---------------------------------------------------------------------------

_fuzz_scalar = st.builds(GaussRat, st.integers(-2, 2), st.integers(-1, 1))
_fuzz_poly = st.dictionaries(st.integers(-2, 2), _fuzz_scalar, max_size=2).map(
    LaurentPoly
)
_fuzz_junk = st.text(alphabet="0123456789z^+-*/(),;[]\"iI ", max_size=12)


@st.composite
def _fuzz_unit_det_matrix(draw, n):
    """A product of elementary matrices c*z^d: determinant 1."""
    m = LMat.identity(n)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        rows = [list(r) for r in LMat.identity(n).rows]
        rows[i][j] = LaurentPoly({draw(st.integers(-1, 1)): draw(_fuzz_scalar)})
        m = m @ LMat(rows)
    return m


@st.composite
def _fuzz_matrix_text(draw, n):
    """Matrix text in either grammar: a unit-determinant or an arbitrary
    square matrix, a ragged one, or junk."""
    kind = draw(st.sampled_from(["unit"] * 4 + ["square", "ragged", "junk"]))
    if kind == "junk":
        return draw(_fuzz_junk)
    size = n if n >= 1 else 1
    if kind == "unit":
        m = draw(_fuzz_unit_det_matrix(size)) if size > 1 else LMat([[1]])
        rows = mat_to_json(m)
    else:
        widths = [size] * size
        if kind == "ragged":
            widths[-1] = draw(st.integers(0, size + 1))
        rows = [[str(draw(_fuzz_poly)) for _ in range(w)] for w in widths]
    if draw(st.booleans()):
        return json.dumps(rows)
    return ";".join(",".join(row) for row in rows)


def _fuzz_int_list(lo, hi, max_size):
    """Comma lists of integers, mostly in lo..hi, or junk."""
    hi = max(lo, hi)
    ints = st.one_of(st.integers(lo, hi), st.integers(lo, hi), st.integers(-2, hi + 2))
    return st.one_of(
        st.lists(ints, max_size=max_size).map(lambda w: ",".join(map(str, w))),
        _fuzz_junk,
    )


@st.composite
def _fuzz_chamber_argv(draw):
    """argv of delta, codelta, opposite, project, project-twin or coords
    encode/decode: small ranks, well-formed and malformed values."""
    n = draw(st.sampled_from([-1, 0, 1, 2, 2, 2, 3, 3, 3]))
    side = draw(st.sampled_from(["+", "-"]))
    mat = _fuzz_matrix_text(n)
    command = draw(st.sampled_from(
        ["delta", "codelta", "opposite", "project", "project-twin", "encode", "decode"]
    ))

    def opt(flag, value):
        return [flag, draw(value)] if draw(st.booleans()) else []

    if command == "delta":
        argv = ["delta", "--side", side, "--d", draw(mat)] + opt("--c", mat)
        argv += opt("--n", st.just(str(n)))
    elif command in ("codelta", "opposite"):
        argv = [command, "--n", str(n)] + opt("--cminus", mat) + opt("--cplus", mat)
    elif command in ("project", "project-twin"):
        argv = [command, "--side", side, "--basis", draw(mat),
                "--keep", draw(_fuzz_int_list(0, n - 1, 3)), "--chamber", draw(mat)]
    else:
        argv = ["coords", command, "--n", str(n)]
        argv += opt("--cplus", mat) + opt("--cminus", mat)
        if command == "encode":
            argv += ["--chamber", draw(mat)] + opt("--word", _fuzz_int_list(0, n - 1, 4))
        else:
            coords = st.lists(
                st.one_of(st.sampled_from(["INF", "0", "1/2", "(1+i)", "z"]), _fuzz_junk),
                max_size=4,
            ).map(",".join)
            argv += ["--word", draw(_fuzz_int_list(0, n - 1, 4)), "--coords", draw(coords)]
    return argv


@functools.lru_cache(maxsize=None)
def _envelope_validator():
    """One validator of the shipped schema, checked once, for the fuzz
    tests' thousands of envelopes."""
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def _run_fuzzed(capsys, argv):
    """Run argv with ``--format json`` and check the outcome: no traceback,
    no internal error, a documented exit code, and one schema-valid
    envelope on stdout unless argparse rejected the argument list (then
    exit 2 and its text on stderr).  A malformed value is a ``usage``
    envelope with exit 2.  Returns the exit code."""
    try:
        code = main(argv + ["--format", "json"])
        rejected = False
    except SystemExit as exc:  # argparse rejects the argument list
        code, rejected = exc.code, True
    out, err = capsys.readouterr()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, out, err)
    assert "Traceback" not in err
    if rejected:
        assert code == 2 and out == "", (argv, out, err)
        return code
    doc = json.loads(out)
    _envelope_validator().validate(doc)
    if code == 2:
        assert doc["error"]["code"] == "usage", (argv, doc)
    return code


_FUZZ_SETTINGS = dict(
    derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@settings(max_examples=300, **_FUZZ_SETTINGS)
@given(argv=_fuzz_chamber_argv())
def test_fuzzed_chamber_commands_exit_cleanly(capsys, argv):
    """No argument list of the chamber commands ends in a traceback or an
    internal error: the exit code is 0, 2 (usage) or 3 (domain), and a
    JSON run prints one envelope of the schema unless argparse rejected
    the argument list."""
    assert _run_fuzzed(capsys, argv) in (0, 2, 3)


def test_malformed_value_is_a_usage_envelope(capsys):
    code, out, err = run_cli(
        capsys, "coxeter", "reduce", "--type", "A2", "--word", "notaword",
        "--format", "json",
    )
    assert code == 2
    assert err == ""
    doc = json.loads(out)
    _envelope_validator().validate(doc)
    assert doc["command"] == "coxeter.reduce"
    assert doc["error"]["code"] == "usage"
    assert doc["error"]["message"].startswith("bad word 'notaword'")


def test_ragged_flag_is_a_domain_error(capsys):
    """A flag row of the wrong length was an IndexError inside rref (an
    internal error, exit 4) until the fuzz test below found it."""
    code, out, err = run_cli(
        capsys, "veronese", "spherical", "--flag", "0,0,0;0,0", "--weights", "0",
        "--format", "json",
    )
    assert code == 3
    _envelope_validator().validate(json.loads(out))
    assert json.loads(out)["error"] == {
        "code": "domain-error",
        "message": "flag subspaces must be spanned by rows of 3 entries",
    }


def test_out_of_range_quotient_generator_reads_the_same_in_every_command(capsys):
    """poincare and coxeter check a generator set with one checker, so an
    index outside the diagram gets one message."""
    for argv in (
        ("poincare", "schubert", "--type", "A3", "--quotient", "J=9", "--w", "1"),
        ("coxeter", "cosets", "--type", "A3", "--quotient", "J=9"),
    ):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 3
        doc = json.loads(out)
        _envelope_validator().validate(doc)
        assert doc["error"] == {
            "code": "domain-error",
            "message": "generator index 9 outside 1..3",
        }


def test_negative_coset_length_is_a_domain_error(capsys):
    """A negative --max-length printed the identity as the one coset
    representative and exited 0."""
    code, out, _ = run_cli(
        capsys, "coxeter", "cosets", "--type", "A3", "--quotient", "J=1",
        "--max-length", "-3", "--format", "json",
    )
    assert code == 3
    doc = json.loads(out)
    _envelope_validator().validate(doc)
    assert doc["error"] == {
        "code": "domain-error",
        "message": "max_length = -3 must be >= 0",
    }


# Integers that int() reads but the CLI does not: an underscore between
# digits, and a digit of another script (Arabic-Indic four).
_NOT_ASCII_INTEGERS = ("1_2", "\u0664")


@pytest.mark.parametrize(
    "argv",
    [
        ("coxeter", "length", "--type", "A~11", "--word", "1_2"),
        ("coxeter", "length", "--type", "A2", "--word", "\u0661"),
        ("coxeter", "length", "--type", "A\u0661", "--word", "1"),
        ("coxeter", "cosets", "--type", "A~1_1", "--quotient", "J=1"),
        ("coxeter", "cosets", "--type", "A3", "--quotient", "J=1_0"),
        ("coxeter", "cosets", "--type", "A3", "--quotient", "J=1", "--within", "K=\u0662"),
        ("poincare", "schubert", "--type", "A3", "--quotient", "J=\u0661", "--w", "1"),
        ("project", "--basis", "1,0;0,1", "--keep", "\u0660", "--chamber", "1,0;1,1"),
        ("coords", "decode", "--n", "2", "--word", "1_1", "--coords", "0"),
    ],
)
def test_a_word_generator_keep_or_type_integer_is_ascii_digits(capsys, argv):
    """Words, generator sets, --keep and the rank of --type read an
    optional minus and ASCII digits: '1_2' and other scripts' digits are a
    usage error, exit 2 with a usage envelope, where int() read them."""
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (2, "")
    doc = json.loads(out)
    _envelope_validator().validate(doc)
    assert doc["error"]["code"] == "usage"


@pytest.mark.parametrize("bad", _NOT_ASCII_INTEGERS)
@pytest.mark.parametrize(
    "argv, option",
    [
        (("poincare", "loop", "--deg", "1"), "--n"),
        (("poincare", "loop", "--n", "4"), "--deg"),
        (("poincare", "bott-check", "--deg", "2"), "--k"),
        (("poincare", "schubert", "--type", "A3", "--w", "1"), "--truncation"),
        (("coxeter", "cosets", "--type", "A3", "--quotient", "J=1"), "--max-length"),
        (("veronese", "affine", "--k", "1"), "--n"),
        (("veronese", "caveat", "--n", "2"), "--deg"),
        (("delta", "--d", "1,0;z,1"), "--n"),
        (("codelta",), "--n"),
        (("verify", "cell-series", "--count", "1"), "--seed"),
        (("verify", "cell-series"), "--count"),
    ],
)
def test_an_integer_option_is_ascii_digits(capsys, argv, option, bad):
    """The integer options are rejected by argparse, before --format is
    read: exit 2, its message on stderr and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, bad, "--format", "json"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"argument {option}: invalid int value: {bad!r}" in err


def test_integers_keep_their_sign_and_surrounding_spaces(capsys):
    """A minus and spaces around an integer still read as before."""
    _, out, _ = run_cli(capsys, "coxeter", "length", "--type", " A~2 ", "--word", " 1 , 2,3 ")
    assert out == "3\n"
    _, out, _ = run_cli(capsys, "poincare", "loop", "--n", " 4", "--deg", "6 ")
    assert out == "[1,0,1,0,2,0,3]\n"
    code, out, _ = run_cli(
        capsys, "coxeter", "reduce", "--type", "A2", "--word", "1,-1", "--format", "json",
    )
    assert code == 3 and json.loads(out)["error"]["code"] == "domain-error"


# ---------------------------------------------------------------------------
# fuzzing the argument grammar of coxeter, poincare, veronese and verify
# ---------------------------------------------------------------------------


def _mostly(valid):
    """A value of ``valid`` three times in four, junk otherwise."""
    return st.one_of(valid, valid, valid, _fuzz_junk)


@st.composite
def _fuzz_coxeter_type(draw):
    """(type text, number of generators): A1..A4 and A~1..A~4 mostly, and
    sometimes a rank below 1 or junk (then the count is a guess)."""
    affine = draw(st.booleans())
    k = draw(st.one_of(st.integers(1, 4), st.integers(1, 4), st.integers(-1, 0)))
    text = draw(_mostly(st.just(f"A{'~' if affine else ''}{k}")))
    return text, k + 1 if affine else k


def _fuzz_word(gens, max_size):
    """Comma lists of generator indices, mostly in 1..gens."""
    index = st.one_of(st.integers(1, max(gens, 1)), st.integers(1, max(gens, 1)),
                      st.integers(-1, gens + 2))
    return _mostly(st.lists(index, max_size=max_size).map(lambda w: ",".join(map(str, w))))


def _fuzz_generators(prefix, gens):
    return _fuzz_word(gens, 3).map(lambda text: prefix + text)


def _fuzz_small_int(lo, hi):
    """An integer argument: mostly in lo..hi, sometimes not an integer."""
    return _mostly(st.integers(lo, hi).map(str))


@st.composite
def _fuzz_coxeter_argv(draw):
    """argv of coxeter reduce/length/bruhat/cosets."""
    sub = draw(st.sampled_from(["reduce", "length", "bruhat", "cosets"]))
    text, gens = draw(_fuzz_coxeter_type())
    argv = ["coxeter", sub, "--type", text]
    word = _fuzz_word(gens, 6)
    if sub in ("reduce", "length"):
        argv += ["--word", draw(word)]
    elif sub == "bruhat":
        argv += ["--v", draw(word), "--w", draw(word)]
    else:
        argv += ["--quotient", draw(_fuzz_generators("J=", gens))]
        if draw(st.booleans()):
            argv += ["--within", draw(_fuzz_generators("K=", gens))]
        if draw(st.booleans()):
            argv += ["--max-length", draw(_fuzz_small_int(-2, 5))]
    return argv


@st.composite
def _fuzz_poincare_argv(draw):
    """argv of poincare schubert/loop/bott-check."""
    sub = draw(st.sampled_from(["schubert", "loop", "bott-check"]))
    if sub == "schubert":
        text, gens = draw(_fuzz_coxeter_type())
        argv = ["poincare", "schubert", "--type", text, "--w", draw(_fuzz_word(gens, 5))]
        if draw(st.booleans()):
            argv += ["--quotient", draw(_fuzz_generators("J=", gens))]
        if draw(st.booleans()):
            argv += ["--truncation", draw(_fuzz_small_int(-2, 8))]
        return argv
    if sub == "loop":
        return ["poincare", "loop", "--n", draw(_fuzz_small_int(-1, 4)),
                "--deg", draw(_fuzz_small_int(-2, 8))]
    return ["poincare", "bott-check", "--k", draw(_fuzz_small_int(-1, 4)),
            "--deg", draw(_fuzz_small_int(-2, 8))]


_fuzz_scalar_text = st.sampled_from(["0", "1", "1", "-1", "1/2", "(1+i)", "(0+1i)"])


@st.composite
def _fuzz_flag_text(draw):
    """A flag: '|'-separated subspaces of ';'-separated rows of scalars,
    some rows too long."""
    n = draw(st.integers(1, 3))
    subspaces = []
    for _ in range(draw(st.integers(1, 3))):
        rows = [
            ",".join(draw(_fuzz_scalar_text) for _ in range(draw(st.sampled_from([n, n, n + 1]))))
            for _ in range(draw(st.integers(1, n)))
        ]
        subspaces.append(";".join(rows))
    return "|".join(subspaces)


@st.composite
def _fuzz_veronese_argv(draw):
    """argv of veronese spherical/affine/caveat."""
    sub = draw(st.sampled_from(["spherical", "affine", "caveat"]))
    n = draw(st.sampled_from([-1, 0, 1, 2, 2, 3]))
    if sub == "spherical":
        weights = st.lists(_fuzz_scalar_text, min_size=1, max_size=3).map(",".join)
        return ["veronese", "spherical", "--flag", draw(_mostly(_fuzz_flag_text())),
                "--weights", draw(_mostly(weights))]
    if sub == "affine":
        argv = ["veronese", "affine", "--n", str(n), "--k", draw(_fuzz_small_int(-1, 3))]
        if draw(st.booleans()):
            argv += ["--loop", draw(_fuzz_matrix_text(n))]
        return argv
    argv = ["veronese", "caveat", "--n", str(n), "--deg", draw(_fuzz_small_int(-1, 6))]
    if draw(st.booleans()):
        argv += ["--x", draw(_fuzz_matrix_text(n))]
    return argv


@settings(max_examples=200, **_FUZZ_SETTINGS)
@given(argv=st.one_of(_fuzz_coxeter_argv(), _fuzz_poincare_argv(), _fuzz_veronese_argv()))
def test_fuzzed_coxeter_poincare_veronese_commands_exit_cleanly(capsys, argv):
    """The coxeter, poincare and veronese commands end in exit 0, 2 or 3,
    never in a traceback or an internal error, and print one schema-valid
    envelope unless argparse rejected the argument list."""
    assert _run_fuzzed(capsys, argv) in (0, 2, 3)


@st.composite
def _fuzz_verify_argv(draw):
    """argv of verify: a suite name, ``all`` (or a wrong one), a count and
    maybe a seed.  The count is always given (at most 2), since a suite's
    default count takes up to two seconds; at that count ``all`` takes
    about a quarter of a second."""
    suite = draw(_mostly(st.sampled_from(("all",) + available_suites())))
    argv = ["verify", suite, "--count", draw(_fuzz_small_int(-1, 2))]
    if draw(st.booleans()):
        argv += ["--seed", draw(_fuzz_small_int(-3, 50))]
    return argv


@settings(max_examples=60, **_FUZZ_SETTINGS)
@given(argv=_fuzz_verify_argv())
@example(argv=["verify", "all", "--count", "2", "--seed", "7"])
def test_fuzzed_verify_commands_exit_cleanly(capsys, argv):
    """verify ends in exit 0 (every suite passes), 2 or 3, never in a
    traceback or an internal error; a count of 0 or less is a domain
    error."""
    assert _run_fuzzed(capsys, argv) in (0, 2, 3)
