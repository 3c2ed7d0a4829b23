import hashlib
import json
import time
from random import Random

import pytest

from rectrep import catalogue_spec, iter_catalogue_items
from rectrep.classify import roots_in_plane_census, verify_classification
from rectrep.cli import (COMMANDS, EXIT_CODES, EXIT_OK, ParseError, _Help,
                         _parse, _UsageError, main, parse_algebra, parse_rep,
                         render_spec)

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured


def assert_no_bare_ints(obj):
    # every integer crosses the JSON boundary as a decimal string
    if isinstance(obj, bool) or obj is None:
        return
    assert not isinstance(obj, (int, float)), obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert isinstance(k, str)
            assert_no_bare_ints(v)
    elif isinstance(obj, list):
        for v in obj:
            assert_no_bare_ints(v)
    else:
        assert isinstance(obj, str)


# ---------------------------------------------------------------- grammar


def test_parse_algebra_aliases_and_order():
    assert parse_algebra("a1 * b3").label == "A1*B3"
    assert parse_algebra("C2").label == "B2"
    with pytest.raises(ParseError):
        parse_algebra("D2")
    with pytest.raises(ParseError):
        parse_algebra("A0")


def summand_dict(spec):
    return dict(spec.summands)


def test_parse_rep_basics():
    alg = parse_algebra("B3")
    spec = parse_rep("std + spin", alg)
    assert summand_dict(spec) == {(1, 0, 0): 1, (0, 0, 1): 1}
    assert parse_rep("STD + SPIN", alg) == spec
    assert parse_rep(" std+spin ", alg) == spec


def test_parse_rep_multiplicity_by_repetition():
    alg = parse_algebra("A1")
    spec = parse_rep("sym2 + sym2 + triv", alg)
    assert summand_dict(spec) == {(0,): 1, (2,): 2}


def test_parse_rep_tensor_terms_match_factors():
    alg = parse_algebra("A1*B2")
    spec = parse_rep("sym3 * spin", alg)
    assert summand_dict(spec) == {(3, 0, 1): 1}
    with pytest.raises(ParseError, match="factor"):
        parse_rep("sym3", alg)
    with pytest.raises(ParseError, match="expected '\\+'"):
        parse_rep("sym3 * spin * std", alg)


def test_parse_rep_dual_and_hw():
    alg = parse_algebra("A3")
    assert parse_rep("dual(std)", alg) == parse_rep("hw(0,0,1)", alg)
    assert parse_rep("dual(dual(std))", alg) == parse_rep("std", alg)
    with pytest.raises(ParseError):
        parse_rep("hw(1,0)", alg)  # wrong coordinate count


def test_parse_rep_d_spin_expands_to_both_halves():
    alg = parse_algebra("D4")
    assert parse_rep("spin", alg) == parse_rep("spin+ + spin-", alg)


def test_parse_errors_carry_position():
    alg = parse_algebra("A1")
    with pytest.raises(ParseError) as e:
        parse_rep("sym2 & sym2", alg)
    assert e.value.pos is not None
    with pytest.raises(ParseError, match="spin"):
        parse_rep("spin", parse_algebra("A3"))


def test_render_parse_roundtrip_on_catalogue():
    for item in iter_catalogue_items(6, 128):
        alg, spec = catalogue_spec(item)
        text = render_spec(spec)
        assert parse_rep(text, alg) == spec, (item.label, text)


def test_render_uses_aliases():
    alg = parse_algebra("B3")
    assert render_spec(parse_rep("spin + std", alg)) == "spin + std"
    a3 = parse_algebra("A3")
    # summands render in sorted coordinate order
    assert render_spec(parse_rep("std + dual(std)", a3)) == "dual(std) + std"
    assert render_spec(parse_rep("wedge2", a3)) == "wedge2"


# ---------------------------------------------------------------- commands


def test_char_positive(capsys):
    code, payload, _ = run(capsys, "char", "--algebra", "B3", "--rep", "spin")
    assert code == EXIT_OK
    assert payload["ok"] is True
    assert payload["schema_version"] == "1"
    assert payload["result"]["dimension"] == "8"
    assert len(payload["result"]["weights"]) == 8
    assert payload["result"]["multiplicity_free"] is True
    assert_no_bare_ints(payload)


def test_char_negative_bad_grammar(capsys):
    code, payload, _ = run(capsys, "char", "--algebra", "A1", "--rep", "sym$")
    assert code == EXIT_CODES["parse"]
    assert payload["ok"] is False
    assert payload["error"]["code"] == "parse"
    assert "column" in payload["error"]


def test_rect_positive(capsys):
    code, payload, _ = run(capsys, "rect", "--algebra", "B2",
                           "--rep", "std + spin")
    assert code == EXIT_OK
    r = payload["result"]
    assert r["rectangular"] is True
    assert r["lengths"] == ["3", "3"]
    assert r["hypercubic"] is True and r["side"] == "3"
    assert r["automorphism_order"] == "8"
    assert_no_bare_ints(payload)


def test_rect_negative_not_rectangular(capsys):
    code, payload, _ = run(capsys, "rect", "--algebra", "A2", "--rep", "std")
    assert code == EXIT_CODES["not_rectangular"]
    assert payload["ok"] is False
    assert payload["error"]["code"] == "not_rectangular"
    assert payload["result"]["reason"] == "asymmetry"


def test_decompose_positive(capsys):
    code, payload, _ = run(capsys, "decompose", "--algebra", "A1*A1",
                           "--rep", "std*triv + triv*std")
    assert code == EXIT_OK
    parts = payload["result"]["parts"]
    assert len(parts) == 1
    assert parts[0]["label"] == "D2Spin"
    assert parts[0]["factors"] == ["1", "2"]
    assert payload["result"]["lengths"] == ["2", "2"]
    assert payload["result"]["hypercubic"] is True
    assert_no_bare_ints(payload)


# sha256 of the concatenated stdout below; it pins every part's item kind
# and params, label, rep and lengths for each catalogue item in range.
DECOMPOSE_CATALOGUE_SHA256 = (
    "7782b18f2364b157c5293e3b0b6df7cab0ba123e70169d3fdb0f70e6561c4aa6")


def test_decompose_bytes_for_every_catalogue_item(capsys):
    out = []
    for item in iter_catalogue_items(4, 64):
        alg, spec = catalogue_spec(item)
        code = main(["decompose", "--algebra", alg.label,
                     "--rep", render_spec(spec)])
        assert code == EXIT_OK, item
        out.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == DECOMPOSE_CATALOGUE_SHA256


def test_decompose_negative_unfaithful(capsys):
    code, payload, _ = run(capsys, "decompose", "--algebra", "A1",
                           "--rep", "triv")
    assert code == EXIT_CODES["not_faithful"]
    assert payload["error"]["code"] == "not_faithful"
    assert payload["result"]["faithful"] is False


def test_enumerate_positive_a3(capsys):
    code, payload, _ = run(capsys, "enumerate", "--algebra", "A3",
                           "--max-rank", "3", "--max-dim", "256")
    assert code == EXIT_OK
    assert payload["result"]["count"] == "1"
    specs = payload["result"]["specs"]
    assert specs[0]["rep"] == "dual(std) + std"
    assert specs[0]["lengths"] == ["2", "2", "2"]
    assert_no_bare_ints(payload)


# sha256 of the stdout below; the two A1 factors are not adjacent
ENUMERATE_A1_B2_A1_SHA256 = (
    "335b5fa45ed8d815e6ca9724555a74db12f8225ff33ad0c34e67923b26ba3b4d")


def test_enumerate_bytes_for_non_adjacent_equal_factors(capsys):
    code = main(["enumerate", "--algebra", "A1*B2*A1", "--max-rank", "4",
                 "--max-dim", "64"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_A1_B2_A1_SHA256


def test_enumerate_negative_bounds(capsys):
    code, payload, _ = run(capsys, "enumerate", "--max-rank", "9")
    assert code == EXIT_CODES["usage"]
    assert payload["ok"] is False


def test_verify_catalogue_positive(capsys):
    code, payload, _ = run(capsys, "verify-catalogue", "--max-rank", "2",
                           "--max-dim", "32")
    assert code == EXIT_OK
    assert payload["result"]["ok"] is True
    assert_no_bare_ints(payload)


def test_verify_catalogue_negative_usage(capsys):
    code, _, captured = run(capsys, "verify-catalogue", "--max-dim", "lots")
    assert code == EXIT_CODES["usage"]


def test_verify_howe_positive(capsys):
    code, payload, _ = run(capsys, "verify-howe", "--algebra", "G2",
                           "--max-dim", "64")
    assert code == EXIT_OK
    assert payload["result"]["ok"] is True
    assert_no_bare_ints(payload)


def test_verify_howe_negative_bad_algebra(capsys):
    code, payload, _ = run(capsys, "verify-howe", "--algebra", "Q7")
    assert code == EXIT_CODES["parse"]


def test_verify_howe_multi_factor_algebra_is_usage(capsys):
    # A1*A1 parses; its shape is what verify-howe rejects
    code, payload, _ = run(capsys, "verify-howe", "--algebra", "A1*A1")
    assert code == EXIT_CODES["usage"]
    assert payload["error"]["code"] == "usage"


def test_census_positive(capsys):
    code, payload, _ = run(capsys, "census", "--max-rank", "3")
    assert code == EXIT_OK
    assert payload["result"]["ok"] is True
    assert_no_bare_ints(payload)


# sha256 of the stdout below: the B4 long 3-spaces carry their normals
CENSUS_MAX_RANK_4_SHA256 = (
    "5026d78680a8c9b3094bb7372ead578bc2f06e5df6dd9036b5002c6a2b1c658c")


def test_census_bytes_at_max_rank_4(capsys):
    code = main(["census", "--max-rank", "4"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_MAX_RANK_4_SHA256


def test_census_negative_unknown_flag(capsys):
    # the top-level parser sees the leftover option; the envelope still
    # names the subcommand it came with
    code, payload, _ = run(capsys, "census", "--nope")
    assert code == EXIT_CODES["usage"]
    assert payload["command"] == "census"
    assert payload["error"] == {"code": "usage",
                                "message": "unrecognized arguments: --nope"}


def test_dry_run_reports_plan(capsys):
    code, payload, _ = run(capsys, "enumerate", "--max-rank", "2",
                           "--max-dim", "64", "--dry-run")
    assert code == EXIT_OK
    assert payload["result"]["dry_run"] is True


# A dry run checks the same bounds as the real run, so it cannot hang on them.
@pytest.mark.parametrize("argv", [
    ("enumerate", "--dry-run", "--max-rank", "40"),
    ("verify-catalogue", "--dry-run", "--max-rank", "2",
     "--max-dim", "100000000"),
    ("verify-howe", "--algebra", "A1", "--max-dim", "100000000", "--dry-run"),
    ("enumerate", "--algebra", "A1*A1*A1", "--max-rank", "2", "--max-dim",
     "8", "--dry-run"),
    ("census", "--max-rank", "0", "--dry-run"),
    ("census", "--max-rank", "-3", "--dry-run"),
    ("verify-howe", "--algebra", "A1", "--max-dim", "0", "--dry-run"),
    ("verify-howe", "--algebra", "A1", "--max-dim", "-5", "--dry-run"),
])
def test_dry_run_rejects_out_of_range_bounds(capsys, argv):
    code, payload, _ = run(capsys, *argv)
    assert code == EXIT_CODES["usage"]
    assert payload["error"]["code"] == "usage"


# A census needs some B_n with n >= 2, and a Howe scan some dimension >= 1;
# below that the real run would report a vacuous success.
@pytest.mark.parametrize("argv", [
    ("census", "--max-rank", "0"),
    ("verify-howe", "--algebra", "A2", "--max-dim", "0"),
])
def test_real_run_rejects_empty_scan_bounds(capsys, argv):
    code, payload, _ = run(capsys, *argv)
    assert code == EXIT_CODES["usage"]
    assert payload["ok"] is False
    assert payload["error"]["code"] == "usage"


def _break_characters(monkeypatch):
    def broken(spec):
        raise AssertionError("non-integral multiplicity at (0,)")
    monkeypatch.setattr("rectrep.cli.character_of", broken)


def test_internal_invariant_failure_exits_internal(capsys, monkeypatch):
    _break_characters(monkeypatch)
    code, payload, _ = run(capsys, "char", "--algebra", "A1", "--rep", "std")
    assert code == EXIT_CODES["internal"]
    assert payload["ok"] is False
    assert payload["error"] == {"code": "internal",
                                "message": "non-integral multiplicity at (0,)"}


# The three verification_mismatch envelopes, each forced by tampering with
# what its command compares against.

def _empty_howe_list(monkeypatch):
    monkeypatch.setattr("rectrep.classify._howe_expected",
                        lambda t, max_dim: frozenset())


def _catalogue_without_d2spin(monkeypatch):
    def tampered(max_rank, max_dim, seed=0):
        items = [it for it in iter_catalogue_items(max_rank, max_dim)
                 if it.kind != "D2Spin"]
        return verify_classification(max_rank, max_dim, items=items, seed=seed)
    monkeypatch.setattr("rectrep.cli.verify_classification", tampered)


def _census_violation(monkeypatch):
    monkeypatch.setattr("rectrep.cli.roots_in_plane_census",
                        lambda n: dict(roots_in_plane_census(n),
                                       violations=[{"note": "forced"}],
                                       ok=False))


HOWE_MISMATCH = ("verify-howe", "--algebra", "A1", "--max-dim", "4")
CATALOGUE_MISMATCH = ("verify-catalogue", "--max-rank", "2", "--max-dim", "8")
CENSUS_MISMATCH = ("census", "--max-rank", "2")


# stdout sha256 of each forced mismatch: the envelope bytes, key order
# included.
@pytest.mark.parametrize("force, argv, sha256", [
    (_empty_howe_list, HOWE_MISMATCH,
     "7528c5649189dcd6aa1b020bb7315db728ce6267efec0dd0f0d46cd912d3bfd9"),
    (_catalogue_without_d2spin, CATALOGUE_MISMATCH,
     "6720ca0d0d1fec95384b4bff60431f8588775ad20f4b5a63afbcbfeafe441c0b"),
    (_census_violation, CENSUS_MISMATCH,
     "b0038347c24c0f4b780c413654eea0cf968a9705d034f90ef37462c5f8ca157e"),
])
def test_verification_mismatch_exits_4(capsys, monkeypatch, force, argv,
                                       sha256):
    force(monkeypatch)
    code, payload, captured = run(capsys, *argv)
    assert code == 4
    assert payload["ok"] is False
    assert payload["error"]["code"] == "verification_mismatch"
    assert payload["result"]["ok"] is False
    assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256


# Every error code the CLI emits, a command that reaches it, and the exit
# code the README documents for it.
EMITTED_ERRORS = [
    ("parse", 2, None, ("char", "--algebra", "A1", "--rep", "sym$")),
    ("usage", 2, None, ("enumerate", "--max-rank", "9")),
    ("usage", 2, None, ("census", "--nope")),
    ("not_faithful", 3, None, ("decompose", "--algebra", "A1", "--rep", "triv")),
    ("not_rectangular", 3, None, ("rect", "--algebra", "A2", "--rep", "std")),
    ("not_rectangular", 3, None,
     ("decompose", "--algebra", "A2", "--rep", "std")),
    ("verification_mismatch", 4, _empty_howe_list, HOWE_MISMATCH),
    ("internal", 5, _break_characters,
     ("char", "--algebra", "A1", "--rep", "std")),
]


@pytest.mark.parametrize("error, exit_code, force, argv", EMITTED_ERRORS)
def test_every_error_code_has_its_documented_exit_code(
        capsys, monkeypatch, error, exit_code, force, argv):
    assert set(EXIT_CODES) == {e[0] for e in EMITTED_ERRORS}
    if force is not None:
        force(monkeypatch)
    code, payload, _ = run(capsys, *argv)
    assert payload["ok"] is False
    assert payload["error"]["code"] == error
    assert code == EXIT_CODES[error] == exit_code


# A fixed battery of fast commands: every command, --dry-run, --pretty, and
# each error code that needs no tampering.  OUTCOME_SHA256 is taken over the
# (argv, exit code, stdout, stderr) of each, in order, and pins the envelope
# bytes, key order included.  Top-level --help is left out: its text is the
# module docstring.
OUTCOME_BATTERY = [
    ("char", "--algebra", "B3", "--rep", "spin", "--pretty"),
    ("char", "--algebra", "A1", "--rep", "sym$", "--pretty"),
    ("char", "--algebra", "A3", "--rep", "spin"),
    ("char", "--algebra", "D2", "--rep", "std"),
    ("rect", "--algebra", "B2", "--rep", "std + spin", "--pretty"),
    ("rect", "--algebra", "A2", "--rep", "std", "--pretty"),
    ("rect", "--algebra", "A1", "--rep", "std + std"),
    ("rect", "--algebra", "A1*A1", "--rep", "std*std"),
    ("decompose", "--algebra", "A1*A1", "--rep", "std*triv + triv*std",
     "--pretty"),
    ("decompose", "--algebra", "A1", "--rep", "triv", "--pretty"),
    ("decompose", "--algebra", "A1", "--rep", "std + std"),
    ("decompose", "--algebra", "B3*A1", "--rep", "spin*sym2"),
    ("enumerate", "--max-rank", "2", "--max-dim", "16", "--pretty"),
    ("enumerate", "--max-rank", "2", "--max-dim", "64", "--dry-run",
     "--pretty"),
    ("enumerate", "--max-rank", "9"),
    ("enumerate", "--algebra", "A1*A1*A1", "--max-rank", "2", "--max-dim",
     "8"),
    ("enumerate", "--algebra", "Q7"),
    ("verify-catalogue", "--max-rank", "2", "--max-dim", "16", "--pretty"),
    ("verify-catalogue", "--dry-run", "--max-rank", "2", "--max-dim", "64"),
    ("verify-catalogue", "--max-dim", "lots"),
    ("verify-howe", "--algebra", "G2", "--max-dim", "64", "--pretty"),
    ("verify-howe", "--algebra", "B3", "--dry-run", "--pretty"),
    ("verify-howe", "--algebra", "A1*A1"),
    ("verify-howe", "--algebra", "B5"),
    ("census", "--max-rank", "2", "--pretty"),
    ("census", "--max-rank", "9", "--dry-run", "--pretty"),
    ("census", "--nope"),
    ("rect", "--algebra", "B2"),
    (),
]
OUTCOME_SHA256 = (
    "929e04ddeb1d722c13e11a6056f2e891eaf09c53681a6e33258510da359a2d88")


def test_outcome_bytes_for_a_fixed_battery(capsys):
    digest = hashlib.sha256()
    for argv in OUTCOME_BATTERY:
        code, _, captured = run(capsys, *argv)
        digest.update(json.dumps([list(argv), code, captured.out,
                                  captured.err]).encode())
    assert digest.hexdigest() == OUTCOME_SHA256


@pytest.mark.parametrize("pretty", ["--pretty", "--pre"])
def test_argparse_usage_error_honours_pretty(capsys, pretty):
    # argparse's own rejections take main's outcome path like the others,
    # and it accepts a prefix of --pretty there too
    code, payload, captured = run(capsys, "rect", "--algebra", "B2", pretty)
    assert code == EXIT_CODES["usage"]
    assert payload["command"] == "rect"
    message = "the following arguments are required: --rep"
    assert payload["error"] == {"code": "usage", "message": message}
    assert captured.err == message + "\n"


def _outcome(parse, argv):
    """A parser's reading of argv: ("ok", command, attributes but the
    function, leftovers), ("usage", command, message) or ("help",)."""
    try:
        args, extras = parse(list(argv))
    except _UsageError as e:
        return ("usage", e.command, str(e))
    except (_Help, SystemExit):
        return ("help",)
    attrs = {k: v for k, v in vars(args).items() if k != "func"}
    return ("ok", args.command, attrs, extras)


def _words(command):
    """Each flag of a command in full, its unique prefixes, its '=v'
    forms, ambiguous prefixes, unknown and odd options, and values."""
    flags = ["-h", "--help"] + [o[0] for o in COMMANDS[command][2]]
    prefixes = sorted({f[:n] for f in flags[1:] for n in range(3, len(f))})
    unique = [p for p in prefixes if sum(f.startswith(p) for f in flags) == 1]
    return list(dict.fromkeys(
        flags + unique + [f + "=7" for f in flags]
        + ["--max", "--max=3", "--=3", "--nope", "-x", "-hx", "-hh", "--",
           "-", "7", "-3", "-3x", " 7", "lots", "a b", ""]))


def test_parse_agrees_with_the_argparse_oracle(monkeypatch):
    # the outcome is compared, not the help text argparse formats; its
    # messages are compared untranslated, as the CLI writes them, which
    # also spares gettext's catalogue search on every message
    monkeypatch.setattr(oracles._Parser, "print_help", lambda *a: None)
    monkeypatch.setattr(oracles.argparse, "_", str)
    reference = oracles.build_parser().parse_known_args
    corpus = [[], ["nope"], ["--nope", "char", "--algebra", "A1", "--rep",
                             "std"], ["--", "char"], ["--"], ["-h"], ["--he"],
              ["--help=1"], ["-hx", "char"], ["-3"], ["--nope"],
              ["char", "--algebra=--", "--rep", "std", "--", "--rep"],
              ["enumerate", "--max-dim=--"], ["verify-howe", "--max-d=3"],
              ["census", "-h="], ["rect", "--pre", "--rep", "-a b"]]
    for command in COMMANDS:
        words = _words(command)
        corpus += [[command]] + [[command, w] for w in words]
        corpus += [[command, a, b] for a in words for b in words]
    rng = Random(25)
    alphabet = sorted(set(COMMANDS).union(*map(_words, COMMANDS)))
    for _ in range(3000):
        argv = [rng.choice(list(COMMANDS))] if rng.random() < 0.8 else []
        corpus.append(argv + rng.choices(alphabet, k=rng.randrange(6)))
    t0 = time.monotonic()
    kinds = set()
    for argv in corpus:
        got = _outcome(_parse, argv)
        assert got == _outcome(reference, argv), argv
        kinds.add(got[0])
    assert time.monotonic() - t0 < 2.0
    assert kinds == {"ok", "usage", "help"}


@pytest.mark.parametrize("argv", [["--help"], ["--he"], ["char", "-h"]])
def test_help_prints_the_command_table(capsys, argv):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    if argv[0] == "char":
        names = ["--help"] + [o[0] for o in COMMANDS["char"][2]]
    else:
        names = list(COMMANDS)
    assert all(name in captured.out for name in names)
    assert captured.err == ""


def _no_catalogue_match(monkeypatch):
    monkeypatch.setattr("rectrep.classify._catalogue_item",
                        lambda label, weights: None)


@pytest.mark.parametrize("force, message", [
    (_no_catalogue_match,
     "factors at positions [0, 1] of A1*A1 match no catalogue item"),
])
def test_decompose_catalogue_mismatch_exits_internal(capsys, monkeypatch,
                                                     force, message):
    force(monkeypatch)
    code, payload, _ = run(capsys, "decompose", "--algebra", "A1*A1",
                           "--rep", "std*triv + triv*std")
    assert code == EXIT_CODES["internal"] == 5
    assert payload["ok"] is False
    assert payload["error"] == {"code": "internal", "message": message}


def test_pretty_goes_to_stderr_only(capsys):
    code, payload, captured = run(capsys, "rect", "--algebra", "B2",
                                  "--rep", "std + spin", "--pretty")
    assert code == EXIT_OK
    assert captured.err
    # stdout still parses as the same JSON envelope
    assert payload["result"]["rectangular"] is True


def test_byte_identical_repeated_runs(capsys):
    argv = ("char", "--algebra", "D4", "--rep", "spin")
    _, _, first = run(capsys, *argv)
    _, _, second = run(capsys, *argv)
    assert first.out == second.out


def test_missing_subcommand_is_usage(capsys):
    assert main([]) == EXIT_CODES["usage"]
    capsys.readouterr()
