"""Binding acceptance checks for the library contract.

Every check here is exact (integer / rational equality, no tolerances)
and carries a wall-clock budget.  Independent oracles live in oracles.py.
"""

import ast
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import rectrep
from rectrep import (SemisimpleAlgebra, WeightMultiset, catalogue_lengths,
                     catalogue_spec, character_of, detect_rectangular,
                     detect_rectangular_points, enumerate_rectangular,
                     from_character, iter_catalogue_items, lengths,
                     long_roots_3space_census, ortho_coords,
                     roots_in_plane_census, transform, verify_classification,
                     verify_howe, with_ambient_padding)
from rectrep.charcalc import RepSpec
from rectrep.cli import main as cli_main
from rectrep.exactlin import random_unimodular
from rectrep.liealg import SimpleType

from oracles import grid_rect_oracle, symmetric_set_count, symmetric_sets


def timed(budget_s):
    class _Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.t0
            if exc[0] is None:
                assert self.elapsed < budget_s, (
                    f"budget {budget_s}s exceeded: {self.elapsed:.1f}s")
            return False
    return _Timer()


def ortho_weight_set(label, summands):
    alg = SemisimpleAlgebra.parse(label)
    spec = RepSpec(alg, summands)
    char = character_of(spec)
    out = set()
    for coords, m in char.entries.items():
        assert m == 1
        vec = ()
        for t, rng in zip(alg.factors, alg.block_ranges()):
            vec = vec + ortho_coords(t, coords[rng.start:rng.stop])
        out.add(vec)
    return out


# 1 ----------------------------------------------------------------------
def test_catalogue_character_tables_exact():
    with timed(1.0):
        h = Fraction(1, 2)
        cube3 = {(sx * h, sy * h, sz * h)
                 for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)}

        spin_b3 = ortho_weight_set("B3", [((0, 0, 1), 1)])
        assert spin_b3 == cube3

        std_spin_b2 = ortho_weight_set("B2", [((1, 0), 1), ((0, 1), 1)])
        expected = {(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
                    (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)),
                    (Fraction(0), Fraction(0)),
                    (h, h), (h, -h), (-h, h), (-h, -h)}
        assert std_spin_b2 == expected
        assert len(std_spin_b2) == 9

        # std + dual(std) of A3 sits on the cube vertices after the
        # tetrahedral change of coordinates: T kills (1,1,1,1) and sends
        # the i-th standard-weight direction to the i-th even vertex.
        t_cols = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        assert tuple(map(sum, zip(*t_cols))) == (0, 0, 0)
        pts = set()
        for w in ortho_weight_set("A3", [((1, 0, 0), 1), ((0, 0, 1), 1)]):
            pts.add(tuple(sum(c[i] * x for c, x in zip(t_cols, w)) * h
                          for i in range(3)))
        assert pts == cube3


# 2 ----------------------------------------------------------------------
def test_lengths_table_matches_detection():
    with timed(10.0):
        checked = 0
        for item in iter_catalogue_items(6, 128):
            alg, spec = catalogue_spec(item)
            cert = detect_rectangular(from_character(character_of(spec)))
            assert cert is not None, item.label
            got = lengths(with_ambient_padding(cert, alg.rank))
            assert got == tuple(sorted(catalogue_lengths(item))), item.label
            checked += 1
        assert checked > 100
        assert tuple(sorted(catalogue_lengths(
            next(i for i in iter_catalogue_items(2, 16)
                 if i.kind == "B2StdSpin")))) == (3, 3)
        assert tuple(sorted(catalogue_lengths(
            next(i for i in iter_catalogue_items(2, 16)
                 if i.kind == "D2Spin")))) == (2, 2)


# 3 ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def classification_2_64():
    with timed(300.0) as t:
        report = verify_classification(2, 64)
    return report


@pytest.fixture(scope="module")
def classification_3_128():
    with timed(300.0) as t:
        report = verify_classification(3, 128)
    return report


def test_classification_equality_rank2_dim64(classification_2_64):
    r = classification_2_64
    assert r["ok"]
    assert r["missing_from_catalogue"] == []
    assert r["unexpected_in_catalogue"] == []
    assert r["roundtrip_failures"] == []


def test_classification_equality_rank3_dim128(classification_3_128):
    r = classification_3_128
    assert r["ok"]
    assert r["missing_from_catalogue"] == []
    assert r["unexpected_in_catalogue"] == []
    assert r["roundtrip_failures"] == []


# 4 ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def a3_enumeration():
    with timed(120.0):
        found = enumerate_rectangular(3, 256,
                                      algebras=[SemisimpleAlgebra.parse("A3")])
    return found


def test_a3_has_a_unique_rectangular_spec(a3_enumeration):
    assert len(a3_enumeration) == 1
    alg, spec, _ = a3_enumeration[0]
    assert alg.label == "A3"
    assert dict(spec.summands) == {(1, 0, 0): 1, (0, 0, 1): 1}
    cert = detect_rectangular(from_character(character_of(spec)))
    assert lengths(with_ambient_padding(cert, 3)) == (2, 2, 2)


# 5 ----------------------------------------------------------------------
HOWE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4")


def test_howe_multiplicity_free_lists():
    with timed(300.0):
        for label in HOWE_TYPES:
            report = verify_howe(SimpleType.parse(label), 128)
            assert report["ok"], (label, report)
        c3 = verify_howe(SimpleType.parse("C3"), 128)
        flagged = {tuple(c) for c in c3["flagged"]}
        assert flagged == {(0, 0, 0), (1, 0, 0), (0, 0, 1)}  # dims 1, 6, 14
        f4 = verify_howe(SimpleType.parse("F4"), 128)
        assert {tuple(c) for c in f4["flagged"]} == {(0, 0, 0, 0)}


# 6 ----------------------------------------------------------------------
def catalogue_sample(count=20):
    items = list(iter_catalogue_items(6, 128))
    step = max(1, len(items) // count)
    sample = items[::step][:count]
    assert len(sample) == count
    return sample


def test_detector_agrees_with_oracle_exhaustively():
    with timed(300.0):
        sets, lengths_of = grid_rect_oracle(half=3, max_points=12)
        swept = 0
        for s in symmetric_sets(half=3, max_points=12):
            swept += 1
            cert = detect_rectangular_points(s, 2)
            assert (cert is not None) == (s in sets), sorted(s)
            if cert is not None:
                assert lengths(cert) == tuple(sorted(lengths_of[s])), sorted(s)
        assert swept == symmetric_set_count(half=3, max_points=12) == 245506


def test_unimodular_transforms_preserve_lengths():
    with timed(300.0):
        runs = 0
        for idx, item in enumerate(catalogue_sample(20)):
            alg, spec = catalogue_spec(item)
            s = from_character(character_of(spec))
            want = tuple(sorted(catalogue_lengths(item)))
            for k in range(50):
                m = random_unimodular(alg.rank, 10_000 + 100 * idx + k)
                cert = detect_rectangular(transform(s, m))
                assert cert is not None, (item.label, k)
                got = lengths(with_ambient_padding(cert, alg.rank))
                assert got == want, (item.label, k)
                runs += 1
        assert runs == 1000


def test_nonzero_translations_are_rejected():
    with timed(300.0):
        runs = 0
        for idx, item in enumerate(catalogue_sample(20)):
            alg, spec = catalogue_spec(item)
            s = from_character(character_of(spec))
            rng = Random(20_000 + idx)
            for k in range(50):
                vec = tuple(rng.randint(-5, 5) for _ in range(alg.rank))
                while not any(vec):
                    vec = tuple(rng.randint(-5, 5) for _ in range(alg.rank))
                moved = WeightMultiset(s.dim, tuple(
                    (tuple(x + v for x, v in zip(p, vec)), m)
                    for p, m in s.points))
                assert detect_rectangular(moved) is None, (item.label, vec)
                runs += 1
        assert runs == 1000


# 7 ----------------------------------------------------------------------
def test_root_geometry_censuses():
    with timed(60.0):
        for n in (2, 3, 4):
            report = roots_in_plane_census(n)
            assert report["ok"], report
            assert report["violations"] == []
        for n in (3, 4):
            report = long_roots_3space_census(n)
            assert report["ok"], report
            assert report["violations"] == []
        b4 = long_roots_3space_census(4)
        assert len(b4["sign_complements"]) == 8
        assert all(c["long_roots"] == 12 for c in b4["sign_complements"])


# 8 ----------------------------------------------------------------------
def _assert_corollaries(found):
    for alg, spec, _ in found:
        count = sum(m for _, m in spec.summands)
        assert count & (count - 1) == 0, (alg.label, spec)  # power of two
        cert = detect_rectangular(from_character(character_of(spec)))
        ls = lengths(with_ambient_padding(cert, alg.rank))
        if all(x % 2 == 0 for x in ls) and sum(1 for x in ls if x == 2) <= 1:
            assert count == 1, (alg.label, spec)
            assert all(f.label == "A1" for f in alg.factors), alg.label


def test_structural_corollaries(classification_2_64, classification_3_128,
                                a3_enumeration):
    assert classification_2_64["corollary_violations"] == []
    assert classification_3_128["corollary_violations"] == []
    _assert_corollaries(enumerate_rectangular(2, 64))
    _assert_corollaries(a3_enumeration)


# 9 ----------------------------------------------------------------------
GOLDEN = [
    (["char", "--algebra", "B3", "--rep", "spin"], 0),
    (["char", "--algebra", "B3", "--rep", "spin("], 2),
    (["rect", "--algebra", "B2", "--rep", "std + spin"], 0),
    (["rect", "--algebra", "A2", "--rep", "std"], 3),
    (["decompose", "--algebra", "A1*A1", "--rep", "std * std"], 0),
    (["decompose", "--algebra", "A1", "--rep", "triv"], 3),
    (["enumerate", "--max-rank", "2", "--max-dim", "32"], 0),
    (["enumerate", "--max-rank", "99"], 2),
    (["verify-catalogue", "--max-rank", "2", "--max-dim", "32"], 0),
    (["verify-catalogue", "--max-dim", "not-a-number"], 2),
    (["verify-howe", "--algebra", "G2", "--max-dim", "64"], 0),
    (["verify-howe", "--algebra", "Z9"], 2),
    (["census", "--max-rank", "3"], 0),
    (["census", "--max-rank", "3", "--bogus"], 2),
]


def test_cli_golden_suite_bytes_and_exit_codes(capsys):
    with timed(30.0):
        for argv, expected in GOLDEN:
            code1 = cli_main(argv)
            out1 = capsys.readouterr().out
            code2 = cli_main(argv)
            out2 = capsys.readouterr().out
            assert code1 == code2 == expected, argv
            assert out1 == out2, argv
            if out1:
                payload = json.loads(out1)
                assert payload["schema_version"] == "1"
                assert payload["ok"] == (expected == 0)


def _child_env() -> dict:
    # a child imports the same rectrep as this suite, installed or not
    src = str(Path(rectrep.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_installed_entry_point_runs():
    with timed(30.0):
        proc = subprocess.run(
            [sys.executable, "-m", "rectrep", "char", "--algebra", "A1",
             "--rep", "std"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload["result"]["dimension"] == "2"


@pytest.mark.parametrize("argv, code", [
    (["char", "--algebra", "B2", "--rep", "spin"], 0),
    (["rect", "--algebra", "A1", "--rep", "std+std"], 3),
    (["enumerate", "--max-rank", "99"], 2),
], ids=["success", "rejection", "usage"])
def test_cli_process_output_equals_in_process_output(capsys, argv, code):
    # main freezes the heap it finds, so nothing import built is finalised
    # at exit; a fresh process must still flush every byte main wrote
    for extra in ([], ["--pretty"]):
        assert cli_main(argv + extra) == code
        captured = capsys.readouterr()
        with timed(30.0):
            proc = subprocess.run([sys.executable, "-m", "rectrep", *argv, *extra],
                                  capture_output=True, env=_child_env())
        assert proc.returncode == code
        assert proc.stdout == captured.out.encode()
        assert proc.stderr == captured.err.encode()
        assert bool(proc.stderr) == bool(extra)


def test_cli_main_freezes_the_import_time_heap():
    # the first call freezes what import built; a second in-process call
    # freezes nothing more, so the garbage of the first is still collected
    code = ("import contextlib, gc, io\n"
            "from rectrep.cli import main\n"
            "before = len(gc.get_objects())\n"
            "frozen = []\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        main(['char', '--algebra', 'A1', '--rep', 'std'])\n"
            "    frozen.append(gc.get_freeze_count())\n"
            "print(before, *frozen)\n")
    with timed(30.0):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    before, first, second = map(int, proc.stdout.split())
    assert first >= before // 2
    assert second == first


def test_cli_import_skips_dataclasses_and_inspect():
    # importing dataclasses (and with it inspect) and generating each
    # record's methods cost a cold request ~13 ms, and importing argparse
    # (with gettext and locale) and building its parser ~5 ms more; records
    # are namedtuples and the command line is read from the command table
    code = ("import sys\n"
            "import rectrep.cli\n"
            "heavy = {'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}\n"
            "loaded = [sorted(heavy & set(sys.modules))]\n"
            "for argv in (['char', '--algebra', 'A1', '--rep', 'std'],\n"
            "             ['char', '--algebra', 'A1'], ['--help']):\n"
            "    rectrep.cli.main(argv)\n"
            "loaded.append(sorted(heavy & set(sys.modules)))\n"
            "sys.stderr.write(repr(loaded))\n")
    with timed(30.0):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert '"code":"usage"' in proc.stdout and "usage: rectrep" in proc.stdout
    assert proc.stderr == repr([[], []])


def test_catalogue_table_script_runs_without_an_install(tmp_path):
    # the script finds src/ from its own path, from any working directory
    script = Path(__file__).resolve().parent.parent / "scripts" / "catalogue_table.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with timed(30.0):
        proc = subprocess.run(
            [sys.executable, str(script), "--max-rank", "2", "--max-dim", "8"],
            capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "12 items with rank <= 2, dim <= 8"


def test_readme_tour_runs_and_shows_true_values():
    # each bare expression in README's python block ends in a comment whose
    # text before any " — " is its value
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    ns: dict = {}
    checked = 0
    with timed(10.0):
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
                continue
            line = lines[stmt.end_lineno - 1]
            comment = line.partition("#")[2].split(" — ")[0]
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
            assert got == ast.literal_eval(comment.strip()), line
            checked += 1
    assert checked == 5
