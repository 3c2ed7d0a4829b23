"""The four workloads: the CLI argv each one sends, and what it expects back.

Batch workloads (`enumerate`, `verify`, `howe`) repeat one fixed pass of
commands; the seed only shuffles the order of the commands in each pass
and picks `verify-catalogue --seed`.  Their stdout is checked against a
sha256 pinned in expected.json plus the counts in the result.

`requests` is a seeded stream of independent `char`, `rect` and
`decompose` requests, generated in blocks of fixed composition so that
every block loads the layers the same way.  The expected answer of each
request is known by construction (see oracle.py): a spec is an external
tensor of catalogue items with shuffled factors, so its `decompose`
parts and `rect` lengths are known; a quarter of the specs are altered
into rejections with a known error code; `char` asks for a dominant
weight whose Weyl dimension the benchmark computes itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
HOWE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4")

BATCH = {
    "enumerate": ["enumerate --algebra A1*A1 --max-rank 2 --max-dim 128",
                  "enumerate --algebra A1*A1*A1*A1 --max-rank 4 --max-dim 128"],
    "verify": ["verify-catalogue --max-rank 4 --max-dim 64 --seed {seed}"],
    "howe": [f"verify-howe --algebra {t} --max-dim {128 if t == 'A1' else 256}"
             for t in HOWE_TYPES],
}
WORKLOADS = tuple(BATCH) + ("requests",)

# Request stream shape: blocks of 40 requests.  Four of them (10%) are
# large A1 `sym k` characters, whose Freudenthal cost is cubic in k, so
# latency_p95_ms falls inside that group rather than on its edge; 6 of
# the 26 specs are altered into rejections.
CHAR_TYPES = ("A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4")
CHAR_HW = (10, 2, 2_000)            # count, dimension range (log-uniform)
SYM_LARGE = (4, 250, 400)           # count, range of k in A1 `sym k`
RECT_ALTER = ["ok"] * 10 + ["doubled", "doubled", "extra"]
DECOMPOSE_ALTER = ["ok"] * 10 + ["doubled", "extra", "trivial"]
SPEC_MAX_DIM = 256
ODD_KINDS = ("A1Sym", "A1PairSym", "B2StdSpin")
ALL_KINDS = ODD_KINDS + ("D2Spin", "BmSpin", "A3StdDual", "D4Spin",
                         "D4StdSpinPlus", "D4StdSpinMinus", "DmSpin")


@dataclass
class Op:
    """One CLI command run in a fresh process, with its expected answer."""

    key: str                                   # statistics are kept per key
    args: list[str]
    check: Callable[[int, dict | None, bytes], list[str]]
    # re-checks that need rectrep itself; run after the timed window
    deferred: Callable[[dict], list[str]] | None = None


def parse(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


# ------------------------------------------------------------ batch

def _load_pins() -> dict:
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def batch_pass(workload: str, seed: int) -> list[Op]:
    """One pass of a batch workload, as ops in a seeded order."""
    pins = _load_pins()
    ops = []
    for template in BATCH[workload]:
        pin = pins[template]
        args = template.format(seed=seed % 100_000).split()

        def check(rc, out, stdout, pin=pin):
            errs = []
            if rc != 0 or out is None or out.get("ok") is not True:
                return [f"exit {rc}, ok={out and out.get('ok')}"]
            for key, want in pin["result"].items():
                if out["result"].get(key) != want:
                    errs.append(f"result.{key} = {out['result'].get(key)!r}, want {want!r}")
            digest = hashlib.sha256(stdout).hexdigest()
            if digest != pin["sha256"]:
                errs.append(f"stdout sha256 {digest[:16]} differs from the pinned one")
            return errs

        ops.append(Op(template, args, check))
    random.Random(f"{workload}:{seed}").shuffle(ops)
    return ops


# --------------------------------------------------------- requests

@lru_cache(maxsize=None)
def _dominant_table(label: str, cap: int) -> list[tuple[int, tuple]]:
    """(dimension, weight) for every dominant weight of dimension <= cap.

    The Weyl dimension grows in every coordinate, so each axis is scanned
    only until a weight with the remaining coordinates zero exceeds cap.
    """
    n = oracle.rank_of(label)
    out = []

    def scan(prefix):
        if len(prefix) == n:
            out.append((oracle.weyl_dimension(label, prefix), prefix))
            return
        k = 0
        pad = (0,) * (n - len(prefix) - 1)
        while oracle.weyl_dimension(label, prefix + (k,) + pad) <= cap:
            scan(prefix + (k,))
            k += 1

    scan(())
    return sorted(out)


def _log_uniform(rng, lo, hi, stratum, strata):
    u = (stratum + rng.random()) / strata
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _hw(block) -> str:
    return "hw(" + ",".join(map(str, block)) + ")"


def _char_op(label: str, hw: tuple, rep: str) -> Op:
    want = oracle.weyl_dimension(label, hw)

    def check(rc, out, stdout):
        if rc != 0 or out is None or out.get("ok") is not True:
            return [f"exit {rc}"]
        res = out["result"]
        mults = [int(w["mult"]) for w in res["weights"]]
        coords = [tuple(map(int, w["coords"])) for w in res["weights"]]
        errs = []
        if int(res["dimension"]) != want:
            errs.append(f"dimension {res['dimension']}, Weyl formula gives {want}")
        if int(res["mass"]) != int(res["dimension"]) or sum(mults) != int(res["mass"]):
            errs.append(f"mass {res['mass']} != dimension {res['dimension']}")
        if len(set(coords)) != len(coords) or dict(zip(coords, mults)).get(hw) != 1:
            errs.append("weights repeat or the highest weight is missing")
        if res["multiplicity_free"] != all(m == 1 for m in mults):
            errs.append("multiplicity_free flag disagrees with the weights")
        return errs

    return Op("char", ["char", "--algebra", label, "--rep", rep], check)


def _random_item(rng, odd: bool):
    kind = rng.choice(ODD_KINDS if odd else ALL_KINDS)
    if kind == "A1Sym":
        r = rng.randint(1, 31)
        params = (r + r % 2,) if odd else (r,)
    elif kind == "A1PairSym":
        r1 = rng.randint(1, 15)
        params = (r1, r1 - 1)
    elif kind == "BmSpin":
        params = (rng.randint(2, 4),)
    elif kind == "DmSpin":
        params = (5,)
    else:
        params = ()
    return kind, params


def _spec_op(rng, command: str, n_items: int, alter: str) -> Op:
    while True:
        items = [_random_item(rng, alter == "extra") for _ in range(n_items)]
        if math.prod(oracle.item_dimension(*it) for it in items) <= SPEC_MAX_DIM:
            break
    tables = [oracle.catalogue_item(*it) for it in items]
    slots = [(i, j) for i, (labels, _, _) in enumerate(tables) for j in range(len(labels))]
    rng.shuffle(slots)
    labels = [tables[i][0][j] for i, j in slots]
    terms = []
    for combo in itertools.product(*(summands for _, summands, _ in tables)):
        terms.append([combo[i][j] for i, j in slots])
    parts = sorted((tuple(p + 1 for p, s in enumerate(slots) if s[0] == i), kind, params)
                   for i, (kind, params) in enumerate(items))
    lengths = sorted(x for _, _, ls in tables for x in ls)
    if alter == "doubled":
        terms.append(list(rng.choice(terms)))
    elif alter == "extra":          # odd dimension: the box already holds 0
        terms.append([(0,) * oracle.rank_of(lab) for lab in labels])
    elif alter == "trivial":
        pos, lab = rng.randint(0, len(labels)), rng.choice(("A1", "A2", "B2", "G2"))
        labels.insert(pos, lab)
        for t in terms:
            t.insert(pos, (0,) * oracle.rank_of(lab))
    algebra = "*".join(labels)
    rep = " + ".join("*".join(_hw(b) for b in t) for t in terms)
    code = {"doubled": "not_rectangular", "extra": "not_rectangular",
            "trivial": "not_faithful"}.get(alter)

    def check(rc, out, stdout):
        if out is None:
            return [f"exit {rc}, stdout is not JSON"]
        res = out.get("result") or {}
        if code is not None:
            got = (out.get("error") or {}).get("code")
            errs = [] if rc == 3 and got == code else [f"exit {rc} code {got}, want 3 {code}"]
            if code == "not_rectangular" and res.get("reason") != "multiplicity":
                errs.append(f"reason {res.get('reason')!r}, want 'multiplicity'")
            return errs
        if rc != 0 or out.get("ok") is not True:
            return [f"exit {rc}, want 0"]
        got_lengths = sorted(map(int, res["lengths"]))
        errs = [] if got_lengths == lengths else [f"lengths {got_lengths}, want {lengths}"]
        if command == "decompose":
            got = sorted((tuple(map(int, p["factors"])), p["item"]["kind"],
                          tuple(map(int, p["item"]["params"]))) for p in res["parts"])
            if got != parts:
                errs.append(f"parts {got}, want {parts}")
        elif sorted(int(d) + 1 for d in res["degrees"]) != lengths:
            errs.append("degrees do not match the lengths")
        return errs

    deferred = None
    if command == "rect" and code is None:
        def deferred(out):
            return [] if certificate_holds(algebra, rep, out["result"]) else [
                "verify_certificate rejects the emitted certificate"]

    return Op(command, [command, "--algebra", algebra, "--rep", rep], check, deferred)


def request_block(seed: int, block: int) -> list[Op]:
    """Block `block` of the seeded request stream, in a seeded order."""
    rng = random.Random(f"requests:{seed}:{block}")
    ops = []
    count, lo, hi = CHAR_HW
    for i in range(count):
        label = rng.choice(CHAR_TYPES)
        target = _log_uniform(rng, lo, hi, i, count)
        table = _dominant_table(label, 2 * hi)
        near = [hw for d, hw in table if abs(math.log(d / target)) <= 0.2]
        hw = rng.choice(near) if near else min(
            table, key=lambda e: abs(math.log(e[0] / target)))[1]
        ops.append(_char_op(label, hw, _hw(hw)))
    count, lo, hi = SYM_LARGE
    for i in range(count):
        k = round(lo + (i + rng.random()) / count * (hi - lo))
        ops.append(_char_op("A1", (k,), f"sym {k}"))
    for command, alters in (("rect", RECT_ALTER), ("decompose", DECOMPOSE_ALTER)):
        for i, alter in enumerate(alters):
            ops.append(_spec_op(rng, command, 1 + i % 3, alter))
    rng.shuffle(ops)
    return ops


def certificate_holds(algebra: str, rep: str, result: dict) -> bool:
    """rectrep's own verify_certificate on the CLI's certificate."""
    from rectrep.charcalc import character_of
    from rectrep.cli import parse_algebra, parse_rep
    from rectrep.rectkit import RectCertificate, from_character, verify_certificate
    spec = parse_rep(rep, parse_algebra(algebra))
    cert = RectCertificate(tuple(map(int, result["vertex"])),
                           tuple(tuple(map(int, e)) for e in result["edges"]),
                           tuple(map(int, result["degrees"])), 0)
    return verify_certificate(from_character(character_of(spec)), cert)
