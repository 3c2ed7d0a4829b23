"""Command-line interface: exact character computation, box detection,
catalogue decomposition, enumeration, and the verification suites.

Output contract.  Every invocation writes exactly one JSON object to
stdout with keys in fixed order and every integer rendered as a decimal
string, so repeated runs are byte-identical.  --pretty adds a human
summary on stderr.  A failed envelope carries an error code, and
EXIT_CODES, the one table from error code to exit code, gives the exit
status: 0 success, 2 parse/usage error, 3 domain rejection (unfaithful
or non-rectangular input, with a diagnostic report), 4 verification
mismatch, 5 internal invariant violation.

Input grammar (case-insensitive, whitespace-insensitive):

    algebra := factor ("*" factor)*        factor := LETTER RANK
    rep     := term ("+" term)*            term   := irrep ("*" irrep)*
    irrep   := "triv" | "std" | "spin" | "spin+" | "spin-"
             | "sym" INT | "wedge" INT | "dual" "(" irrep ")"
             | "hw" "(" INT ("," INT)* ")"

A term names one irreducible per simple factor, in order.  "spin" on a
D factor expands the term into both half-spin summands.  Aliases
resolve against the canonical family, so C2 accepts "spin" via B2,
while D3 (entered as A3) rejects it with a hint.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from math import prod

from .liealg import SemisimpleAlgebra, SimpleType
from .charcalc import (AliasError, RepSpec, character_of, dual_weight,
                       is_multiplicity_free, resolve_alias)
from .rectkit import (automorphism_order, detect_rectangular, from_character,
                      is_hypercubic, lengths, with_ambient_padding)
from . import classify
from .classify import (CatalogueItem, CatalogueMismatchError, NotFaithfulError,
                       NotRectangularError, catalogue_lengths, catalogue_spec,
                       decompose, enumerate_rectangular, iter_catalogue_items,
                       long_roots_3space_census, roots_in_plane_census,
                       verify_classification, verify_howe)

SCHEMA_VERSION = "1"

EXIT_OK = 0
# The one map from an error envelope's code to the process exit code.
EXIT_CODES = {"parse": 2, "usage": 2,
              "not_faithful": 3, "not_rectangular": 3,
              "verification_mismatch": 4,
              "internal": 5}


class ParseError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------- lexing

def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            name = text[i:j].lower()
            if name == "spin" and j < n and text[j] in "+-":
                name += text[j]
                j += 1
            tokens.append(("name", name, i))
            i = j
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif c in "*+(),":
            tokens.append((c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _TokenStream:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


# --------------------------------------------------------------- parsing

def parse_algebra(text: str) -> SemisimpleAlgebra:
    ts = _TokenStream(text)
    factors = []
    while True:
        tok = ts.expect("name")
        name = tok[1]
        if len(name) != 1 or not name.isalpha():
            raise ParseError(f"expected a family letter, found {name!r}", tok[2])
        rank_tok = ts.expect("int")
        try:
            factors.append(SimpleType(name.upper(), rank_tok[1]))
        except ValueError as e:
            raise ParseError(str(e), tok[2]) from None
        tok = ts.next()
        if tok[0] == "end":
            break
        if tok[0] != "*":
            raise ParseError(f"expected '*' between factors, found {tok[1]!r}",
                             tok[2])
    return SemisimpleAlgebra(tuple(factors))


def _parse_irrep(ts: _TokenStream, t: SimpleType):
    """Options for one irreducible of the factor t (spin on D gives two)."""
    tok = ts.expect("name")
    name, pos = tok[1], tok[2]
    if name == "hw":
        ts.expect("(")
        coords = [ts.expect("int")[1]]
        while ts.peek()[0] == ",":
            ts.next()
            coords.append(ts.expect("int")[1])
        ts.expect(")")
        if len(coords) != t.rank:
            raise ParseError(
                f"hw(...) needs {t.rank} coordinates for {t.label}, "
                f"got {len(coords)}", pos)
        return [tuple(coords)]
    if name == "dual":
        ts.expect("(")
        inner = _parse_irrep(ts, t)
        ts.expect(")")
        return [dual_weight(SemisimpleAlgebra((t,)), c) for c in inner]
    arg = None
    if name in ("sym", "wedge"):
        arg = ts.expect("int")[1]
    try:
        return list(resolve_alias(t, name, arg))
    except AliasError as e:
        raise ParseError(str(e), pos) from None


def parse_rep(text: str, algebra: SemisimpleAlgebra) -> RepSpec:
    ts = _TokenStream(text)
    summands = []
    while True:
        options = [()]
        for j, t in enumerate(algebra.factors):
            if j > 0:
                tok = ts.next()
                if tok[0] != "*":
                    raise ParseError(
                        f"term names {j} of {len(algebra.factors)} factors of "
                        f"{algebra.label}; expected '*', found {tok[1]!r}", tok[2])
            blocks = _parse_irrep(ts, t)
            options = [o + b for o in options for b in blocks]
        summands.extend(options)
        tok = ts.next()
        if tok[0] == "end":
            break
        if tok[0] != "+":
            raise ParseError(f"expected '+' between summands, found {tok[1]!r}",
                             tok[2])
    return RepSpec(algebra, [(c, 1) for c in summands])


# ------------------------------------------------------------- rendering

def render_irrep(t: SimpleType, coords) -> str:
    m = t.rank
    if not any(coords):
        return "triv"
    hot = [i for i, x in enumerate(coords) if x]
    if len(hot) == 1:
        i, k = hot[0], coords[hot[0]]
        if t.family == "A":
            if i == 0:
                return "std" if k == 1 else f"sym{k}"
            if i == m - 1:
                return "dual(std)" if k == 1 else f"dual(sym{k})"
            if k == 1:
                return f"wedge{i + 1}"
        elif t.family in "BCD" and i == 0 and k == 1:
            return "std"
        if k == 1:
            if t.family == "B" and i == m - 1:
                return "spin"
            if t.family == "D" and i == m - 1:
                return "spin+"
            if t.family == "D" and i == m - 2:
                return "spin-"
    return "hw(" + ",".join(str(x) for x in coords) + ")"


def render_spec(spec: RepSpec) -> str:
    ranges = spec.algebra.block_ranges()
    terms = []
    for hw, mult in spec.summands:
        parts = [render_irrep(t, hw[r.start:r.stop])
                 for t, r in zip(spec.algebra.factors, ranges)]
        terms.extend(["*".join(parts)] * mult)
    return " + ".join(terms)


# ------------------------------------------------------------- JSON form

def _jsonable(obj):
    """Recursive conversion; every integer becomes a decimal string."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, CatalogueItem):  # a tuple, so before the sequences
        return {"kind": obj.kind, "params": [str(p) for p in obj.params]}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(payload: dict, pretty_lines: list, pretty: bool) -> None:
    sys.stdout.write(json.dumps(_jsonable(payload), separators=(",", ":"))
                     + "\n")
    if pretty and pretty_lines:
        sys.stderr.write("\n".join(pretty_lines) + "\n")


def _envelope(command: str, ok: bool, result=None, error=None) -> dict:
    payload = {"schema_version": SCHEMA_VERSION, "command": command, "ok": ok}
    if error is not None:
        payload["error"] = error
    payload["result"] = result
    return payload


# -------------------------------------------------------------- commands
#
# Each command returns its outcome (result, pretty_lines, error): error is
# None on success, else the envelope's {"code", "message"}.  `main` turns
# the outcome, or a typed exception, into the one envelope and exit code.

_Outcome = tuple[object, list, "dict | None"]

def _load_spec(args) -> tuple[SemisimpleAlgebra, RepSpec]:
    algebra = parse_algebra(args.algebra)
    spec = parse_rep(args.rep, algebra)
    return algebra, spec


def _verdict(report: dict, lines, message: str) -> _Outcome:
    """A verify-style command's outcome: ok, or a verification mismatch."""
    if report["ok"]:
        return report, lines, None
    return report, lines, {"code": "verification_mismatch", "message": message}


def _cmd_char(args) -> _Outcome:
    algebra, spec = _load_spec(args)
    char = character_of(spec)
    entries = sorted(char.entries.items())
    dimension = spec.dimension
    result = {
        "algebra": algebra.label,
        "rep": render_spec(spec),
        "dimension": dimension,
        "mass": char.mass,
        "multiplicity_free": is_multiplicity_free(char),
        "weights": [{"coords": list(w), "mult": m} for w, m in entries],
    }
    lines = [f"character of {result['rep']} over {algebra.label}",
             f"dimension {dimension}"]
    lines += [f"  {w}  x{m}" for w, m in entries]
    return result, lines, None


def _cmd_rect(args) -> _Outcome:
    algebra, spec = _load_spec(args)
    char = character_of(spec)
    cert = detect_rectangular(from_character(char))
    if cert is None:
        reason = classify._rect_reason(char.entries) or "box mismatch"
        result = {"algebra": algebra.label, "rep": render_spec(spec),
                  "rectangular": False, "reason": reason}
        message = f"not rectangular: {reason}"
        return result, [message], {"code": "not_rectangular",
                                   "message": message}
    padded = with_ambient_padding(cert, algebra.rank)
    ls = lengths(padded)
    side = is_hypercubic(ls)
    auto = automorphism_order(ls) if ls and min(ls) >= 2 else None
    result = {
        "algebra": algebra.label,
        "rep": render_spec(spec),
        "rectangular": True,
        "vertex": list(cert.vertex),
        "edges": [list(e) for e in cert.edges],
        "degrees": list(cert.degrees),
        "padding": padded.padding,
        "lengths": list(ls),
        "hypercubic": side is not None,
        "side": side,
        "automorphism_order": auto,
    }
    lines = [f"rectangular with lengths {list(ls)}"
             + (f", hypercubic of side {side}" if side is not None else "")]
    return result, lines, None


def _cmd_decompose(args) -> _Outcome:
    algebra, spec = _load_spec(args)
    try:
        dec = decompose(spec)
    except NotFaithfulError as e:
        result = {"algebra": algebra.label, "rep": render_spec(spec),
                  "faithful": False}
        return result, [str(e)], {"code": "not_faithful", "message": str(e)}
    except NotRectangularError as e:
        result = {"algebra": algebra.label, "rep": render_spec(spec),
                  "faithful": True, "rectangular": False, "reason": e.reason}
        return result, [str(e)], {"code": "not_rectangular",
                                  "message": str(e)}
    parts = []
    for positions, item in dec.parts:
        part_alg, part_spec = catalogue_spec(item)
        ls = catalogue_lengths(item)
        parts.append({
            "factors": [p + 1 for p in positions],
            "item": item,
            "label": item.label,
            "algebra": part_alg.label,
            "rep": render_spec(part_spec),
            "lengths": list(ls),
        })
    total = dec.lengths
    side = is_hypercubic(total)
    result = {
        "algebra": algebra.label,
        "rep": render_spec(spec),
        "faithful": True,
        "rectangular": True,
        "parts": parts,
        "lengths": list(total),
        "hypercubic": side is not None,
        "side": side,
    }
    lines = [f"decomposes into {len(parts)} catalogue part(s):"]
    lines += [f"  factors {p['factors']}: {p['label']} = {p['rep']} "
              f"over {p['algebra']}" for p in parts]
    return result, lines, None


def _cmd_enumerate(args) -> _Outcome:
    algebras = [parse_algebra(args.algebra)] if args.algebra else None
    if args.dry_run:
        pool = classify._algebra_pool(args.max_rank, args.max_dim, algebras)
        result = {"max_rank": args.max_rank, "max_dim": args.max_dim,
                  "dry_run": True, "algebra_count": len(pool),
                  "algebras": [a.label for a in pool]}
        return result, [f"would scan {len(pool)} algebras"], None
    found = enumerate_rectangular(args.max_rank, args.max_dim,
                                  algebras=algebras)
    specs = []
    for algebra, spec, ls in found:
        # a box has one point per dimension
        specs.append({"algebra": algebra.label, "rep": render_spec(spec),
                      "dimension": prod(ls), "lengths": list(ls)})
    result = {"max_rank": args.max_rank, "max_dim": args.max_dim,
              "count": len(specs), "specs": specs}
    lines = [f"{len(specs)} rectangular specs"]
    lines += [f"  {s['algebra']}: {s['rep']}  dim {s['dimension']} "
              f"lengths {s['lengths']}" for s in specs]
    return result, lines, None


def _cmd_verify_catalogue(args) -> _Outcome:
    if args.dry_run:
        classify._check_bounds(args.max_rank, args.max_dim)
        items = list(iter_catalogue_items(args.max_rank, args.max_dim))
        result = {"max_rank": args.max_rank, "max_dim": args.max_dim,
                  "dry_run": True, "catalogue_items": len(items)}
        return result, [f"{len(items)} catalogue items in range"], None
    report = verify_classification(args.max_rank, args.max_dim,
                                   seed=args.seed)
    lines = [f"enumerated {report['enumerated']}, catalogue "
             f"{report['catalogue']}, ok={report['ok']}"]
    return _verdict(report, lines, "enumeration disagrees with the catalogue")


def _cmd_verify_howe(args) -> _Outcome:
    algebra = parse_algebra(args.algebra)
    if len(algebra.factors) != 1:
        raise ValueError("verify-howe takes a single simple factor")
    t = algebra.factors[0]
    if args.dry_run:
        classify._check_howe_bounds(t, args.max_dim)
        count = len(classify._dominant_weights_up_to_dim(t, args.max_dim))
        result = {"type": t.label, "max_dim": args.max_dim,
                  "dry_run": True, "dominant_weights": count}
        return result, [f"would scan {count} dominant weights of {t.label}"], None
    report = verify_howe(t, args.max_dim)
    lines = [f"{t.label}: scanned {report['scanned']}, flagged "
             f"{len(report['flagged'])}, ok={report['ok']}"]
    return _verdict(report, lines, "multiplicity-free scan disagrees with "
                                   "the classified list")


def _cmd_census(args) -> _Outcome:
    classify._check_census_rank(args.max_rank)
    top = min(args.max_rank, 4)
    if args.dry_run:
        result = {"max_rank": top, "dry_run": True,
                  "plane_ranks": list(range(2, top + 1)),
                  "space_ranks": [n for n in (3, 4) if n <= top]}
        return result, ["dry run"], None
    planes = [roots_in_plane_census(n) for n in range(2, top + 1)]
    spaces = [long_roots_3space_census(n) for n in (3, 4) if n <= top]
    ok = all(r["ok"] for r in planes + spaces)
    result = {"max_rank": top, "planes": planes, "long_3spaces": spaces,
              "ok": ok}
    lines = [f"B{r['n']} planes: {r['rich_planes']} rich, "
             f"{len(r['violations'])} violations" for r in planes]
    lines += [f"B{r['n']} long 3-spaces: {r['rich_spaces']} rich, "
              f"{len(r['violations'])} violations" for r in spaces]
    return _verdict(result, lines, "census found violations")


# ---------------------------------------------------------------- driver

class _UsageError(ValueError):
    """An argparse usage error, raised for `main` to report."""

    def __init__(self, command: str, message: str):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # the parser that rejects names the command: a subcommand's prog
        # is "rectrep <command>"
        raise _UsageError(self.prog.split()[-1], message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rectrep", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, rep=False, bounds=False, seed=False):
        p.add_argument("--pretty", action="store_true",
                       help="also print a human summary on stderr")
        if rep:
            p.add_argument("--algebra", required=True,
                           help="e.g. A1*B3")
            p.add_argument("--rep", required=True,
                           help="e.g. 'sym2*spin' or 'std + dual(std)'")
        if bounds:
            p.add_argument("--max-rank", type=int, default=2)
            p.add_argument("--max-dim", type=int, default=64)
            p.add_argument("--dry-run", action="store_true",
                           help="report planned work without running")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("char", help="weights with multiplicities")
    common(p, rep=True)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("rect", help="decide rectangularity, certificate")
    common(p, rep=True)
    p.set_defaults(func=_cmd_rect)

    p = sub.add_parser("decompose",
                       help="factor into catalogue items (faithful input)")
    common(p, rep=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("enumerate",
                       help="all faithful rectangular specs within bounds")
    common(p, bounds=True)
    p.add_argument("--algebra", help="restrict to one algebra, e.g. A3")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-catalogue",
                       help="brute-force enumeration against the catalogue")
    common(p, bounds=True, seed=True)
    p.set_defaults(func=_cmd_verify_catalogue)

    p = sub.add_parser("verify-howe",
                       help="multiplicity-free scan for one simple type")
    common(p)
    p.add_argument("--algebra", required=True, help="single factor, e.g. B3")
    p.add_argument("--max-dim", type=int, default=128)
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=_cmd_verify_howe)

    p = sub.add_parser("census", help="root-geometry censuses for B_n")
    common(p)
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    This is the process entry point (the `rectrep` script and `python -m
    rectrep`).  Its first call freezes the heap it finds, so everything
    import built is never collected again; the command's own objects
    still are.
    """
    # at exit CPython would free the import-time heap object by object in
    # a full collection, which costs more than a small command; the
    # operating system reclaims it at once.  Freezing again on a later
    # in-process call would make the garbage of earlier calls permanent.
    if not gc.get_freeze_count():
        gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    # until parsing succeeds, --pretty (or a prefix argparse takes for it;
    # no other option starts with --p) is known only from the raw words
    command = "rectrep"
    pretty = any(len(a) > 2 and "--pretty".startswith(a) for a in argv)
    try:
        args, extra = build_parser().parse_known_args(argv)
        command, pretty = args.command, args.pretty
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        result, lines, error = args.func(args)
    except SystemExit as e:
        # --help printed its text
        return int(e.code or 0)
    except _UsageError as e:
        command = e.command
        result, lines, error = None, [str(e)], {"code": "usage",
                                                "message": str(e)}
    except ParseError as e:
        result, lines, error = None, [str(e)], {"code": "parse",
                                                "message": str(e)}
        if e.pos is not None:
            error["column"] = e.pos
    except (CatalogueMismatchError, AssertionError) as e:
        result, lines, error = None, [str(e)], {"code": "internal",
                                                "message": str(e)}
    except ValueError as e:
        result, lines, error = None, [str(e)], {"code": "usage",
                                                "message": str(e)}
    _emit(_envelope(command, error is None, result, error), lines, pretty)
    return EXIT_OK if error is None else EXIT_CODES[error["code"]]


if __name__ == "__main__":
    sys.exit(main())
