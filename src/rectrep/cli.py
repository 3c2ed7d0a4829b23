"""Command-line interface: exact character computation, box detection,
catalogue decomposition, enumeration, and the verification suites.

Output contract.  Every invocation but --help writes exactly one JSON
object to stdout with keys in fixed order and every integer rendered as
a decimal string, so repeated runs are byte-identical.  --pretty adds a
human summary on stderr.  A failed envelope carries an error code, and
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

import gc
import json
import re
import sys
from math import prod
from types import SimpleNamespace

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
    """A command-line usage error, raised for `main` to report."""

    def __init__(self, command: str, message: str):
        super().__init__(message)
        self.command = command


# An option is (flag, type, default, help): an int or str option takes
# one value, type None makes a switch, and default ... a required option.
_HELP = ("-h/--help", None, False, "show this help and exit")
_TOP = {"-h": _HELP, "--help": _HELP}  # the top level's flags; every command's too
_PRETTY = ("--pretty", None, False, "also print a human summary on stderr")
_DRY_RUN = ("--dry-run", None, False, "report planned work without running")
_SPEC = (_PRETTY, ("--algebra", str, ..., "e.g. A1*B3"),
         ("--rep", str, ..., "e.g. 'sym2*spin' or 'std + dual(std)'"))
_BOUNDS = (_PRETTY, ("--max-rank", int, 2, "largest total rank"),
           ("--max-dim", int, 64, "largest dimension"), _DRY_RUN)

# The command table: name -> (function, help, options), in help's order.
COMMANDS = {
    "char": (_cmd_char, "weights with multiplicities", _SPEC),
    "rect": (_cmd_rect, "decide rectangularity, certificate", _SPEC),
    "decompose": (_cmd_decompose, "factor into catalogue items (faithful input)", _SPEC),
    "enumerate": (_cmd_enumerate, "all faithful rectangular specs within bounds",
                  _BOUNDS + (("--algebra", str, None, "only this algebra, e.g. A3"),)),
    "verify-catalogue": (_cmd_verify_catalogue,
                         "brute-force enumeration against the catalogue",
                         _BOUNDS + (("--seed", int, 0, "seed of the spot checks"),)),
    "verify-howe": (_cmd_verify_howe, "multiplicity-free scan for one simple type",
                    (_PRETTY, ("--algebra", str, ..., "single factor, e.g. B3"),
                     ("--max-dim", int, 128, "largest dimension"), _DRY_RUN)),
    "census": (_cmd_census, "root-geometry censuses for B_n",
               (_PRETTY, ("--max-rank", int, 4, "largest rank"), _DRY_RUN)),
}


class _Help(Exception):
    """Raised with the help text once a parser meets -h or --help."""


def _help(command: str) -> str:
    """The help text: the commands, or one command's options."""
    if command == "rectrep":
        return (f"usage: rectrep <command> [options]\n\n{__doc__}\ncommands:\n"
                + "".join(f"  {c:<18} {e[1]}\n" for c, e in COMMANDS.items()))
    _, text, options = COMMANDS[command]
    return (f"usage: rectrep {command} [options]\n\n{text}\n\noptions:\n"
            + "".join(f"  {o[0]:<18} {o[3]}\n" for o in (_HELP,) + options))


def _read_option(word: str, flags: dict, command: str):
    """How argparse reads one word against a parser's flags: None for a
    value or "--", (None, None) for an unknown option, else (flag, the
    value joined on by '=' or None).  An ambiguous prefix is a usage
    error."""
    if not word.startswith("-") or word in ("-", "--"):
        return None
    head, eq, tail = word.partition("=")
    if head in flags:
        return head, tail if eq else None
    # -h with more letters joined on, or the unique prefix of a long flag
    found = [("-h", word[2:])] if word[:2] == "-h" else []
    if word[1] == "-":
        found = [(f, tail if eq else None) for f in flags if f.startswith(head)]
    if len(found) > 1:
        raise _UsageError(command, f"ambiguous option: {word} could match "
                          + ", ".join(f for f, _ in found))
    # unmatched, a negative number or a word with a space is a value
    if found or re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word:
        return found[0] if found else None
    return None, None


def _scan(command: str, words: list, options: tuple):
    """Take a parser's options from words in order, as argparse does: the
    values, defaults filled in, and the leftover words."""
    flags = _TOP | {o[0]: o for o in options}
    end = words.index("--") if "--" in words else len(words)
    # every word is read before any is taken, so that an ambiguous prefix
    # is the first error; neither "--" nor the end is a value
    read = [_read_option(w, flags, command) for w in words[:end]] + [(None, None)]
    values, extras, i = {o[0]: o[2] for o in options}, [], 0
    while i < end:
        (flag, value), i = read[i] or (None, None), i + 1
        if flag is None:
            extras.append(words[i - 1])
            continue
        name, kind, _, _ = option = flags[flag]
        if flag == "-h" and value:
            value = value.lstrip("h") or None  # -hh is -h twice
        if kind is None and value is not None:
            raise _UsageError(command, f"argument {name}: ignored explicit "
                              f"argument {value!r}")
        if option is _HELP:
            raise _Help(_help(command))
        if kind is not None and value is None:
            if read[i] is not None:
                raise _UsageError(command, f"argument {name}: expected one argument")
            value, i = words[i], i + 1
        try:  # a switch is True; argparse drops a '--' value, leaving []
            values[name] = kind is None or ([] if value == "--" else kind(value))
        except ValueError:
            raise _UsageError(command, f"argument {name}: invalid {kind.__name__} "
                              f"value: {value!r}") from None
    if missing := [f for f, v in values.items() if v is ...]:
        raise _UsageError(command, "the following arguments are required: "
                          + ", ".join(missing))
    return {f[2:].replace("-", "_"): v for f, v in values.items()}, extras + words[end:]


def _parse(argv: list):
    """Read a command line by the rules argparse applied to this CLI:
    (namespace, leftover words).  A usage error raises _UsageError naming
    the command that rejects it, and -h or --help raises _Help."""
    # the command is the first word that is not option-like
    k = next((i for i, w in enumerate(argv)
              if _read_option(w, _TOP, "rectrep") is None), len(argv))
    _, head = _scan("rectrep", argv[:k], ())
    if argv[k:] in ([], ["--"]):
        raise _UsageError("rectrep", "the following arguments are required: command")
    if argv[k] not in COMMANDS:
        raise _UsageError("rectrep", f"argument command: invalid choice: {argv[k]!r} "
                          f"(choose from {', '.join(map(repr, COMMANDS))})")
    func, _, options = COMMANDS[argv[k]]
    values, tail = _scan(argv[k], argv[k + 1:], options)
    return SimpleNamespace(command=argv[k], func=func, **values), head + tail


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
    # until parsing succeeds, --pretty (or a prefix the parser takes for
    # it; no other option starts with --p) is known only from the raw words
    command = "rectrep"
    pretty = any(len(a) > 2 and "--pretty".startswith(a) for a in argv)
    try:
        args, extra = _parse(argv)
        command, pretty = args.command, args.pretty
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        result, lines, error = args.func(args)
    except _Help as e:
        sys.stdout.write(str(e))
        return EXIT_OK
    except ParseError as e:
        result, lines, error = None, [str(e)], {"code": "parse",
                                                "message": str(e)}
        if e.pos is not None:
            error["column"] = e.pos
    except (CatalogueMismatchError, AssertionError) as e:
        result, lines, error = None, [str(e)], {"code": "internal",
                                                "message": str(e)}
    except ValueError as e:
        command = getattr(e, "command", command)  # a _UsageError names it
        result, lines, error = None, [str(e)], {"code": "usage",
                                                "message": str(e)}
    _emit(_envelope(command, error is None, result, error), lines, pretty)
    return EXIT_OK if error is None else EXIT_CODES[error["code"]]


if __name__ == "__main__":
    sys.exit(main())
