"""Outside-in span and counter recorder for one traced child process.

`install()` replaces each layer's public functions at every module-global
name through which rectrep modules call them (for example both
`rectrep.classify.detect_rectangular_points` and
`rectrep.rectkit.detect_rectangular_points`), so no file under `src/` is
edited.  Spans carry name, start, end, parent and request id and stay in
memory; `summary()` folds them into per-name counts, total and self
times once the command has finished.  The hot inner calls (`vec_sub`,
`dominant_conjugate_coords`) get counters only, never timers.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

# (defining module, attribute, span name); each is timed.
SPANS = [
    ("exactlin", "rank", "exactlin.rank"),
    ("charcalc", "character_of", "charcalc.character_of"),
    ("charcalc", "irreducible_character", "charcalc.irreducible_character"),
    ("charcalc", "weyl_dimension", "charcalc.weyl_dimension"),
    ("charcalc", "restrict_to_factors", "charcalc.restrict_to_factors"),
    ("liealg", "weyl_orbit_coords", "liealg.weyl_orbit_coords"),
    ("classify", "enumerate_rectangular", "classify.enumerate_rectangular"),
    ("classify", "multiplicity_free_irreps", "classify.multiplicity_free_irreps"),
    ("classify", "canonical_form", "classify.canonical_form"),
    ("classify", "decompose", "classify.decompose"),
    ("classify", "catalogue_closure", "classify.catalogue_closure"),
    ("classify", "verify_classification", "classify.verify_classification"),
    ("cli", "parse_rep", "cli.parse_rep"),
    ("cli", "_emit", "cli.emit"),
    ("cli", "main", "cli.command"),
]
# Counted, never timed.
COUNTERS = [
    ("exactlin", "vec_sub", "exactlin.vec_sub"),
    ("exactlin", "random_unimodular", "exactlin.random_unimodular"),
    ("liealg", "dominant_conjugate_coords", "liealg.dominant_conjugate_coords"),
]
# Both detector entry points share one span; a nested call is not counted twice.
DETECT = [("rectkit", "detect_rectangular"), ("rectkit", "detect_rectangular_points")]
DETECT_SPAN = "rectkit.detect"
# Nearest enclosing span that decides which detect.in_* bucket a call goes to.
DETECT_CALLERS = {"classify.enumerate_rectangular": "in_enumerate",
                  "classify.decompose": "in_decompose",
                  "classify.verify_classification": "in_verify",
                  "cli.command": "in_cli"}
CACHE_MODULES = ("liealg", "charcalc", "classify")


class Recorder:
    def __init__(self, request_id: int):
        self.request_id = request_id
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, request_id]
        self.stack: list[int] = []
        self.sums: dict[str, int] = {}  # additive totals, zero for every wrapped name
        self.caches: dict[str, object] = {}

    def timed(self, name, fn, on_result=None):
        spans, stack, rid = self.spans, self.stack, self.request_id
        for what in ("calls", "time_ns", "self_ns"):
            self.sums[f"{name}.{what}"] = 0

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, rid]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out
        return wrapper

    def counted(self, name, fn):
        sums, key = self.sums, f"{name}.calls"
        sums[key] = 0

        def wrapper(*args, **kwargs):
            sums[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def detect_wrapper(self, fn):
        sums = self.sums
        for key in ["accepts", "points"] + [f"{b}_ns" for b in DETECT_CALLERS.values()]:
            sums[f"{DETECT_SPAN}.{key}"] = 0

        def on_result(args, cert):
            sums[f"{DETECT_SPAN}.accepts"] += cert is not None
            first = args[0]
            sums[f"{DETECT_SPAN}.points"] += len(getattr(first, "points", first))

        inner = self.timed(DETECT_SPAN, fn, on_result)

        def wrapper(points, *args):
            # detect_rectangular passes a generator; size it without losing it
            if not hasattr(points, "__len__") and not hasattr(points, "points"):
                points = list(points)
            return inner(points, *args)
        return wrapper


def _patch(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "rectrep" or name.startswith("rectrep."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(request_id: int) -> Recorder:
    """Wrap every layer function.  A name that no longer exists is skipped,
    so its metrics are reported as absent rather than as zero."""
    rec = Recorder(request_id)
    mods = {m: importlib.import_module(f"rectrep.{m}")
            for m in ("exactlin", "liealg", "charcalc", "rectkit", "classify", "cli")}
    for m in CACHE_MODULES:
        for attr, value in vars(mods[m]).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", "") == f"rectrep.{m}":
                rec.caches[f"{m}.{attr}"] = value
    for m, attr, name in SPANS + COUNTERS:
        fn = getattr(mods[m], attr, None)
        if fn is None:
            continue
        make = rec.counted if (m, attr, name) in COUNTERS else rec.timed
        _patch(fn, make(name, fn))
    for m, attr in DETECT:
        fn = getattr(mods[m], attr, None)
        if fn is not None:
            _patch(fn, rec.detect_wrapper(fn))
    return rec


def summary(rec: Recorder) -> dict:
    """Additive totals: per-name calls, total and self time, the detect
    split by nearest caller, and hits, misses and entries of each cache."""
    spans, sums = rec.spans, dict(rec.sums)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        sums[f"{name}.calls"] += 1
        sums[f"{name}.self_ns"] += end - start - child_ns[i]
        p, outermost, bucket = parent, True, None
        while p >= 0:
            pname = spans[p][0]
            outermost = outermost and pname != name
            if bucket is None:
                bucket = DETECT_CALLERS.get(pname)
            p = spans[p][3]
        if outermost:
            sums[f"{name}.time_ns"] += end - start
        if name == DETECT_SPAN and bucket is not None:
            sums[f"{name}.{bucket}_ns"] += end - start
    for name, fn in rec.caches.items():
        info = fn.cache_info()
        sums.update({f"caches.{name}.hits": info.hits, f"caches.{name}.misses": info.misses,
                     f"caches.{name}.entries": info.currsize})
    return sums
