#!/usr/bin/env python3
"""Outside-in benchmark of the rectrep CLI.

    python3 perfbench/run.py --workload {enumerate,verify,howe,requests,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Every operation is one fresh interpreter
running one CLI command (see child.py), issued in a closed loop by this
single process: one child at a time, no pool.  The loop stops starting
operations once the next one would end after --seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced passes over a fixed pass (for `requests`,
block 0 of the seeded stream) and reports the per-layer metrics.  Every
run checks every answer; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`, and the exit code is 1
when an answer was wrong.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads
from workloads import Op

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
CHILD_BUDGET_S = 150.0


@dataclass
class Sample:
    op: Op | None          # None for a set-up probe
    start_ns: int
    end_ns: int
    setup_ns: int | None   # spawn until `import rectrep` returned
    rss_kb: int
    rc: int
    stdout: bytes
    trace: dict | None
    errors: list[str]

    @property
    def run_ns(self) -> int:
        return self.end_ns - self.start_ns - (self.setup_ns or 0)


def spawn(op: Op | None, env: dict, timeout: float, trace_id: int | None = None) -> Sample:
    """Run one child to completion and collect what it reports on stderr."""
    opts = ["--setup-only"] if op is None else (
        ["--trace", str(trace_id)] if trace_id is not None else [])
    argv = [sys.executable, os.path.join(HERE, "child.py"), *opts, "--",
            *(op.args if op else [])]
    start = time.monotonic_ns()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    errors = []
    try:
        stdout, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, err = proc.communicate()
        errors.append(f"killed after {timeout:.0f}s")
    end = time.monotonic_ns()
    stderr = err.decode(errors="replace")
    marks = {}
    for line in stderr.splitlines():
        if line.startswith("@"):
            tag, _, value = line.partition(" ")
            marks[tag] = value
    if "@setup" not in marks:
        errors.append("child never finished `import rectrep`: " + stderr.strip()[-300:])
    return Sample(op, start, end,
                  int(marks["@setup"]) - start if "@setup" in marks else None,
                  int(marks.get("@rss", 0)), proc.returncode, stdout,
                  json.loads(marks["@trace"]) if "@trace" in marks else None, errors)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p95(xs):
    if len(xs) < 2:
        return float(xs[0]) if xs else 0.0
    return statistics.quantiles(xs, n=20, method="inclusive")[18]


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed = workload, seed
        self.passes = self._passes()
        self.first = next(self.passes)     # built before the clock starts
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        src = os.path.abspath("src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.samples: list[Sample] = []

    def run(self, op: Op | None, trace_id: int | None = None) -> Sample:
        budget = max(5.0, CHILD_BUDGET_S - (time.monotonic() - self.started))
        s = spawn(op, self.env, budget, trace_id)
        self.samples.append(s)
        if s.errors:       # a killed or broken child ends the run
            raise RuntimeError("; ".join(s.errors))
        return s

    def probes(self):
        for _ in range(SETUP_PROBES):
            self.run(None)

    def fits(self, estimate_ns: float) -> bool:
        return time.monotonic() + estimate_ns / 1e9 <= self.deadline

    def _passes(self):
        """Endless sequence of passes; each pass is a list of ops."""
        if self.workload == "requests":
            block = 0
            while True:
                yield workloads.request_block(self.seed, block)
                block += 1
        while True:
            yield workloads.batch_pass(self.workload, self.seed)

    def untraced(self):
        """Whole passes until the next would overrun; a request is its own pass."""
        self.probes()
        stream = itertools.chain([self.first], self.passes)
        if self.workload == "requests":
            stream = ([op] for ops in stream for op in ops)
        took: list[int] = []
        for i, ops in enumerate(stream):
            if i and not self.fits(_median(took)):
                return
            start = time.monotonic_ns()
            for op in ops:
                self.run(op)
            took.append(time.monotonic_ns() - start)

    def traced(self) -> tuple[list[list[Sample]], list[list[Sample]]]:
        """Alternate traced and untraced runs of one fixed pass."""
        ops = self.first
        runs: tuple[list, list] = ([], [])
        for i in itertools.count():
            kind = i % 2          # 0 traced, 1 untraced
            if i >= 2:
                past = [sum(s.end_ns - s.start_ns for s in p) for p in runs[kind]]
                if not self.fits(_median(past)):
                    break
            runs[kind].append([self.run(op, trace_id=j if kind == 0 else None)
                               for j, op in enumerate(ops)])
        return runs


# ----------------------------------------------------------- checking

def check(samples: list[Sample]) -> tuple[int, int]:
    """Check every answer; print each mismatch.  Returns (attempted, failed)."""
    if any(s.op and s.op.deferred for s in samples):
        sys.path.insert(0, os.path.abspath("src"))
    attempted = failed = 0
    for s in samples:
        if s.op is None:
            continue
        attempted += 1
        out = workloads.parse(s.stdout)
        errs = list(s.errors) or s.op.check(s.rc, out, s.stdout)
        if not errs and s.op.deferred:
            errs = s.op.deferred(out)
        if errs:
            failed += 1
            print(f"MISMATCH {' '.join(s.op.args)[:200]}: {'; '.join(errs)}",
                  file=sys.stderr)
    return attempted, failed


# ----------------------------------------------------------- metrics

def end_to_end(r: Runner) -> dict:
    """An operation is one request, or one pass over a batch workload's
    commands; a pass's time quantile sums its commands' quantiles."""
    kids = [s for s in r.samples if s.op is not None]
    groups: dict[str, list[Sample]] = {}
    for s in kids:
        groups.setdefault("request" if r.workload == "requests" else s.op.key, []).append(s)

    def per_op(stat, value):
        return sum(stat([value(s) for s in g]) for g in groups.values())

    def latency_ms(s):
        return (s.end_ns - s.start_ns) / 1e6

    return {
        "setup_s": _median([s.setup_ns for s in r.samples]) / 1e9,
        "run_s": per_op(_median, lambda s: s.run_ns) / 1e9,
        "latency_p50_ms": per_op(_median, latency_ms),
        "latency_p95_ms": per_op(_p95, latency_ms),
        "requests_per_s": len(kids) / ((kids[-1].end_ns - kids[0].start_ns) / 1e9),
        "peak_rss_mb": max(s.rss_kb for s in kids) / 1024,
    }


def _pass_layers(run: list[Sample]) -> dict:
    """Per-layer values of one traced pass, summed over its children."""
    sums: collections.Counter = collections.Counter()
    for s in run:
        sums.update(s.trace)
    m: dict[str, float] = {}
    for key, v in sums.items():
        name, _, what = key.rpartition(".")
        if what.endswith("_ns"):
            m[f"{name}.{what[:-3]}_s"] = v / 1e9
        elif name.startswith("caches."):
            hits, misses = sums[f"{name}.hits"], sums[f"{name}.misses"]
            m[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        else:
            m[key] = v
    if "rectkit.detect.calls" in m:
        calls = m["rectkit.detect.calls"]
        m["rectkit.detect.accept_ratio"] = m["rectkit.detect.accepts"] / calls if calls else 0.0
    if "caches.charcalc._simple_character.hit_ratio" in m:
        m["charcalc.characters_computed"] = sums["caches.charcalc._simple_character.misses"]
        m["charcalc.character_cache.hit_ratio"] = m["caches.charcalc._simple_character.hit_ratio"]
    m["caches.entries"] = sum(v for k, v in sums.items() if k.endswith(".entries"))
    return m


EXACT = ("rectkit.detect.calls", "rectkit.detect.accepts", "exactlin.vec_sub.calls",
         "charcalc.characters_computed", "classify.canonical_form.calls")


def per_layer(traced: list[list[Sample]], plain: list[list[Sample]]) -> dict:
    passes = [_pass_layers(run) for run in traced]
    for name in EXACT:
        values = {p.get(name) for p in passes}
        if len(values) > 1:
            print(f"warning: {name} differs between identical passes: {values}",
                  file=sys.stderr)
    m = {name: _median([p[name] for p in passes]) for name in passes[0]}
    traced_s = _median([sum(s.run_ns for s in run) for run in traced]) / 1e9
    plain_s = _median([sum(s.run_ns for s in run) for run in plain]) / 1e9
    m["trace.overhead_s"] = traced_s - plain_s
    return m


# -------------------------------------------------------- entry point

def _provenance() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha, "loadavg": list(os.getloadavg())}


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    r = Runner(workload, seed, seconds)
    error = None
    try:
        if trace:
            runs = r.traced()
        else:
            r.untraced()
    except RuntimeError as e:
        error = str(e)
        print(f"run aborted: {error}", file=sys.stderr)
    attempted, failed = check(r.samples)
    if error is not None:
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": max(failed, 1), "metrics": {}}
    values = per_layer(*runs) if trace else end_to_end(r)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        else:
            print(f"warning: metric {entry['name']} is absent", file=sys.stderr)
    print(f"provenance {json.dumps(dict(_provenance(), workload=workload, seed=seed))}")
    for name, v in metrics.items():
        print(f"  {workload:9s} {name:44s} {v['value']:14.6g} {v['unit']}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "rectrep", "cli.py")):
        print("run from the repository root: src/rectrep is missing", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_one(spec, name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
