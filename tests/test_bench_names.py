"""Guard the library names the benchmark's tracer wraps.

`perfbench/tracer.py` wraps layer functions by their module-global names
and reads `lru_cache` statistics off module globals; a name it no longer
finds is skipped, so its metrics silently drop out of a traced run.
This check reads the tracer's tables and BENCHMARK.json's per-layer
metrics as text and fails as soon as a wrapped name is renamed or removed.
"""

import ast
import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracer_tables() -> dict:
    """The literal module-level assignments of tracer.py, by name."""
    tables = {}
    for node in ast.parse((ROOT / "perfbench" / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                tables[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return tables


def _lookup(module: str, attr: str):
    return getattr(importlib.import_module(f"rectrep.{module}"), attr, None)


def test_names_the_tracer_wraps_exist():
    tables = _tracer_tables()
    wrapped = {(m, attr) for m, attr, _ in tables["SPANS"] + tables["COUNTERS"]}
    wrapped |= {(m, attr) for m, attr in tables["DETECT"]}
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    caches = {tuple(e["name"].split(".")[1:3]) for e in per_layer
              if e["name"].startswith("caches.") and e["name"].endswith(".hit_ratio")}
    # charcalc.characters_computed is the miss count of the Freudenthal cache
    caches.add(("charcalc", "_simple_character"))
    assert len(wrapped) >= 15 and len(caches) >= 5

    missing = [f"{m}.{attr}" for m, attr in sorted(wrapped)
               if not callable(_lookup(m, attr))]
    # the tracer collects a cache only from the module that defines it
    missing += [f"{m}.{attr} (cache)" for m, attr in sorted(caches)
                if m not in tables["CACHE_MODULES"]
                or not hasattr(_lookup(m, attr), "cache_info")
                or _lookup(m, attr).__module__ != f"rectrep.{m}"]
    assert not missing, f"names perfbench/tracer.py wraps are gone: {missing}"
