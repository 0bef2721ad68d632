"""Span tracing of bibeta from outside the package, for the benchmark's traced runs.

``install`` replaces each traced public function at every name a bibeta
module looks it up by (``bibeta.cli.joint_posterior``,
``bibeta.inference.density_grid``, ``bibeta.grids.sample_pairs`` ...) and the
``to_csv``/``to_json`` methods with wrappers that record a span (name,
start, end, parent) plus a few counts read off the call's arguments and
result.  Spans stay in memory and are written once, at process exit.

``layer_metrics`` turns the spans of one workload iteration into the
per-layer metrics listed in BENCHMARK.json.  A span's self time is its
duration minus the part of it its child spans cover.

Run as a script, it executes ``bibeta.cli.main(argv)`` traced in a fresh
process:

    python3 perfbench/tracer.py --spans OUT.json -- posterior --data ...
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

SRC = Path(__file__).resolve().parent.parent / "src"

# defining module -> public functions traced wherever they are looked up
TRACED_FUNCTIONS = {
    "sampling": ("sample_pairs", "sample_pair", "gamma_sample", "estimate_moments"),
    "grids": ("density_grid",),
    "families": ("closed_form_logpdf", "marginal_params", "complement", "an8_embedding"),
    "inference": (
        "joint_posterior",
        "posterior_summary",
        "predictive_propensity",
        "marginal_posterior",
        "marginal_csv",
        "pi_posterior",
        "log_likelihood",
    ),
    "serialize": ("csv_text", "json_text", "write_text"),
    "survivability": ("survivability", "reproduce_table", "table_csv"),
}
TRACED_METHODS = {
    ("inference", "GridPosterior"): ("to_csv", "to_json"),
    ("grids", "DensityGrid"): ("to_csv", "to_json"),
}
# modules whose globals hold the names callers look the functions up by
LOOKUP_MODULES = ("cli", "sampling", "grids", "families", "inference", "serialize", "survivability", "synth")

LAYERS = ("cli", "sampling", "grids", "families", "inference", "serialize", "survivability")
SUMMARY_SPANS = {
    "inference.posterior_summary",
    "inference.predictive_propensity",
    "inference.marginal_posterior",
    "inference.marginal_csv",
    "inference.pi_posterior",
    "inference.log_likelihood",
}
RENDER_SPANS = {"inference.GridPosterior.to_csv", "inference.GridPosterior.to_json"}

# the seed's log-path rule: any component shape in (0, LOG_SPACE_SHAPE)
DEFAULT_LOG_SPACE_SHAPE = 0.02


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, *args, counter: Optional[Callable] = None, **kwargs):
        index = len(self.spans)
        span = {"name": name, "parent": self._stack[-1] if self._stack else -1, "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span["counts"] = counter(args, kwargs, result)
        return result

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _shapes(family) -> tuple:
    if family.alphas is not None:
        return family.alphas
    return (family.beta_x.a, family.beta_x.b, family.beta_y.a, family.beta_y.b)


def _make_counters(log_space_shape: float) -> Dict[str, Callable]:
    def pairs(args, kwargs, result):
        family = args[1] if len(args) > 1 else kwargs["family"]
        shapes = _shapes(family)
        n = int(result[0].size)
        log_path = any(0.0 < s < log_space_shape for s in shapes)
        nonzero = sum(1 for s in shapes if s > 0.0)
        return {"pairs": n, "log_path_pairs": n if log_path else 0, "gamma_bytes": n * nonzero * 8}

    return {
        "sampling.sample_pairs": pairs,
        "grids.density_grid": lambda a, k, r: {"binned_pairs": r.n_samples if r.estimated else 0},
        "families.closed_form_logpdf": lambda a, k, r: {"cells": int(getattr(r, "size", 1))},
        "inference.joint_posterior": lambda a, k, r: {
            "estimated_prior": int(not r.prior.eta_theta_prior.has_closed_form)
        },
        "serialize.csv_text": lambda a, k, r: {"bytes": len(r)},
        "serialize.json_text": lambda a, k, r: {"bytes": len(r)},
    }


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each lookup site, and the render methods."""
    import importlib

    modules = {name: importlib.import_module(f"bibeta.{name}") for name in LOOKUP_MODULES}
    counters = _make_counters(getattr(modules["sampling"], "LOG_SPACE_SHAPE", DEFAULT_LOG_SPACE_SHAPE))
    originals = {}
    for home, names in TRACED_FUNCTIONS.items():
        for name in names:
            fn = getattr(modules[home], name, None)
            if fn is not None:
                originals[id(fn)] = (f"{home}.{name}", fn)
    package = importlib.import_module("bibeta")
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[1] is value:
                name, fn = hit
                setattr(module, attr, tracer.wrap(name, fn, counters.get(name)))
    for (home, cls_name), methods in TRACED_METHODS.items():
        cls = getattr(modules[home], cls_name)
        for method in methods:
            name = f"{home}.{cls_name}.{method}"
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), counters.get(name)))


def check_source(module) -> None:
    """Refuse to trace a bibeta imported from anywhere but the checked-out src/."""
    if SRC not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"bibeta imported from {module.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals: List[tuple]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(a, s["start"]), min(b, s["end"])) for a, b in children.get(i, [])]
        out.append((s["end"] - s["start"]) - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes: Iterable[tuple]) -> Dict[str, float]:
    """Per-layer metrics of one workload iteration.

    ``processes`` holds (wall_s, spans) per traced process, wall_s as the
    parent measured it.  The layers' self times plus trace.unattributed_s
    (wall time not covered by any root span) add up to trace.wall_s exactly
    when spans nest; trace.residual_s is what is left over.
    """
    m: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    for key in (
        [f"{layer}.self_s" for layer in LAYERS]
        + [
            "cli.import_s", "sampling.estimate_moments.self_s", "sampling.pairs", "sampling.log_path_pairs",
            "sampling.gamma_bytes_computed", "sampling.sample_pairs.self_s", "grids.binned_pairs",
            "grids.density_grid.self_s", "families.closed_form_logpdf.self_s", "families.closed_form_cells",
            "inference.joint_posterior.self_s", "inference.posterior_calls", "inference.prior_grid_builds",
            "inference.prior_grid_lookups", "inference.summaries.self_s", "inference.render.self_s",
            "serialize.write_s", "serialize.bytes", "trace.wall_s", "trace.unattributed_s",
        ]
    ):
        m[key] = 0.0
    for wall, spans in processes:
        add("trace.wall_s", wall)
        selfs = self_times(spans)
        roots = [(s["start"], s["end"]) for s in spans if s["parent"] < 0]
        add("trace.unattributed_s", wall - _covered(roots))
        for i, (s, self_s) in enumerate(zip(spans, selfs)):
            name = s["name"]
            layer = name.split(".", 1)[0]
            counts = s.get("counts", {})
            if name == "cli.import":
                add("cli.import_s", self_s)
                continue
            if name == "serialize.write_text":
                add("serialize.write_s", self_s)
                continue
            add(f"{layer}.self_s", self_s)
            if name in ("sampling.estimate_moments", "sampling.sample_pairs", "grids.density_grid",
                        "families.closed_form_logpdf", "inference.joint_posterior"):
                add(f"{name}.self_s", self_s)
            if name in SUMMARY_SPANS:
                add("inference.summaries.self_s", self_s)
            if name in RENDER_SPANS:
                add("inference.render.self_s", self_s)
            if name == "sampling.sample_pairs":
                add("sampling.pairs", counts.get("pairs", 0))
                add("sampling.log_path_pairs", counts.get("log_path_pairs", 0))
                add("sampling.gamma_bytes_computed", counts.get("gamma_bytes", 0))
            elif name == "grids.density_grid":
                add("grids.binned_pairs", counts.get("binned_pairs", 0))
                if _has_ancestor(spans, i, "inference.joint_posterior"):
                    add("inference.prior_grid_builds", 1)
            elif name == "families.closed_form_logpdf":
                add("families.closed_form_cells", counts.get("cells", 0))
            elif name == "inference.joint_posterior":
                add("inference.posterior_calls", 1)
                add("inference.prior_grid_lookups", counts.get("estimated_prior", 0))
            elif name in ("serialize.csv_text", "serialize.json_text"):
                add("serialize.bytes", counts.get("bytes", 0))
    m["sampling.ns_per_pair"] = 1e9 * _ratio(m.pop("sampling.sample_pairs.self_s"), m["sampling.pairs"])
    m["grids.ns_per_binned_pair"] = 1e9 * _ratio(m.pop("grids.density_grid.self_s"), m["grids.binned_pairs"])
    m["serialize.ns_per_byte"] = 1e9 * _ratio(m["serialize.self_s"], m["serialize.bytes"])
    lookups = m["inference.prior_grid_lookups"]
    m["inference.prior_grid_hit_ratio"] = _ratio(lookups - m["inference.prior_grid_builds"], lookups)
    attributed = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["cli.import_s"] + m["serialize.write_s"]
    m["trace.residual_s"] = m["trace.wall_s"] - attributed - m["trace.unattributed_s"]
    return m


def _has_ancestor(spans: List[Dict[str, Any]], index: int, name: str) -> bool:
    parent = spans[index]["parent"]
    while parent >= 0:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


# ---------------------------------------------------------------------------
# traced CLI process
# ---------------------------------------------------------------------------


def _import_cli():
    import bibeta.cli

    return bibeta.cli


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        sys.stderr.write("usage: tracer.py --spans OUT.json -- CLI-ARGS...\n")
        return 2
    tracer = Tracer()
    cli = tracer.call("cli.import", _import_cli)
    check_source(cli)
    install(tracer)
    code = tracer.call("cli.main", cli.main, argv[3:])
    tracer.dump(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
