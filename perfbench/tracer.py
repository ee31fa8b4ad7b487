"""Per-layer tracing of the spatialgraphs package, applied from outside.

`Tracer.install()` wraps every public function of each package module (a
layer) and rebinds the wrapper wherever a module of the package binds the
original: under its own name, under the name another module imported it as
with `from .x import`, and as a value of a module-level dict such as
`claims.CLAIMS`.  Each call records a span (id, layer, name, start, end,
parent id) in memory; `metrics()` derives the per-layer figures from them.

`MultiGraph.endpoints` and `MultiGraph.incident` run millions of times per
pass, so they are counted without spans.  Hooks read only arguments and
return values: the tracer calls nothing that fills the program's caches.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

LAYERS = (
    "multigraph", "canon", "cycles", "exchange", "minors", "planarity",
    "diagrams", "invariants", "catalog", "claims", "cli",
)
OPS = frozenset({"delete_edge", "delete_vertex", "contract_edge", "simplify", "apply_script"})
TRIALS = frozenset({"a2_census", "lk_census", "dichotomy_witness", "alpha"})
FAMILIES = frozenset({"petersen_family", "heawood_family", "k3311_family"})


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.endpoints_calls = 0
        self.incident_calls = 0
        self.states = 0
        self.transitions = 0
        self.crossings = 0
        self.reductions = 0
        self.tuples_seen: set = set()
        self.tuples_repeated = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"spatialgraphs.{layer}")
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrapped[id(obj)] = self._wrap(layer, name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "spatialgraphs" and not modname.startswith("spatialgraphs."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]
        self._count_accessors(importlib.import_module("spatialgraphs.multigraph").MultiGraph)

    def _count_accessors(self, cls) -> None:
        endpoints, incident = cls.endpoints, cls.incident
        tracer = self

        def counted_endpoints(g, eid):
            tracer.endpoints_calls += 1
            return endpoints(g, eid)

        def counted_incident(g, v):
            tracer.incident_calls += 1
            return incident(g, v)

        cls.endpoints = counted_endpoints
        cls.incident = counted_incident

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = after = None
        if layer == "cycles" and name == "disjoint_cycle_tuples":
            before = self._note_tuples
        elif layer == "exchange" and name == "closure":
            after = self._note_closure
        elif layer == "diagrams" and name == "build_convex_diagram":
            after = self._note_diagram
        elif layer == "minors" and name == "one_step_reductions":
            after = self._note_reductions

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, layer, name, start, end, parent)
            if after is not None:
                after(result)
            return result

        return traced

    # -- counting hooks ------------------------------------------------------

    def _note_tuples(self, g, n) -> None:
        # keyed by the graph's value (MultiGraph hashes its vertex and edge
        # tuples), never by its certificate, which would fill _cert_cache
        key = (g, n)
        if key in self.tuples_seen:
            self.tuples_repeated += 1
        else:
            self.tuples_seen.add(key)

    def _note_closure(self, result) -> None:
        self.states += len(result.records)
        self.transitions += len(result.transitions)

    def _note_diagram(self, diagram) -> None:
        self.crossings += diagram.crossing_count

    def _note_reductions(self, result) -> None:
        self.reductions += len(result)

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, layer, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "layer": layer, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times; every layer appears, 0 where unused."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        named: dict[str, int] = {}
        ops_calls, ops_self = 0, 0.0
        from_cli = build_s = extract_self = family_s = manifest_s = closure_self = 0.0
        trial_ms: list[float] = []
        for sid, layer, name, start, end, parent in spans:
            dur = end - start
            own = dur - child[sid]
            calls[layer] += 1
            self_s[layer] += own
            named[name] = named.get(name, 0) + 1
            if layer == "multigraph" and name in OPS:
                ops_calls += 1
                ops_self += own
            elif layer == "canon" and parent >= 0 and spans[parent][1] == "cli":
                from_cli += dur
            elif layer == "diagrams" and name == "build_convex_diagram":
                build_s += dur
            elif layer == "diagrams" and name == "extract_gauss":
                extract_self += own
            elif layer == "invariants" and name in TRIALS:
                trial_ms.append(dur * 1000)
            elif layer == "catalog" and name in FAMILIES:
                family_s += dur
            elif layer == "exchange" and name == "write_manifest":
                manifest_s += dur
            elif layer == "exchange" and name == "closure":
                closure_self += own
        tuple_calls = named.get("disjoint_cycle_tuples", 0)
        trial_ms.sort()
        return {
            "multigraph.endpoints_calls": self.endpoints_calls,
            "multigraph.incident_calls": self.incident_calls,
            "multigraph.ops_calls": ops_calls,
            "multigraph.ops_self_s": ops_self,
            "canon.calls": calls["canon"],
            "canon.self_s": self_s["canon"],
            "canon.isomorphic_calls": named.get("is_isomorphic", 0),
            "canon.from_cli_s": from_cli,
            "cycles.calls": calls["cycles"],
            "cycles.self_s": self_s["cycles"],
            "cycles.all_cycles_calls": named.get("all_cycles", 0),
            "cycles.disjoint_tuples_calls": tuple_calls,
            "cycles.disjoint_tuples_repeat_ratio": (
                self.tuples_repeated / tuple_calls if tuple_calls else 0.0
            ),
            "exchange.closure_calls": named.get("closure", 0),
            "exchange.closure_self_s": closure_self,
            "exchange.states": self.states,
            "exchange.transitions": self.transitions,
            "exchange.manifest_s": manifest_s,
            "minors.calls": calls["minors"],
            "minors.self_s": self_s["minors"],
            "minors.reductions": self.reductions,
            "planarity.is_planar_calls": named.get("is_planar", 0),
            "planarity.self_s": self_s["planarity"],
            "diagrams.build_calls": named.get("build_convex_diagram", 0),
            "diagrams.build_s": build_s,
            "diagrams.crossings": self.crossings,
            "diagrams.assign_calls": named.get("assign_over_under", 0),
            "diagrams.extract_calls": named.get("extract_gauss", 0),
            "diagrams.extract_self_s": extract_self,
            "invariants.trial_calls": len(trial_ms),
            "invariants.trial_p50_ms": _quantile(trial_ms, 0.5),
            "invariants.trial_p90_ms": _quantile(trial_ms, 0.9),
            "invariants.self_s": self_s["invariants"],
            "catalog.family_calls": sum(named.get(n, 0) for n in FAMILIES),
            "catalog.family_s": family_s,
            "claims.calls": calls["claims"],
            "claims.self_s": self_s["claims"],
            "cli.calls": calls["cli"],
            "cli.self_s": self_s["cli"],
        }


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]
