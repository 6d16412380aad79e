"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each target below with a wrapper at the name
its caller looks up: a module attribute for functions called through
their module's globals (``fundtrace.expansion.local_push``), a class
attribute for methods (``TransactionGraph.__init__`` is looked up by
every constructor call, whichever module names the class). A missing
target raises, so a renamed function fails the traced run instead of
dropping its layer.

A wrapper records nothing outside an op. Inside one it keeps a stack of
open calls; when a call ends its duration is charged to its parent as
child time, and per layer the tracer adds calls, total time and self
time (total minus child time). Self times of all layers plus the op's
own remainder add up to the op's wall time. Each call of a layer not in
``HOT`` is also kept as a span (op, layer, parent layer, start, end);
the hot layers are called hundreds to tens of thousands of times per op
and are only counted.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

OP = "bench.op"

# (layer, owner, attribute). The owner is a module or a class in one.
TARGETS = [
    ("graph.build", "fundtrace.graph:TransactionGraph", "__init__"),
    ("graph.classify", "fundtrace.graph", "classify_patterns"),
    ("graph.load", "fundtrace.providers", "load_graph"),
    ("expansion.run", "fundtrace.runner", "run_expansion"),
    ("expansion.pop", "fundtrace.expansion", "pop"),
    ("ttr.push", "fundtrace.expansion", "local_push"),
    ("ttr.redirect", "fundtrace.ttr", "redirect_set"),
    ("ttr.ledger_add", "fundtrace.ttr:ResidualLedger", "add"),
    ("ttr.max_node", "fundtrace.ttr:ResidualLedger", "max_node"),
    ("community.sweep", "fundtrace.runner", "extract_community"),
    ("community.induced", "fundtrace.community", "induced_subgraph"),
    ("runner.run_method", "fundtrace.runner", "run_method"),
    ("metrics.evaluate", "fundtrace.runner", "evaluate"),
    ("metrics.evaluate", "fundtrace.metrics", "topn_curve"),
    ("baselines.appr", "fundtrace.baselines", "appr_rank"),
    ("baselines.bfs", "fundtrace.baselines", "bfs_trace"),
    ("baselines.poison", "fundtrace.baselines", "poison_trace"),
    ("baselines.haircut", "fundtrace.baselines", "haircut_trace"),
    ("cases.generate", "fundtrace.cases", "generate_planted_case"),
    ("providers.fetch", "fundtrace.providers:FileProvider", "fetch_edges"),
    ("providers.fetch", "fundtrace.providers:GraphProvider", "fetch_edges"),
    ("providers.fetch", "fundtrace.providers:HttpProvider", "fetch_edges"),
    ("providers.request", "fundtrace.providers:HttpProvider", "_request"),
    ("export.write", "fundtrace.export", "write_json"),
    ("export.write", "fundtrace.export", "write_graphml"),
]


HOT = frozenset({"expansion.pop", "ttr.push", "ttr.redirect", "ttr.ledger_add",
                 "ttr.max_node", "providers.request"})

# Counts taken from a call's arguments or result: layer -> (count, how).
OBSERVE = {
    "graph.build": ("graph.build_edges", lambda args, out: len(args[0].edges)),
    "expansion.run": ("expansion.iterations", lambda args, out: out.iterations),
    "providers.fetch": ("providers.edges_returned", lambda args, out: len(out)),
    "community.sweep": ("community.members", lambda args, out: len(out.members)),
}


def resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        if not hasattr(owner, class_name):
            raise LookupError(f"traced-run target {owner_path} is missing")
        owner = getattr(owner, class_name)
    return owner


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # open calls: [layer, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # calls per (enclosing layer, layer), e.g. builds inside expansion
        self.nested: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        if self.stack:
            self.counts[name] += value

    def reset(self) -> None:
        for table in (self.calls, self.total_s, self.self_s, self.nested,
                      self.counts, self.spans):
            table.clear()

    def _close(self, frame: list, start: float, elapsed: float) -> None:
        layer = frame[0]
        self.calls[layer] += 1
        self.total_s[layer] += elapsed
        self.self_s[layer] += elapsed - frame[1]
        parent = None
        if self.stack:
            parent = self.stack[-1][0]
            self.stack[-1][1] += elapsed
            self.nested[(parent, layer)] += 1
        if layer not in HOT:
            self.spans.append((self.op_id, layer, parent, start,
                               start + elapsed))

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself, such as one op."""
        if layer == OP:
            self.op_id += 1
        frame = [layer, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            self._close(frame, start, elapsed)

    def _wrap(self, layer: str, fn):
        stack, close, count = self.stack, self._close, self.count
        clock = time.perf_counter
        observe = OBSERVE.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(frame, start, elapsed)
            if observe is not None:
                count(observe[0], observe[1](args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; raises LookupError if one is missing."""
        resolved = []
        for layer, owner_path, attr in TARGETS:
            owner = resolve(owner_path)
            if attr not in vars(owner):
                raise LookupError(
                    f"traced-run target {owner_path}.{attr} is missing")
            resolved.append((layer, owner, attr))
        for layer, owner, attr in resolved:
            original = vars(owner)[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, layer, parent, start, end in self.spans:
                fh.write(json.dumps({"op": op_id, "layer": layer,
                                     "parent": parent,
                                     "start_s": start - origin,
                                     "end_s": end - origin}) + "\n")

    def per_layer(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics over ``ops`` traced ops."""
        calls, total, own, nested = (self.calls, self.total_s, self.self_s,
                                     self.nested)
        n = max(ops, 1)
        fetches_in_expansion = nested[("expansion.run", "providers.fetch")]
        builds_in_expansion = nested[("expansion.run", "graph.build")]
        requests = calls["providers.request"]
        sweeps = calls["community.sweep"]
        per_op = {
            "graph.build_calls": (calls["graph.build"], "count/op"),
            "graph.build_s": (total["graph.build"], "s/op"),
            "graph.build_edges": (self.counts["graph.build_edges"], "count/op"),
            "graph.classify_s": (total["graph.classify"], "s/op"),
            "expansion.run_s": (total["expansion.run"], "s/op"),
            "expansion.self_s": (own["expansion.run"], "s/op"),
            "expansion.iterations": (self.counts["expansion.iterations"],
                                     "count/op"),
            "expansion.pop_s": (total["expansion.pop"], "s/op"),
            "expansion.edge_cache_hits": (
                self.counts["expansion.iterations"] - fetches_in_expansion,
                "count/op"),
            "ttr.push_calls": (calls["ttr.push"], "count/op"),
            "ttr.push_s": (own["ttr.push"], "s/op"),
            "ttr.redirect_calls": (calls["ttr.redirect"], "count/op"),
            "ttr.redirect_s": (total["ttr.redirect"], "s/op"),
            "ttr.max_node_s": (total["ttr.max_node"], "s/op"),
            "ttr.ledger_adds": (calls["ttr.ledger_add"], "count/op"),
            "baselines.appr_s": (total["baselines.appr"], "s/op"),
            "baselines.bfs_s": (total["baselines.bfs"], "s/op"),
            "baselines.poison_s": (total["baselines.poison"], "s/op"),
            "baselines.haircut_s": (total["baselines.haircut"], "s/op"),
            "cases.generate_s": (total["cases.generate"], "s/op"),
            "community.sweep_s": (total["community.sweep"], "s/op"),
            "community.induced_s": (total["community.induced"], "s/op"),
            "runner.run_method_s": (own["runner.run_method"], "s/op"),
            "metrics.evaluate_s": (total["metrics.evaluate"], "s/op"),
            "providers.fetch_calls": (calls["providers.fetch"], "count/op"),
            "providers.fetch_s": (total["providers.fetch"], "s/op"),
            "providers.edges_returned": (self.counts["providers.edges_returned"],
                                         "count/op"),
            "providers.http_gets": (self.counts["providers.http_gets"],
                                    "count/op"),
            "providers.cache_hits": (
                requests - self.counts["providers.http_gets"], "count/op"),
            "export.write_s": (total["export.write"], "s/op"),
            "export.bytes": (self.counts["export.bytes"], "B/op"),
        }
        out = {name: (value / n, unit) for name, (value, unit) in per_op.items()}
        out["expansion.rebuild_ratio"] = (
            builds_in_expansion / fetches_in_expansion
            if fetches_in_expansion else 0.0, "ratio")
        out["community.members"] = (
            self.counts["community.members"] / sweeps if sweeps else 0.0,
            "count")
        return out

    def self_coverage(self) -> float:
        """Share of op wall time that the layers' self times cover."""
        wall = self.total_s[OP]
        return 1.0 - self.self_s[OP] / wall if wall > 0 else 0.0
