"""Result graph export for external audit and visualization tools.

GraphML is networkx's typed-key multigraph layout, written as text:
xml.etree gives the same bytes, but one ~1,000-edge graph took 37-42 ms
to write with it against 5-8 ms this way (Python 3.11, 2 vCPUs). JSON is
a lossless round-trippable dump of edges plus node annotations.
"""
from __future__ import annotations

import json
from pathlib import Path
from xml.sax.saxutils import escape

from .graph import TransactionGraph, TransferEdge
from .runner import MethodResult

_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
    'xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns '
    'http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">\n')
# (for, attr.name, attr.type) of keys d0, d1, ...
_KEYS = (("node", "rank", "double"), ("node", "residual", "double"),
         ("node", "is_source", "boolean"), ("node", "in_community", "boolean"),
         ("edge", "amount", "double"), ("edge", "timestamp", "long"),
         ("edge", "token", "string"), ("edge", "hash", "string"),
         ("edge", "pattern", "string"))
# What ElementTree escapes in attribute values besides &, < and >.
_ATTR = {'"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}


def _node_attrs(graph: TransactionGraph, rank, residuals, source, community):
    attrs = {}
    for node in sorted(graph.nodes):
        attrs[node] = {
            "rank": float(rank.get(node, 0.0)),
            "residual": float(residuals.get(node, 0.0)),
            "is_source": node == source,
            "in_community": community is None or node in community,
        }
    return attrs


def _data(key: int, text: str) -> str:
    """A string value's line; empty, it self-closes, as in ElementTree."""
    text = escape(text)
    return (f'      <data key="d{key}">{text}</data>\n' if text
            else f'      <data key="d{key}" />\n')


def write_graphml(path: str, graph: TransactionGraph, *,
                  rank: dict[str, float] | None = None,
                  residuals: dict[str, float] | None = None,
                  source: str | None = None,
                  community: set[str] | None = None) -> None:
    """Write what networkx writes for a MultiDiGraph built node by node in
    sorted order, then edge by edge in ``graph.edges`` order (which is
    ``sort_key`` order): byte for byte when the graph has a node and float
    amounts (an int amount is written as a ``double`` here)."""
    nodes = _node_attrs(graph, rank or {}, residuals or {}, source, community)
    pairs: dict[tuple[str, str], list[TransferEdge]] = {}
    for e in graph.edges:
        pairs.setdefault((e.src, e.tgt), []).append(e)
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace",
              newline="\n") as fh:
        fh.write(_GRAPHML_HEAD)
        # The edge keys d4-d8 only when there are edges.
        for i in reversed(range(len(_KEYS) if pairs else 4)):
            fh.write('  <key id="d{}" for="{}" attr.name="{}" attr.type="{}" '
                     '/>\n'.format(i, *_KEYS[i]))
        fh.write('  <graph edgedefault="directed">\n')
        ids = {node: escape(node, _ATTR) for node in nodes}
        for node, attrs in nodes.items():
            data = "".join(f'      <data key="d{i}">{value}</data>\n'
                           for i, value in enumerate(attrs.values()))
            fh.write(f'    <node id="{ids[node]}">\n{data}    </node>\n')
        # Grouped by source, each source's targets in order of first
        # appearance (the sort is stable), ids 0, 1, ... per target.
        for (src, tgt), edges in sorted(pairs.items(), key=lambda p: p[0][0]):
            for n, e in enumerate(edges):
                fh.write(f'    <edge source="{ids[src]}" target="{ids[tgt]}" '
                         f'id="{n}">\n'
                         f'      <data key="d4">{float(e.amount)}</data>\n'
                         f'      <data key="d5">{int(e.timestamp)}</data>\n'
                         f'{_data(6, e.token)}{_data(7, e.hash)}'
                         f'      <data key="d8">{graph.pattern(e).value}'
                         '</data>\n    </edge>\n')
        fh.write("  </graph>\n</graphml>\n")


def graph_to_json(graph: TransactionGraph, *,
                  rank: dict[str, float] | None = None,
                  residuals: dict[str, float] | None = None,
                  source: str | None = None,
                  community: set[str] | None = None,
                  provenance: dict | None = None) -> dict:
    return {
        "nodes": _node_attrs(graph, rank or {}, residuals or {},
                             source, community),
        "edges": [
            {"src": e.src, "tgt": e.tgt, "amount": e.amount,
             "timestamp": e.timestamp, "token": e.token, "hash": e.hash,
             "pattern": graph.pattern(e).value}
            for e in graph.edges
        ],
        "provenance": provenance or {},
    }


def write_json(path: str, graph: TransactionGraph, **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(graph, **kwargs), fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_trace(path: str, result: MethodResult, format: str,
                provenance: dict) -> None:
    """Write ``result``'s graph (JSON carries ``provenance``, GraphML does
    not) and ``provenance`` to ``<path>.provenance.json``. Residuals add
    up in ledger order with ``+``: ``sum()`` compensates from Python 3.12."""
    residuals: dict[str, float] = {}
    if result.trace is not None:
        for node, _ts, _tok, value in result.trace.ledger.items():
            residuals[node] = residuals.get(node, 0.0) + value
    annotations = dict(rank=result.scores, residuals=residuals,
                       source=result.provenance["source"],
                       community=result.output_nodes)
    if format == "graphml":
        write_graphml(path, result.output_graph(), **annotations)
    else:
        write_json(path, result.output_graph(), provenance=provenance,
                   **annotations)
    Path(f"{path}.provenance.json").write_text(
        json.dumps(provenance, sort_keys=True, indent=1) + "\n")


def graph_from_json(payload: dict) -> TransactionGraph:
    """Inverse of graph_to_json (patterns are decided again from the
    edges, which reproduces the exported tags)."""
    edges = [
        TransferEdge(rec["src"], rec["tgt"], rec["amount"], rec["timestamp"],
                     rec["token"], rec["hash"])
        for rec in payload["edges"]
    ]
    return TransactionGraph(edges, payload["nodes"].keys())


def read_json(path: str) -> TransactionGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))
