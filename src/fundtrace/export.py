"""Result graph export for external audit and visualization tools.

Both formats are written as text, and each edge's pattern is decided
once per graph. GraphML is networkx's typed-key multigraph layout:
xml.etree gives the same bytes, but one ~1,000-edge graph took 37-42 ms
to write with it against 5-8 ms this way (Python 3.11, 2 vCPUs). JSON is
a lossless round-trippable dump of edges plus node annotations, the
bytes of ``json.dump(doc, fh, sort_keys=True, indent=1)``. With an
indent, CPython's ``json`` encodes in pure Python: a ~1,000-edge result
took 11-18 ms to write with it against 3.4-4.4 ms this way.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _str
from pathlib import Path
from typing import Iterable, Iterator
from xml.sax.saxutils import escape

from .graph import Pattern, TransactionGraph, TransferEdge
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
_BOOL = {True: "true", False: "false"}
# An edge's pattern by whether it is in _swap_edges.
_PATTERN = {True: Pattern.SWAP.value, False: Pattern.XFER.value}


def _node_attrs(graph: TransactionGraph, rank, residuals, source, community
                ) -> dict[str, tuple[float, float, bool, bool]]:
    """(rank, residual, is_source, in_community) of each node, in sorted
    node order."""
    return {node: (float(rank.get(node, 0.0)),
                   float(residuals.get(node, 0.0)), node == source,
                   community is None or node in community)
            for node in sorted(graph.nodes)}


def _swap_edges(graph: TransactionGraph) -> set[TransferEdge]:
    """The edges whose ``graph.pattern`` is Swap, decided for the whole
    graph in one pass: an edge is a Swap leg only at its own endpoints."""
    return set().union(*map(graph.swap_legs, graph.nodes))


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
    swap = _swap_edges(graph)
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
                           for i, value in enumerate(attrs))
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
                         f'      <data key="d8">{_PATTERN[e in swap]}'
                         '</data>\n    </edge>\n')
        fh.write("  </graph>\n</graphml>\n")


def _number(value: float) -> str:
    """An int or a float as ``json`` writes it."""
    if isinstance(value, int):
        return int.__repr__(value)
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _members(brackets: str, members: Iterable[str]) -> Iterator[str]:
    """A list or object one level deep, of its members' text, laid out as
    ``json.dump(indent=1)`` lays it out: ``[]`` or ``{}`` when empty."""
    yield brackets[0]
    sep = "\n  "
    for member in members:
        yield sep
        yield member
        sep = ",\n  "
    yield brackets[1] if sep == "\n  " else "\n " + brackets[1]


def write_json(path: str, graph: TransactionGraph, *,
               rank: dict[str, float] | None = None,
               residuals: dict[str, float] | None = None,
               source: str | None = None,
               community: set[str] | None = None,
               provenance: dict | None = None) -> None:
    """Write what ``json.dump(doc, fh, sort_keys=True, indent=1)`` and a
    newline write, a member at a time. ``doc`` holds ``edges``, a list of
    each edge's fields and ``pattern`` in ``graph.edges`` order, ``nodes``,
    each node's ``rank``, ``residual``, ``is_source`` and
    ``in_community``, and ``provenance`` (``{}`` when None)."""
    nodes = _node_attrs(graph, rank or {}, residuals or {}, source, community)
    names = {node: _str(node) for node in nodes}
    swap = _swap_edges(graph)
    edges = (f'{{\n   "amount": {_number(e.amount)},\n'
             f'   "hash": {_str(e.hash)},\n'
             f'   "pattern": "{_PATTERN[e in swap]}",\n'
             f'   "src": {names[e.src]},\n   "tgt": {names[e.tgt]},\n'
             f'   "timestamp": {_number(e.timestamp)},\n'
             f'   "token": {_str(e.token)}\n  }}'
             for e in graph.edges)
    node_rows = (f'{names[node]}: {{\n'
                 f'   "in_community": {_BOOL[in_community]},\n'
                 f'   "is_source": {_BOOL[is_source]},\n'
                 f'   "rank": {_number(node_rank)},\n'
                 f'   "residual": {_number(residual)}\n  }}'
                 for node, (node_rank, residual, is_source, in_community)
                 in nodes.items())
    # json.dumps indents one level less than the member it becomes.
    prov = json.dumps(provenance or {}, sort_keys=True, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "edges": ')
        fh.writelines(_members("[]", edges))
        fh.write(',\n "nodes": ')
        fh.writelines(_members("{}", node_rows))
        fh.write(',\n "provenance": ' + prov.replace("\n", "\n ") + "\n}\n")


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


def read_json(path: str) -> TransactionGraph:
    """The graph of a ``write_json`` file (patterns are decided again from
    the edges, which reproduces the exported tags)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return TransactionGraph(
        (TransferEdge(rec["src"], rec["tgt"], rec["amount"], rec["timestamp"],
                      rec["token"], rec["hash"]) for rec in payload["edges"]),
        payload["nodes"].keys())
