"""Result graph export for external audit and visualization tools.

GraphML goes through networkx (multigraph, typed attribute keys); the
JSON format is a lossless round-trippable dump of edges plus node
annotations.
"""
from __future__ import annotations

import json

import networkx as nx

from .graph import TransactionGraph, TransferEdge


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


def to_networkx(graph: TransactionGraph, rank: dict[str, float] | None = None,
                residuals: dict[str, float] | None = None,
                source: str | None = None,
                community: set[str] | None = None) -> nx.MultiDiGraph:
    g = nx.MultiDiGraph()
    for node, attrs in _node_attrs(graph, rank or {}, residuals or {},
                                   source, community).items():
        g.add_node(node, **attrs)
    for e in sorted(graph.edges, key=TransferEdge.sort_key):
        g.add_edge(e.src, e.tgt, amount=e.amount, timestamp=e.timestamp,
                   token=e.token, hash=e.hash,
                   pattern=graph.pattern(e).value)
    return g


def write_graphml(path: str, graph: TransactionGraph, *,
                  rank: dict[str, float] | None = None,
                  residuals: dict[str, float] | None = None,
                  source: str | None = None,
                  community: set[str] | None = None) -> None:
    nx.write_graphml(to_networkx(graph, rank, residuals, source, community),
                     path)


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
            for e in sorted(graph.edges, key=TransferEdge.sort_key)
        ],
        "provenance": provenance or {},
    }


def write_json(path: str, graph: TransactionGraph, **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(graph, **kwargs), fh, sort_keys=True, indent=1)
        fh.write("\n")


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
