"""Temporal, token-aware local push over the transaction graph.

Residual mass is keyed by (account, timestamp, token). A push converts
an alpha fraction of a node's residual into rank and forwards the rest:
a beta share through outgoing edges later than the residual's timestamp,
a (1-beta) share through incoming edges earlier than it, each split
across edges by amount. Swap legs at the pushing account do not receive
mass directly; it is redirected to the continuation edges of the
exchanged token.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import TransactionGraph, TransferEdge

# Seed residual key: all outgoing edges qualify, no incoming edge does.
SEED_TS = float("-inf")
# Wildcard token on the seed key.
ANY_TOKEN = None

MAX_REDIRECT_DEPTH = 32


@dataclass(frozen=True)
class TraceParams:
    alpha: float = 0.15
    beta: float = 0.7
    epsilon: float = 1e-3
    phi: float = 1e-3

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0,1], got {self.beta}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0,1), got {self.epsilon}")
        if self.phi <= 0.0:
            raise ValueError(f"phi must be > 0, got {self.phi}")


class ResidualLedger:
    """Sparse residual map (node, timestamp, token) -> mass.

    Zero-valued entries are evicted; a per-node total is cached for the
    greedy pop and the termination check.
    """

    def __init__(self):
        self._entries: dict[str, dict[tuple, float]] = {}
        self._totals: dict[str, float] = {}

    def add(self, node: str, ts: float, token: str | None, value: float) -> None:
        if value == 0.0:
            return
        if value < 0.0:
            raise ValueError(f"negative residual {value} for {node}")
        keys = self._entries.setdefault(node, {})
        keys[(ts, token)] = keys.get((ts, token), 0.0) + value
        self._totals[node] = self._totals.get(node, 0.0) + value

    def node_total(self, node: str) -> float:
        return self._totals.get(node, 0.0)

    def node_entries(self, node: str) -> dict[tuple, float]:
        return dict(self._entries.get(node, {}))

    def clear_node(self, node: str) -> dict[tuple, float]:
        """Remove and return all entries of a node."""
        snapshot = self._entries.pop(node, {})
        self._totals.pop(node, None)
        return snapshot

    def total(self) -> float:
        return sum(self._totals.values())

    def max_node(self) -> tuple[str, float] | None:
        """Node with the highest total, ties broken lexicographically."""
        best: tuple[str, float] | None = None
        for node, tot in self._totals.items():
            if best is None or tot > best[1] or (tot == best[1] and node < best[0]):
                best = (node, tot)
        return best

    def items(self):
        for node, keys in self._entries.items():
            for (ts, token), value in keys.items():
                yield node, ts, token, value

    def __len__(self) -> int:
        return sum(len(keys) for keys in self._entries.values())


def redirect_set(edge: TransferEdge, graph: TransactionGraph, node: str,
                 direction: str) -> list[TransferEdge]:
    """Resolve an edge to the edges that actually carry its token flow.

    A transfer leg at ``node`` maps to itself. An exchange leg maps to
    the edges of its counter tokens at ``node`` on the same side: later
    edges for the outgoing side, earlier ones for the incoming side, never
    from its own hash group. The recursion over chained exchanges is
    guarded by a visited-hash set (a revisited leg is kept as terminal)
    and a depth cap.
    """
    result: list[TransferEdge] = []
    seen_ids: set[int] = set()

    def walk(e: TransferEdge, visited: frozenset[str], depth: int) -> None:
        counter = graph.counter_tokens(node, e)
        if not counter or e.hash in visited or depth >= MAX_REDIRECT_DEPTH:
            if id(e) not in seen_ids:
                seen_ids.add(id(e))
                result.append(e)
            return
        visited = visited | {e.hash}
        if direction == "out":
            candidates = graph.edges_after(node, e.timestamp - 1)
            candidates = [c for c in candidates
                          if c.timestamp >= e.timestamp
                          and c.token in counter
                          and c.hash != e.hash]
        else:
            candidates = graph.edges_before(node, e.timestamp + 1)
            candidates = [c for c in candidates
                          if c.timestamp <= e.timestamp
                          and c.token in counter
                          and c.hash != e.hash]
        for c in candidates:
            walk(c, visited, depth + 1)

    walk(edge, frozenset(), 0)
    return result


@dataclass
class PushStats:
    dropped_mass: float = 0.0


def local_push(node: str, graph: TransactionGraph, params: TraceParams,
               rank: dict[str, float], ledger: ResidualLedger,
               stats: PushStats | None = None) -> None:
    """One greedy push step on ``node``; mutates rank and ledger in place.

    Mass accounting: rank gains alpha * residual(node); the remainder is
    forwarded, self-returned (empty edge set), or dropped (exchange leg
    with no continuation, tallied in ``stats.dropped_mass``).
    """
    alpha, beta = params.alpha, params.beta
    snapshot = ledger.clear_node(node)
    if not snapshot:
        return
    total = sum(snapshot.values())
    rank[node] = rank.get(node, 0.0) + alpha * total

    for (ts, token), value in snapshot.items():
        e_out = graph.edges_after(node, ts, token)
        e_in = [] if ts == SEED_TS else graph.edges_before(node, ts, token)
        for direction, edge_set, gamma in (("out", e_out, beta),
                                           ("in", e_in, 1.0 - beta)):
            if gamma == 0.0:
                continue
            if not edge_set:
                # Funds never left (or never arrived): the share stays put.
                ledger.add(node, ts, token, (1.0 - alpha) * gamma * value)
                continue
            amount_sum = sum(e.amount for e in edge_set)
            for e in edge_set:
                weight = (e.amount / amount_sum if amount_sum > 0.0
                          else 1.0 / len(edge_set))
                leg_mass = (1.0 - alpha) * gamma * weight * value
                if leg_mass == 0.0:
                    continue
                routed = (redirect_set(e, graph, node, direction)
                          if graph.counter_tokens(node, e) else [e])
                if not routed:
                    # Exchange with no continuation edge: mass is dropped
                    # rather than self-returned; callers track the tally.
                    if stats is not None:
                        stats.dropped_mass += leg_mass
                    continue
                delta = leg_mass / len(routed)
                for e2 in routed:
                    neighbor = e2.src if direction == "in" else e2.tgt
                    ledger.add(neighbor, e2.timestamp, e2.token, delta)
