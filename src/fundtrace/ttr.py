"""Temporal, token-aware local push over the transaction graph.

Residual mass is keyed by (account, timestamp, token). A push converts
an alpha fraction of a node's residual into rank and forwards the rest:
a beta share through outgoing edges of its token later than the
residual's timestamp, a (1-beta) share through incoming edges of its
token earlier than it, each split across edges by amount. Swap legs at
the pushing account do not receive mass directly; it is redirected to
the continuation edges of the exchanged token.

A push spreads all of a node's entries of one token and direction in a
single temporal sweep over that token's edges, so it costs
O(entries * log d + window) for d edges at the node, not
O(entries * window): see ``local_push``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import pairwise
from operator import add
from typing import Iterable, Iterator, Sequence

from .graph import TransactionGraph, TransferEdge

# Seed residual key: all outgoing edges qualify, no incoming edge does.
SEED_TS = float("-inf")
# Wildcard token on the seed key.
ANY_TOKEN = None


def left_sum(values: Iterable[float]) -> float:
    """The sum of ``values``, added left to right from 0, as ``sum()``
    adds them up to Python 3.11. From 3.12, ``sum()`` over floats
    compensates its rounding, so the same values can sum to a different
    last bit. The package adds floats up here, so a result holds the
    same bytes on every supported Python."""
    return reduce(add, values, 0)


@dataclass(frozen=True)
class TraceParams:
    alpha: float = 0.15
    beta: float = 0.7
    epsilon: float = 1e-3
    phi: float = 1e-3
    budget: int | None = None   # maximum number of pops
    hub_cap: int | None = None  # edges kept per fetched account

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0,1], got {self.beta}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not self.phi > 0.0:
            raise ValueError(f"phi must be > 0, got {self.phi}")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.hub_cap is not None and self.hub_cap < 1:
            raise ValueError("hub_cap must be >= 1")


class ResidualLedger:
    """Sparse residual map (node, timestamp, token) -> mass.

    Zero-valued entries are evicted; a per-node total is cached for the
    greedy pop and the termination check. ``dropped`` tallies the mass
    pushes dropped (exchange legs with no continuation), leg by leg.
    """

    def __init__(self):
        self._entries: dict[str, dict[tuple, float]] = {}
        self._totals: dict[str, float] = {}
        self.dropped = 0.0

    def add(self, node: str, ts: float, token: str | None, value: float) -> None:
        if value == 0.0:
            return
        if value < 0.0:
            raise ValueError(f"negative residual {value} for {node}")
        keys = self._entries.setdefault(node, {})
        keys[(ts, token)] = keys.get((ts, token), 0.0) + value
        self._totals[node] = self._totals.get(node, 0.0) + value

    def clear_node(self, node: str) -> dict[tuple, float]:
        """Remove and return all entries of a node."""
        snapshot = self._entries.pop(node, {})
        self._totals.pop(node, None)
        return snapshot

    def total(self) -> float:
        return left_sum(self._totals.values())

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


def redirect_set(edge: TransferEdge, graph: TransactionGraph, node: str,
                 direction: str) -> list[TransferEdge]:
    """Resolve an edge to the edges that actually carry its token flow.

    A transfer leg at ``node`` maps to itself. An exchange leg continues
    into the edges of its counter tokens at ``node`` on the same side:
    later edges for the outgoing side, earlier ones for the incoming side,
    never from its own hash group. The result is the closure of that
    continuation relation: the terminal legs reachable from ``edge``, in
    the order a depth-first walk first reaches them. A leg is terminal
    when it has no counter tokens at ``node``, or when its hash is already
    on the walk's current path, which is where a swap cycle closes. The
    walk expands each leg at most once, so it costs one adjacency lookup
    per reachable exchange leg, whatever the chain length.

    A graph does not change once built, so the result is memoised on it
    per (node, edge, direction). Callers must not mutate the list.
    """
    key = (node, edge, direction)
    cached = graph._redirect.get(key)
    if cached is not None:
        return cached
    result: list[TransferEdge] = []
    reached: set[TransferEdge] = set()
    expanded: set[TransferEdge] = set()
    on_path: set[str] = set()
    # (hash of the leg being expanded, its continuations still to visit)
    stack: list[tuple[str | None, Iterator[TransferEdge]]] = [
        (None, iter((edge,)))]
    while stack:
        e = next(stack[-1][1], None)
        if e is None:
            on_path.discard(stack.pop()[0])
            continue
        counter = graph.counter_tokens(node, e)
        if not counter or e.hash in on_path:
            if e not in reached:
                reached.add(e)
                result.append(e)
            continue
        if e in expanded:
            continue
        expanded.add(e)
        on_path.add(e.hash)
        if direction == "out":
            side = graph.edges_after(node, e.timestamp - 1)
        else:
            side = graph.edges_before(node, e.timestamp + 1)
        candidates = [c for c in side
                      if c.token in counter and c.hash != e.hash]
        stack.append((e.hash, iter(candidates)))
    graph._redirect[key] = result
    return result


def local_push(node: str, graph: TransactionGraph, params: TraceParams,
               rank: dict[str, float], ledger: ResidualLedger) -> None:
    """One greedy push step on ``node``; mutates rank and ledger in place.

    Mass accounting: rank gains alpha * residual(node); the remainder is
    forwarded, self-returned (empty edge set), or dropped (exchange leg
    with no continuation). Each dropped leg is added to ``ledger.dropped``.

    The push is linear in the residual, so each (token, direction) of the
    node's entries is one temporal sweep. Entry i, of mass v_i, bisects
    into the node's edges of its token (``TransactionGraph.token_window``).
    At its window's first edge in sweep order it adds v_i/S_i to a
    per-amount coefficient w, where S_i is the window's amount sum, or
    v_i/n_i to a per-edge coefficient c when the window's n_i amounts are
    all zero. The sweep then walks the edges once, outgoing ones forward
    from the earliest window start and incoming ones backward from the
    latest window end, keeping running sums. Edge j carries
    (1-alpha)*gamma*(a_j*sum(w) + sum(c)), where gamma is beta out and
    1-beta in, and is redirected once. A push costs
    O(entries * log d + window) for d edges at the node, where spreading
    entries one by one costs O(entries * window).
    """
    alpha, beta = params.alpha, params.beta
    snapshot = ledger.clear_node(node)
    if not snapshot:
        return
    total = left_sum(snapshot.values())
    rank[node] = rank.get(node, 0.0) + alpha * total

    for direction, gamma in (("out", beta), ("in", 1.0 - beta)):
        if gamma == 0.0:
            continue
        share = (1.0 - alpha) * gamma
        out = direction == "out"
        # token -> (its edges, (window's first edge in sweep order, w, c)
        # per entry with a non-empty window)
        sweeps: dict[str | None, tuple[Sequence[TransferEdge],
                                       list[tuple[int, float, float]]]] = {}
        for (ts, token), value in snapshot.items():
            edges, k, amount_sum = graph.token_window(
                node, token, direction, ts)
            size = len(edges) - k if out else k
            if not size:
                # Funds never left (or never arrived): the share stays put.
                ledger.add(node, ts, token, share * value)
                continue
            sweep = sweeps.get(token)
            if sweep is None:
                sweep = sweeps[token] = (edges, [])
            if amount_sum > 0.0:
                sweep[1].append((k if out else k - 1, value / amount_sum, 0.0))
            else:
                sweep[1].append((k if out else k - 1, 0.0, value / size))
        for edges, starts in sweeps.values():
            swaps = graph.swap_legs(node)
            # Segments of constant coefficients, each from one window's
            # first edge to the next one's, and the last to the sweep's end.
            starts.sort(reverse=not out)
            starts.append((len(edges) if out else -1, 0.0, 0.0))
            step = 1 if out else -1
            w = c = 0.0
            for (at, dw, dc), (stop, _, _) in pairwise(starts):
                w += dw
                c += dc
                for j in range(at, stop, step):
                    e = edges[j]
                    leg_mass = share * (e.amount * w + c)
                    if leg_mass == 0.0:
                        continue
                    if e not in swaps:
                        ledger.add(e.tgt if out else e.src, e.timestamp,
                                   e.token, leg_mass)
                        continue
                    routed = redirect_set(e, graph, node, direction)
                    if not routed:
                        # Exchange with no continuation edge: mass is
                        # dropped rather than self-returned.
                        ledger.dropped += leg_mass
                        continue
                    delta = leg_mass / len(routed)
                    for e2 in routed:
                        ledger.add(e2.tgt if out else e2.src, e2.timestamp,
                                   e2.token, delta)
