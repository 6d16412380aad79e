"""Independent brute-force simulators used as test oracles.

Everything here works directly on flat edge tuples with naive scans: no
sorted adjacency, no cached totals, no shared code with the package's
push implementation.
"""
from __future__ import annotations

NEG_INF = float("-inf")


def naive_counter_tokens(node, edge, edges):
    """Tokens ``edge`` is exchanged against at ``node``, by brute scan of
    ``node``'s legs under the edge's hash: the other tokens on the
    opposite side (a self-loop counts as incoming)."""
    incoming = edge.tgt == node
    opposite = set()
    for e in edges:
        if e.hash != edge.hash:
            continue
        if (e.src == node) if incoming else (e.tgt == node):
            opposite.add(e.token)
    return opposite - {edge.token}


def naive_redirect(edge, edges, direction, visited=None, depth=0):
    """Recursive token-flow resolution by brute scan."""
    ts, h = edge.timestamp, edge.hash
    node = edge.src if direction == "out" else edge.tgt
    counter = naive_counter_tokens(node, edge, edges)
    if visited is None:
        visited = set()
    if not counter or h in visited or depth >= 32:
        return [edge]
    visited = visited | {h}
    out = []
    for c in edges:
        if c.hash == h or c.token not in counter:
            continue
        if direction == "out":
            if c.src == node and c.timestamp >= ts:
                out.extend(naive_redirect(c, edges, direction, visited, depth + 1))
        else:
            if c.tgt == node and c.timestamp <= ts:
                out.extend(naive_redirect(c, edges, direction, visited, depth + 1))
    dedup, seen = [], set()
    for e in out:
        if id(e) not in seen:
            seen.add(id(e))
            dedup.append(e)
    return dedup


def naive_push_once(edges, node, alpha, beta, rank, res):
    """One push of every residual key of ``node``; mutates rank/res dicts
    keyed by node and (node, ts, token). Returns dropped mass."""
    keys = [k for k in res if k[0] == node]
    total = sum(res[k] for k in keys)
    rank[node] = rank.get(node, 0.0) + alpha * total
    snapshot = {k: res.pop(k) for k in keys}
    dropped = 0.0
    for (node_, ts, token), value in snapshot.items():
        e_out = [e for e in edges if e.src == node and e.timestamp > ts
                 and (token is None or e.token == token)]
        e_in = [] if ts == NEG_INF else [
            e for e in edges if e.tgt == node and e.timestamp < ts
            and (token is None or e.token == token)]
        for direction, eset, gamma in (("out", e_out, beta),
                                       ("in", e_in, 1.0 - beta)):
            share = (1.0 - alpha) * gamma * value
            if share == 0.0:
                continue
            if not eset:
                key = (node, ts, token)
                res[key] = res.get(key, 0.0) + share
                continue
            amt_total = sum(e.amount for e in eset)
            for e in eset:
                w = e.amount / amt_total if amt_total > 0 else 1.0 / len(eset)
                leg = share * w
                routed = naive_redirect(e, edges, direction)
                if not routed:
                    dropped += leg
                    continue
                for e2 in routed:
                    v = e2.src if direction == "in" else e2.tgt
                    key = (v, e2.timestamp, e2.token)
                    res[key] = res.get(key, 0.0) + leg / len(routed)
    return dropped


def fixed_point(edges, source, alpha, beta, tol=1e-14):
    """The temporal PPR of ``source``: ``naive_push_once`` on every
    account that holds residual, round after round, until the residual
    total is below ``tol``. Returns the rank by account."""
    rank, res = {}, {(source, NEG_INF, None): 1.0}
    while sum(res.values()) >= tol:
        for node in sorted({k[0] for k in res}):
            naive_push_once(edges, node, alpha, beta, rank, res)
    return rank


def naive_poison(edges, source, depth):
    """Poison taint by brute walk over every (account, hops, arrival
    time) state, with no pruning: an edge is taken when hops < depth and
    its timestamp is at or after the arrival time. Returns the accounts
    reached and the ids of the edges taken."""
    start = (source, 0, NEG_INF)
    seen = {start}
    work = [start]
    taken = set()
    while work:
        node, hops, since = work.pop()
        if hops >= depth:
            continue
        for e in edges:
            if e.src == node and e.timestamp >= since:
                taken.add(id(e))
                state = (e.tgt, hops + 1, e.timestamp)
                if state not in seen:
                    seen.add(state)
                    work.append(state)
    return {node for node, _, _ in seen}, taken


def forward_mass_limit(edges, source, alpha, tiny=1e-15):
    """Exact limit rank for beta=1, single token, strictly increasing
    timestamps along every path (a forward-only weighted push).

    Mass arriving at a node either moves through later outgoing edges
    (amount-proportional, keeping (1-alpha) and banking alpha as rank) or,
    with no later outgoing edge, converts to rank entirely.
    """
    rank: dict[str, float] = {}
    work = [(source, NEG_INF, 1.0)]
    while work:
        node, since, mass = work.pop()
        if mass < tiny:
            continue
        out = [e for e in edges if e.src == node and e.timestamp > since]
        if not out:
            rank[node] = rank.get(node, 0.0) + mass
            continue
        rank[node] = rank.get(node, 0.0) + alpha * mass
        amt = sum(e.amount for e in out)
        for e in out:
            w = e.amount / amt if amt > 0 else 1.0 / len(out)
            work.append((e.tgt, e.timestamp, (1.0 - alpha) * mass * w))
    return rank


def exact_ppr_dense(edges, nodes, source, alpha):
    """Power iteration on p = alpha*e + (1-alpha) p D^-1 A with dangling
    self-loops, to 1e-14. Plain python, no numpy."""
    nodes = sorted(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    n = len(nodes)
    out: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        out[idx[e.src]].append(idx[e.tgt])
    p = [0.0] * n
    p[idx[source]] = 1.0
    for _ in range(20_000):
        nxt = [0.0] * n
        nxt[idx[source]] += alpha
        for i in range(n):
            if not out[i]:
                nxt[i] += (1 - alpha) * p[i]
                continue
            share = (1 - alpha) * p[i] / len(out[i])
            for j in out[i]:
                nxt[j] += share
        if max(abs(a - b) for a, b in zip(p, nxt)) < 1e-15:
            p = nxt
            break
        p = nxt
    return {nodes[i]: p[i] for i in range(n)}
