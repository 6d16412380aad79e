import random

import pytest

from fundtrace.graph import TransactionGraph, TransferEdge
from fundtrace.ttr import ANY_TOKEN, SEED_TS, ResidualLedger


def build_graph(rows):
    """rows: (src, tgt, amount, ts, token, hash) tuples."""
    return TransactionGraph([TransferEdge(*row) for row in rows])


FIG_SWAP_ROWS = [
    ("a", "u", 100.0, 10, "USDC", "h1"),
    ("u", "dex", 100.0, 20, "USDC", "h2"),
    ("dex", "u", 0.05, 20, "ETH", "h2"),
    ("u", "x", 0.03, 30, "ETH", "h3"),
    ("u", "y", 0.02, 40, "ETH", "h4"),
]


def seeded_trace(source):
    """An empty rank and a ledger holding the unit seed at ``source``:
    the state ``run_expansion`` starts its loop from."""
    ledger = ResidualLedger()
    ledger.add(source, SEED_TS, ANY_TOKEN, 1.0)
    return {}, ledger


def residuals(ledger, node):
    """``node``'s ledger entries as {(timestamp, token): mass}, read
    through ``ResidualLedger.items``."""
    return {(ts, token): value
            for n, ts, token, value in ledger.items() if n == node}


@pytest.fixture
def swap_redirect_graph():
    """Incoming USDC at u is exchanged to ETH under one hash and spent
    onward through two later ETH transfers."""
    return build_graph(FIG_SWAP_ROWS)


def random_txgraph(seed, n_nodes=20, n_edges=60, n_tokens=3, swap_rate=0.0):
    rng = random.Random(seed)
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    tokens = [f"tk{i}" for i in range(n_tokens)]
    rows = []
    h = 0
    for _ in range(n_edges):
        src, tgt = rng.sample(nodes, 2)
        h += 1
        rows.append((src, tgt, rng.uniform(0.5, 100.0), rng.randint(1, 10_000),
                     rng.choice(tokens), f"x{h:05d}"))
        if swap_rate and rng.random() < swap_rate:
            # counter leg at src under the same hash with a different token
            other = rng.choice([t for t in tokens if t != rows[-1][4]])
            rows.append((tgt, src, rng.uniform(0.5, 100.0), rows[-1][3],
                         other, f"x{h:05d}"))
    return build_graph(rows)


def random_path_seed(seed, n_nodes=20):
    rng = random.Random(seed)
    return f"n{rng.randrange(n_nodes):02d}"


def multihop_swap_rows(seed, n_nodes=20, n_edges=40, n_swaps=12):
    """Plain transfers plus three-account hash groups a->p1 (token X),
    p1->p2 (Y), p2->a (Z) at one timestamp, so a leg such as a->p1 is a
    Swap leg at both ends with different counter tokens ({Z} at a, {Y}
    at p1)."""
    rng = random.Random(seed)
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    tokens = [f"tk{i}" for i in range(4)]
    rows = []
    for k in range(n_edges):
        src, tgt = rng.sample(nodes, 2)
        rows.append((src, tgt, rng.uniform(0.5, 100.0),
                     rng.randint(1, 10_000), rng.choice(tokens), f"x{k:05d}"))
    for k in range(n_swaps):
        a, p1, p2 = rng.sample(nodes, 3)
        x, y, z = rng.sample(tokens, 3)
        ts = rng.randint(1, 10_000)
        for src, tgt, token in ((a, p1, x), (p1, p2, y), (p2, a, z)):
            rows.append((src, tgt, rng.uniform(0.5, 100.0), ts, token,
                         f"s{k:05d}"))
    rng.shuffle(rows)
    return rows


def split_leg_rows(seed, share=0.4):
    """``multihop_swap_rows(seed, 20, 60, 15)`` with a ``share`` of its
    records each paid as 2-4 legs, as a transaction that emits several
    Transfer events does: the legs tie on every field but the amount."""
    rng = random.Random(seed)
    rows = []
    for src, tgt, amount, ts, token, h in multihop_swap_rows(seed, 20, 60, 15):
        legs = rng.randint(2, 4) if rng.random() < share else 1
        rows += [(src, tgt, amount * rng.uniform(0.1, 1.0), ts, token, h)
                 for _ in range(legs)]
    return rows


def swap_bot_chain(k):
    """A bot funded in usdc that swaps usdc<->weth k times with a DEX, one
    hash per swap, then spends what it holds in three transfers."""
    rows = [("src", "bot", 500.0, 1_000, "usdc", "h0")]
    held, ts = "usdc", 1_010
    for i in range(k):
        other = "weth" if held == "usdc" else "usdc"
        rows.append(("bot", "dex", 1.0, ts, held, f"w{i}"))
        rows.append(("dex", "bot", 1.0, ts, other, f"w{i}"))
        held, ts = other, ts + 10
    rows += [("bot", f"out{m}", 1.0, ts + m, held, f"o{m}") for m in range(3)]
    graph = build_graph(rows)
    first_swap = [e for e in graph.out_edges("bot") if e.hash == "w0"][0]
    return graph, first_swap


def tagged_edges(graph):
    """Each edge with its pattern and its counter tokens at both ends."""
    return sorted((e.sort_key(), graph.pattern(e).value,
                   tuple(sorted(graph.counter_tokens(e.src, e))),
                   tuple(sorted(graph.counter_tokens(e.tgt, e))))
                  for e in graph.edges)
