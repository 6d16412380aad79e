"""Synthetic planted laundering cases with known ground truth.

Each case plants amount-dominant flow paths from a source through
layered peel chains (optionally passing through token exchanges under a
shared transaction hash) down to sink targets, then wraps them in
timestamp-consistent background noise and optional high-degree hubs so
that shallow or amount-blind methods pay for their bluntness.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass

from .graph import TransactionGraph, TransferEdge

MAIN_TOKEN = "usdt"
SWAP_TOKEN = "weth"
NOISE_TOKENS = ("usdt", "weth", "dai", "link")


@dataclass
class CaseSpec:
    source: str = "src"
    target_count: int = 3
    layers: int = 5            # hop distance from source to each target
    fan_out: int = 3           # branch count leaving the source
    peel_length: int = 1       # shed edges per chain hop
    swap_hop_probability: float = 0.3
    noise_rate: float = 2.0    # background edges per planted edge
    hub_count: int = 1
    hub_spokes: int = 120
    seed: int = 0

    def validate(self) -> None:
        if self.target_count < 1:
            raise ValueError("target_count must be >= 1")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        # Branch b ends at target b mod target_count.
        if self.fan_out < self.target_count:
            raise ValueError("fan_out must be >= target_count")
        if not 0.0 <= self.swap_hop_probability <= 1.0:
            raise ValueError("swap_hop_probability must be in [0,1]")
        if not 0.0 <= self.noise_rate < math.inf:
            raise ValueError("noise_rate must be finite and >= 0")
        for name in ("peel_length", "hub_count", "hub_spokes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CaseSpec":
        return CaseSpec(**json.loads(text))


@dataclass
class PlantedCase:
    spec: CaseSpec
    graph: TransactionGraph
    source: str
    targets: set[str]


def generate_planted_case(spec: CaseSpec) -> PlantedCase:
    spec.validate()
    rng = random.Random(spec.seed)
    edges: list[TransferEdge] = []
    clock = [1_000_000]
    hash_counter = [0]

    def tick() -> int:
        clock[0] += rng.randint(5, 50)
        return clock[0]

    def new_hash() -> str:
        hash_counter[0] += 1
        return f"h{hash_counter[0]:06d}"

    source = spec.source
    targets = {f"tgt_{i}" for i in range(spec.target_count)}
    target_list = sorted(targets)
    dex = "dex_0"
    path_nodes: list[str] = [source]
    # (node, earliest spend time) pairs for attaching outgoing noise
    spend_points: list[tuple[str, int]] = []

    for branch in range(spec.fan_out):
        amount = rng.uniform(500.0, 2000.0)
        token = MAIN_TOKEN
        prev = source
        t = tick()
        target = target_list[branch % len(target_list)]
        for hop in range(1, spec.layers + 1):
            node = target if hop == spec.layers else f"b{branch}_n{hop}"
            h = new_hash()
            edges.append(TransferEdge(prev, node, amount, t, token, h))
            spend_points.append((prev, t))
            if node != target:
                path_nodes.append(node)
                # peel: shed a sliver to fresh accounts before moving on
                t_next = t + rng.randint(5, 50)
                shed_total = 0.0
                for p in range(spec.peel_length):
                    shed = amount * rng.uniform(0.01, 0.04)
                    shed_total += shed
                    edges.append(TransferEdge(
                        node, f"peel_{branch}_{hop}_{p}",
                        shed, t_next, token, new_hash()))
                amount -= shed_total
                if rng.random() < spec.swap_hop_probability:
                    # exchange at this node: out leg and counter leg share
                    # one hash, the onward transfer uses the new token
                    hs = new_hash()
                    t_swap = t_next + rng.randint(5, 50)
                    out_token = SWAP_TOKEN if token == MAIN_TOKEN else MAIN_TOKEN
                    swapped = amount * rng.uniform(0.95, 1.0)
                    edges.append(TransferEdge(node, dex, amount, t_swap, token, hs))
                    edges.append(TransferEdge(dex, node, swapped, t_swap, out_token, hs))
                    token = out_token
                    amount = swapped
                    t_next = t_swap
                t = t_next + rng.randint(5, 50)
            prev = node

    planted_count = len(edges)
    noise_accounts = [f"noise_{i}" for i in range(max(10, planted_count // 2))]

    # Hubs hang one dust hop off the source so a 2-hop sweep inhales all
    # their spokes while the amount-weighted rank barely notices them.
    for hub_i in range(spec.hub_count):
        hub = f"hub_{hub_i}"
        edges.append(TransferEdge(source, hub, rng.uniform(0.01, 0.5),
                                  tick(), MAIN_TOKEN, new_hash()))
        for s in range(spec.hub_spokes):
            edges.append(TransferEdge(hub, f"{hub}_s{s}",
                                      rng.uniform(0.1, 5.0),
                                      tick(), rng.choice(NOISE_TOKENS),
                                      new_hash()))

    num_noise = int(spec.noise_rate * planted_count)
    for _ in range(num_noise):
        kind = rng.random()
        token = rng.choice(NOISE_TOKENS)
        amt = rng.uniform(0.1, 10.0)
        if kind < 0.35 and spend_points:
            # dust spent onward from a path node after it held funds
            node, since = spend_points[rng.randrange(len(spend_points))]
            edges.append(TransferEdge(node, rng.choice(noise_accounts), amt,
                                      since + rng.randint(1, 40), token,
                                      new_hash()))
        elif kind < 0.5 and path_nodes:
            # dust received by a path node before it forwarded anything
            node = rng.choice(path_nodes)
            edges.append(TransferEdge(rng.choice(noise_accounts), node, amt,
                                      rng.randint(900_000, 999_000), token,
                                      new_hash()))
        else:
            a = rng.choice(noise_accounts)
            b = rng.choice(noise_accounts)
            if a == b:
                continue
            edges.append(TransferEdge(a, b, amt,
                                      rng.randint(900_000, clock[0]), token,
                                      new_hash()))

    return PlantedCase(spec=spec, graph=TransactionGraph(edges), source=source,
                       targets=targets)


def case_records(case: PlantedCase) -> list[dict]:
    """Edge records in the ingestion schema, for writing case files."""
    return [
        {"from": e.src, "to": e.tgt, "value": repr(e.amount),
         "timeStamp": str(e.timestamp), "tokenSymbol": e.token,
         "hash": e.hash}
        for e in case.graph.edges
    ]
