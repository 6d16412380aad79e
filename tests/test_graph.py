import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_graph, multihop_swap_rows, random_txgraph
from fundtrace.graph import (IngestError, Pattern, TransactionGraph,
                             TransferEdge, classify_patterns, ingest_records,
                             iter_csv_records, iter_jsonl_records,
                             normalize_account)


def test_empty_input():
    g = ingest_records([])
    assert len(g) == 0
    assert g.num_edges == 0


def test_two_unrelated_records_are_xfer():
    g = ingest_records([
        {"from": "A", "to": "B", "value": "10", "timeStamp": "5",
         "tokenSymbol": "T1", "hash": "h1"},
        {"from": "B", "to": "C", "value": "4", "timeStamp": "7",
         "tokenSymbol": "T1", "hash": "h2"},
    ])
    assert len(g) == 3
    assert g.num_edges == 2
    assert all(g.pattern(e) is Pattern.XFER for e in g.edges)
    assert [e.hash for e in g.in_edges("b")] == ["h1"]
    assert [e.hash for e in g.out_edges("b")] == ["h2"]


def test_swap_classification_with_counter_tokens():
    g = ingest_records([
        {"from": "u", "to": "DEX", "value": "100", "timeStamp": "5",
         "tokenSymbol": "USDC", "hash": "h2"},
        {"from": "DEX", "to": "u", "value": "0.05", "timeStamp": "5",
         "tokenSymbol": "ETH", "hash": "h2"},
    ])
    out_leg = g.out_edges("u")[0]
    in_leg = g.in_edges("u")[0]
    assert g.pattern(out_leg) is Pattern.SWAP
    assert g.counter_tokens("u", out_leg) == {"ETH"}
    assert g.pattern(in_leg) is Pattern.SWAP
    assert g.counter_tokens("u", in_leg) == {"USDC"}


def test_single_edge_is_xfer():
    g = build_graph([("a", "b", 1.0, 1, "T", "h1")])
    assert g.pattern(g.edges[0]) is Pattern.XFER


def test_same_token_round_trip_is_xfer():
    g = build_graph([
        ("u", "v", 5.0, 1, "T1", "h1"),
        ("v", "u", 5.0, 1, "T1", "h1"),
    ])
    assert all(g.pattern(e) is Pattern.XFER for e in g.edges)


def test_mixed_token_hash_group_is_swap():
    g = build_graph([
        ("u", "v", 5.0, 1, "T1", "h1"),
        ("v", "u", 3.0, 1, "T2", "h1"),
    ])
    assert all(g.pattern(e) is Pattern.SWAP for e in g.edges)


def test_counter_tokens_decided_per_endpoint():
    g = build_graph([
        ("x", "u", 1.0, 1, "C", "h"),
        ("u", "v", 1.0, 1, "A", "h"),
        ("v", "w", 1.0, 1, "B", "h"),
    ])
    leg = g.out_edges("u")[0]
    assert g.counter_tokens("u", leg) == {"C"}
    assert g.counter_tokens("v", leg) == {"B"}
    assert g.pattern(leg) is Pattern.SWAP
    assert classify_patterns("u", g.incident_edges("u")) == {
        leg: {"C"}, g.in_edges("u")[0]: {"A"}}


def test_counter_tokens_match_oracle_on_multihop_swaps():
    from oracle import naive_counter_tokens
    for seed in range(20):
        g = build_graph(multihop_swap_rows(seed))
        for e in g.edges:
            for node in (e.src, e.tgt):
                assert g.counter_tokens(node, e) == naive_counter_tokens(
                    node, e, g.edges)


def test_malformed_records_skipped_with_line_numbers():
    errors = []
    g = ingest_records([
        {"from": "A", "to": "B", "value": "10", "timeStamp": "5",
         "tokenSymbol": "T", "hash": "h1"},
        {"from": "A", "to": "B", "value": "not-a-number", "timeStamp": "5",
         "tokenSymbol": "T", "hash": "h2"},
        {"from": "A", "to": "B", "value": "-4", "timeStamp": "5",
         "tokenSymbol": "T", "hash": "h3"},
    ], errors=errors)
    assert g.num_edges == 1
    assert [e.line for e in errors] == [2, 3]


def test_strict_mode_aborts():
    with pytest.raises(IngestError):
        ingest_records([{"from": "A"}], strict=True)


def test_duplicate_records_kept():
    rec = {"from": "A", "to": "B", "value": "1", "timeStamp": "1",
           "tokenSymbol": "T", "hash": "h1"}
    g = ingest_records([rec, dict(rec)])
    assert g.num_edges == 2


def test_case_normalization_merges_accounts():
    g = ingest_records([
        {"from": "0xAbC", "to": "0xDeF", "value": "1", "timeStamp": "1",
         "tokenSymbol": "T", "hash": "h1"},
        {"from": "0xABC", "to": "0xdef", "value": "1", "timeStamp": "2",
         "tokenSymbol": "T", "hash": "h2"},
    ])
    assert g.nodes == {"0xabc", "0xdef"}


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_account("  ")


def test_chain_symbol_default_for_native_rows():
    g = ingest_records([
        {"from": "a", "to": "b", "value": "1", "timeStamp": "1",
         "tokenSymbol": "", "hash": "h1"},
    ], chain_symbol="BNB")
    assert g.edges[0].token == "BNB"


def test_csv_and_jsonl_ingestion_agree():
    csv_text = ("from,to,value,timeStamp,tokenSymbol,hash\n"
                "a,b,10,5,T1,h1\nb,c,4,7,T1,h2\n")
    jsonl_text = (
        '{"from":"a","to":"b","value":"10","timeStamp":"5","tokenSymbol":"T1","hash":"h1"}\n'
        '{"from":"b","to":"c","value":"4","timeStamp":"7","tokenSymbol":"T1","hash":"h2"}\n')
    g1 = ingest_records(iter_csv_records(io.StringIO(csv_text)))
    g2 = ingest_records(iter_jsonl_records(io.StringIO(jsonl_text)))
    assert [e.key() for e in g1.edges] == [e.key() for e in g2.edges]


def test_edges_after_strict_inequality():
    g = build_graph([
        ("u", "a", 1.0, 1, "T", "h1"),
        ("u", "b", 1.0, 3, "T", "h2"),
        ("u", "c", 1.0, 5, "T", "h3"),
    ])
    assert [e.timestamp for e in g.edges_after("u", 3, "T")] == [5]
    assert g.edges_after("u", 5, "T") == []


def test_edges_after_sentinel_wildcard_returns_all():
    g = build_graph([
        ("u", "a", 1.0, 1, "T1", "h1"),
        ("u", "b", 1.0, 3, "T2", "h2"),
        ("c", "u", 1.0, 2, "T1", "h3"),
        ("d", "u", 1.0, 4, "T2", "h4"),
    ])
    assert len(g.edges_after("u", float("-inf"), None)) == 2
    assert len(g.edges_before("u", float("inf"), None)) == 2


def test_edges_before_strict_inequality():
    g = build_graph([
        ("a", "u", 1.0, 1, "T", "h1"),
        ("b", "u", 1.0, 3, "T", "h2"),
    ])
    assert [e.timestamp for e in g.edges_before("u", 3, "T")] == [1]


def test_unknown_node_queries_empty():
    g = build_graph([("a", "b", 1.0, 1, "T", "h1")])
    assert g.edges_after("zzz", 0, None) == []
    assert g.edges_before("zzz", 10, None) == []


@given(seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_adjacency_invariants(seed):
    g = random_txgraph(seed, swap_rate=0.2)
    out_total = sum(len(g.out_edges(u)) for u in g.nodes)
    in_total = sum(len(g.in_edges(u)) for u in g.nodes)
    assert out_total == in_total == g.num_edges
    for u in g.nodes:
        for lst in (g.out_edges(u), g.in_edges(u)):
            ts = [e.timestamp for e in lst]
            assert ts == sorted(ts)


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_classification_idempotent_and_partitioned(seed):
    g = random_txgraph(seed, swap_rate=0.3)
    rng = random.Random(seed)
    for u in sorted(g.nodes):
        edges = g.incident_edges(u)
        tags = classify_patterns(u, edges)
        rng.shuffle(edges)
        assert classify_patterns(u, edges) == tags
    for e in g.edges:
        assert g.pattern(e) in (Pattern.XFER, Pattern.SWAP)
        if g.pattern(e) is Pattern.SWAP:
            counters = [g.counter_tokens(u, e) for u in (e.src, e.tgt)]
            assert any(counters)
            assert all(e.token not in c for c in counters)


@given(seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_swap_symmetry(seed):
    g = random_txgraph(seed, swap_rate=0.4)
    for u in g.nodes:
        for e in g.out_edges(u):
            if not g.counter_tokens(u, e):
                continue
            partners = [o for o in g.in_edges(u)
                        if o.hash == e.hash and o.token != e.token]
            assert any(g.counter_tokens(u, o) for o in partners)
