import gc
import json
import logging
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_graph, multihop_swap_rows, pattern, random_txgraph
from fundtrace.graph import (Pattern, TransactionGraph, TransferEdge,
                             classify_patterns, load_graph, normalize_account,
                             parse_records)


def ingest(records, chain_symbol="ETH"):
    return TransactionGraph(parse_records(records, chain_symbol, "records"))


def test_empty_input():
    g = ingest([])
    assert len(g.nodes) == 0
    assert len(g.edges) == 0


def test_two_unrelated_records_are_xfer():
    g = ingest([
        {"from": "A", "to": "B", "value": "10", "timeStamp": "5",
         "tokenSymbol": "T1", "hash": "h1"},
        {"from": "B", "to": "C", "value": "4", "timeStamp": "7",
         "tokenSymbol": "T1", "hash": "h2"},
    ])
    assert len(g.nodes) == 3
    assert len(g.edges) == 2
    assert all(pattern(g, e) is Pattern.XFER for e in g.edges)
    assert [e.hash for e in g.edges_before("b", math.inf)] == ["h1"]
    assert [e.hash for e in g.out_edges("b")] == ["h2"]


def test_swap_classification_with_counter_tokens():
    g = ingest([
        {"from": "u", "to": "DEX", "value": "100", "timeStamp": "5",
         "tokenSymbol": "USDC", "hash": "h2"},
        {"from": "DEX", "to": "u", "value": "0.05", "timeStamp": "5",
         "tokenSymbol": "ETH", "hash": "h2"},
    ])
    out_leg = g.out_edges("u")[0]
    in_leg = g.edges_before("u", math.inf)[0]
    assert pattern(g, out_leg) is Pattern.SWAP
    assert g.counter_tokens("u", out_leg) == {"ETH"}
    assert pattern(g, in_leg) is Pattern.SWAP
    assert g.counter_tokens("u", in_leg) == {"USDC"}


def test_single_edge_is_xfer():
    g = build_graph([("a", "b", 1.0, 1, "T", "h1")])
    assert pattern(g, g.edges[0]) is Pattern.XFER


def test_same_token_round_trip_is_xfer():
    g = build_graph([
        ("u", "v", 5.0, 1, "T1", "h1"),
        ("v", "u", 5.0, 1, "T1", "h1"),
    ])
    assert all(pattern(g, e) is Pattern.XFER for e in g.edges)


def test_mixed_token_hash_group_is_swap():
    g = build_graph([
        ("u", "v", 5.0, 1, "T1", "h1"),
        ("v", "u", 3.0, 1, "T2", "h1"),
    ])
    assert all(pattern(g, e) is Pattern.SWAP for e in g.edges)


def test_counter_tokens_decided_per_endpoint():
    g = build_graph([
        ("x", "u", 1.0, 1, "C", "h"),
        ("u", "v", 1.0, 1, "A", "h"),
        ("v", "w", 1.0, 1, "B", "h"),
    ])
    leg = g.out_edges("u")[0]
    assert g.counter_tokens("u", leg) == {"C"}
    assert g.counter_tokens("v", leg) == {"B"}
    assert pattern(g, leg) is Pattern.SWAP
    assert classify_patterns("u", g.incident_edges("u")) == {
        leg: {"C"}, g.edges_before("u", math.inf)[0]: {"A"}}


def test_counter_tokens_match_oracle_on_multihop_swaps():
    from oracle import naive_counter_tokens
    for seed in range(20):
        g = build_graph(multihop_swap_rows(seed))
        for e in g.edges:
            for node in (e.src, e.tgt):
                assert g.counter_tokens(node, e) == naive_counter_tokens(
                    node, e, g.edges)


def test_malformed_records_skipped_with_line_numbers(caplog):
    caplog.set_level(logging.WARNING, logger="fundtrace")
    g = ingest([
        {"from": "A", "to": "B", "value": "10", "timeStamp": "5",
         "tokenSymbol": "T", "hash": "h1"},
        {"from": "A", "to": "B", "value": "not-a-number", "timeStamp": "5",
         "tokenSymbol": "T", "hash": "h2"},
        {"from": "A", "to": "B", "value": "-4", "timeStamp": "5",
         "tokenSymbol": "T", "hash": "h3"},
        {"from": "A", "to": "B", "value": "nan", "timeStamp": "5",
         "tokenSymbol": "T", "hash": "h4"},
        {"from": "A", "to": "B", "value": "inf", "timeStamp": "5",
         "tokenSymbol": "T", "hash": "h5"},
    ])
    assert len(g.edges) == 1
    skipped = [r.getMessage() for r in caplog.records
               if r.name == "fundtrace" and r.levelno == logging.WARNING]
    assert [m.split(":")[0] for m in skipped] == [
        "skipped record 2", "skipped record 3", "skipped record 4",
        "skipped record 5"]


def test_duplicate_records_kept():
    rec = {"from": "A", "to": "B", "value": "1", "timeStamp": "1",
           "tokenSymbol": "T", "hash": "h1"}
    g = ingest([rec, dict(rec)])
    assert len(g.edges) == 2


def test_case_normalization_merges_accounts():
    g = ingest([
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
    g = ingest([
        {"from": "a", "to": "b", "value": "1", "timeStamp": "1",
         "tokenSymbol": "", "hash": "h1"},
    ], chain_symbol="BNB")
    assert g.edges[0].token == "BNB"


def test_csv_and_jsonl_ingestion_agree(tmp_path):
    csv_path = tmp_path / "edges.csv"
    csv_path.write_text("from,to,value,timeStamp,tokenSymbol,hash\n"
                        "a,b,10,5,T1,h1\nb,c,4,7,T1,h2\n")
    jsonl_path = tmp_path / "edges.jsonl"
    jsonl_path.write_text(
        '{"from":"a","to":"b","value":"10","timeStamp":"5","tokenSymbol":"T1","hash":"h1"}\n'
        '\n'
        '{"from":"b","to":"c","value":"4","timeStamp":"7","tokenSymbol":"T1","hash":"h2"}\n')
    g1 = load_graph(str(csv_path))
    g2 = load_graph(str(jsonl_path))
    assert len(g1.edges) == 2
    assert [e.sort_key() for e in g1.edges] == [e.sort_key() for e in g2.edges]


def test_byte_order_mark_is_not_data(tmp_path):
    csv_text = ("from,to,value,timeStamp,tokenSymbol,hash\n"
                "a,b,10,5,T1,h1\nb,c,4,7,T1,h2\n")
    jsonl_text = (
        '{"from":"a","to":"b","value":"10","timeStamp":"5","tokenSymbol":"T1","hash":"h1"}\n'
        '{"from":"b","to":"c","value":"4","timeStamp":"7","tokenSymbol":"T1","hash":"h2"}\n')
    for name, text in (("edges.csv", csv_text), ("edges.jsonl", jsonl_text)):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        g = load_graph(str(marked))
        assert len(g.edges) == 2, name
        assert ([e.sort_key() for e in g.edges]
                == [e.sort_key() for e in load_graph(str(plain)).edges])


EDGE_TEXTS = {
    "edges.csv": ("from,to,value,timeStamp,tokenSymbol,hash\n"
                  "a,b,10,5,T1,h1\nb,c,4,7,T1,h2\n"),
    "edges.jsonl": (
        '{"from":"a","to":"b","value":"10","timeStamp":"5","tokenSymbol":"T1","hash":"h1"}\n'
        '{"from":"b","to":"c","value":"4","timeStamp":"7","tokenSymbol":"T1","hash":"h2"}\n')}


def assert_lead_is_ignored(tmp_path, name, lead):
    plain, led = tmp_path / name, tmp_path / f"led-{name}"
    plain.write_text(EDGE_TEXTS[name])
    led.write_text(lead + EDGE_TEXTS[name])
    g = load_graph(str(led))
    assert len(g.edges) == 2
    assert ([e.sort_key() for e in g.edges]
            == [e.sort_key() for e in load_graph(str(plain)).edges])


@pytest.mark.parametrize("name", EDGE_TEXTS)
@pytest.mark.parametrize("lead", ["\n", "\n\n", " \t\n", "\r\n"],
                         ids=["lf", "lf-lf", "blanks-lf", "crlf"])
def test_leading_blank_lines_are_skipped(tmp_path, caplog, name, lead):
    caplog.set_level(logging.WARNING, logger="fundtrace")
    assert_lead_is_ignored(tmp_path, name, lead)
    assert caplog.records == []


def test_jsonl_may_start_with_spaces(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="fundtrace")
    assert_lead_is_ignored(tmp_path, "edges.jsonl", "  ")
    assert caplog.records == []


@pytest.mark.parametrize("header", [
    "  from,to,value,timeStamp,tokenSymbol,hash",
    "from, to ,value,timeStamp,\ttokenSymbol ,hash"],
    ids=["spaced-line", "spaced-cells"])
def test_csv_header_cells_are_trimmed(tmp_path, caplog, header):
    caplog.set_level(logging.WARNING, logger="fundtrace")
    plain = EDGE_TEXTS["edges.csv"]
    spaced = tmp_path / "spaced.csv"
    spaced.write_text(header + plain[plain.index("\n"):])
    assert ([e.sort_key() for e in load_graph(str(spaced)).edges]
            == [e.sort_key() for e in build_graph(
                [("a", "b", 10.0, 5, "T1", "h1"),
                 ("b", "c", 4.0, 7, "T1", "h2")]).edges])
    assert caplog.records == []


def test_blank_csv_rows_are_skipped_like_blank_json_lines(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="fundtrace")
    # A whitespace-only row and a row of only commas are not records, as
    # a whitespace-only JSON line is not: the bad row after them is
    # record 3 in both files.
    csv_path = tmp_path / "blank.csv"
    csv_path.write_text("from,to,value,timeStamp,tokenSymbol,hash\n"
                        "a,b,10,5,T1,h1\n   \n,,,,,\n"
                        "b,c,4,7,T1,h2\nc,,1,9,T1,h3\n")
    jsonl_path = tmp_path / "blank.jsonl"
    jsonl_path.write_text(
        '{"from":"a","to":"b","value":"10","timeStamp":"5","tokenSymbol":"T1","hash":"h1"}\n'
        '   \n'
        '{"from":"b","to":"c","value":"4","timeStamp":"7","tokenSymbol":"T1","hash":"h2"}\n'
        '{"from":"c","to":"","value":"1","timeStamp":"9","tokenSymbol":"T1","hash":"h3"}\n')
    g = load_graph(str(csv_path))
    assert len(g.edges) == 2
    assert ([e.sort_key() for e in g.edges]
            == [e.sort_key() for e in load_graph(str(jsonl_path)).edges])
    assert skipped_warnings(caplog) == [
        f"skipped record 3: empty account id (in {csv_path})",
        f"skipped record 3: empty account id (in {jsonl_path})"]


def test_missing_or_null_field_skips_record(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="fundtrace")
    # A short CSV row reads as None; so does a JSON null.
    short = tmp_path / "short.csv"
    short.write_text("from,to,value,timeStamp,tokenSymbol,hash\n"
                     "a,b,5,100\n"
                     "b,a,3,100,USDT\n")
    nulls = tmp_path / "nulls.jsonl"
    nulls.write_text(
        '{"from":"a","to":null,"value":"5","timeStamp":"1","hash":"h1"}\n'
        '{"from":"a","to":"b","value":"5","timeStamp":"1","hash":null}\n'
        '{"from":"a","to":"b","value":"5","timeStamp":"1",'
        '"tokenSymbol":null,"hash":"h2"}\n')
    assert len(load_graph(str(short)).edges) == 0
    g = load_graph(str(nulls), chain_symbol="BNB")
    assert [(e.token, e.hash) for e in g.edges] == [("BNB", "h2")]
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert warnings == [f"skipped record 1: no hash (in {short})",
                        f"skipped record 2: no hash (in {short})",
                        f"skipped record 1: no to (in {nulls})",
                        f"skipped record 2: no hash (in {nulls})"]


def _write_wide_edge_file(path, rows, accounts):
    """A CSV edge file with Ethereum-width fields: 42-character
    addresses and 66-character transaction hashes."""
    rng = random.Random(3)
    addresses = [f"0x{rng.getrandbits(160):040x}" for _ in range(accounts)]
    tokens = ["ETH", "USDT", "USDC", "WETH", "DAI"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("from,to,value,timeStamp,tokenSymbol,hash\n")
        for _ in range(rows):
            src, tgt = rng.sample(addresses, 2)
            fh.write(f"{src},{tgt},{rng.uniform(0.5, 100.0)!r},"
                     f"{rng.randint(1, 10**9)},{rng.choice(tokens)},"
                     f"0x{rng.getrandbits(256):064x}\n")


# Retained tracemalloc bytes per edge of the 20k-row file below, with 10%
# headroom. Edges without __dict__ and one string per account and token
# keep it near 60% of what a dict-backed edge holding its own copies needs.
MAX_BYTES_PER_EDGE = 1.1 * 308.5


def skipped_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "fundtrace" and r.levelno == logging.WARNING]


def test_deeply_nested_json_line_is_skipped(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="fundtrace")
    path = tmp_path / "deep.jsonl"
    depth = 200_000
    path.write_text(
        '{"from": "a", "to": "b", "value": "1", "timeStamp": "5", '
        '"hash": "h1"}\n' + '{"x": ' + "[" * depth + "]" * depth + "}\n")
    g = load_graph(str(path))
    assert len(g.edges) == 1
    assert skipped_warnings(caplog) == [
        f"skipped record 2: JSON nested too deeply (in {path})"]


def test_non_object_and_blank_field_records_are_skipped(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="fundtrace")
    good = {"from": "a", "to": "b", "value": "1", "timeStamp": "5",
            "hash": "h1"}
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(json.dumps(rec) for rec in (
        good, [1, 2], {**good, "hash": " \t"},
        {**good, "tokenSymbol": "  "})) + "\n")
    assert [e.hash for e in load_graph(str(path)).edges] == ["h1"]
    # An API response row that is not an object.
    assert [e.hash for e in parse_records([5, good], "ETH", "api")] == ["h1"]
    assert skipped_warnings(caplog) == [
        f"skipped record 2: not a JSON object (in {path})",
        f"skipped record 3: missing token symbol or hash (in {path})",
        f"skipped record 4: missing token symbol or hash (in {path})",
        "skipped record 1: not a JSON object (in api)"]


def test_undecodable_bytes_skip_only_their_record(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="fundtrace")
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes(b"from,to,value,timeStamp,tokenSymbol,hash\n"
                         b"a,b,1,5,T,h1\n"
                         b"b,c,2,6,caf\xe9,h2\n"
                         b"c,d,3,7,caf\xc3\xa9,h3\n")
    jsonl_path = tmp_path / "latin1.jsonl"
    jsonl_path.write_bytes(
        b'{"from": "a", "to": "b", "value": "1", "timeStamp": "5", '
        b'"hash": "h1"}\n'
        b'{"from": "b\xff", "to": "c", "value": "2", "timeStamp": "6", '
        b'"hash": "h2"}\n')
    g = load_graph(str(csv_path))
    assert [(e.hash, e.token) for e in g.edges] == [("h1", "T"),
                                                     ("h3", "caf\u00e9")]
    assert len(load_graph(str(jsonl_path)).edges) == 1
    assert skipped_warnings(caplog) == [
        f"skipped record 2: text 'caf\\udce9' is not UTF-8 (in {csv_path})",
        f"skipped record 2: text 'b\\udcff' is not UTF-8 (in {jsonl_path})"]


def test_load_graph_memory_per_edge(tmp_path):
    path = tmp_path / "wide.csv"
    _write_wide_edge_file(path, rows=20_000, accounts=2_000)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = load_graph(str(path))
        gc.collect()
        per_edge = (tracemalloc.get_traced_memory()[0] - start) / len(g.edges)
    finally:
        tracemalloc.stop()
    assert len(g.edges) == 20_000
    assert per_edge < MAX_BYTES_PER_EDGE, f"{per_edge:.1f} B per edge"
    edge = g.edges[0]
    assert not hasattr(edge, "__dict__")
    # One string object per account and per token, shared by its edges.
    later = g.out_edges(edge.tgt)[0]
    assert later.src is edge.tgt
    same_token = next(e for e in g.edges[1:] if e.token == edge.token)
    assert same_token.token is edge.token


def test_edges_after_strict_inequality():
    g = build_graph([
        ("u", "a", 1.0, 1, "T", "h1"),
        ("u", "b", 1.0, 3, "T", "h2"),
        ("u", "c", 1.0, 5, "T", "h3"),
    ])
    assert [e.timestamp for e in g.edges_after("u", 3)] == [5]
    assert g.edges_after("u", 5) == []
    edges, k, amount_sum = g.token_window("u", "T", "out", 3)
    assert [e.timestamp for e in edges[k:]] == [5]
    assert amount_sum == 1.0
    edges, k, amount_sum = g.token_window("u", "T", "out", 5)
    assert edges[k:] == []
    assert amount_sum == 0.0


def test_edges_after_sentinel_wildcard_returns_all():
    g = build_graph([
        ("u", "a", 1.0, 1, "T1", "h1"),
        ("u", "b", 1.0, 3, "T2", "h2"),
        ("c", "u", 1.0, 2, "T1", "h3"),
        ("d", "u", 1.0, 4, "T2", "h4"),
    ])
    assert len(g.edges_after("u", float("-inf"))) == 2
    assert len(g.edges_before("u", float("inf"))) == 2
    edges, k, amount_sum = g.token_window("u", None, "out", float("-inf"))
    assert (len(edges[k:]), amount_sum) == (2, 2.0)
    edges, k, amount_sum = g.token_window("u", None, "in", float("inf"))
    assert (len(edges[:k]), amount_sum) == (2, 2.0)


def test_edges_before_strict_inequality():
    g = build_graph([
        ("a", "u", 1.0, 1, "T", "h1"),
        ("b", "u", 1.0, 3, "T", "h2"),
    ])
    assert [e.timestamp for e in g.edges_before("u", 3)] == [1]
    edges, k, amount_sum = g.token_window("u", "T", "in", 3)
    assert [e.timestamp for e in edges[:k]] == [1]
    assert amount_sum == 1.0


def test_unknown_node_queries_empty():
    g = build_graph([("a", "b", 1.0, 1, "T", "h1")])
    assert g.edges_after("zzz", 0) == []
    assert g.edges_before("zzz", 10) == []
    for direction in ("out", "in"):
        edges, k, amount_sum = g.token_window("zzz", None, direction, 5)
        assert (len(edges), k, amount_sum) == (0, 0, 0.0)


def test_token_window_filters_token_and_sums_each_window():
    g = build_graph([
        ("u", "a", 2.0, 1, "T1", "h1"),
        ("u", "b", 0.0, 2, "T1", "h2"),
        ("u", "c", 7.0, 3, "T2", "h3"),
        ("u", "d", 0.5, 4, "T1", "h4"),
        ("x", "u", 4.0, 1, "T1", "h5"),
        ("y", "u", 3.0, 5, "T1", "h6"),
    ])
    edges, k, amount_sum = g.token_window("u", "T1", "out", 1)
    assert [e.hash for e in edges] == ["h1", "h2", "h4"]
    assert ([e.hash for e in edges[k:]], amount_sum) == (["h2", "h4"], 0.5)
    edges, k, amount_sum = g.token_window("u", "T1", "in", 5)
    assert ([e.hash for e in edges[:k]], amount_sum) == (["h5"], 4.0)
    # Every incoming edge carries T1: the list is the adjacency list.
    assert edges is g.token_window("u", None, "in", 5)[0]
    edges, k, amount_sum = g.token_window("u", "T2", "out", 3)
    assert (len(edges), k, amount_sum) == (1, 1, 0.0)


@given(seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_adjacency_invariants(seed):
    g = random_txgraph(seed, swap_rate=0.2)
    out_total = sum(len(g.out_edges(u)) for u in g.nodes)
    in_total = sum(len(g.edges_before(u, math.inf)) for u in g.nodes)
    assert out_total == in_total == len(g.edges)
    assert g.edges == sorted(g.edges, key=TransferEdge.sort_key)
    for u in g.nodes:
        for lst in (g.out_edges(u), g.edges_before(u, math.inf)):
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
        assert pattern(g, e) in (Pattern.XFER, Pattern.SWAP)
        if pattern(g, e) is Pattern.SWAP:
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
            partners = [o for o in g.edges_before(u, math.inf)
                        if o.hash == e.hash and o.token != e.token]
            assert any(g.counter_tokens(u, o) for o in partners)
