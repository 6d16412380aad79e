import json
import logging

import pytest

from fundtrace.providers import (API_KEY_ENV, FileProvider, HttpProvider,
                                 ProviderError)


def record(src, tgt, value, ts, token="USDT", h="0xabc"):
    return {"from": src, "to": tgt, "value": str(value),
            "timeStamp": str(ts), "tokenSymbol": token, "hash": h}


class FakeResponse:
    def __init__(self, payload, status_code=200):
        self.payload = payload
        self.status_code = status_code

    def raise_for_status(self):
        if self.status_code >= 400:
            import requests
            raise requests.HTTPError(f"{self.status_code}")

    def json(self):
        if isinstance(self.payload, Exception):
            raise self.payload
        return self.payload


class FakeSession:
    """Scripted responses keyed by (address, action); repeats last entry."""

    def __init__(self, script):
        self.script = dict(script)
        self.requests = []

    def get(self, url, params=None, timeout=None):
        key = (params["address"], params["action"])
        self.requests.append(key)
        queue = self.script.get(key, [FakeResponse({"status": "0",
                                                    "result": "none"})])
        resp = queue[0]
        if len(queue) > 1:
            self.script[key] = queue[1:]
        return resp


def ok(records):
    return FakeResponse({"status": "1", "result": records})


def make_provider(script, tmp_path=None, base_url="https://api.example/api",
                  **kw):
    session = FakeSession(script)
    kw.setdefault("pacing", 0.0)
    provider = HttpProvider(base_url, session=session,
                            cache_dir=str(tmp_path) if tmp_path else None,
                            api_key="k", **kw)
    provider.BACKOFF = 0.0
    return provider, session


class TestHttpProvider:
    def test_fetch_merges_native_and_token_actions(self):
        script = {
            ("a", "txlist"): [ok([record("a", "b", 5, 10, token=None,
                                         h="0x1")])],
            ("a", "tokentx"): [ok([record("a", "c", 7, 20, h="0x2")])],
        }
        provider, _ = make_provider(script)
        edges = provider.fetch_edges("a")
        assert {(e.tgt, e.token) for e in edges} == {("b", "ETH"),
                                                     ("c", "USDT")}

    def test_token_symbol_defaults_to_chain(self):
        script = {("a", "txlist"): [ok([record("a", "b", 5, 10, token="",
                                               h="0x1")])]}
        provider, _ = make_provider(script, chain_symbol="BNB")
        edges = provider.fetch_edges("a")
        assert edges[0].token == "BNB"

    def test_malformed_rows_skipped(self):
        script = {("a", "txlist"): [ok([
            record("a", "b", 5, 10, h="0x1"),
            {"from": "a", "to": "c"},  # missing fields
            record("a", "d", "oops", 30, h="0x3"),  # bad value
            record("a", "e", 2, 40, h="0x4"),
        ])]}
        provider, _ = make_provider(script)
        edges = provider.fetch_edges("a")
        assert [e.tgt for e in edges] == ["b", "e"]

    def test_bad_row_logged_at_warning(self, caplog):
        caplog.set_level(logging.WARNING, logger="fundtrace")
        script = {("a", "tokentx"): [ok([
            record("a", "b", 5, 10, h="0x1"),
            record("a", "c", 6, -20, h="0x2"),  # negative timestamp
            record("a", "d", 7, 30, h="0x3"),
        ])]}
        provider, _ = make_provider(script)
        edges = provider.fetch_edges("a")
        assert [e.tgt for e in edges] == ["b", "d"]
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert warnings == [
            "skipped record 2: negative timestamp -20 (in tokentx for a)"]

    def test_retry_then_success(self):
        import requests
        script = {("a", "txlist"): [
            FakeResponse(None, status_code=500),
            FakeResponse(requests.JSONDecodeError("bad", "", 0)),
            ok([record("a", "b", 5, 10, h="0x1")]),
        ]}
        provider, session = make_provider(script)
        edges = provider.fetch_edges("a")
        assert [e.tgt for e in edges] == ["b"]
        assert session.requests.count(("a", "txlist")) == 3

    def test_retries_exhausted_raises(self):
        script = {("a", "txlist"): [FakeResponse(None, status_code=503)]}
        provider, session = make_provider(script)
        with pytest.raises(ProviderError):
            provider.fetch_edges("a")
        assert session.requests.count(("a", "txlist")) == HttpProvider.RETRIES

    def test_backoff_only_between_attempts(self, monkeypatch, caplog):
        import requests

        class DeadSession:
            def get(self, url, params=None, timeout=None):
                raise requests.ConnectionError("connection refused")

        sleeps = []
        monkeypatch.setattr("fundtrace.providers.time.sleep", sleeps.append)
        provider = HttpProvider("https://api.example/api",
                                session=DeadSession(), pacing=0.0)
        with caplog.at_level("WARNING", logger="fundtrace"):
            with pytest.raises(ProviderError, match="after 3 attempts"):
                provider.fetch_edges("a")
        assert provider.calls == HttpProvider.RETRIES == 3
        assert sleeps == [1.0, 2.0]
        retries = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(retries) >= 2
        assert "attempt 1 of 3" in retries[0].getMessage()
        assert "connection refused" in retries[0].getMessage()

    def test_non_object_body_is_a_provider_error(self, monkeypatch):
        from click.testing import CliRunner

        import fundtrace.cli as cli_mod

        not_a_dict = FakeResponse(["not", "a", "dict"])
        provider, session = make_provider({("a", "txlist"): [not_a_dict]})
        with pytest.raises(ProviderError, match="bad response"):
            provider.fetch_edges("a")
        assert session.requests.count(("a", "txlist")) == HttpProvider.RETRIES

        script = {("a", "txlist"): [not_a_dict,
                                    ok([record("a", "b", 5, 10, h="0x1")])]}
        provider, session = make_provider(script)
        assert [e.tgt for e in provider.fetch_edges("a")] == ["b"]
        assert session.requests.count(("a", "txlist")) == 2

        monkeypatch.setattr(cli_mod, "HttpProvider", lambda base_url, **kw:
                            make_provider({("a", "txlist"): [not_a_dict]})[0])
        res = CliRunner().invoke(cli_mod.main, [
            "trace", "--source", "a", "--provider", "https://api.example/api"])
        assert res.exit_code == cli_mod.EXIT_PROVIDER, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "provider-error"

    def test_failure_after_the_source_names_its_account(self, monkeypatch,
                                                         tmp_path):
        from click.testing import CliRunner

        import fundtrace.cli as cli_mod

        script = {("a", "txlist"): [ok([record("a", "b", 5, 10, h="0x1")])],
                  ("b", "txlist"): [FakeResponse(None, status_code=503)]}
        sessions = []

        def scripted_http(base_url, **kwargs):
            provider, session = make_provider(script)
            sessions.append(session)
            return provider

        monkeypatch.setattr(cli_mod, "HttpProvider", scripted_http)
        out = tmp_path / "out.json"
        res = CliRunner().invoke(cli_mod.main, [
            "trace", "--source", "a", "--provider", "https://api.example/api",
            "--out", str(out)])
        assert res.exit_code == cli_mod.EXIT_PROVIDER, res.output
        assert json.loads(res.stderr.strip().splitlines()[-1]) == {
            "error": "provider-error",
            "message": "txlist failed for b after 3 attempts: 503"}
        assert sessions[0].requests.count(("b", "txlist")) == 3
        assert not out.exists()

    def test_status_zero_means_empty(self):
        script = {("a", "txlist"): [FakeResponse({"status": "0",
                                                  "result": "No transactions found"})],
                  ("a", "tokentx"): [FakeResponse({"status": "0",
                                                   "result": None})]}
        provider, _ = make_provider(script)
        assert provider.fetch_edges("a") == []

    def test_status_one_without_a_list_is_retried_then_raises(self):
        odd = FakeResponse({"status": "1", "message": "OK", "result": "x"})
        provider, session = make_provider({("a", "txlist"): [odd]})
        with pytest.raises(ProviderError, match="bad response"):
            provider.fetch_edges("a")
        assert session.requests.count(("a", "txlist")) == HttpProvider.RETRIES

    def test_pacing_spaces_requests(self, monkeypatch):
        clock, sleeps = [100.0], []

        def sleep(seconds):
            sleeps.append(seconds)
            clock[0] += seconds

        monkeypatch.setattr("fundtrace.providers.time.monotonic",
                            lambda: clock[0])
        monkeypatch.setattr("fundtrace.providers.time.sleep", sleep)
        provider, session = make_provider({}, pacing=0.25)
        assert provider.fetch_edges("a") == []
        assert session.requests == [("a", "txlist"), ("a", "tokentx")]
        assert sleeps == [0.25]

    def test_rate_limit_is_retried_and_never_cached(self, tmp_path):
        notok = FakeResponse({"status": "0", "message": "NOTOK",
                              "result": "Max rate limit reached"})
        script = {("a", "txlist"): [notok, notok,
                                    ok([record("a", "b", 5, 10, h="0x1")])],
                  ("a", "tokentx"): [ok([])]}
        provider, session = make_provider(script, tmp_path / "ok")
        assert [e.tgt for e in provider.fetch_edges("a")] == ["b"]
        assert session.requests.count(("a", "txlist")) == 3
        [txlist] = (tmp_path / "ok").glob("txlist_*.json")
        assert len(json.loads(txlist.read_text())) == 1

        provider, session = make_provider({("a", "txlist"): [notok] * 3},
                                          tmp_path / "refused")
        with pytest.raises(ProviderError, match="Max rate limit reached"):
            provider.fetch_edges("a")
        assert session.requests.count(("a", "txlist")) == HttpProvider.RETRIES
        assert list((tmp_path / "refused").iterdir()) == []

    def test_cache_is_kept_per_api(self, tmp_path):
        script = {("a", "txlist"): [ok([record("a", "b", 5, 10, h="0x1")])],
                  ("a", "tokentx"): [ok([])]}
        first, _ = make_provider(script, tmp_path)
        assert [e.tgt for e in first.fetch_edges("a")] == ["b"]
        other, session = make_provider({}, tmp_path,
                                       base_url="https://other.example/api")
        assert other.fetch_edges("a") == []
        assert session.requests == [("a", "txlist"), ("a", "tokentx")]
        assert len(list(tmp_path.glob("txlist_*.json"))) == 2
        # Each provider still reads its own files back.
        again, session = make_provider({}, tmp_path)
        assert [e.tgt for e in again.fetch_edges("a")] == ["b"]
        assert session.requests == []

    def test_cache_round_trip_skips_network(self, tmp_path):
        script = {("a", "txlist"): [ok([record("a", "b", 5, 10, h="0x1")])],
                  ("a", "tokentx"): [ok([])]}
        provider, session = make_provider(script, tmp_path)
        first = provider.fetch_edges("a")
        calls_after_first = len(session.requests)

        # fresh provider with an empty session must serve from cache
        cold, cold_session = make_provider({}, tmp_path)
        second = cold.fetch_edges("a")
        assert cold_session.requests == []
        assert cold.calls == 0
        assert [e.sort_key() for e in second] == [e.sort_key() for e in first]
        assert len(session.requests) == calls_after_first

    def test_cache_files_are_canonical_json(self, tmp_path):
        script = {("a", "txlist"): [ok([record("a", "b", 5, 10, h="0x1")])],
                  ("a", "tokentx"): [ok([])]}
        provider, _ = make_provider(script, tmp_path)
        provider.fetch_edges("a")
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 2
        # written through a temporary file, which is gone afterwards
        assert sorted(tmp_path.iterdir()) == files
        for f in files:
            data = json.loads(f.read_text())
            assert f.read_text() == json.dumps(data, sort_keys=True)

    def test_truncated_cache_file_is_a_provider_error(self, tmp_path,
                                                      monkeypatch):
        from click.testing import CliRunner

        import fundtrace.cli as cli_mod

        script = {("a", "txlist"): [ok([record("a", "b", 5, 10, h="0x1")])],
                  ("a", "tokentx"): [ok([])]}
        provider, _ = make_provider(script, tmp_path)
        provider.fetch_edges("a")
        [txlist] = tmp_path.glob("txlist_*.json")
        txlist.write_bytes(txlist.read_bytes()[:10])

        sessions = []

        def offline_http(base_url, **kwargs):
            provider, session = make_provider({}, tmp_path)
            sessions.append(session)
            return provider

        monkeypatch.setattr(cli_mod, "HttpProvider", offline_http)
        res = CliRunner().invoke(cli_mod.main, [
            "trace", "--source", "a", "--provider", "https://api.example/api",
            "--cache-dir", str(tmp_path), "--out", str(tmp_path / "out.json")])
        assert res.exit_code == cli_mod.EXIT_PROVIDER, res.output
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "provider-error"
        assert str(txlist) in err["message"]
        assert sessions[0].requests == []

    def test_cache_file_not_a_list_is_a_provider_error(self, tmp_path):
        provider, session = make_provider({}, tmp_path)
        cache = provider._cache_path("a", "txlist")
        cache.write_text("{}")
        with pytest.raises(ProviderError) as err:
            provider.fetch_edges("a")
        assert str(err.value) == f"cache file {cache} does not hold a JSON list"
        assert session.requests == []

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "secret")
        session = FakeSession({})
        provider = HttpProvider("https://api.example/api", session=session,
                                pacing=0.0)
        assert provider.api_key == "secret"


class TestFileProvider:
    def test_incident_lookup(self, tmp_path):
        path = tmp_path / "edges.jsonl"
        rows = [record("a", "b", 5, 10, h="0x1"),
                record("b", "c", 3, 20, h="0x2")]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        provider = FileProvider(str(path))
        edges = provider.fetch_edges("b")
        assert {(e.src, e.tgt) for e in edges} == {("a", "b"), ("b", "c")}
        assert provider.fetch_edges("zzz") == []
        assert provider.calls == 2
