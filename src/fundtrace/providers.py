"""Edge providers: where expansion gets the edges incident to an account.

The file provider indexes a fully ingested edge file. The HTTP provider
speaks the Etherscan account API (txlist + tokentx) with retry, pacing,
and an on-disk response cache so reruns are reproducible.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from pathlib import Path
from typing import Protocol

import requests

from .graph import TransferEdge, load_graph, parse_records

API_KEY_ENV = "FUNDTRACE_API_KEY"

log = logging.getLogger("fundtrace")


class ProviderError(RuntimeError):
    pass


class EdgeProvider(Protocol):
    def fetch_edges(self, account: str) -> list[TransferEdge]: ...


class GraphProvider:
    """An in-memory graph; fetch_edges is an index lookup."""

    def __init__(self, graph):
        self.graph = graph
        self.calls = 0

    def fetch_edges(self, account: str) -> list[TransferEdge]:
        self.calls += 1
        return self.graph.incident_edges(account)


class FileProvider(GraphProvider):
    """The graph of a fully ingested edge file."""

    def __init__(self, path: str, *, chain_symbol: str = "ETH"):
        super().__init__(load_graph(path, chain_symbol=chain_symbol))

    # bench/tracing.py wraps vars(cls)["fetch_edges"], or raises LookupError.
    fetch_edges = GraphProvider.fetch_edges


class HttpProvider:
    """Etherscan-compatible account API client.

    Queries module=account with action=txlist (native currency) and
    action=tokentx (token transfers). Responses are cached on disk keyed
    by (base URL, account, action) so a rerun against the same cache is
    deterministic and offline.
    """

    RETRIES = 3
    BACKOFF = 1.0

    def __init__(self, base_url: str, *, chain_symbol: str = "ETH",
                 cache_dir: str | None = None, api_key: str | None = None,
                 pacing: float = 0.2, session: requests.Session | None = None):
        self.base_url = base_url.rstrip("/")
        self.chain_symbol = chain_symbol
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.pacing = pacing
        self.session = session or requests.Session()
        self.calls = 0
        self._last_request = 0.0

    def _cache_path(self, account: str, action: str) -> Path | None:
        if not self.cache_dir:
            return None
        digest = hashlib.sha256(
            f"{self.base_url}:{account}:{action}".encode()).hexdigest()[:24]
        return self.cache_dir / f"{action}_{digest}.json"

    @staticmethod
    def _read_cache(path: Path) -> list[dict]:
        try:
            result = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ProviderError(f"unreadable cache file {path}: {exc}") from exc
        if not isinstance(result, list):
            raise ProviderError(f"cache file {path} does not hold a JSON list")
        return result

    @staticmethod
    def _write_cache(path: Path, result: list[dict]) -> None:
        """Write through a temporary file, so that a crash mid-write never
        leaves a truncated cache file behind."""
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(result, sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _request(self, account: str, action: str) -> list[dict]:
        cache = self._cache_path(account, action)
        if cache is not None and cache.exists():
            return self._read_cache(cache)
        params = {
            "module": "account",
            "action": action,
            "address": account,
            "sort": "asc",
            "apikey": self.api_key,
        }
        last_error: Exception | None = None
        for attempt in range(1, self.RETRIES + 1):
            if last_error is not None:
                backoff = self.BACKOFF * 2 ** (attempt - 2)
                log.warning("%s for %s: attempt %d of %d failed (%s); "
                            "retrying in %.1f s", action, account, attempt - 1,
                            self.RETRIES, last_error, backoff)
                time.sleep(backoff)
            wait = self.pacing - (time.monotonic() - self._last_request)
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()
            try:
                self.calls += 1
                resp = self.session.get(self.base_url, params=params, timeout=30)
                resp.raise_for_status()
                payload = resp.json()
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
                continue
            # A rate limit or a bad key comes back as message NOTOK: an
            # error, never an empty account.
            if (not isinstance(payload, dict)
                    or payload.get("message") == "NOTOK"):
                last_error = ProviderError(f"bad response: {payload}")
                continue
            result = payload.get("result")
            if not isinstance(result, list):
                # "No transactions found" comes back as status 0.
                if str(payload.get("status")) != "0":
                    last_error = ProviderError(f"bad response: {payload}")
                    continue
                result = []
            if cache is not None:
                self._write_cache(cache, result)
            return result
        raise ProviderError(f"{action} failed for {account} after "
                            f"{self.RETRIES} attempts: {last_error}")

    def fetch_edges(self, account: str) -> list[TransferEdge]:
        edges: list[TransferEdge] = []
        for action in ("txlist", "tokentx"):
            edges += parse_records(self._request(account, action),
                                   self.chain_symbol,
                                   name=f"{action} for {account}")
        return edges
