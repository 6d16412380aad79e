"""Command-line entry points.

trace    — trace one source through a file or HTTP provider
compare  — run every method over planted cases and tabulate the metrics
gen-case — write a planted case spec (and optionally its edge file)
"""
from __future__ import annotations

import csv
import dataclasses
import errno
import json
import os
import statistics
import sys
from pathlib import Path

import click

from .cases import CaseSpec, case_records, generate_planted_case
from .export import write_trace
from .graph import normalize_account
from .providers import FileProvider, HttpProvider, ProviderError
# The benchmark's compare workload imports TOPN_POINTS from here.
from .runner import METHODS, TOPN_POINTS, RunConfig, compare_case, run_method

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_NOT_CONVERGED = 4


def _read_config(ctx: click.Context, _param, path: str | None) -> None:
    """Make a JSON config file the defaults of ``ctx``'s parameters, so
    click converts and checks its values exactly as it does flags."""
    if path is None:
        return
    ctx.meta["fundtrace.config"] = path
    loaded = json.loads(Path(path).read_text())
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: not a JSON object")
    unknown = sorted(set(loaded) - {p.name for p in ctx.command.params
                                    if p.expose_value})
    if unknown:
        raise ValueError(f"{path}: unknown key {unknown[0]!r}")
    # Values go in as text, as flags do: click's int type would truncate
    # a JSON 2.5 to 2 and read true as 1.
    ctx.default_map = {k: None if v is None else str(v)
                       for k, v in loaded.items()}


def _check_out(_ctx, _param, path: str | None) -> str | None:
    """Refuse, before the command does any work, an output path that
    ``open(path, "w")`` would refuse for where it is, with its error: an
    empty path, a parent that is missing or not a directory, an existing
    directory, or a path ending in a separator. Neither creates the file
    nor needs write permission on the directory."""
    if path is None:
        return None
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    try:
        # The trailing separator makes a regular file fail as ENOTDIR.
        os.stat(os.path.join(os.path.dirname(path.rstrip(os.sep)) or ".", ""))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    if os.path.isdir(path) or path.endswith(os.sep):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return path


def _same_file(a: str | Path, b: str | Path) -> bool:
    """Whether ``a`` and ``b`` name one file: by device and inode when
    both exist, so a hard link counts, by resolved path otherwise."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return Path(a).resolve() == Path(b).resolve()


def _make_provider(spec: str, chain_symbol: str, cache_dir: str | None):
    if spec.startswith(("http://", "https://")):
        return HttpProvider(spec, chain_symbol=chain_symbol,
                            cache_dir=cache_dir)
    return FileProvider(spec, chain_symbol=chain_symbol)


def _shared_options(command):
    """The method parameters that trace and compare both take."""
    for name, kind in reversed([("alpha", float), ("beta", float),
                                ("epsilon", float), ("phi", float),
                                ("depth", int), ("cutoff", float)]):
        command = click.option(f"--{name}", type=kind, default=None)(command)
    return command


class _Commands(click.Group):
    """The one place an error becomes an exit code. Commands raise; a
    file that cannot be read or written (a config, edge, case or output
    file) or a value out of range ends as ``config-error``, exit 2, and a
    provider failure as ``provider-error``, exit 3, each printed as one
    JSON line on stderr."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (OSError, ValueError) as exc:
            code, kind, message = EXIT_CONFIG, "config-error", str(exc)
        except ProviderError as exc:
            code, kind, message = EXIT_PROVIDER, "provider-error", str(exc)
        click.echo(json.dumps({"error": kind, "message": message}), err=True)
        sys.exit(code)


@click.group(cls=_Commands)
def main():
    """Trace money flows through account-based blockchain transaction
    graphs."""


@main.command()
@click.option("--method", type=click.Choice(METHODS), default=None)
@click.option("--source", default=None)
@click.option("--provider", default=None,
              help="Edge file path or Etherscan-compatible API base URL.")
@_shared_options
@click.option("--budget", type=int, default=None,
              help="ttr: maximum number of pops (at least 1).")
@click.option("--hub-cap", type=int, default=None,
              help="ttr: edges kept per fetched account (at least 1).")
@click.option("--out", default="trace_result.json", callback=_check_out)
@click.option("--format", type=click.Choice(["json", "graphml"]),
              default="json")
@click.option("--chain-symbol", default="ETH")
@click.option("--cache-dir", default=None)
@click.option("--config", callback=_read_config, is_eager=True,
              expose_value=False,
              help="JSON config file with the same keys; flags override.")
def trace(source, provider, out, format, chain_symbol, cache_dir, **params):
    """Trace from --source and write the result graph plus provenance."""
    if not source or not provider:
        raise ValueError("--source and --provider are required")
    # No output may replace a file the run reads; a URL names no file.
    config = click.get_current_context().meta.get("fundtrace.config")
    for what, path in (("--config", config), ("--provider", provider)):
        if path and os.path.isfile(path) and any(
                _same_file(path, w) for w in (out, f"{out}.provenance.json")):
            raise ValueError(f"--out {out} would overwrite {what} {path}")
    run_cfg = RunConfig(**{k: v for k, v in params.items() if v is not None})
    source = normalize_account(source)
    run_cfg.validate()
    edge_provider = _make_provider(provider, chain_symbol, cache_dir)
    result = run_method(source, edge_provider, run_cfg)

    write_trace(out, result, format, {**result.provenance, "config": {
        **dataclasses.asdict(run_cfg), "source": source, "provider": provider,
        "chain_symbol": chain_symbol, "format": format}})
    # Timings are log output only: result files must be reproducible.
    click.echo(f"runtime_s={result.runtime_s:.3f} wrote {out}", err=True)

    if result.community is not None and not result.community.converged:
        sys.exit(EXIT_NOT_CONVERGED)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--cases", "cases_path", required=True,
              help="Case spec JSON file or a directory of them.")
@click.option("--out", "out_path", default="compare_report.json",
              callback=_check_out)
@_shared_options
def compare(cases_path, out_path, **params):
    """Run all methods on each planted case and write a report table."""
    root = Path(cases_path)
    # A report is not a spec: the --out file is never read as one.
    specs = sorted(root.glob("*.json")) if root.is_dir() else [root]
    spec_files = [p for p in specs if not _same_file(p, out_path)]
    if not spec_files:
        raise ValueError(f"no case specs under {cases_path}")

    base = RunConfig(**{k: v for k, v in params.items() if v is not None})
    base.validate()
    report = {"parameters": {k: getattr(base, k) for k in params},
              "cases": [], "errors": []}
    runtime = dict.fromkeys(METHODS, 0.0)
    for path in spec_files:
        try:
            case = generate_planted_case(CaseSpec.from_json(path.read_text()))
        except (ValueError, TypeError) as exc:
            report["errors"].append({"case": path.name, "error": str(exc)})
            continue
        row, errors, seconds = compare_case(case, base)
        report["cases"].append({"case": path.name, **row})
        report["errors"] += [{"case": path.name, "method": m, "error": e}
                             for m, e in errors.items()]
        for method, s in seconds.items():
            runtime[method] += s

    report["aggregate"] = {
        method: {key: statistics.mean(r[key] for r in rows)
                 for key in ("recall", "nodes", "depth")}
        for method in METHODS
        if (rows := [m for row in report["cases"] for m in row["methods"]
                     if m["method"] == method])}
    Path(out_path).write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    timings = " ".join(f"{m} runtime_s={s:.3f}" for m, s in runtime.items())
    click.echo(f"{timings} wrote {out_path} ({len(report['cases'])} cases)",
               err=True)


@main.command("gen-case")
@click.option("--seed", type=int, default=None)
@click.option("--layers", type=int, default=None)
@click.option("--fan-out", type=int, default=None)
@click.option("--targets", "target_count", type=int, default=None)
@click.option("--swap-prob", "swap_hop_probability", type=float, default=None)
@click.option("--noise-rate", type=float, default=None)
@click.option("--hubs", "hub_count", type=int, default=None)
@click.option("--out", "out_path", default="case.json", callback=_check_out)
@click.option("--edges-out", default=None, callback=_check_out,
              help="Also write the generated edges as an ingestable CSV.")
def gen_case(out_path, edges_out, **fields):
    """Generate a planted case spec (deterministic under --seed)."""
    if edges_out and _same_file(edges_out, out_path):
        raise ValueError(f"--out and --edges-out are one file: {out_path}")
    spec = CaseSpec(**{k: v for k, v in fields.items() if v is not None})
    case = generate_planted_case(spec)
    Path(out_path).write_text(spec.to_json() + "\n")
    if edges_out:
        records = case_records(case)
        with open(edges_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(records[0].keys()))
            writer.writeheader()
            writer.writerows(records)
    click.echo(f"wrote {out_path}; source={case.source} "
               f"targets={sorted(case.targets)}", err=True)


if __name__ == "__main__":
    main()
