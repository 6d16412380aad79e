"""Command-line entry points.

trace    — trace one source through a file or HTTP provider
compare  — run every method over planted cases and tabulate the metrics
gen-case — write a planted case spec (and optionally its edge file)
"""
from __future__ import annotations

import csv
import json
import statistics
import sys
from pathlib import Path

import click

from . import metrics
from .cases import CaseSpec, case_records, generate_planted_case
from .export import write_graphml, write_json
from .providers import FileProvider, GraphProvider, HttpProvider, ProviderError
from .runner import METHODS, RunConfig, evaluate, run_method

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_NOT_CONVERGED = 4

TOPN_POINTS = [1, 5, 10, 25, 50, 100, 200]


def _fail(code: int, kind: str, message: str):
    click.echo(json.dumps({"error": kind, "message": message}), err=True)
    sys.exit(code)


def _load_config(config_path: str | None, overrides: dict) -> dict:
    merged: dict = {}
    if config_path:
        merged.update(json.loads(Path(config_path).read_text()))
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return merged


def _make_provider(spec: str, chain_symbol: str, cache_dir: str | None):
    if spec.startswith(("http://", "https://")):
        return HttpProvider(spec, chain_symbol=chain_symbol,
                            cache_dir=cache_dir)
    return FileProvider(spec, chain_symbol=chain_symbol)


@click.group()
def main():
    """Trace money flows through account-based blockchain transaction
    graphs."""


@main.command()
@click.option("--method", type=click.Choice(METHODS), default=None)
@click.option("--source", default=None)
@click.option("--provider", "provider_spec", default=None,
              help="Edge file path or Etherscan-compatible API base URL.")
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--phi", type=float, default=None)
@click.option("--depth", type=int, default=None)
@click.option("--cutoff", type=float, default=None)
@click.option("--budget", type=int, default=None,
              help="ttr: maximum number of pops (at least 1).")
@click.option("--hub-cap", type=int, default=None)
@click.option("--out", "out_path", default=None)
@click.option("--format", "out_format", type=click.Choice(["json", "graphml"]),
              default=None)
@click.option("--chain-symbol", default=None)
@click.option("--cache-dir", default=None)
@click.option("--config", "config_path", default=None,
              help="JSON config file with the same keys; flags override.")
def trace(method, source, provider_spec, alpha, beta, epsilon, phi, depth,
          cutoff, budget, hub_cap, out_path, out_format, chain_symbol,
          cache_dir, config_path):
    """Trace from --source and write the result graph plus provenance."""
    try:
        cfg = _load_config(config_path, {
            "method": method, "source": source, "provider": provider_spec,
            "alpha": alpha, "beta": beta, "epsilon": epsilon, "phi": phi,
            "depth": depth, "cutoff": cutoff, "budget": budget,
            "hub_cap": hub_cap, "out": out_path, "format": out_format,
            "chain_symbol": chain_symbol, "cache_dir": cache_dir,
        })
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_CONFIG, "config-error", str(exc))

    source = cfg.get("source")
    provider_spec = cfg.get("provider")
    out_path = cfg.get("out", "trace_result.json")
    out_format = cfg.get("format", "json")
    if not source or not provider_spec:
        _fail(EXIT_CONFIG, "config-error", "--source and --provider are required")

    run_cfg = RunConfig(
        method=cfg.get("method", "ttr"),
        alpha=cfg.get("alpha", 0.15), beta=cfg.get("beta", 0.7),
        epsilon=cfg.get("epsilon", 1e-3), phi=cfg.get("phi", 1e-3),
        depth=cfg.get("depth", 2), cutoff=cfg.get("cutoff", 0.001),
        budget=cfg.get("budget"), hub_cap=cfg.get("hub_cap"),
    )
    try:
        run_cfg.validate()
    except ValueError as exc:
        _fail(EXIT_CONFIG, "config-error", str(exc))

    try:
        provider = _make_provider(provider_spec,
                                  cfg.get("chain_symbol", "ETH"),
                                  cfg.get("cache_dir"))
        result = run_method(source.lower(), provider, run_cfg)
    except ProviderError as exc:
        _fail(EXIT_PROVIDER, "provider-error", str(exc))
    except (OSError, ValueError) as exc:
        _fail(EXIT_CONFIG, "config-error", str(exc))

    if result.trace is not None and result.trace.termination == "provider-error":
        _fail(EXIT_PROVIDER, "provider-error", "expansion aborted mid-trace")

    provenance = dict(result.provenance)
    provenance["config"] = {
        "method": run_cfg.method, "source": source.lower(),
        "provider": provider_spec, "alpha": run_cfg.alpha,
        "beta": run_cfg.beta, "epsilon": run_cfg.epsilon, "phi": run_cfg.phi,
        "depth": run_cfg.depth, "cutoff": run_cfg.cutoff,
        "budget": run_cfg.budget, "hub_cap": run_cfg.hub_cap,
        "chain_symbol": cfg.get("chain_symbol", "ETH"),
        "format": out_format,
    }

    graph = result.output_graph()
    residuals = {}
    if result.trace is not None:
        for node, _ts, _tok, value in result.trace.ledger.items():
            residuals[node] = residuals.get(node, 0.0) + value
    community = (set(result.community.members)
                 if result.community is not None else None)
    if out_format == "graphml":
        write_graphml(out_path, graph, rank=result.scores,
                      residuals=residuals, source=source.lower(),
                      community=community)
    else:
        write_json(out_path, graph, rank=result.scores, residuals=residuals,
                   source=source.lower(), community=community,
                   provenance=provenance)
    prov_path = f"{out_path}.provenance.json"
    Path(prov_path).write_text(
        json.dumps(provenance, sort_keys=True, indent=1) + "\n")
    # Timings are log output only: result files must be reproducible.
    click.echo(f"runtime_s={result.runtime_s:.3f} wrote {out_path}", err=True)

    if result.community is not None and not result.community.converged:
        sys.exit(EXIT_NOT_CONVERGED)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--cases", "cases_path", required=True,
              help="Case spec JSON file or a directory of them.")
@click.option("--out", "out_path", default="compare_report.json")
@click.option("--alpha", type=float, default=0.15)
@click.option("--beta", type=float, default=0.7)
@click.option("--epsilon", type=float, default=1e-3)
@click.option("--phi", type=float, default=1e-3)
@click.option("--depth", type=int, default=2)
@click.option("--cutoff", type=float, default=0.001)
def compare(cases_path, out_path, alpha, beta, epsilon, phi, depth, cutoff):
    """Run all methods on each planted case and write a report table."""
    root = Path(cases_path)
    spec_files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    if not spec_files:
        _fail(EXIT_CONFIG, "config-error", f"no case specs under {cases_path}")

    report = {"parameters": {"alpha": alpha, "beta": beta, "epsilon": epsilon,
                             "phi": phi, "depth": depth, "cutoff": cutoff},
              "cases": [], "errors": []}
    for path in spec_files:
        try:
            case = generate_planted_case(CaseSpec.from_json(path.read_text()))
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            report["errors"].append({"case": path.name, "error": str(exc)})
            continue
        row = {"case": path.name, "spec": json.loads(case.spec.to_json()),
               "methods": [], "topn": {}}
        for method in METHODS:
            cfg = RunConfig(method=method, alpha=alpha, beta=beta,
                            epsilon=epsilon, phi=phi, depth=depth,
                            cutoff=cutoff)
            try:
                result = run_method(case.source, GraphProvider(case.graph), cfg)
            except (ValueError, RuntimeError) as exc:
                report["errors"].append({"case": path.name, "method": method,
                                         "error": str(exc)})
                continue
            row["methods"].append(evaluate(result, case.source, case.targets))
            if method in ("ttr", "appr", "haircut"):
                row["topn"][method] = metrics.topn_curve(
                    result.scores, case.targets, TOPN_POINTS)
        report["cases"].append(row)

    aggregates = {}
    for method in METHODS:
        rows = [m for row in report["cases"] for m in row["methods"]
                if m["method"] == method]
        if rows:
            aggregates[method] = {
                "recall": statistics.mean(r["recall"] for r in rows),
                "nodes": statistics.mean(r["nodes"] for r in rows),
                "depth": statistics.mean(r["depth"] for r in rows),
            }
    report["aggregate"] = aggregates
    Path(out_path).write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    click.echo(f"wrote {out_path} ({len(report['cases'])} cases)", err=True)


@main.command("gen-case")
@click.option("--seed", type=int, default=0)
@click.option("--layers", type=int, default=5)
@click.option("--fan-out", type=int, default=3)
@click.option("--targets", "target_count", type=int, default=3)
@click.option("--swap-prob", type=float, default=0.3)
@click.option("--noise-rate", type=float, default=2.0)
@click.option("--hubs", type=int, default=1)
@click.option("--out", "out_path", default="case.json")
@click.option("--edges-out", default=None,
              help="Also write the generated edges as an ingestable CSV.")
def gen_case(seed, layers, fan_out, target_count, swap_prob, noise_rate,
             hubs, out_path, edges_out):
    """Generate a planted case spec (deterministic under --seed)."""
    spec = CaseSpec(seed=seed, layers=layers, fan_out=fan_out,
                    target_count=target_count,
                    swap_hop_probability=swap_prob, noise_rate=noise_rate,
                    hub_count=hubs)
    try:
        case = generate_planted_case(spec)
    except ValueError as exc:
        _fail(EXIT_CONFIG, "config-error", str(exc))
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
