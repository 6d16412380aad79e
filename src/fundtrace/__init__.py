"""Money-flow tracing over account-based blockchain transaction graphs."""

from .cases import CaseSpec, PlantedCase, generate_planted_case
from .community import Community, conductance, extract_community
from .expansion import TraceResult, run_expansion
from .graph import (Pattern, TransactionGraph, TransferEdge,
                    classify_patterns, ingest_records, load_graph)
from .metrics import recall, topn_recall, tracing_depth
from .providers import FileProvider, GraphProvider, HttpProvider
from .runner import RunConfig, run_case_graph, run_method
from .ttr import TraceParams, local_push

__all__ = [
    "CaseSpec", "Community", "FileProvider", "GraphProvider",
    "HttpProvider", "Pattern", "PlantedCase", "RunConfig", "TraceParams",
    "TraceResult", "TransactionGraph", "TransferEdge", "classify_patterns",
    "conductance", "extract_community", "generate_planted_case",
    "ingest_records", "load_graph", "local_push", "recall",
    "run_case_graph", "run_expansion", "run_method", "topn_recall",
    "tracing_depth",
]

__version__ = "0.1.0"
