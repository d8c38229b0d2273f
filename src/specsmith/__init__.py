"""Conversational generation and mutation-based repair of JML-style specs."""

from .clauses import (
    Anchor,
    AnnotatedProgram,
    Clause,
    ClauseKind,
    extract_annotations,
    instrument,
    parse_clause,
    render_clause,
)
from .config import PipelineConfig, load_config
from .conversation import (
    EndpointConfig,
    HttpChatClient,
    ScriptedChatClient,
    build_initial_prompt,
    extract_specs,
    run_conversation,
)
from .errors import SpecError
from .evaluate import TraceRecord, eval_expr, load_trace_file
from .expr import render_expr
from .parser import parse_expr
from .mutation import (
    DEFAULT_WEIGHTS,
    Family,
    MutationKind,
    Variant,
    WeightTable,
    enumerate_variants,
)
from .pipeline import run_batch, run_pipeline, write_report
from .repair import (
    HeuristicStrategy,
    RandomStrategy,
    RepairResult,
    mutation_based_gen,
    spec_mutation,
    spec_selection,
)
from .verifier import (
    ExecConfig,
    ExecVerifier,
    FailureCategory,
    FailureReport,
    MockVerifier,
    Outcome,
    TraceVerifier,
    VerifierVerdict,
    classify_failure,
)

__version__ = "0.1.0"

__all__ = [
    "Anchor",
    "AnnotatedProgram",
    "Clause",
    "ClauseKind",
    "DEFAULT_WEIGHTS",
    "EndpointConfig",
    "ExecConfig",
    "ExecVerifier",
    "FailureCategory",
    "FailureReport",
    "Family",
    "HeuristicStrategy",
    "HttpChatClient",
    "MockVerifier",
    "MutationKind",
    "Outcome",
    "PipelineConfig",
    "RandomStrategy",
    "RepairResult",
    "ScriptedChatClient",
    "SpecError",
    "TraceRecord",
    "TraceVerifier",
    "Variant",
    "VerifierVerdict",
    "WeightTable",
    "build_initial_prompt",
    "classify_failure",
    "enumerate_variants",
    "eval_expr",
    "extract_annotations",
    "extract_specs",
    "instrument",
    "load_config",
    "load_trace_file",
    "mutation_based_gen",
    "parse_clause",
    "parse_expr",
    "render_clause",
    "render_expr",
    "run_batch",
    "run_conversation",
    "run_pipeline",
    "spec_mutation",
    "spec_selection",
    "write_report",
]
