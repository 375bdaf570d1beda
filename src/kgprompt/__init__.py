"""kgprompt: knowledge-graph structure extraction, verbalization and
prompt assembly for pairwise causal relation classification.

The pipeline turns structural information around a variable pair (neighbor
nodes, common neighbor nodes, metapaths) into natural-language graph
contexts, assembles architecture-specific prompts, and runs a seeded
few-shot / 5-fold evaluation protocol against any prompt-consuming
inference backend.
"""

from .backend import (
    HttpEndpoint,
    InferenceRequest,
    InferenceResponse,
    PredictionRecord,
    predict_http,
    predict_mock,
)
from .dataset import (
    CAUSAL,
    NON_CAUSAL,
    FewShotConfig,
    FoldPlan,
    Instance,
    Span,
    kfold_split,
    load_dataset_jsonl,
    make_fold_plan,
    sample_few_shot,
)
from .graph import Edge, KnowledgeGraph, Node
from .ingest import IngestReport, export_edge_list_jsonl, load_edge_list_jsonl, load_hetionet_json
from .linking import PairLinkage, link_pairs
from .metrics import (
    Confusion,
    FoldReport,
    Metrics,
    aggregate_folds,
    compute_metrics,
    read_predictions_jsonl,
)
from .pipeline import ExperimentConfig, FoldConfig, KgSource, MockBackend, run_experiment, validate_config
from .prompts import (
    Architecture,
    LabelMapping,
    PromptInstance,
    TruncationPolicy,
    build_prompt,
    export_prompts_jsonl,
    map_label,
    truncate_prompt,
    unmap_label,
)
from .remote import CachePolicy, QueryCache, RemoteEndpoint, fetch_neighbors_remote, resolve_entity
from .structures import (
    ExtractionLimits,
    Metapath,
    StructureBundle,
    StructureKind,
    enumerate_metapaths,
    extract_common_neighbors,
    extract_neighbors,
    select_subset,
)
from .verbalize import (
    GraphContext,
    TemplateSet,
    verbalize_common_neighbors,
    verbalize_metapath,
    verbalize_neighbors,
    verbalize_neighbors_labeled,
)

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "CAUSAL",
    "CachePolicy",
    "Confusion",
    "Edge",
    "ExperimentConfig",
    "ExtractionLimits",
    "FewShotConfig",
    "FoldConfig",
    "FoldPlan",
    "FoldReport",
    "GraphContext",
    "HttpEndpoint",
    "InferenceRequest",
    "InferenceResponse",
    "IngestReport",
    "Instance",
    "KgSource",
    "KnowledgeGraph",
    "LabelMapping",
    "Metapath",
    "Metrics",
    "MockBackend",
    "NON_CAUSAL",
    "Node",
    "PairLinkage",
    "PredictionRecord",
    "PromptInstance",
    "QueryCache",
    "RemoteEndpoint",
    "Span",
    "StructureBundle",
    "StructureKind",
    "TemplateSet",
    "TruncationPolicy",
    "aggregate_folds",
    "build_prompt",
    "compute_metrics",
    "enumerate_metapaths",
    "export_edge_list_jsonl",
    "export_prompts_jsonl",
    "extract_common_neighbors",
    "extract_neighbors",
    "fetch_neighbors_remote",
    "kfold_split",
    "link_pairs",
    "load_dataset_jsonl",
    "load_edge_list_jsonl",
    "load_hetionet_json",
    "make_fold_plan",
    "map_label",
    "predict_http",
    "predict_mock",
    "read_predictions_jsonl",
    "resolve_entity",
    "run_experiment",
    "sample_few_shot",
    "select_subset",
    "truncate_prompt",
    "unmap_label",
    "validate_config",
    "verbalize_common_neighbors",
    "verbalize_metapath",
    "verbalize_neighbors",
    "verbalize_neighbors_labeled",
]
