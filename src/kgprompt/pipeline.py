"""End-to-end experiment orchestration from a single JSON configuration.

A run is: ingest -> link pairs -> extract structures -> verbalize ->
build prompts -> split/sample -> predict -> evaluate, with every artifact
written under one output directory and a manifest capturing the config
hash, all seeds and a content hash per artifact. Re-running the same
configuration reproduces every pre-prediction artifact byte for byte, and
the prediction artifacts too when the backend is the deterministic mock.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, TypeVar

from ._digest import sha256
from .atomic import TEXT_ERRORS, write_atomic, write_jsonl
from .backend import (
    HttpEndpoint,
    predict_http_batch,
    predict_mock,
    request_for_prompt,
    write_predictions_jsonl,
)
from .dataset import (
    FewShotConfig,
    Instance,
    kfold_split,
    load_dataset_jsonl,
    make_fold_plan,
    sample_few_shot,
)
from .errors import (
    ConfigError, KgPromptError, ParseError, SamePairError, StageError, check_field_types, read_json
)
from .graph import KnowledgeGraph, Node
from .ingest import file_sha256, load_edge_list_jsonl, load_hetionet_json
from .linking import NameLookup, PairLinkage, link_pairs, load_overrides, search_lookup
from .metrics import (
    Metrics,
    aggregate_folds,
    check_coverage,
    compute_metrics,
    format_report,
    read_predictions_jsonl,
)
from .prompts import (
    Architecture,
    DEFAULT_MASK_TOKEN,
    LabelMapping,
    PromptInstance,
    TruncationPolicy,
    build_prompt,
    export_prompts_jsonl,
    truncate_prompt,
)
from .remote import (
    CachePolicy,
    QueryCache,
    RemoteEndpoint,
    fetch_entity_label,
    fetch_neighbors_remote,
    resolve_entity,
)
from .structures import (
    ExtractionLimits,
    StructureBundle,
    StructureKind,
    extract_common_neighbors,
    extract_neighbors,
    enumerate_metapaths,
    star_neighbors,
)
from .verbalize import (
    GraphContext,
    TemplateSet,
    combine_contexts,
    empty_context,
    verbalize_common_neighbors,
    verbalize_metapath,
    verbalize_neighbors,
    verbalize_neighbors_labeled,
)

LOCAL_KG_KINDS = ("hetionet_json", "jsonl")
KG_KINDS = LOCAL_KG_KINDS + ("remote",)

T = TypeVar("T")


@dataclass(frozen=True)
class KgSource:
    """The ``kg`` section: a local dump to ingest, or the remote 1-hop source."""

    kind: str
    path: str | None = None
    cache_dir: str | None = None
    sparql_url: str | None = None
    entity_api_url: str | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.kind not in KG_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KG_KINDS}")
        if self.kind == "remote":
            self.endpoint()  # rejects a URL that is not http(s)

    def endpoint(self) -> RemoteEndpoint:
        urls = {"sparql_url": self.sparql_url, "entity_api_url": self.entity_api_url}
        return RemoteEndpoint(**{k: v for k, v in urls.items() if v is not None})


@dataclass(frozen=True)
class FoldConfig:
    """The ``folds`` section: the seeded k-fold split."""

    n_folds: int = 5
    seed: int = 203
    stratified: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_folds < 2:
            raise ValueError("n_folds must be >= 2")


@dataclass(frozen=True)
class MockBackend:
    """The ``backend`` section of kind ``mock``: seeded offline predictions."""

    seed: int = 203
    kind: str = field(default="mock", init=False)

    def __post_init__(self) -> None:
        check_field_types(self)


_BACKENDS = {backend.kind: backend for backend in (MockBackend, HttpEndpoint)}


@dataclass
class ExperimentConfig:
    """One field per top-level key of the JSON configuration.

    Each section parses into the object its stage uses, and that object's
    constructor holds the section's rules; ``validate_config`` checks what
    spans sections and the input paths.
    """

    dataset: str
    kg: KgSource
    out_dir: str
    structure: StructureKind = StructureKind.NN
    limits: ExtractionLimits = field(default_factory=ExtractionLimits)
    templates: TemplateSet = field(default_factory=TemplateSet)
    architecture: Architecture = Architecture.MLM
    label_mapping: LabelMapping = field(default_factory=LabelMapping.identity)
    few_shot: FewShotConfig = field(default_factory=FewShotConfig)
    folds: FoldConfig = field(default_factory=FoldConfig)
    selection_seed: int = 203
    truncation: TruncationPolicy = field(default_factory=TruncationPolicy)
    mask_token: str = DEFAULT_MASK_TOKEN
    nn_include_labels: bool = False
    backend: HttpEndpoint | MockBackend | None = None
    overrides: str | None = None

    def __post_init__(self) -> None:
        if not self.mask_token:
            raise ConfigError("mask_token must be non-empty")
        check_field_types(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        try:
            return cls._from_dict(data)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError, KgPromptError) as exc:
            raise ConfigError(f"invalid experiment configuration: {exc}") from exc

    @classmethod
    def _from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"configuration must be an object, not {type(data).__name__}")
        known = {f.name: f for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown configuration key {key!r}")
        for f in known.values():
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data:
                raise ConfigError(f"configuration misses required field {f.name!r}")
        values = {**data, **{name: _section(data, name, build) for name, build in _SECTIONS.items()}}
        if "structure" in data:
            values["structure"] = StructureKind(data["structure"])
        if "architecture" in data:
            values["architecture"] = Architecture.parse(str(data["architecture"]))
        return cls(**values)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = read_json(path)
        except ParseError as exc:
            raise ConfigError(f"cannot read configuration: {exc}") from exc
        return cls.from_dict(data)

    def to_canonical_dict(self) -> dict:
        return _plain(self)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_canonical_dict(), sort_keys=True, ensure_ascii=False)
        return sha256(canonical.encode("utf-8", TEXT_ERRORS)).hexdigest()


def _section(data: dict, name: str, build: Callable[..., T]) -> T:
    """Build an optional object-valued section from its keys; absent or null reads as {}.

    ``build`` takes the keys as keyword arguments, so an unknown key is an error.
    """
    value = data.get(name)
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, not {type(value).__name__}")
    try:
        return build(**value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _label_mapping(
    mode: str = "identity", causal: str | None = None, non_causal: str | None = None
) -> LabelMapping:
    words = {"causal": causal, "non_causal": non_causal}
    if mode == "identity":
        for key, word in words.items():
            if word is not None:
                raise ValueError(f"mode 'identity' takes no label words, but {key!r} is given")
        return LabelMapping.identity()
    if mode != "custom":
        raise ValueError(f"unknown mode {mode!r}; expected 'identity' or 'custom'")
    for key, word in words.items():
        if word is None:
            raise ValueError(f"mode 'custom' needs {key!r}")
    return LabelMapping.custom(causal, non_causal)


def _backend(kind: str | None = None, **settings: object) -> HttpEndpoint | MockBackend | None:
    if kind is None and not settings:
        return None
    if kind not in _BACKENDS:
        raise ConfigError(f"unknown backend kind {kind!r}; expected one of {tuple(_BACKENDS)}")
    return _BACKENDS[kind](**settings)


# The object-valued sections, each built from its keys by ``_section``; the
# other top-level keys are the field values themselves.
_SECTIONS: dict[str, Callable[..., object]] = {
    "kg": KgSource,
    "limits": ExtractionLimits,
    "templates": TemplateSet,
    "label_mapping": _label_mapping,
    "few_shot": FewShotConfig,
    "folds": FoldConfig,
    "truncation": TruncationPolicy,
    "backend": _backend,
}


def validate_config(config: ExperimentConfig) -> None:
    """Raise ConfigError for a rule that spans sections or an input that is not a file.

    Single-section rules already held when the sections were built.
    """
    kg = config.kg
    paths = {"dataset": config.dataset, "kg.path": kg.path, "kg.cache_dir": kg.cache_dir,
             "out_dir": config.out_dir, "overrides": config.overrides}
    for key, path in paths.items():
        if path is None:
            continue
        if "\0" in path:
            raise ConfigError(f"{key} contains a NUL byte: {path!r}")
        try:
            os.fsencode(path)
        except UnicodeEncodeError:
            raise ConfigError(f"{key} cannot be encoded as a file name: {path!r}") from None
    _require_file("dataset file", config.dataset)
    if kg.kind in LOCAL_KG_KINDS:
        if not kg.path:
            raise ConfigError("local kg sources need kg.path")
        _require_file("kg dump", kg.path)
    else:
        if not kg.cache_dir:
            raise ConfigError("remote kg sources need kg.cache_dir for reproducibility")
        if Path(kg.cache_dir).exists() and not Path(kg.cache_dir).is_dir():
            raise ConfigError(f"kg.cache_dir is not a directory: {kg.cache_dir}")
        if config.structure is not StructureKind.NN:
            raise ConfigError(
                "remote kg sources support only the NN structure (remote querying is 1-hop)"
            )
    if config.structure is StructureKind.MP and config.limits.max_hops < 2:
        raise ConfigError("metapath extraction requires limits.max_hops >= 2")
    if config.overrides:
        _require_file("override table", config.overrides)


def _require_file(what: str, path: str) -> None:
    if not Path(path).is_file():
        problem = "is not a file" if Path(path).exists() else "not found"
        raise ConfigError(f"{what} {problem}: {path}")


# --- artifact helpers ---


def _write_json(path: Path, data: object) -> None:
    with write_atomic(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def _bundle_record(instance_id: str, side: str, bundle: StructureBundle) -> dict:
    return {
        "instance_id": instance_id,
        "side": side,
        "kind": bundle.kind.value,
        "pair": list(bundle.pair),
        "candidate_count": bundle.candidate_count,
        "truncated": bundle.truncated,
        "selection_seed": bundle.selection_seed,
        "payload": _plain(bundle.payload),
    }


def _plain(value: object) -> object:
    """The JSON form of the config and of every result a run writes (prompt
    and prediction records keep their own wire schemas): a node as its id,
    name and type, an enum as its value, a frozenset as a sorted list, a
    tuple as a list, another dataclass as its fields in order."""
    if isinstance(value, Node):
        return {"id": value.id, "name": value.name, "type": value.node_type}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


# --- graph-context construction ---


class _LocalSource:
    """Every node in one locally ingested graph."""

    def __init__(self, kg: KnowledgeGraph):
        self.kg = kg

    def names(self) -> KnowledgeGraph:
        return self.kg

    def node(self, node_id: str) -> Node:
        return self.kg.node(node_id)

    def extract(
        self, linkage: PairLinkage, config: ExperimentConfig
    ) -> list[tuple[str, StructureBundle]]:
        kind = config.structure
        limits, seed = config.limits, config.selection_seed
        x, y = linkage.e1_node, linkage.e2_node
        if kind is StructureKind.NN:
            return [
                (side, extract_neighbors(self.kg, node_id, limits, seed))
                for side, node_id in (("e1", x), ("e2", y))
                if node_id is not None
            ]
        if x is None or y is None:
            return []
        pairwise = extract_common_neighbors if kind is StructureKind.CNN else enumerate_metapaths
        try:
            return [("pair", pairwise(self.kg, x, y, limits, seed))]
        except SamePairError:
            # both names linked to one node; nothing pairwise to extract
            return []


class _RemoteSource:
    """Each node's name and NN bundle, from its remote 1-hop links (NN only),
    made at its first extraction under the run's config and kept; the links are not."""

    def __init__(self, endpoint: RemoteEndpoint, cache: QueryCache):
        self.endpoint = endpoint
        self.cache = cache
        self._entities: dict[str, tuple[Node, StructureBundle]] = {}

    def names(self) -> NameLookup:
        return search_lookup(functools.partial(resolve_entity, self.endpoint, self.cache))

    def node(self, node_id: str) -> Node:
        return self._entities[node_id][0]

    def extract(
        self, linkage: PairLinkage, config: ExperimentConfig
    ) -> list[tuple[str, StructureBundle]]:
        sides = [(side, n) for side, n in (("e1", linkage.e1_node), ("e2", linkage.e2_node)) if n is not None]
        for _side, node_id in sides:
            if node_id not in self._entities:
                name = fetch_entity_label(self.endpoint, self.cache, node_id)
                links = fetch_neighbors_remote(self.endpoint, self.cache, node_id)
                bundle = star_neighbors(node_id, links, config.limits, config.selection_seed)
                self._entities[node_id] = (Node(id=node_id, name=name), bundle)
        return [(side, self._entities[node_id][1]) for side, node_id in sides]


def _verbalize_bundles(
    source: _LocalSource | _RemoteSource, bundles: list[tuple[str, StructureBundle]], config: ExperimentConfig
) -> GraphContext:
    t = config.templates
    contexts = []
    for _side, bundle in bundles:
        x = source.node(bundle.pair[0])
        if bundle.kind is StructureKind.NN:
            render = verbalize_neighbors_labeled if config.nn_include_labels else verbalize_neighbors
            contexts.append(render(x, bundle, t))
        else:
            render = verbalize_common_neighbors if bundle.kind is StructureKind.CNN else verbalize_metapath
            contexts.append(render(x, source.node(bundle.pair[1]), bundle, t))
    return combine_contexts(contexts) if contexts else empty_context(config.structure)


# --- the run itself ---


@dataclass
class _Run:
    """What one invocation's stages hand to each other."""

    config: ExperimentConfig
    offline: bool
    out: Path
    instances: list[Instance] = field(default_factory=list)
    source: _LocalSource | _RemoteSource | None = None
    linkages: list[PairLinkage] = field(default_factory=list)
    bundles: dict[str, list[tuple[str, StructureBundle]]] = field(default_factory=dict)
    contexts: dict[str, GraphContext] = field(default_factory=dict)
    prompts: dict[str, PromptInstance] = field(default_factory=dict)
    folds: list[tuple[list[str], list[str]]] = field(default_factory=list)
    written: list[Path] = field(default_factory=list)

    def fold_dir(self, i: int) -> Path:
        return self.out / "folds" / f"fold_{i}"

    def artifact(self, path: Path) -> Path:
        """Record ``path`` as a file this run writes, for the manifest, and
        return it; every stage write goes to a path wrapped in this."""
        self.written.append(path)
        return path


# Each stage reads and fills the run state.


def _ingest(run: _Run) -> None:
    config = run.config
    run.instances = load_dataset_jsonl(config.dataset)
    if config.kg.kind == "remote":
        policy = CachePolicy.READ_ONLY if run.offline else CachePolicy.READ_WRITE
        cache = QueryCache(root_dir=Path(config.kg.cache_dir), policy=policy)
        run.source = _RemoteSource(config.kg.endpoint(), cache)
        return
    loader = load_hetionet_json if config.kg.kind == "hetionet_json" else load_edge_list_jsonl
    kg, report = loader(config.kg.path)
    run.source = _LocalSource(kg)
    _write_json(run.artifact(run.out / "ingest_report.json"), _plain(report))


def _link(run: _Run) -> None:
    overrides = load_overrides(run.config.overrides) if run.config.overrides else {}
    run.linkages = link_pairs(run.instances, run.source.names(), overrides)
    write_jsonl(run.artifact(run.out / "linkage.jsonl"), map(_plain, run.linkages))


def _extract(run: _Run) -> None:
    records = []
    for linkage in run.linkages:
        bundles = run.source.extract(linkage, run.config)
        run.bundles[linkage.instance_id] = bundles
        for side, bundle in bundles:
            records.append(_bundle_record(linkage.instance_id, side, bundle))
    write_jsonl(run.artifact(run.out / "bundles.jsonl"), records)


def _verbalize(run: _Run) -> None:
    records = []
    for linkage in run.linkages:
        context = _verbalize_bundles(run.source, run.bundles[linkage.instance_id], run.config)
        run.contexts[linkage.instance_id] = context
        records.append(
            {
                "instance_id": linkage.instance_id,
                "kind": context.kind.value,
                "text": context.text,
                "empty": context.empty,
                "source_nodes": list(context.source_nodes),
            }
        )
    write_jsonl(run.artifact(run.out / "contexts.jsonl"), records)


def _build_prompts(run: _Run) -> None:
    config = run.config
    for instance in run.instances:
        prompt = build_prompt(
            instance,
            run.contexts[instance.instance_id],
            (instance.e1, instance.e2),
            config.architecture,
            config.label_mapping,
            mask_token=config.mask_token,
        )
        run.prompts[instance.instance_id] = truncate_prompt(prompt, config.truncation)
    prompts = [run.prompts[i.instance_id] for i in run.instances]
    export_prompts_jsonl(prompts, run.artifact(run.out / "prompts.jsonl"))


def _split(run: _Run) -> None:
    config = run.config
    folds = config.folds
    plan = make_fold_plan(run.instances, folds.n_folds, folds.seed, folds.stratified)
    run.folds = kfold_split(run.instances, plan)
    _write_json(run.artifact(run.out / "fold_plan.json"), _plain(plan))
    for i, (train_ids, test_ids) in enumerate(run.folds):
        sample = sample_few_shot(train_ids, run.instances, config.few_shot)
        for name, ids in (("few_shot.jsonl", sample), ("test_prompts.jsonl", test_ids)):
            export_prompts_jsonl([run.prompts[t] for t in ids], run.artifact(run.fold_dir(i) / name))


def _predict(run: _Run) -> None:
    config = run.config
    backend = config.backend
    for i, (_train_ids, test_ids) in enumerate(run.folds):
        reqs = [request_for_prompt(run.prompts[t], config.label_mapping) for t in test_ids]
        if isinstance(backend, MockBackend):
            records = [predict_mock(r, config.label_mapping, backend.seed) for r in reqs]
        else:
            records = predict_http_batch(backend, reqs, config.label_mapping)
        write_predictions_jsonl(records, run.artifact(run.fold_dir(i) / "predictions.jsonl"))


def _eval(run: _Run) -> None:
    golds = {inst.instance_id: inst.label for inst in run.instances}
    fold_metrics: list[Metrics] = []
    for i, (_train_ids, test_ids) in enumerate(run.folds):
        records = read_predictions_jsonl(run.fold_dir(i) / "predictions.jsonl")
        check_coverage(records, test_ids, f"fold {i}")
        metrics = compute_metrics(records, golds)
        fold_metrics.append(metrics)
        _write_json(run.artifact(run.fold_dir(i) / "metrics.json"), _plain(metrics))
    fold_report = aggregate_folds(fold_metrics)
    _write_json(run.artifact(run.out / "report.json"), _plain(fold_report))
    with write_atomic(run.artifact(run.out / "report.txt")) as fh:
        fh.write(format_report(fold_report))


_STAGE_TABLE = (
    ("ingest", _ingest),
    ("link", _link),
    ("extract", _extract),
    ("verbalize", _verbalize),
    ("build-prompts", _build_prompts),
    ("split", _split),
    ("predict", _predict),
    ("eval", _eval),
)
STAGES = tuple(name for name, _stage in _STAGE_TABLE)


def run_experiment(
    config: ExperimentConfig, offline: bool = False, until: str = "eval"
) -> Path:
    """Execute the pipeline through ``until`` (a STAGES name) and write artifacts.

    Without a backend the run stops before ``predict``. Returns the output
    directory. Stage failures, an artifact that cannot be written included,
    are wrapped in StageError with the failing stage's name.
    """
    if until not in STAGES:
        raise ConfigError(f"unknown stage {until!r}; expected one of {STAGES}")
    validate_config(config)
    run = _Run(config=config, offline=offline, out=Path(config.out_dir))
    try:
        run.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. out_dir, or one of its parents, is a file
        raise ConfigError(f"cannot create out_dir {config.out_dir}: {exc.strerror}") from exc
    for name, stage in _STAGE_TABLE:
        if name == "predict" and config.backend is None:
            break
        try:
            stage(run)
        except KgPromptError as exc:
            raise StageError(name, str(exc)) from exc
        except OSError as exc:  # an artifact that cannot be written
            raise StageError(name, _os_failure(exc)) from exc
        if name == until:
            break
    _finish(run)
    return run.out


def _finish(run: _Run) -> None:
    """Write the manifest: config, seeds and a sha256 per file this run wrote."""
    config = run.config
    artifacts = {str(path.relative_to(run.out)): file_sha256(path) for path in run.written}
    manifest = {
        "config_hash": config.config_hash(),
        "config": config.to_canonical_dict(),
        "seeds": {
            "fold_seed": config.folds.seed,
            "few_shot_seed": config.few_shot.seed,
            "selection_seed": config.selection_seed,
            **({"mock_seed": config.backend.seed} if isinstance(config.backend, MockBackend) else {}),
        },
        "artifacts": artifacts,
    }
    try:
        _write_json(run.out / "manifest.json", manifest)
    except OSError as exc:
        raise KgPromptError(f"cannot write the manifest: {_os_failure(exc)}") from exc


def _os_failure(exc: OSError) -> str:
    """``<path>: <reason>`` for a failed file operation; ``os.replace``
    names its target, not the temporary file, as ``filename2``."""
    path = exc.filename2 or exc.filename
    return f"{path}: {exc.strerror}" if path and exc.strerror else str(exc)
