"""One traced, in-process ``kgprompt run``: per-layer spans from the outside.

    python3 trace.py RESULT_JSON -- run --config CONFIG --out OUT [...]

Imports ``kgprompt.cli``, replaces at runtime the public names that
``kgprompt.pipeline``, ``kgprompt.backend`` and ``kgprompt.cli`` call with
wrappers that record a span per call, runs the CLI's ``main`` with the
arguments after ``--``, and writes the aggregated spans to RESULT_JSON.
Nothing under ``src/`` is edited.  Spans stay in memory until the run ends.
A layer's self time is its spans' durations minus the time their child
spans cover, so the layers' self times add up to the whole run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

# kgprompt.pipeline name -> layer (named after the module that defines it).
PIPELINE_NAMES = {
    "load_hetionet_json": "ingest",
    "load_edge_list_jsonl": "ingest",
    "load_dataset_jsonl": "ingest",  # the pipeline's ingest stage loads both
    "load_overrides": "linking",
    "link_pairs": "linking",
    "_link_remote": "linking",
    "extract_neighbors": "structures",
    "extract_common_neighbors": "structures",
    "enumerate_metapaths": "structures",
    "verbalize_neighbors": "verbalize",
    "verbalize_neighbors_labeled": "verbalize",
    "verbalize_common_neighbors": "verbalize",
    "verbalize_metapath": "verbalize",
    "combine_contexts": "verbalize",
    "empty_context": "verbalize",
    "build_prompt": "prompts",
    "truncate_prompt": "prompts",
    "make_fold_plan": "dataset",
    "kfold_split": "dataset",
    "sample_few_shot": "dataset",
    "request_for_prompt": "backend",
    "predict_mock": "backend",
    "predict_http_batch": "backend",
    "resolve_entity": "remote",
    "fetch_entity_label": "remote",
    "fetch_neighbors_remote": "remote",
    "graph_from_remote_neighbors": "remote",
    "read_predictions_jsonl": "metrics",
    "compute_metrics": "metrics",
    "aggregate_folds": "metrics",
    "format_report": "metrics",
}
LAYERS = ("ingest", "linking", "structures", "verbalize", "prompts", "dataset",
          "backend", "remote", "metrics", "pipeline", "cli")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """Span recorder: [layer, name, start, end, parent index] per call."""

    def __init__(self):
        self.spans: list = []
        self.lock = threading.Lock()
        self.main_stack: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self.main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, layer: str, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread's first span belongs to what the main thread waits in.
            parent = stack[-1] if stack else (tracer.main_stack[-1] if tracer.main_stack else None)
            span = [layer, name, 0.0, 0.0, parent]
            with tracer.lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def child_time(self) -> tuple:
        """Per span: the time its children cover, and the part of it in other layers."""
        children: dict = {}
        for i, span in enumerate(self.spans):
            if span[4] is not None:
                children.setdefault(span[4], []).append(self.spans[i])
        covered, foreign = [], []
        for i, (layer, _name, start, end, _parent) in enumerate(self.spans):
            kids = children.get(i, ())
            covered.append(_covered([(k[2], k[3]) for k in kids], start, end))
            foreign.append(_covered([(k[2], k[3]) for k in kids if k[0] != layer], start, end))
        return covered, foreign


def _covered(intervals: list, start: float, end: float) -> float:
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def main(argv: list) -> int:
    result_path, cli_args = argv[1], argv[argv.index("--") + 1:]
    started = time.perf_counter()
    import kgprompt.backend as backend
    import kgprompt.cli as cli
    import kgprompt.pipeline as pipeline
    import kgprompt.remote as remote
    import_s = time.perf_counter() - started

    tracer = Tracer()
    data: dict = {"missing": [], "ingest": [], "linkages": [], "mp": [], "cache": [0, 0]}

    def ingest_result(result):
        if isinstance(result, tuple):  # a graph loader's (graph, report)
            graph, report = result
            data["ingest"].append({"edges": graph.edge_count, "edges_loaded": report.edges_loaded,
                                   "duplicates_rejected": report.duplicates_rejected,
                                   "rss_bytes": data["last_rss"]})

    hooks = {
        "link_pairs": data["linkages"].extend,
        "_link_remote": data["linkages"].extend,
        "enumerate_metapaths": lambda b: data["mp"].append((b.candidate_count, b.truncated)),
    }
    for name, layer in PIPELINE_NAMES.items():
        fn = getattr(pipeline, name, None)
        if fn is None:
            data["missing"].append(f"pipeline.{name}")
            continue
        if layer == "ingest":
            fn = _with_rss(fn, data)
            hooks[name] = ingest_result
        setattr(pipeline, name, tracer.wrap(layer, name, fn, hooks.get(name)))
    for cls_name in ("_LocalSource", "_RemoteSource"):
        cls = getattr(pipeline, cls_name, None)
        if cls is None:
            data["missing"].append(f"pipeline.{cls_name}.extract")
            continue
        cls.extract = tracer.wrap("structures", "pair", cls.extract)
    if hasattr(backend, "predict_http"):
        backend.predict_http = tracer.wrap("backend", "predict_http", backend.predict_http)
    else:
        data["missing"].append("backend.predict_http")
    cli.run_experiment = tracer.wrap("pipeline", "run_experiment", cli.run_experiment)
    _count_cache_loads(remote, data)

    code = tracer.wrap("cli", "main", cli.main)(cli_args)
    wall_s = time.perf_counter() - started

    covered, foreign = tracer.child_time()
    layers = dict.fromkeys(LAYERS, 0.0)
    for span, child_s in zip(tracer.spans, covered):
        layers[span[0]] += span[3] - span[2] - child_s
    # Extraction time per pair, without the remote fetches made inside it.
    pair_ms = [1000 * (s[3] - s[2] - foreign[i])
               for i, s in enumerate(tracer.spans) if s[1] == "pair"]
    req_ms = [1000 * (s[3] - s[2]) for s in tracer.spans
              if s[1] in ("predict_http", "predict_mock")]
    methods: dict = {}
    for link in data["linkages"]:
        for method in (link.e1_method, link.e2_method):
            methods[method] = methods.get(method, 0) + 1
    result = {
        "exit": code,
        "import_s": import_s,
        "wall_s": wall_s,
        "layers": layers,
        "pair_ms": pair_ms,
        "req_ms": req_ms,
        "link_methods": methods,
        "mp": data["mp"],
        "ingest": data["ingest"],
        "cache_hits": data["cache"][0],
        "cache_misses": data["cache"][1],
        "missing": data["missing"],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


def _with_rss(fn, data: dict):
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        before = rss_bytes()
        result = fn(*args, **kwargs)
        data["last_rss"] = rss_bytes() - before
        return result

    return measured


def _count_cache_loads(remote, data: dict) -> None:
    cache_cls = getattr(remote, "QueryCache", None)
    if cache_cls is None or not hasattr(cache_cls, "load"):
        data["missing"].append("remote.QueryCache.load")
        return
    load = cache_cls.load

    @functools.wraps(load)
    def counted(self, key):
        entry = load(self, key)
        data["cache"][0 if entry is not None else 1] += 1
        return entry

    cache_cls.load = counted


if __name__ == "__main__":
    sys.exit(main(sys.argv))
