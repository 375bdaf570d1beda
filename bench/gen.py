"""Seeded, stdlib-only input generator for the three benchmark workloads.

Each ``gen_*`` function writes the files one workload feeds to
``kgprompt run`` into a directory and returns a plan: the experiment
configuration (without ``out_dir``), what the generator planted (link
methods, gold labels, neighbor sets) for the output oracle, and the input
properties the program's behaviour depends on.  The same seed always gives
byte-identical files.
"""

from __future__ import annotations

import json
import random
import re
import statistics
from pathlib import Path

from pathcount import count_simple_paths

CAUSAL, NON_CAUSAL = "causal", "non-causal"

_PUNCT = re.compile(r"[^\w\s]", re.UNICODE)
_SPACES = re.compile(r"\s+")


def normalize(name: str) -> str:
    """The documented pair-linking normalization: casefold, drop punctuation."""
    return _SPACES.sub(" ", _PUNCT.sub(" ", name.casefold())).strip()


def _skewed_sources(rng: random.Random, nodes: list, count: int, exponent: float = 0.8) -> list:
    """Draw edge sources with weight 1/(rank+1)^exponent over a seeded node order."""
    order = nodes[:]
    rng.shuffle(order)
    cum = []
    total = 0.0
    for rank in range(len(order)):
        total += 1.0 / (rank + 1) ** exponent
        cum.append(total)
    return rng.choices(order, cum_weights=cum, k=count)


def _degree_stats(neighbors: dict) -> dict:
    degrees = sorted(len(s) for s in neighbors.values())
    return {"top_degree": degrees[-1], "median_degree": statistics.median(degrees)}


def _plant_names(endpoints: list, name_of: dict) -> tuple:
    """Pick a surface name and expected link method for every pair endpoint.

    Returns (surface names, expected (node, method) per endpoint, override
    table).  Every name links, as MP needs both ends resolved to do its work:
    every eighth through normalization, every sixteenth through the override
    table, the rest exactly.  Normalized variants are never an exact name,
    override names never match any node name even after normalization.
    """
    surfaces, expected, overrides = [], [], {}
    for i, node in enumerate(endpoints):
        name = name_of[node]
        if i % 8 == 3:
            surface, method = normalize(name), "normalized"  # lower case, punctuation removed
        elif i % 16 == 6:
            surface, method = f"Alias~{i}!", "manual_override"
            overrides[surface] = node
        else:
            surface, method = name, "exact"
        surfaces.append(surface)
        expected.append((node, method))
    return surfaces, expected, overrides


def _write_dataset(path: Path, rng: random.Random, surfaces: list, prefix: str) -> tuple:
    """One instance per consecutive pair of surface names; returns (ids, golds)."""
    golds = {}
    lines = []
    n = len(surfaces) // 2
    # A fixed 40 % causal share, so every fold's few-shot sample can be drawn.
    labels = [CAUSAL] * (2 * n // 5) + [NON_CAUSAL] * (n - 2 * n // 5)
    rng.shuffle(labels)
    for i in range(0, len(surfaces), 2):
        e1, e2 = surfaces[i], surfaces[i + 1]
        head = f"Evidence suggests that {e1}"
        text = f"{head} is linked to {e2} in this cohort."
        start2 = len(head) + len(" is linked to ")
        instance_id = f"{prefix}{i // 2:05d}"
        label = labels[i // 2]
        golds[instance_id] = label
        lines.append(json.dumps({
            "instance_id": instance_id,
            "text": text,
            "e1": {"start": len("Evidence suggests that "), "end": len(head)},
            "e2": {"start": start2, "end": start2 + len(e2)},
            "label": label,
        }))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return list(golds), golds


def _repeated_share(endpoints: list) -> float:
    seen, repeated = set(), 0
    for node in endpoints:
        if node in seen:
            repeated += 1
        seen.add(node)
    return repeated / len(endpoints)


def _link_properties(expected: list) -> dict:
    n = len(expected)
    return {
        "normalized_share": sum(m == "normalized" for _, m in expected) / n,
        "unresolved_share": sum(m == "unresolved" for _, m in expected) / n,
        "override_share": sum(m == "manual_override" for _, m in expected) / n,
    }


def _base_config(dataset: Path, seed: int, structure: str, k: int) -> dict:
    return {
        "dataset": str(dataset),
        "structure": structure,
        "architecture": "MLM",
        "few_shot": {"k": k, "seed": seed, "stratified": True},
        # Stratified folds keep a causal pair in every fold's training set.
        "folds": {"n_folds": 5, "seed": seed, "stratified": True},
        "selection_seed": seed,
        "backend": {"kind": "mock", "seed": seed},
    }


# --- hetionet-hops4: Hetionet-shaped JSON dump, metapaths at max_hops=4 ---

HETIONET_TYPES = (  # (kind, share of nodes, identifier prefix or None for ints)
    ("Gene", 21 / 47, None),
    ("Biological Process", 12 / 47, "GO:"),
    ("Side Effect", 6 / 47, "C"),
    ("Molecular Function", 5 / 47, "MF:"),
    ("Compound", 3 / 47, "DB"),
)
HETIONET_LABELS = ("interacts", "participates", "regulates", "binds", "causes",
                   "upregulates", "downregulates", "covaries")

# Metapath cost per pair is heavy-tailed in the local shape around the pair,
# so a graph and pair set redrawn per seed would make run time depend on the
# seed more than on the program.  The shape (edges, pairs and name variants,
# up to node renaming) is drawn once from these fixed seeds; the run seed
# draws the names, which identifier sits at each position of the shape, the
# orientation of the dense part's edges, the order of the edge records and
# the gold labels.
BULK_SHAPE_SEED = "hetionet-bulk-shape"
MP_SHAPE_SEED = "mp-hops4-shape"


def _label(type_of: dict, src: str, dst: str) -> str:
    return HETIONET_LABELS[(type_of[src] * 5 + type_of[dst]) % len(HETIONET_LABELS)]


def _mp_shape(nodes: int, edges: int, pairs: int) -> tuple:
    """Undirected links over node indices, the pairs and the 20 hubs of the dense part."""
    shape = random.Random(MP_SHAPE_SEED)
    index = list(range(nodes))
    links: set = set()
    for src in _skewed_sources(shape, index, edges):
        dst = shape.randrange(nodes)
        if dst != src:
            links.add((min(src, dst), max(src, dst)))
    neighbor_idx: dict = {i: set() for i in index}
    for a, b in links:
        neighbor_idx[a].add(b)
        neighbor_idx[b].add(a)
    # One pair in 10 joins two hubs, one in 10 a hub and a random node.
    hubs = sorted(index, key=lambda n: -len(neighbor_idx[n]))[:20]
    connected = [n for n in index if neighbor_idx[n]]
    pair_idx = []
    for i in range(pairs):
        if i % 10 == 0:
            pair_idx.append(tuple(shape.sample(hubs, 2)))
        elif i % 10 == 5:
            x = shape.choice(hubs)
            pair_idx.append((x, shape.choice([n for n in connected if n != x])))
        else:
            pair_idx.append(tuple(shape.sample(connected, 2)))
    return sorted(links), pair_idx, hubs


def gen_hetionet_hops4(out: Path, seed: int, nodes: int = 47_000, edges: int = 70_000,
                       mp_nodes: int = 5_000, mp_edges: int = 30_000, pairs: int = 12,
                       ceiling: int = 10_000, max_hops: int = 4) -> dict:
    """A Hetionet-like bulk (ingest work) plus a disjoint dense part holding the pairs (MP work)."""
    bulk_shape = random.Random(BULK_SHAPE_SEED)
    rng = random.Random(f"hetionet-hops4:{seed}")
    counts = [max(2, round(nodes * share)) for _kind, share, _prefix in HETIONET_TYPES]
    dense_counts = [len(range(t, mp_nodes, len(HETIONET_TYPES))) for t in range(len(HETIONET_TYPES))]
    node_records, name_of, type_of = [], {}, {}
    bulk_by_type: list = [[] for _ in HETIONET_TYPES]
    dense_by_type: list = [[] for _ in HETIONET_TYPES]
    for t, (kind, _share, prefix) in enumerate(HETIONET_TYPES):
        numbers = list(range(counts[t] + dense_counts[t]))
        rng.shuffle(numbers)
        for position, i in enumerate(numbers):
            identifier = i + 1 if prefix is None else f"{prefix}{i:07d}"
            node_id = f"{kind}::{identifier}"
            name = f"{kind.split()[0]} {chr(65 + t)}{rng.randrange(26 ** 2):03d}-{i}"
            node_records.append({"kind": kind, "identifier": identifier, "name": name, "data": {}})
            name_of[node_id] = name
            type_of[node_id] = t
            (bulk_by_type if position < counts[t] else dense_by_type)[t].append(node_id)
    endpoint_of = {f"{r['kind']}::{r['identifier']}": [r["kind"], r["identifier"]] for r in node_records}
    bulk = [nid for ids in bulk_by_type for nid in ids]
    dense = [dense_by_type[j % len(HETIONET_TYPES)][j // len(HETIONET_TYPES)] for j in range(mp_nodes)]
    neighbors: dict = {nid: set() for nid in name_of}

    # The bulk: skewed source degree, ~10 % parallel labels, ~1 % "both" records.
    directed: set = set()
    records = []
    both = 0
    for src in _skewed_sources(bulk_shape, bulk, edges):
        dst = bulk_shape.choice(bulk)
        if dst == src:
            continue
        label = _label(type_of, src, dst)
        labels = [label]
        if bulk_shape.random() < 0.1:  # parallel edge with a second label
            labels.append(HETIONET_LABELS[(HETIONET_LABELS.index(label) + 1) % len(HETIONET_LABELS)])
        for lab in labels:
            if (src, dst, lab) in directed:
                continue
            direction = "forward"
            if bulk_shape.random() < 0.01 and (dst, src, lab) not in directed:
                direction = "both"
                directed.add((dst, src, lab))
                both += 1
            directed.add((src, dst, lab))
            neighbors[src].add(dst)
            neighbors[dst].add(src)
            records.append({"source_id": endpoint_of[src], "target_id": endpoint_of[dst],
                            "kind": lab, "direction": direction, "data": {}})
    bulk_records = len(records)
    duplicates = max(1, bulk_records // 500)
    rejected = 0
    for _ in range(duplicates):  # exact duplicate records, rejected at ingest
        copy = dict(bulk_shape.choice(records[:bulk_records]))
        rejected += 2 if copy["direction"] == "both" else 1
        records.append(copy)

    # The dense part: one labeled edge per link, so paths are those of the
    # undirected neighbor sets that the path counter sees.
    links, pair_idx, hub_idx = _mp_shape(mp_nodes, mp_edges, pairs)
    for a, b in links:
        src, dst = (dense[a], dense[b]) if rng.random() < 0.5 else (dense[b], dense[a])
        neighbors[src].add(dst)
        neighbors[dst].add(src)
        records.append({"source_id": endpoint_of[src], "target_id": endpoint_of[dst],
                        "kind": _label(type_of, src, dst), "direction": "forward", "data": {}})
    distinct = bulk_records + len(links)
    rng.shuffle(records)
    graph_path = out / "hetionet.json"
    with graph_path.open("w", encoding="utf-8") as fh:
        json.dump({"metagraph": {}, "nodes": node_records, "edges": records}, fh)

    endpoints = [dense[n] for pair in pair_idx for n in pair]
    surfaces, expected, overrides = _plant_names(endpoints, name_of)
    dataset = out / "pairs.jsonl"
    ids, golds = _write_dataset(dataset, rng, surfaces, "m")

    config = _base_config(dataset, seed, "MP", k=4)
    config["kg"] = {"kind": "hetionet_json", "path": str(graph_path)}
    config["limits"] = {"max_hops": max_hops, "max_paths_enumerated": ceiling}
    if overrides:
        (out / "overrides.json").write_text(json.dumps(overrides), encoding="utf-8")
        config["overrides"] = str(out / "overrides.json")

    path_counts = [count_simple_paths(neighbors, endpoints[i], endpoints[i + 1], max_hops)
                   for i in range(0, len(endpoints), 2)]
    hubs = {dense[h] for h in hub_idx}
    return {
        "config": config,
        "instance_ids": ids,
        "golds": golds,
        "expected_links": expected,
        "degree": {n: len(s) for n, s in neighbors.items()},
        "path_counts": dict(zip(ids, path_counts)),
        "ceiling": ceiling,
        "ingest": {"nodes_loaded": len(node_records), "edges_loaded": distinct,
                   "duplicates_rejected": rejected},
        "properties": {
            "nodes": len(node_records), "edge_records": distinct, "both_records": both,
            "duplicate_records": duplicates, **_degree_stats(neighbors),
            "dense_nodes": mp_nodes, "dense_edges": len(links),
            **{f"dense_{k}": v for k, v in _degree_stats({n: neighbors[n] for n in dense}).items()},
            "hub_pair_share": sum(endpoints[i] in hubs and endpoints[i + 1] in hubs
                                  for i in range(0, len(endpoints), 2)) / pairs,
            "repeated_endpoint_share": _repeated_share(endpoints),
            **_link_properties(expected),
            "expected_ceiling_pairs": sum(c > ceiling for c in path_counts),
        },
    }


# --- remote-http: remote 1-hop source over stub endpoints, HTTP backend ---


# The remote graph, the pair names and the warm half are drawn once from a
# fixed seed, so the number of remote fetches and requests does not depend on
# the run seed; the run seed draws which entity number sits at each position
# of the shape (so the ids and names) and the gold labels.
REMOTE_SHAPE_SEED = "remote-http-shape"


def gen_remote_http(out: Path, seed: int, entities: int = 600, pairs: int = 200) -> dict:
    """Synthetic remote graph (served by the stub) plus a dataset naming its entities.

    Returns the plan; the stub reads ``remote_graph.json``.  The plan's
    ``warm_dataset`` pairs up the half of the pair names whose remote
    lookups the pre-warmed cache holds.
    """
    shape = random.Random(REMOTE_SHAPE_SEED)
    rng = random.Random(f"remote-http:{seed}")
    numbers = list(range(entities))
    rng.shuffle(numbers)
    ids = [f"Q{100 + i}" for i in numbers]
    label_of = {q: f"Remote {chr(65 + i % 26)}{i} Thing" for q, i in zip(ids, numbers)}
    properties = {f"P{10 + j}": f"relation {j}" for j in range(12)}
    property_ids = sorted(properties)
    out_links: dict = {q: [] for q in ids}
    neighbors: dict = {q: set() for q in ids}
    for src in _skewed_sources(shape, ids, entities * 6):
        dst = shape.choice(ids)
        if dst == src:
            continue
        pid = shape.choice(property_ids)
        if [pid, dst] in out_links[src]:
            continue
        out_links[src].append([pid, dst])
        neighbors[src].add(dst)
        neighbors[dst].add(src)
    (out / "remote_graph.json").write_text(json.dumps(
        {"labels": label_of, "properties": properties, "out": out_links}), encoding="utf-8")

    endpoints = [shape.choice(ids) if shape.random() < 0.5 else shape.choice(ids[: entities // 5])
                 for _ in range(2 * pairs)]
    # Endpoints favour a popular fifth of the entities, so names repeat.
    # Remote linking asks the entity search: a case-only variant is still an
    # exact match, a punctuation variant a normalized one.
    surfaces, expected = [], []
    overrides = {}
    for i, q in enumerate(endpoints):
        r = shape.random()
        if r < 0.80:
            surfaces.append(label_of[q])
            expected.append((q, "exact"))
        elif r < 0.88:
            surfaces.append(label_of[q].upper())
            expected.append((q, "exact"))
        elif r < 0.94:
            surfaces.append(label_of[q].replace(" ", "-").lower() + ".")
            expected.append((q, "normalized"))
        elif r < 0.96:
            surface = f"Unsearchable alias {i}!"
            overrides[surface] = q
            surfaces.append(surface)
            expected.append((q, "manual_override"))
        else:
            surfaces.append(f"Unknown remote thing {i}?")
            expected.append((None, "unresolved"))
    dataset = out / "pairs.jsonl"
    instance_ids, golds = _write_dataset(dataset, rng, surfaces, "r")

    distinct_names = list(dict.fromkeys(surfaces))  # in order of first use, as the shape is
    warm_names = sorted(shape.sample(distinct_names, len(distinct_names) // 2))
    warm_surfaces = warm_names + warm_names[:1] if len(warm_names) % 2 else warm_names
    warm_dataset = out / "warm_pairs.jsonl"
    _write_dataset(warm_dataset, random.Random(0), warm_surfaces, "w")

    config = _base_config(dataset, seed, "NN", k=8)
    config["architecture"] = "CLM"
    config["kg"] = {"kind": "remote", "cache_dir": str(out / "cache")}
    config["backend"] = {"kind": "http", "max_in_flight": 2, "backoff": 0.005,
                         "max_retries": 3, "timeout": 10.0}
    if overrides:
        (out / "overrides.json").write_text(json.dumps(overrides), encoding="utf-8")
        config["overrides"] = str(out / "overrides.json")
    hubs = set(sorted(ids, key=lambda q: -len(neighbors[q]))[:20])
    return {
        "config": config,
        "warm_dataset": str(warm_dataset),
        "instance_ids": instance_ids,
        "golds": golds,
        "expected_links": expected,
        "degree": {q: len(s) for q, s in neighbors.items()},
        "properties": {
            "entities": entities, **_degree_stats(neighbors),
            "hub_pair_share": sum(endpoints[i] in hubs and endpoints[i + 1] in hubs
                                  for i in range(0, len(endpoints), 2)) / pairs,
            "repeated_endpoint_share": _repeated_share(endpoints),
            **_link_properties(expected),
            "case_variant_share": sum(s.isupper() for s in surfaces) / len(surfaces),
            "warm_name_share": len(warm_names) / len(distinct_names),
            "expected_ceiling_pairs": 0,
        },
    }


GENERATORS = {"hetionet-hops4": gen_hetionet_hops4, "remote-http": gen_remote_http}
