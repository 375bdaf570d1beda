"""Extract graph structures for a variable pair: neighbor nodes (NN),
common neighbor nodes (CNN) and metapaths (MP).

Extraction is exhaustive first, then a seeded uniformly-random subset is
kept, so structure content is never ranked or optimized. Every operation
derives its generator from (seed, kind, pair), which makes per-pair
extraction safe to parallelize without changing results.

Metapath enumeration is a depth-first walk in adjacency order that skips
every branch which can no longer reach y within ``max_hops`` (hop distances
to y come from a breadth-first search that avoids x). Skipped branches hold
no path, so the paths, their order and the truncation flag are those of a
plain depth-first walk. When ``max_paths_enumerated`` is hit, the subset is
drawn from the first paths in that order, not from all paths.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Callable, Sequence, TypeVar

from .errors import SamePairError, UnknownNodeError, check_field_types
from .graph import Direction, KnowledgeGraph, Node

log = logging.getLogger(__name__)

T = TypeVar("T")


class StructureKind(str, Enum):
    NN = "NN"
    CNN = "CNN"
    MP = "MP"


@dataclass(frozen=True)
class ExtractionLimits:
    """Structure-count and hop limits applied to every extraction.

    Defaults follow the experimental setting this toolkit reproduces:
    up to 4 neighbors, 5 common neighbors and 1 metapath per pair, with
    local traversal capped at 4 hops. ``max_paths_enumerated`` bounds
    exhaustive path enumeration around dense hubs; hitting it flags the
    bundle as truncated.
    """

    max_neighbors: int = 4
    max_common_neighbors: int = 5
    max_metapaths: int = 1
    max_hops: int = 4
    max_paths_enumerated: int = 10_000

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("max_neighbors", "max_common_neighbors", "max_metapaths", "max_paths_enumerated"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")


@dataclass(frozen=True, slots=True)
class NeighborLink:
    """A selected neighbor together with its relation labels to the origin."""

    node: Node
    labels: tuple[tuple[str, Direction], ...]


@dataclass(frozen=True)
class Metapath:
    """A concrete simple path between a pair, with per-hop edge labels.

    ``edges[i]`` describes the link between ``nodes[i]`` and ``nodes[i+1]``:
    the direction flag is relative to the walk ("out" when the stored edge
    runs with the walk, "in" when against it). The 2-node direct path is
    never a metapath.
    """

    nodes: tuple[Node, ...]
    edges: tuple[tuple[str, Direction], ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 3:
            raise ValueError("a metapath spans at least 3 nodes")
        if len(self.edges) != len(self.nodes) - 1:
            raise ValueError("edge list length must be node count - 1")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("metapath nodes must not repeat")

    @property
    def length(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class StructureBundle:
    """Selected structures of one kind for a pair, plus selection provenance.

    ``candidate_count`` is the full structure count before subset selection
    (e.g. the whole neighbor intersection for CNN). ``truncated`` is set
    when path enumeration hit the configured ceiling.
    """

    kind: StructureKind
    pair: tuple[str, str | None]
    payload: tuple
    selection_seed: int
    candidate_count: int
    truncated: bool = False


def derive_seed(base: int, *parts: object) -> int:
    """Stable sub-seed from a base seed and hashable context parts."""
    digest = hashlib.sha256(repr((base,) + parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def select_subset(items: Sequence[T], m: int, seed: int) -> list[T]:
    """Uniformly random m-subset of items, preserving original order.

    Returns the items unchanged when m covers them all; deterministic per
    (items, m, seed).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if len(items) <= m:
        return list(items)
    rng = Random(seed)
    keep = sorted(rng.sample(range(len(items)), m))
    return [items[i] for i in keep]


def extract_neighbors(
    kg: KnowledgeGraph, x: str, limits: ExtractionLimits, seed: int
) -> StructureBundle:
    """Up to ``max_neighbors`` 1-hop neighbors of x with relation labels."""
    candidates = kg.neighbor_ids(x)
    chosen = select_subset(candidates, limits.max_neighbors, derive_seed(seed, "NN", x))
    payload = tuple(
        NeighborLink(node=kg.node(n), labels=tuple(kg.relation_labels_between(x, n)))
        for n in chosen
    )
    return StructureBundle(
        kind=StructureKind.NN,
        pair=(x, None),
        payload=payload,
        selection_seed=seed,
        candidate_count=len(candidates),
    )


def extract_common_neighbors(
    kg: KnowledgeGraph, x: str, y: str, limits: ExtractionLimits, seed: int
) -> StructureBundle:
    """Subset of N(x) ∩ N(y) under undirected adjacency.

    The full intersection (ordered by appearance in x's adjacency) is the
    candidate pool; its size is recorded on the bundle.
    """
    if x == y:
        raise SamePairError(f"common neighbors need two distinct nodes, got {x!r} twice")
    y_neighbor_ids = set(kg.neighbor_ids(y))
    common = [n for n in kg.neighbor_ids(x) if n in y_neighbor_ids]
    chosen = select_subset(common, limits.max_common_neighbors, derive_seed(seed, "CNN", x, y))
    return StructureBundle(
        kind=StructureKind.CNN,
        pair=(x, y),
        payload=tuple(kg.node(n) for n in chosen),
        selection_seed=seed,
        candidate_count=len(common),
    )


def enumerate_metapaths(
    kg: KnowledgeGraph, x: str, y: str, limits: ExtractionLimits, seed: int
) -> StructureBundle:
    """All simple undirected x..y paths of 2..max_hops hops, then m selected.

    The direct 2-node path is excluded in both orientations regardless of
    whether a direct edge exists; longer paths are unaffected. Per-hop edge
    labels keep the stored edge's direction so verbalization can name the
    true source first.
    """
    if x == y:
        raise SamePairError(f"metapaths need two distinct nodes, got {x!r} twice")
    if limits.max_hops < 2:
        raise ValueError("metapath enumeration requires max_hops >= 2")
    if not kg.has_node(x):
        raise UnknownNodeError(x)
    if not kg.has_node(y):
        raise UnknownNodeError(y)

    sequences, truncated = _simple_path_sequences(
        kg, x, y, limits.max_hops, limits.max_paths_enumerated
    )
    if truncated:
        log.warning(
            "metapath enumeration for (%s, %s) truncated at %d paths",
            x, y, limits.max_paths_enumerated,
        )
    chosen = select_subset(sequences, limits.max_metapaths, derive_seed(seed, "MP", x, y))
    payload = tuple(_materialize_path(kg, seq) for seq in chosen)
    return StructureBundle(
        kind=StructureKind.MP,
        pair=(x, y),
        payload=payload,
        selection_seed=seed,
        candidate_count=len(sequences),
        truncated=truncated,
    )


def _simple_path_sequences(
    kg: KnowledgeGraph, x: str, y: str, max_hops: int, ceiling: int
) -> tuple[list[tuple[str, ...]], bool]:
    # Depth-first in adjacency order, so results are deterministic. A branch
    # is entered only while y is still in reach: a completion from v is a
    # simple path avoiding x, so it is at least dist[v] hops long. Pruned
    # branches hold no path, and the rest are walked in plain DFS order.
    neighbor_order: dict[str, list[str]] = {}

    def ordered_neighbors(u: str) -> list[str]:
        cached = neighbor_order.get(u)
        if cached is None:
            cached = neighbor_order[u] = kg.neighbor_ids(u)
        return cached

    dist = _hops_to(y, x, max_hops - 1, ordered_neighbors)

    sequences: list[tuple[str, ...]] = []
    path = [x]
    on_path = {x}

    def dfs(u: str) -> bool:
        """Extend the path from u; True once the ceiling is hit."""
        hops_so_far = len(path) - 1
        budget = max_hops - hops_so_far - 1
        for v in ordered_neighbors(u):
            if dist.get(v, max_hops) > budget:  # an unreached v is out of every budget
                continue
            if v == y:
                if hops_so_far:  # the direct x-y path is never a metapath
                    if len(sequences) >= ceiling:
                        return True
                    sequences.append((*path, y))
                continue
            if v in on_path:
                continue
            path.append(v)
            on_path.add(v)
            if dfs(v):
                return True
            path.pop()
            on_path.remove(v)
        return False

    truncated = dfs(x)
    return sequences, truncated


def _hops_to(
    y: str, x: str, depth: int, neighbors: Callable[[str], list[str]]
) -> dict[str, int]:
    """Hop distance to y of every node within ``depth`` hops of it, avoiding x."""
    dist = {y: 0}
    frontier = [y]
    for d in range(1, depth + 1):
        next_frontier = []
        for u in frontier:
            for v in neighbors(u):
                if v != x and v not in dist:
                    dist[v] = d
                    next_frontier.append(v)
        frontier = next_frontier
    return dist


def _materialize_path(kg: KnowledgeGraph, sequence: tuple[str, ...]) -> Metapath:
    # Parallel edges collapse to the first stored edge for each hop.
    nodes = tuple(kg.node(nid) for nid in sequence)
    edges = tuple(
        kg.relation_labels_between(sequence[i], sequence[i + 1])[0]
        for i in range(len(sequence) - 1)
    )
    return Metapath(nodes=nodes, edges=edges)
