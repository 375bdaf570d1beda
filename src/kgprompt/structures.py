"""Extract graph structures for a variable pair: neighbor nodes (NN),
common neighbor nodes (CNN) and metapaths (MP).

Extraction is exhaustive first, then a seeded uniformly-random subset is
kept, so structure content is never ranked or optimized. Every operation
derives its generator from (seed, kind, pair), which makes per-pair
extraction safe to parallelize without changing results.

Metapaths are numbered, not enumerated: one depth-first walker, in adjacency
order, gives each simple x..y path its index as it passes it. It passes a
branch with two hops left by its closed-form count, skips branches that can
no longer reach y (by hop distances from a breadth-first search that avoids
x), and builds a path only when its index was drawn. One pass of it counts
the paths, the seeded subset is drawn over their indices exactly as over the
enumerated list, and a second pass over the children of x that hold a drawn
index collects the drawn paths. Paths, order, candidate count and truncation
flag are those of the plain depth-first walk.
When ``max_paths_enumerated`` is passed, counting stops there and the subset
is drawn from the first paths in that order, not from all paths.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Callable, Iterable, Sequence, TypeVar

from ._digest import sha256
from .errors import SamePairError, check_field_types
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
    digest = sha256(repr((base,) + parts).encode("utf-8")).digest()
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
    i = kg.index_of(x)
    return _select_neighbors(
        x, list(dict.fromkeys(kg.row(i))), lambda j: NeighborLink(kg.node_at(j), tuple(kg.links(i, j))),
        limits, seed,
    )


def star_neighbors(
    x: str, links: Iterable[tuple[Node, str, Direction]], limits: ExtractionLimits, seed: int
) -> StructureBundle:
    """:func:`extract_neighbors` of x in the star that its fetched (neighbor,
    label, direction) rows make: a row back to x is dropped, and a neighbor
    keeps its first row's node and its distinct (label, direction) pairs."""
    neighbors: dict[str, tuple[Node, dict[tuple[str, Direction], None]]] = {}
    for node, label, direction in links:
        if node.id != x:
            neighbors.setdefault(node.id, (node, {}))[1][label, direction] = None
    return _select_neighbors(
        x, list(neighbors.values()), lambda entry: NeighborLink(entry[0], tuple(entry[1])), limits, seed
    )


def _select_neighbors(
    x: str, candidates: list[T], link: Callable[[T], NeighborLink], limits: ExtractionLimits, seed: int
) -> StructureBundle:
    """x's NN bundle: the links of a seeded ``max_neighbors``-subset of its candidates."""
    chosen = select_subset(candidates, limits.max_neighbors, derive_seed(seed, "NN", x))
    return StructureBundle(
        kind=StructureKind.NN,
        pair=(x, None),
        payload=tuple(map(link, chosen)),
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
    near_y = set(kg.row(kg.index_of(y)))
    common = [j for j in dict.fromkeys(kg.row(kg.index_of(x))) if j in near_y]
    chosen = select_subset(common, limits.max_common_neighbors, derive_seed(seed, "CNN", x, y))
    return StructureBundle(
        kind=StructureKind.CNN,
        pair=(x, y),
        payload=tuple(map(kg.node_at, chosen)),
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
    true source first. A node absent from the graph raises UnknownNodeError.
    """
    if x == y:
        raise SamePairError(f"metapaths need two distinct nodes, got {x!r} twice")
    if limits.max_hops < 2:
        raise ValueError("metapath enumeration requires max_hops >= 2")
    tree = _PathTree(kg, kg.index_of(x), kg.index_of(y), limits.max_hops)
    ceiling = limits.max_paths_enumerated
    top, total = tree.scan(ceiling)
    truncated = total > ceiling
    if truncated:
        log.warning("metapath enumeration for (%s, %s) truncated at %d paths", x, y, ceiling)
    candidate_count = min(total, ceiling)
    keep = select_subset(range(candidate_count), limits.max_metapaths, derive_seed(seed, "MP", x, y))
    payload = tuple(_materialize_path(kg, path) for path in tree.paths(top, keep))
    return StructureBundle(
        kind=StructureKind.MP,
        pair=(x, y),
        payload=payload,
        selection_seed=seed,
        candidate_count=candidate_count,
        truncated=truncated,
    )


class _PathTree:
    """The simple x..y paths of 2..max_hops hops, as the tree of their
    prefixes in depth-first adjacency order, over the graph's node ints.

    One walker, :meth:`number`, gives each path its depth-first index as it
    passes it, and both counting and selection call it. A prefix with two
    hops left from v is passed by its closed-form count, ``[y in N(v)] +
    |N(v) & N(y)|`` minus the prefix nodes in N(v) & N(y), unless it holds
    the next kept index. The walk keeps an explicit stack, so no recursion
    grows with ``max_hops``.
    """

    def __init__(self, kg: KnowledgeGraph, x: int, y: int, max_hops: int):
        self.row = kg.row
        self.x, self.y, self.max_hops = x, y, max_hops
        self.near_y = set(self.row(y))
        # a completion from v avoids x, so it is at least dist[v] hops long
        self.dist = kg.hop_distances(y, max_hops - 2, avoid=x)
        self._onward: dict[int, dict[int, None]] = {}
        self._two_hop_counts: dict[int, int] = {}

    def onward(self, u: int) -> dict[int, None]:
        """u's neighbors within ``max_hops - 2`` hops of y, deduplicated in
        first-link order (a dict, so also a set). A prefix past x's child
        has at most ``max_hops - 2`` hops left, so it extends only to these."""
        found = self._onward.get(u)
        if found is None:
            found = self._onward[u] = dict.fromkeys(filter(self.dist.__contains__, self.row(u)))
        return found

    def _two_hops(self, path: list[int], v: int) -> int:
        """Paths below the prefix ``path + [v]`` with two hops left from v."""
        near_y = self.near_y
        count = self._two_hop_counts.get(v)
        if count is None:
            count = self._two_hop_counts[v] = (v in near_y) + len(near_y.intersection(self.row(v)))
        # Subtract the prefix nodes in N(v) & N(y). v's parent is in N(v); an
        # earlier prefix node p is when v is in onward(p), because v, two or
        # more hops past x, came from an onward() and so is within its reach.
        count -= path[-1] in near_y
        for p in path[:-1]:
            if p in near_y and v in self.onward(p):
                count -= 1
        return count

    def number(self, v: int, base: int, stop: int, keep: Sequence[int], found: list[list[int]]) -> int:
        """Number the paths below the prefix ``[x, v]`` in depth-first order,
        the first one ``base``, and append to ``found`` the path at each index
        of the sorted ``keep`` from ``keep[len(found)]`` on. Stop once the
        index passes ``stop`` (>= ``base`` and every kept index), and return
        the index after the last path numbered, at most ``stop + 1``."""
        y, dist, max_hops = self.y, self.dist, self.max_hops
        goal = keep[len(found)] if len(found) < len(keep) else stop + 1  # the next kept index, if any
        bound = min(goal, stop)  # indices below it need no more than a count
        path, on_path = [self.x, v], {self.x, v}
        frames = [iter(self.onward(v))]
        while frames:
            left = max_hops - len(path) + 1  # hops left from path[-1]
            for w in frames[-1]:
                if w != y:
                    if w in on_path or dist[w] >= left:
                        continue
                    if left == 3:  # w has two hops left: pass its branch by their count
                        after = base + self._two_hops(path, w)  # the index after the branch
                        if after <= bound:
                            base = after
                            continue
                        if bound < goal:  # the branch holds the stop, not the kept index
                            return stop + 1
                    if left > 2:  # enter w's branch
                        path.append(w)
                        on_path.add(w)
                        frames.append(iter(self.onward(w)))
                        break
                # a path ends here: in w, y when w has one hop left, or in y
                if base < bound:
                    base += 1
                    continue
                if bound < goal:  # the path is the stop, not the kept index
                    return stop + 1
                found.append(path + [w, y] if w != y else path + [y])
                base += 1
                if base > stop:  # stop >= every kept index, so all are found
                    return base
                goal = bound = keep[len(found)]
            else:
                frames.pop()
                on_path.discard(path.pop())
        return base

    def scan(self, ceiling: int) -> tuple[list[tuple[int, int]], int]:
        """Each child of x whose subtree holds a path, with its path count,
        in order, until the running total passes ``ceiling``; and that total.
        The last child's count is capped where the total passes the ceiling."""
        top: list[tuple[int, int]] = []
        total = 0
        for v in dict.fromkeys(self.row(self.x)):
            if total > ceiling:
                break
            if v == self.y:  # the direct x-y path is never a metapath
                continue
            end = self.number(v, total, ceiling, (), [])
            if end > total:
                top.append((v, end - total))
                total = end
        return top, total

    def paths(self, top: list[tuple[int, int]], keep: list[int]) -> list[list[int]]:
        """The paths at the sorted depth-first indices ``keep``, numbering only
        the children of x that hold a kept index; ``top`` is what
        :meth:`scan` gave."""
        found: list[list[int]] = []
        base = 0  # the depth-first index of the first path below v
        for v, count in top:
            if len(found) < len(keep) and keep[len(found)] < base + count:
                self.number(v, base, keep[-1], keep, found)
            base += count
        return found


def _materialize_path(kg: KnowledgeGraph, path: list[int]) -> Metapath:
    # Parallel edges collapse to the first stored edge for each hop.
    return Metapath(
        nodes=tuple(map(kg.node_at, path)), edges=tuple(map(next, map(kg.links, path, path[1:])))
    )
