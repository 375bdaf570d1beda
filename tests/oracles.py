"""Independent brute-force oracles used to check the library's answers.

Everything here works on raw (source, target, label) edge triples and plain
prediction/gold label pairs, never on the package's graph or metric types,
so the two sides of each check stay independent. The one exception is the
frozen metapath enumerator, which pins the order the graph's adjacency gives.
"""

from __future__ import annotations

from collections import deque
from random import Random

from kgprompt.graph import KnowledgeGraph


def undirected_neighbor_ids(edges: list[tuple[str, str, str]], x: str) -> set[str]:
    """Brute-force neighbor set of x, scanning the raw edge list."""
    result = set()
    for source, target, _label in edges:
        if source == x and target != x:
            result.add(target)
        if target == x and source != x:
            result.add(source)
    return result


def common_neighbor_ids(edges: list[tuple[str, str, str]], x: str, y: str) -> set[str]:
    return undirected_neighbor_ids(edges, x) & undirected_neighbor_ids(edges, y)


def bfs_hop_partition(
    edges: list[tuple[str, str, str]], x: str, k: int
) -> list[set[str]]:
    """Nodes at shortest undirected distance exactly h, for h = 1..k."""
    adjacency: dict[str, set[str]] = {}
    for source, target, _label in edges:
        if source != target:
            adjacency.setdefault(source, set()).add(target)
            adjacency.setdefault(target, set()).add(source)
    distance = {x: 0}
    queue = deque([x])
    while queue:
        current = queue.popleft()
        for other in adjacency.get(current, ()):
            if other not in distance:
                distance[other] = distance[current] + 1
                queue.append(other)
    return [
        {node for node, d in distance.items() if d == hop} for hop in range(1, k + 1)
    ]


def dfs_simple_path_set(
    edges: list[tuple[str, str, str]], x: str, y: str, max_hops: int
) -> set[tuple[str, ...]]:
    """All simple undirected x..y node sequences with 2..max_hops hops.

    The 2-node direct path is excluded, mirroring the direct-path ban.
    """
    adjacency: dict[str, set[str]] = {}
    for source, target, _label in edges:
        if source != target:
            adjacency.setdefault(source, set()).add(target)
            adjacency.setdefault(target, set()).add(source)
    paths: set[tuple[str, ...]] = set()

    def walk(node: str, trail: tuple[str, ...]) -> None:
        for other in adjacency.get(node, ()):
            if other == y:
                if 2 <= len(trail) <= max_hops:
                    paths.add(trail + (y,))
                continue
            if len(trail) >= max_hops or other in trail:
                continue
            walk(other, trail + (other,))

    walk(x, (x,))
    return paths


# Frozen copy of the metapath enumerator before distance pruning: a plain DFS
# in adjacency order. The pruned enumerator must return the same sequences,
# in the same order, with the same truncation flag. Unlike the oracles
# above, it reads the package's graph, because the order it pins is the
# graph's adjacency order.
def frozen_simple_path_sequences(
    kg: KnowledgeGraph, x: str, y: str, max_hops: int, ceiling: int
) -> tuple[list[tuple[str, ...]], bool]:
    # Iterative-deepening-free DFS; adjacency order makes results deterministic.
    neighbor_order: dict[str, list[str]] = {}

    def ordered_neighbors(u: str) -> list[str]:
        cached = neighbor_order.get(u)
        if cached is None:
            cached = [n.id for n in kg.neighbors(u)]
            neighbor_order[u] = cached
        return cached

    sequences: list[tuple[str, ...]] = []
    truncated = False
    path = [x]
    on_path = {x}

    def dfs(u: str) -> None:
        nonlocal truncated
        if truncated:
            return
        hops_so_far = len(path) - 1
        for v in ordered_neighbors(u):
            if truncated:
                return
            if v == y:
                if 2 <= hops_so_far + 1 <= max_hops:
                    if len(sequences) >= ceiling:
                        truncated = True
                        return
                    sequences.append(tuple(path) + (y,))
                continue
            if hops_so_far + 1 >= max_hops or v in on_path:
                continue
            path.append(v)
            on_path.add(v)
            dfs(v)
            path.pop()
            on_path.remove(v)

    dfs(x)
    return sequences, truncated


def brute_force_confusion(
    pairs: list[tuple[str, str]], positive: str = "causal"
) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) from (predicted, gold) label pairs."""
    tp = fp = fn = tn = 0
    for predicted, gold in pairs:
        if predicted == positive and gold == positive:
            tp += 1
        elif predicted == positive and gold != positive:
            fp += 1
        elif predicted != positive and gold == positive:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def random_graph(
    rng: Random, max_nodes: int = 50, max_edges: int = 200
) -> tuple[list[tuple[str, str, str]], list[tuple[str, str, str]]]:
    """Random labeled digraph: (nodes as (id, name, type), edge triples).

    No self-loops and no exact duplicate triples, matching the graph
    construction contract.
    """
    n = rng.randint(2, max_nodes)
    nodes = [(f"n{i}", f"node {i}", rng.choice(["gene", "disease", "compound"])) for i in range(n)]
    labels = ["binds", "treats", "regulates", "associates", "expresses"]
    edges: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()
    target_count = rng.randint(1, max_edges)
    for _attempt in range(target_count * 3):
        if len(edges) >= target_count:
            break
        source = f"n{rng.randrange(n)}"
        target = f"n{rng.randrange(n)}"
        if source == target:
            continue
        triple = (source, target, rng.choice(labels))
        if triple in seen:
            continue
        seen.add(triple)
        edges.append(triple)
    return nodes, edges
