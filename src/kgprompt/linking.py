"""Link dataset pair names to knowledge-graph node ids.

Resolution tries an exact name match first, then a case/punctuation
normalized match, then a manual override table; whatever is left is an
unresolved marker, never a failure, so downstream stages degrade to an
empty graph context instead of dropping the instance.

The first two steps ask a name lookup: a local graph, or a remote entity
search (:func:`search_lookup`). Either way each distinct name is looked up
once, in first-appearance order. A graph answers the exact step for all the
pair names in one pass over its node names, and the normalized step by a
bisect of its normalized-name index; it builds no table of all its names.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .dataset import Instance
from .errors import OverrideConflictError, read_json
from .graph import KnowledgeGraph, normalize_name

EXACT = "exact"
NORMALIZED = "normalized"
MANUAL_OVERRIDE = "manual_override"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class PairLinkage:
    instance_id: str
    e1_node: str | None
    e2_node: str | None
    e1_method: str = UNRESOLVED
    e2_method: str = UNRESOLVED


# A name lookup answers (node id, EXACT or NORMALIZED), or None for no match.
NameLookup = Callable[[str], "tuple[str, str] | None"]


def load_overrides(path: str | Path) -> dict[str, str]:
    """Read a manual override table: pair name -> node id."""
    data = read_json(path)  # a JSON object's keys are strings
    if not isinstance(data, dict) or not all(isinstance(v, str) for v in data.values()):
        raise OverrideConflictError(f"override table {path} must map name strings to node id strings")
    return data


def _graph_lookup(kg: KnowledgeGraph, names: Iterable[str]) -> NameLookup:
    """Exact, then normalized match of ``names`` against the graph's node names.

    When several nodes share a name the first by node insertion order wins,
    which keeps linking deterministic.
    """
    exact = kg.first_nodes_named(names)

    def lookup(name: str) -> tuple[str, str] | None:
        if name in exact:
            return exact[name], EXACT
        node_id = kg.first_node_normalized(normalize_name(name))
        return None if node_id is None else (node_id, NORMALIZED)

    return lookup


def search_lookup(search: Callable[[str], list[tuple[str, str, str]]]) -> NameLookup:
    """The first entity-search candidate (id, label, description) wins.

    It counts as EXACT when its label equals the name case-insensitively,
    NORMALIZED otherwise.
    """

    def lookup(name: str) -> tuple[str, str] | None:
        candidates = search(name)
        if not candidates:
            return None
        entity_id, label, _description = candidates[0]
        return entity_id, EXACT if label.casefold() == name.casefold() else NORMALIZED

    return lookup


def link_pairs(
    instances: list[Instance],
    kg: KnowledgeGraph | NameLookup,
    overrides: dict[str, str] | None = None,
) -> list[PairLinkage]:
    """Resolve every instance's pair names against a graph or a name lookup.

    Against a graph, an override naming a node id absent from it is a
    conflict and fails loudly.
    """
    overrides = overrides or {}
    if isinstance(kg, KnowledgeGraph):
        for name, node_id in overrides.items():
            if not kg.has_node(node_id):
                raise OverrideConflictError(
                    f"override for {name!r} points at unknown node id {node_id!r}"
                )
        lookup = _graph_lookup(kg, {name for instance in instances for name in (instance.e1, instance.e2)})
    else:
        lookup = kg

    resolved: dict[str, tuple[str | None, str]] = {}

    def resolve(name: str) -> tuple[str | None, str]:
        if name not in resolved:
            hit = lookup(name)
            if hit is not None:
                resolved[name] = hit
            elif name in overrides:
                resolved[name] = (overrides[name], MANUAL_OVERRIDE)
            else:
                resolved[name] = (None, UNRESOLVED)
        return resolved[name]

    linkages = []
    for instance in instances:
        e1_node, e1_method = resolve(instance.e1)
        e2_node, e2_method = resolve(instance.e2)
        linkages.append(
            PairLinkage(
                instance_id=instance.instance_id,
                e1_node=e1_node,
                e2_node=e2_node,
                e1_method=e1_method,
                e2_method=e2_method,
            )
        )
    return linkages
