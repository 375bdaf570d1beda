"""Render structure bundles into natural-language graph contexts.

Rendering is pure and deterministic: the same bundle and template set always
produce the same string. A context is its segments, each a fixed prefix plus
droppable items; its text, source nodes and empty flag are read off the
segments that still hold items, so prompt truncation shrinks a context by
dropping items without re-running extraction. Empty structures yield a
context without segments, which is empty, instead of a sentence with a
dangling connective.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

from .errors import KindMismatchError, MissingLabelError, check_field_types
from .graph import Node
from .structures import Metapath, NeighborLink, StructureBundle, StructureKind

_SEGMENT_JOINER = "; "


@dataclass(frozen=True)
class TemplateSet:
    """Connective words used by the renderers.

    The defaults reproduce the reference renderings exactly; any field can
    be replaced by other fitting words through the configuration's
    ``templates`` section.
    """

    nn_connective: str = "is connected to"
    nn_labeled_pre: str = "has"
    nn_labeled_post: str = "relation with"
    cnn_prefix: str = "Common neighbor nodes of"
    mp_connective: str = "is connected to"
    mp_path_intro: str = "via the following paths:"
    list_separator: str = ", "
    final_conjunction: str = "and"

    def __post_init__(self) -> None:
        check_field_types(self)
        for f in fields(self):
            if not getattr(self, f.name):
                raise ValueError(f"template field {f.name!r} must be non-empty")


DEFAULT_TEMPLATES = TemplateSet()


@dataclass(frozen=True)
class ContextSegment:
    """One renderable clause group: a fixed prefix plus droppable items."""

    prefix: str
    prefix_nodes: tuple[str, ...]
    items: tuple[tuple[str, tuple[str, ...]], ...]
    separator: str

    def render(self) -> str:
        return self.prefix + self.separator.join(text for text, _ids in self.items)


@dataclass(frozen=True)
class GraphContext:
    """A verbalized structure: its kind and its segments.

    Only the populated segments (those with items left) count: ``text``
    renders them joined by "; ", ``source_nodes`` lists their node ids in
    first-appearance order, and ``empty`` is true exactly when ``text`` is
    the empty string. When non-empty, every source node's name appears
    verbatim in the text.
    """

    kind: StructureKind
    segments: tuple[ContextSegment, ...] = ()

    @cached_property
    def text(self) -> str:
        return _SEGMENT_JOINER.join(s.render() for s in self.segments if s.items)

    @property
    def empty(self) -> bool:
        return not self.text

    @property
    def source_nodes(self) -> tuple[str, ...]:
        ids: list[str] = []
        for segment in self.segments:
            if segment.items:
                ids += segment.prefix_nodes
                for _text, item_ids in segment.items:
                    ids += item_ids
        return tuple(dict.fromkeys(ids))

    @property
    def item_count(self) -> int:
        return sum(len(s.items) for s in self.segments)

    def without_last_item(self) -> "GraphContext":
        """Drop the last item of the last populated segment."""
        segments = list(self.segments)
        for i in range(len(segments) - 1, -1, -1):
            if segments[i].items:
                segments[i] = replace(segments[i], items=segments[i].items[:-1])
                return GraphContext(self.kind, tuple(segments))
        return self


def empty_context(kind: StructureKind) -> GraphContext:
    return GraphContext(kind)


def _require_kind(bundle: StructureBundle, kind: StructureKind) -> None:
    if bundle.kind is not kind:
        raise KindMismatchError(f"expected a {kind.value} bundle, got {bundle.kind.value}")


def _join_names(names: list[str], t: TemplateSet) -> str:
    # "a" / "a and b" / "a, b and c"
    if len(names) == 1:
        return names[0]
    return f"{t.list_separator.join(names[:-1])} {t.final_conjunction} {names[-1]}"


def verbalize_neighbors(
    x: Node, bundle: StructureBundle, t: TemplateSet = DEFAULT_TEMPLATES
) -> GraphContext:
    """"<x> is connected to <n1, n2, ...>" over the bundle's neighbors."""
    _require_kind(bundle, StructureKind.NN)
    if not bundle.payload:
        return empty_context(StructureKind.NN)
    segment = ContextSegment(
        prefix=f"{x.name} {t.nn_connective} ",
        prefix_nodes=(x.id,),
        items=tuple((link.node.name, (link.node.id,)) for link in bundle.payload),
        separator=t.list_separator,
    )
    return GraphContext(StructureKind.NN, (segment,))


def verbalize_neighbors_labeled(
    x: Node, bundle: StructureBundle, t: TemplateSet = DEFAULT_TEMPLATES
) -> GraphContext:
    """Neighbors grouped by shared relation label.

    Groups appear in first-appearance order of their labels. The first
    group reads "has <label> relation with <names>"; later groups elide the
    leading word of the labeled connective ("has <label> with <names>"),
    matching the reference rendering.
    """
    _require_kind(bundle, StructureKind.NN)
    if not bundle.payload:
        return empty_context(StructureKind.NN)
    groups: dict[str, list[Node]] = {}
    for link in bundle.payload:
        if not isinstance(link, NeighborLink) or not link.labels:
            raise MissingLabelError(
                f"neighbor {getattr(getattr(link, 'node', None), 'id', link)!r} carries no relation label"
            )
        for label, _direction in link.labels:
            groups.setdefault(label, []).append(link.node)

    elided_post = t.nn_labeled_post.split(" ", 1)[1] if " " in t.nn_labeled_post else t.nn_labeled_post
    items: list[tuple[str, tuple[str, ...]]] = []
    for i, (label, members) in enumerate(groups.items()):
        post = t.nn_labeled_post if i == 0 else elided_post
        clause = f"{t.nn_labeled_pre} {label} {post} {_join_names([m.name for m in members], t)}"
        items.append((clause, tuple(m.id for m in members)))
    segment = ContextSegment(
        prefix=f"{x.name} ",
        prefix_nodes=(x.id,),
        items=tuple(items),
        separator=", ",
    )
    return GraphContext(StructureKind.NN, (segment,))


def verbalize_common_neighbors(
    x: Node, y: Node, bundle: StructureBundle, t: TemplateSet = DEFAULT_TEMPLATES
) -> GraphContext:
    """"Common neighbor nodes of <x> and <y> are: <n1, ...>"."""
    _require_kind(bundle, StructureKind.CNN)
    if not bundle.payload:
        return empty_context(StructureKind.CNN)
    segment = ContextSegment(
        prefix=f"{t.cnn_prefix} {x.name} {t.final_conjunction} {y.name} are: ",
        prefix_nodes=(x.id, y.id),
        items=tuple((n.name, (n.id,)) for n in bundle.payload),
        separator=t.list_separator,
    )
    return GraphContext(StructureKind.CNN, (segment,))


def verbalize_metapath(
    x: Node, y: Node, bundle: StructureBundle, t: TemplateSet = DEFAULT_TEMPLATES
) -> GraphContext:
    """"<x> is connected to <y> via the following paths: <hop clauses>".

    Each hop clause names the stored edge's true source first, so a walk
    that runs against an edge still reads in the edge's own direction.
    Multiple selected paths are separated by "; ".
    """
    _require_kind(bundle, StructureKind.MP)
    if not bundle.payload:
        return empty_context(StructureKind.MP)
    items: list[tuple[str, tuple[str, ...]]] = []
    for path in bundle.payload:
        items.append((_render_path(path, t), tuple(n.id for n in path.nodes)))
    segment = ContextSegment(
        prefix=f"{x.name} {t.mp_connective} {y.name} {t.mp_path_intro} ",
        prefix_nodes=(x.id, y.id),
        items=tuple(items),
        separator=_SEGMENT_JOINER,
    )
    return GraphContext(StructureKind.MP, (segment,))


def _render_path(path: Metapath, t: TemplateSet) -> str:
    clauses = []
    for i, (label, direction) in enumerate(path.edges):
        u, v = path.nodes[i], path.nodes[i + 1]
        if direction == "out":
            clauses.append(f"{u.name} {label} {v.name}")
        else:
            clauses.append(f"{v.name} {label} {u.name}")
    return t.list_separator.join(clauses)


def combine_contexts(contexts: list[GraphContext]) -> GraphContext:
    """Merge several same-kind contexts into one (clauses joined by "; ")."""
    kind = contexts[0].kind if contexts else StructureKind.NN
    return GraphContext(kind, tuple(s for c in contexts for s in c.segments if s.items))
