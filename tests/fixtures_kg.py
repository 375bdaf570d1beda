"""Small graphs mirroring the reference figures, shared across tests."""

from __future__ import annotations

from kgprompt.graph import Edge, KnowledgeGraph, Node, normalize_name

# Names that only casefold, a line break, a NUL or a lone surrogate tell apart,
# with duplicates: (node id, name), in insertion order.
ODD_NAMES = [
    ("s1", "Straße"), ("s2", "STRASSE"), ("s3", "strasse"), ("s4", "Straße"),
    ("n1", "a\nb"), ("n2", "a b"), ("n3", "a\nb"),
    ("z1", "\0x"), ("z2", "x"),
    ("u1", "\ud800y"), ("u2", "y\ud800"), ("u3", "y"),
    ("e1", "!!!"), ("e2", "???"),
]


def make_graph(
    nodes: list[tuple[str, str, str]], edges: list[tuple[str, str, str]]
) -> KnowledgeGraph:
    return KnowledgeGraph(
        [Node(id=nid, name=name, node_type=ntype) for nid, name, ntype in nodes],
        [Edge(source=s, target=t, label=l) for s, t, l in edges],
    )


def name_lookups(kg: KnowledgeGraph, names: list[str], keys: list[str] | None = None) -> dict:
    """What linking asks a graph for each name: the first node with exactly
    that name, and the first node whose normalized name is the name's
    (``keys``, normalized beforehand when given)."""
    exact = kg.first_nodes_named(names)
    keys = keys if keys is not None else [normalize_name(name) for name in names]
    return {name: (exact.get(name), kg.first_node_normalized(key)) for name, key in zip(names, keys)}


def prostate_star_graph() -> KnowledgeGraph:
    """prostate cancer with its five 1-hop neighbors and labeled edges."""
    return make_graph(
        nodes=[
            ("Q:PC", "prostate cancer", "disease"),
            ("Q:NIL", "nilutamide", "compound"),
            ("Q:CAB", "cabazitaxel", "compound"),
            ("Q:URO", "urology", "field"),
            ("Q:FSHR", "FSHR", "gene"),
            ("Q:F6F10", "F6F10", "gene"),
        ],
        edges=[
            ("Q:PC", "Q:NIL", "drug or therapy used for treatment"),
            ("Q:PC", "Q:CAB", "drug or therapy used for treatment"),
            ("Q:PC", "Q:URO", "health specialty"),
            ("Q:PC", "Q:FSHR", "genetic association"),
            ("Q:PC", "Q:F6F10", "genetic association"),
        ],
    )


def gene_hop_graph() -> KnowledgeGraph:
    """4-node graph where FGF6 reaches prostate cancer in two hops."""
    return make_graph(
        nodes=[
            ("H:FGF6", "FGF6", "gene"),
            ("H:FGFR4", "FGFR4", "gene"),
            ("H:PC", "prostate cancer", "disease"),
            ("H:UB", "urinary bladder", "anatomy"),
        ],
        edges=[
            ("H:FGF6", "H:FGFR4", "interacts with"),
            ("H:FGFR4", "H:PC", "genetic association"),
            ("H:FGF6", "H:UB", "expressed in"),
            ("H:PC", "H:UB", "affects"),
        ],
    )


def common_neighbor_graph() -> KnowledgeGraph:
    """breast cancer and ERBB2 sharing five neighbors."""
    nodes = [
        ("C:BC", "breast cancer", "disease"),
        ("C:ERBB2", "ERBB2", "gene"),
        ("C:ADH5", "ADH5", "gene"),
        ("C:MG", "mammary gland", "anatomy"),
        ("C:EXE", "exemestane", "compound"),
        ("C:TGFBR2", "TGFBR2", "gene"),
        ("C:DPYSL2", "DPYSL2", "gene"),
    ]
    shared = ["C:ADH5", "C:MG", "C:EXE", "C:TGFBR2", "C:DPYSL2"]
    edges = [("C:BC", nid, "associates") for nid in shared]
    edges += [(nid, "C:ERBB2", "relates to") for nid in shared]
    return make_graph(nodes, edges)


def metapath_graph() -> KnowledgeGraph:
    """FGF6 .. prostate cancer via tendon/SQRDL/FGFR2; one hop runs against
    the stored edge direction (FGFR2 regulates SQRDL)."""
    return make_graph(
        nodes=[
            ("M:FGF6", "FGF6", "gene"),
            ("M:TEN", "tendon", "anatomy"),
            ("M:SQRDL", "SQRDL", "gene"),
            ("M:FGFR2", "FGFR2", "gene"),
            ("M:PC", "prostate cancer", "disease"),
        ],
        edges=[
            ("M:FGF6", "M:TEN", "expressed in"),
            ("M:TEN", "M:SQRDL", "expresses"),
            ("M:FGFR2", "M:SQRDL", "regulates"),
            ("M:FGFR2", "M:PC", "associates with"),
        ],
    )
