"""Three-layer mapping graph: modes (R) → cognitive functions (C) → epistemic purposes (E).

Two built-in profiles ship with the package:

* ``default`` — 14 cognitive functions over the built-in modes, and 8
  epistemic purposes over those functions.
* ``academic-writing`` — an alternative C layer of 7 academic-writing
  functions, each serving one epistemic purpose; its R-layer targets
  include writing moves that are not built-in modes (grading,
  clarification, questioning, ...), which are auto-registered as generated
  atoms so the graph always resolves.

Edges run downward only (C→R and E→C) and are unweighted sets.  Mapping
documents are JSON::

    {"profile": "...",
     "c_nodes": [{"id": "...", "display_name": "...", "modes": [...]}],
     "e_nodes": [{"id": "...", "display_name": "...", "cognitive": [...]}]}

Entries may carry an optional ``description``; R-layer nodes are derived
from the referenced modes, never stored.

The module also builds compound "academic function" modes from a core mode
plus supplementary modes (:func:`compose_academic`).
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    BadComposition,
    BadEdge,
    ParseError,
    UnknownNode,
    UnknownProfile,
)
from .jsontext import entries, json_text, names_field, read_document, text_field
from .records import record
from .registry import (
    Mode,
    Registry,
    _ID_PATTERN,
    _hints,
    _title,
    canon,
    default_registry,
    generated_mode,
)

R = "R"
C = "C"
E = "E"
LAYERS = (R, C, E)

DEFAULT_PROFILE = "default"
ACADEMIC_PROFILE = "academic-writing"
BUILTIN_PROFILES = (DEFAULT_PROFILE, ACADEMIC_PROFILE)

#: Per upper layer: its node list's key in a mapping document, and the key
#: of each node's targets one layer down.
_DOCUMENT_KEYS = ((C, "c_nodes", "modes"), (E, "e_nodes", "cognitive"))


@record
class LayerNode:
    """One node of the mapping graph, tagged with its layer."""

    layer: str
    id: str
    display_name: str
    description: str = ""


@record
class AcademicFunction:
    """A compound writing move: one core mode plus supplementary modes."""

    name: str
    core: str
    supplements: tuple[str, ...]


# --- built-in profile data --------------------------------------------------
# (id, display name, description, mode targets)
_DEFAULT_C_NODES = (
    ("observe", "Observe",
     "Take in phenomena and record what is there.",
     ("description", "narration", "exemplification", "evidence")),
    ("identify", "Identify",
     "Pick out and name entities or patterns.",
     ("definition", "contrast", "classification", "evidence")),
    ("compare", "Compare",
     "Set attributes or outcomes against each other.",
     ("comparison", "analogy", "evaluation")),
    ("classify", "Classify",
     "Sort items into structured groups.",
     ("classification", "division", "definition")),
    ("abstract", "Abstract",
     "Pull general properties out of particulars.",
     ("exemplification", "exposition", "analogy")),
    ("hypothesize", "Hypothesize",
     "Propose candidate explanations.",
     ("problem", "cause", "argument")),
    ("model", "Model",
     "Represent a system in symbolic or schematic form.",
     ("process-analysis", "analogy", "exposition")),
    ("infer", "Infer",
     "Draw out implications from what is known.",
     ("cause", "effect", "argument")),
    ("test-validate", "Test/Validate",
     "Check hypotheses or models against support.",
     ("evidence", "illustration", "evaluation")),
    ("explain", "Explain",
     "Give an account of how or why something holds.",
     ("cause-effect", "exposition", "process-analysis")),
    ("evaluate", "Evaluate",
     "Judge soundness or relevance of claims.",
     ("evaluation", "comparison", "argument", "persuasion")),
    ("predict", "Predict",
     "Project forthcoming outcomes or states.",
     ("analogy", "cause", "process-analysis")),
    ("integrate-synthesize", "Integrate/Synthesize",
     "Bring separate lines of reasoning into one whole.",
     ("exposition", "analogy", "synthesis")),
    ("reflect", "Reflect/Meta-cognitive Assessment",
     "Examine one's own reasoning and its limits.",
     ("evaluation", "definition", "problem-solution", "exposition", "persuasion")),
)

# (id, display name, description, cognitive targets)
_DEFAULT_E_NODES = (
    ("knowledge-formation", "Knowledge Formation",
     "Building up concepts and understanding.",
     ("observe", "identify", "classify", "abstract")),
    ("scientific-discovery", "Scientific Discovery",
     "Generating and testing new hypotheses.",
     ("hypothesize", "model", "test-validate", "infer")),
    ("communication", "Communication",
     "Spreading knowledge through discourse.",
     ("compare", "explain", "integrate-synthesize", "evaluate")),
    ("teaching-learning", "Teaching/Learning",
     "Passing knowledge between teacher and learner.",
     ("observe", "identify", "model", "explain", "evaluate", "reflect")),
    ("problem-solving", "Problem Solving",
     "Putting knowledge to work on concrete problems.",
     ("classify", "hypothesize", "infer", "test-validate", "evaluate")),
    ("innovation-design", "Innovation/Design",
     "Creating new systems, artifacts, or methods.",
     ("model", "abstract", "integrate-synthesize", "predict")),
    ("evaluation-decision-making", "Evaluation/Decision-Making",
     "Weighing evidence to reach decisions.",
     ("evaluate", "reflect", "infer")),
    ("policy-action-implementation", "Policy/Action Implementation",
     "Turning knowledge into action in real settings.",
     ("predict", "explain", "integrate-synthesize", "evaluate")),
)

_ACADEMIC_C_NODES = (
    ("information-presentation", "Information Presentation",
     "Lay out the subject's background, features, and structure.",
     ("narration", "description", "definition", "classification",
      "decomposition", "grading", "summarization", "delineation")),
    ("relational-reasoning", "Relational Reasoning",
     "Work out relationships that carry an explanatory framework.",
     ("comparison", "contrast", "analogy", "relational-analysis",
      "causal-analysis", "induction", "synthesis")),
    ("process-construction", "Process Construction",
     "Spell out sequences, developments, and operational steps.",
     ("process-analysis", "procedural-description")),
    ("argumentation-support", "Argumentation Support",
     "Build and back the author's claims and reasoning chains.",
     ("exemplification", "evidence", "argumentation", "persuasion",
      "elaboration", "claim-making")),
    ("understanding-construction", "Understanding Construction",
     "Deepen conceptual clarity and tie new material to known ground.",
     ("clarification", "explanation")),
    ("interaction-construction", "Interaction Construction",
     "Steer the reader's thinking and invite engagement.",
     ("questioning", "answering")),
    ("evaluation-and-reflection", "Evaluation and Reflection",
     "Weigh the value and validity of ideas, methods, and results.",
     ("evaluation", "verification", "validation")),
)

_ACADEMIC_E_NODES = (
    ("establishing-shared-conceptual-ground", "Establishing Shared Conceptual Ground",
     "Give writer and reader a common footing of concepts.",
     ("information-presentation",)),
    ("constructing-relational-understanding", "Constructing Relational Understanding",
     "Stand up an account of how things relate.",
     ("relational-reasoning",)),
    ("revealing-operational-logic", "Revealing Operational Logic",
     "Expose how a procedure or method actually runs.",
     ("process-construction",)),
    ("validating-propositions", "Validating Propositions",
     "Establish that stated claims deserve acceptance.",
     ("argumentation-support",)),
    ("achieving-conceptual-coherence", "Achieving Conceptual Coherence",
     "Bring the piece's concepts into a consistent whole.",
     ("understanding-construction",)),
    ("co-constructing-understanding", "Co-constructing Understanding",
     "Draw the reader into building the understanding jointly.",
     ("interaction-construction",)),
    ("determining-reliability-and-significance", "Determining Reliability and Significance",
     "Settle how trustworthy and important the results are.",
     ("evaluation-and-reflection",)),
)


@record
class BranchingStats:
    """Out-degrees of the upper layers, ready for layered-entropy input."""

    c_degrees: tuple[tuple[str, int], ...]
    e_degrees: tuple[tuple[str, int], ...]

    def _layer(self, layer: str) -> tuple[tuple[str, int], ...]:
        if layer == C:
            return self.c_degrees
        if layer == E:
            return self.e_degrees
        raise UnknownNode(f"no out-degrees for layer {layer!r}")

    def max_degree(self, layer: str) -> int:
        degrees = self._layer(layer)
        return max((d for _, d in degrees), default=0)

    def mean_degree(self, layer: str) -> float:
        degrees = self._layer(layer)
        return math.fsum(d for _, d in degrees) / len(degrees) if degrees else 0.0

    def branchings(self, layer: str) -> list[tuple[str, int]]:
        """Stage list for :func:`rhetor.entropy.entropy_layered`."""
        return list(self._layer(layer))


class PyramidGraph:
    """Immutable three-layer graph with downward edges C→R and E→C.

    ``profile``, ``edges_cr``, ``edges_ec`` and ``registry`` are read-only.
    The profile is a non-empty string, each node id is canonical and unique
    in its layer, and each C- and E-node has a child; a node that breaks one
    is named by its place among its layer's nodes (``c_nodes[i]``).  The
    edges are stored once: one checking pass per upper layer keeps each
    node's sorted, distinct child ids in a table that is itself in node-id
    order.  ``edges_cr`` and ``edges_ec`` build a frozenset from it on each
    access; no library code reads them.  Beside it, a table of
    :class:`LayerNode` tuples lets :meth:`children` return a tuple stored at
    load.  :func:`compose_re` costs in proportion to its answer;
    :func:`branching_stats` and :meth:`to_document` sort nothing per call.
    """

    def __init__(
        self,
        profile: str,
        nodes: Iterable[LayerNode],
        edges_cr: Iterable[tuple[str, str]],
        edges_ec: Iterable[tuple[str, str]],
        registry: Registry | None = None,
    ):
        if not isinstance(profile, str) or not profile:
            raise ParseError(f"mapping profile must be a non-empty string, got {profile!r}")
        self._profile = profile
        self._nodes: dict[str, dict[str, LayerNode]] = {R: {}, C: {}, E: {}}
        for node in nodes:
            if node.layer not in LAYERS:
                raise BadEdge(f"node {node.id!r} has unknown layer {node.layer!r}")
            layer = self._nodes[node.layer]
            if not isinstance(node.id, str) or not _ID_PATTERN.match(node.id):
                raise ParseError(f"{node.layer.lower()}_nodes[{len(layer)}]: node {node.id!r} "
                                 f"in layer {node.layer} is not a canonical id")
            if node.id in layer:
                raise ParseError(f"{node.layer.lower()}_nodes[{len(layer)}]: node {node.id!r} "
                                 f"duplicated in layer {node.layer}")
            layer[node.id] = node
        self._registry = registry if registry is not None else default_registry()
        # Each upper node's child ids, in node order; every edge is checked
        # before any node is refused for having no child.
        grouped: dict[str, dict[str, list[str]]] = {}
        for upper, lower, edges in ((C, R, edges_cr), (E, C, edges_ec)):
            upper_ids, lower_ids = self._nodes[upper], self._nodes[lower]
            grouped[upper] = by_node = {node_id: [] for node_id in upper_ids}
            for up_id, low_id in edges:
                if up_id not in upper_ids:
                    raise BadEdge(f"edge references unknown {upper}-node {up_id!r}")
                if low_id not in lower_ids:
                    raise BadEdge(f"edge references unknown {lower}-node {low_id!r}")
                by_node[up_id].append(low_id)
        self._child_ids: dict[str, dict[str, tuple[str, ...]]] = {}
        self._children: dict[str, dict[str, tuple[LayerNode, ...]]] = {}
        for upper, lower, children in ((C, R, "modes"), (E, C, "cognitive functions")):
            for position, (node_id, ids) in enumerate(grouped[upper].items()):
                if not ids:
                    raise BadEdge(f"{upper.lower()}_nodes[{position}]: {upper}-node "
                                  f"{node_id!r} lists no {children}")
            lower_ids = self._nodes[lower]
            self._child_ids[upper] = table = {
                node_id: tuple(sorted(set(ids))) for node_id, ids in sorted(grouped[upper].items())}
            self._children[upper] = {node_id: tuple(map(lower_ids.__getitem__, ids))
                                     for node_id, ids in table.items()}

    profile = property(lambda self: self._profile)
    edges_cr = property(lambda self: _edge_view(self._child_ids[C]))
    edges_ec = property(lambda self: _edge_view(self._child_ids[E]))
    registry = property(lambda self: self._registry)

    # -- access --------------------------------------------------------------

    def layer_nodes(self, layer: str) -> tuple[LayerNode, ...]:
        if layer not in LAYERS:
            raise UnknownNode(f"unknown layer {layer!r}")
        return tuple(sorted(self._nodes[layer].values(), key=lambda n: n.id))

    def node(self, layer: str, name: str) -> LayerNode:
        if layer not in LAYERS:
            raise UnknownNode(f"unknown layer {layer!r}")
        found = self._nodes[layer].get(canon(name))
        if found is None:
            hints = _hints(name, self._nodes[layer])
            raise UnknownNode(f"no {layer}-layer node named {name!r}"
                              + (f"; did you mean: {', '.join(hints)}?" if hints else ""))
        return found

    def children(self, layer: str, name: str) -> tuple[LayerNode, ...]:
        """Directly connected nodes one layer down, sorted by id; stored at load."""
        node = self.node(layer, name)
        if node.layer == R:
            raise UnknownNode("R-layer nodes have no lower layer")
        return self._children[node.layer][node.id]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PyramidGraph):
            return NotImplemented
        return (self._profile == other._profile and self._nodes == other._nodes
                and self._child_ids == other._child_ids)

    def __repr__(self) -> str:
        return (f"PyramidGraph({self._profile!r}, R={len(self._nodes[R])}, "
                f"C={len(self._nodes[C])}, E={len(self._nodes[E])})")

    def to_document(self) -> dict:
        doc: dict = {"profile": self._profile}
        for layer, key, target_key in _DOCUMENT_KEYS:
            nodes = self._nodes[layer]
            doc[key] = [{"id": node_id, "display_name": nodes[node_id].display_name,
                         "description": nodes[node_id].description,
                         target_key: list(child_ids)}
                        for node_id, child_ids in self._child_ids[layer].items()]
        return doc


def _edge_view(child_ids: dict[str, tuple[str, ...]]) -> frozenset[tuple[str, str]]:
    """The ``(upper, child)`` edges of one layer's child-id table."""
    return frozenset((node_id, child) for node_id, ids in child_ids.items() for child in ids)


# --- graph queries -----------------------------------------------------------

def compose_re(graph: PyramidGraph, e_name: str) -> tuple[str, ...]:
    """All R-ids reachable from an E-node through its C-children, sorted."""
    r_ids = graph._child_ids[C]
    reached: set[str] = set()
    for c_id in graph._child_ids[E][graph.node(E, e_name).id]:
        reached.update(r_ids[c_id])
    return tuple(sorted(reached))


def branching_stats(graph: PyramidGraph) -> BranchingStats:
    """Out-degree of every C- and E-node, sorted by node id."""
    def degrees(layer: str) -> tuple[tuple[str, int], ...]:
        table = graph._child_ids[layer]
        return tuple(zip(table, map(len, table.values())))

    return BranchingStats(c_degrees=degrees(C), e_degrees=degrees(E))


# --- construction -----------------------------------------------------------

def _resolve_target(registry: Registry, name: str, profile: str,
                    extras: dict[str, Mode]) -> Mode | None:
    """Resolve an R-layer target, minting a generated atom when unknown;
    ``None`` when the name cannot be an atom's id (a ``--`` id names a pair)."""
    mode = registry._lookup(name)
    if mode is not None:
        return mode
    cid = canon(name)
    mode = extras.get(cid)
    if mode is None:
        if not _ID_PATTERN.match(cid) or "--" in cid:
            return None
        mode = generated_mode(cid, "academic-profile", (),
                              f"Writing move declared by the {profile} mapping profile.")
        extras[cid] = mode
    return mode


def _build_graph(
    profile: str,
    c_rows: Sequence[tuple[str, str, str, Sequence[str]]],
    e_rows: Sequence[tuple[str, str, str, Sequence[str]]],
    registry: Registry,
) -> PyramidGraph:
    extras: dict[str, Mode] = {}
    nodes: list[LayerNode] = []
    edges_cr: list[tuple[str, str]] = []
    edges_ec: list[tuple[str, str]] = []
    r_seen: dict[str, Mode] = {}
    c_ids: set[str] = set()

    for i, (c_id, display, description, targets) in enumerate(c_rows):
        nodes.append(LayerNode(C, c_id, display, description))
        c_ids.add(c_id)
        for j, name in enumerate(targets):
            mode = _resolve_target(registry, name, profile, extras)
            if mode is None:
                raise ParseError(f"c_nodes[{i}].modes[{j}]: invalid mode name {name!r} "
                                 f"in {profile} mapping")
            r_seen.setdefault(mode.id, mode)
            edges_cr.append((c_id, mode.id))

    for i, (e_id, display, description, targets) in enumerate(e_rows):
        nodes.append(LayerNode(E, e_id, display, description))
        for j, name in enumerate(targets):
            cid = canon(name)
            if cid not in c_ids:
                raise BadEdge(f"e_nodes[{i}].cognitive[{j}]: E-node {e_id!r} references "
                              f"unknown C-node {name!r}")
            edges_ec.append((e_id, cid))

    for mode in r_seen.values():
        nodes.append(LayerNode(R, mode.id, mode.display_name, mode.description))
    full_registry = registry.with_modes(extras.values()) if extras else registry
    return PyramidGraph(profile, nodes, edges_cr, edges_ec, registry=full_registry)


def _rows_from_document(doc: dict, key: str, target_key: str):
    rows = []
    for where, entry in entries(doc, key, "mapping"):
        node_id = canon(text_field(entry, "id", where))
        rows.append((node_id, text_field(entry, "display_name", where) or _title(node_id),
                     text_field(entry, "description", where),
                     names_field(entry, target_key, where)))
    return rows


def load_pyramid(
    profile: str = DEFAULT_PROFILE,
    source: "str | Path | dict | None" = None,
    registry: Registry | None = None,
) -> PyramidGraph:
    """Graph for a built-in profile, or from a mapping document.

    A document names its own profile, so ``profile`` may not name another
    one beside ``source``.  When a document references modes the registry
    does not know, they are auto-registered as generated atoms; the
    extended registry rides along as ``graph.registry``.
    """
    if not isinstance(profile, str):
        raise UnknownProfile(f"profile must be a str, got {type(profile).__name__}")
    registry = registry if registry is not None else default_registry()
    if source is not None:
        if profile != DEFAULT_PROFILE:
            raise UnknownProfile(f"profile {profile!r} cannot be given with a mapping "
                                 f"document, which names its own profile")
        doc = read_document(source, "mapping")
        c_rows, e_rows = (_rows_from_document(doc, key, target_key)
                          for _, key, target_key in _DOCUMENT_KEYS)
        return _build_graph(doc.get("profile", "custom"), c_rows, e_rows, registry)
    if profile == DEFAULT_PROFILE:
        return _build_graph(DEFAULT_PROFILE, _DEFAULT_C_NODES, _DEFAULT_E_NODES, registry)
    if profile == ACADEMIC_PROFILE:
        return _build_graph(ACADEMIC_PROFILE, _ACADEMIC_C_NODES, _ACADEMIC_E_NODES,
                            registry)
    raise UnknownProfile(
        f"unknown profile {profile!r}; built-in profiles: {', '.join(BUILTIN_PROFILES)}")


def serialize_pyramid(graph: PyramidGraph) -> str:
    """Deterministic JSON text; loads back to an equal graph."""
    return json_text(graph.to_document())


# --- academic-function composition ------------------------------------------

def compose_academic(registry: Registry, f: AcademicFunction) -> Mode:
    """Compound mode for an academic function: core first, then supplements.

    The result's id is ``af-`` plus the canonical function name; it is a
    compound of ``1 + len(supplements)`` constituents (a plain pair when
    only one supplement is given).
    """
    if not f.supplements:
        raise BadComposition(f"academic function {f.name!r} needs supplementary modes")
    core = registry.resolve(f.core)
    supplements = [registry.resolve(s) for s in f.supplements]
    if any(s.id == core.id for s in supplements):
        raise BadComposition(
            f"core mode {core.id!r} cannot also be a supplement of {f.name!r}")
    constituents = (core.id, *(s.id for s in supplements))
    name_id = canon(f.name)
    if not _ID_PATTERN.match(name_id):
        raise BadComposition(f"cannot form an id from function name {f.name!r}")
    return generated_mode(
        f"af-{name_id}", "academic-composition", constituents,
        f"Academic function anchored on {core.id} with {len(supplements)} supporting modes.",
        constituents, _title(name_id))


def academic_function_examples() -> tuple[AcademicFunction, AcademicFunction]:
    """The two worked compositions: the definition complex and the claim complex."""
    return (
        AcademicFunction("definition", "definition",
                         ("comparison", "exemplification", "classification")),
        AcademicFunction("claim", "cause-effect",
                         ("argument", "evaluation", "comparison", "evidence")),
    )
