"""Three-layer mapping graph: modes (R) → cognitive functions (C) → epistemic purposes (E).

A graph is given its C- and E-nodes; its R layer is the registry's modes
that the C-nodes name.  Two built-in profiles ship with the package as
mapping documents, and load through the same loader as any other:

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

Entries may carry an optional ``description``; an absent or empty
``display_name`` is titled from the id.  R-layer nodes are never stored.

The module also builds compound "academic function" modes from a core mode
plus supplementary modes (:func:`compose_academic`).
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable

from .capacity import _shown
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
    _title,
    _unknown,
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

#: Per upper layer: the layer one down, its node list's key in a mapping
#: document, and the key of each node's targets.
_DOCUMENT_KEYS = ((C, R, "c_nodes", "modes"), (E, C, "e_nodes", "cognitive"))


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


# --- built-in profiles -------------------------------------------------------
# Mapping documents, loaded as any other is; a node without a display name
# is titled from its id.
_DEFAULT_MAPPING = {"profile": DEFAULT_PROFILE, "c_nodes": [
    {"id": "observe", "description": "Take in phenomena and record what is there.",
     "modes": ["description", "narration", "exemplification", "evidence"]},
    {"id": "identify", "description": "Pick out and name entities or patterns.",
     "modes": ["definition", "contrast", "classification", "evidence"]},
    {"id": "compare", "description": "Set attributes or outcomes against each other.",
     "modes": ["comparison", "analogy", "evaluation"]},
    {"id": "classify", "description": "Sort items into structured groups.",
     "modes": ["classification", "division", "definition"]},
    {"id": "abstract", "description": "Pull general properties out of particulars.",
     "modes": ["exemplification", "exposition", "analogy"]},
    {"id": "hypothesize", "description": "Propose candidate explanations.",
     "modes": ["problem", "cause", "argument"]},
    {"id": "model", "description": "Represent a system in symbolic or schematic form.",
     "modes": ["process-analysis", "analogy", "exposition"]},
    {"id": "infer", "description": "Draw out implications from what is known.",
     "modes": ["cause", "effect", "argument"]},
    {"id": "test-validate", "display_name": "Test/Validate",
     "description": "Check hypotheses or models against support.",
     "modes": ["evidence", "illustration", "evaluation"]},
    {"id": "explain", "description": "Give an account of how or why something holds.",
     "modes": ["cause-effect", "exposition", "process-analysis"]},
    {"id": "evaluate", "description": "Judge soundness or relevance of claims.",
     "modes": ["evaluation", "comparison", "argument", "persuasion"]},
    {"id": "predict", "description": "Project forthcoming outcomes or states.",
     "modes": ["analogy", "cause", "process-analysis"]},
    {"id": "integrate-synthesize", "display_name": "Integrate/Synthesize",
     "description": "Bring separate lines of reasoning into one whole.",
     "modes": ["exposition", "analogy", "synthesis"]},
    {"id": "reflect", "display_name": "Reflect/Meta-cognitive Assessment",
     "description": "Examine one's own reasoning and its limits.",
     "modes": ["evaluation", "definition", "problem-solution", "exposition", "persuasion"]},
], "e_nodes": [
    {"id": "knowledge-formation", "description": "Building up concepts and understanding.",
     "cognitive": ["observe", "identify", "classify", "abstract"]},
    {"id": "scientific-discovery", "description": "Generating and testing new hypotheses.",
     "cognitive": ["hypothesize", "model", "test-validate", "infer"]},
    {"id": "communication", "description": "Spreading knowledge through discourse.",
     "cognitive": ["compare", "explain", "integrate-synthesize", "evaluate"]},
    {"id": "teaching-learning", "display_name": "Teaching/Learning",
     "description": "Passing knowledge between teacher and learner.",
     "cognitive": ["observe", "identify", "model", "explain", "evaluate", "reflect"]},
    {"id": "problem-solving", "description": "Putting knowledge to work on concrete problems.",
     "cognitive": ["classify", "hypothesize", "infer", "test-validate", "evaluate"]},
    {"id": "innovation-design", "display_name": "Innovation/Design",
     "description": "Creating new systems, artifacts, or methods.",
     "cognitive": ["model", "abstract", "integrate-synthesize", "predict"]},
    {"id": "evaluation-decision-making", "display_name": "Evaluation/Decision-Making",
     "description": "Weighing evidence to reach decisions.",
     "cognitive": ["evaluate", "reflect", "infer"]},
    {"id": "policy-action-implementation", "display_name": "Policy/Action Implementation",
     "description": "Turning knowledge into action in real settings.",
     "cognitive": ["predict", "explain", "integrate-synthesize", "evaluate"]},
]}
_ACADEMIC_MAPPING = {"profile": ACADEMIC_PROFILE, "c_nodes": [
    {"id": "information-presentation",
     "description": "Lay out the subject's background, features, and structure.",
     "modes": ["narration", "description", "definition", "classification", "decomposition",
              "grading", "summarization", "delineation"]},
    {"id": "relational-reasoning",
     "description": "Work out relationships that carry an explanatory framework.",
     "modes": ["comparison", "contrast", "analogy", "relational-analysis", "causal-analysis",
              "induction", "synthesis"]},
    {"id": "process-construction",
     "description": "Spell out sequences, developments, and operational steps.",
     "modes": ["process-analysis", "procedural-description"]},
    {"id": "argumentation-support",
     "description": "Build and back the author's claims and reasoning chains.",
     "modes": ["exemplification", "evidence", "argumentation", "persuasion", "elaboration",
              "claim-making"]},
    {"id": "understanding-construction",
     "description": "Deepen conceptual clarity and tie new material to known ground.",
     "modes": ["clarification", "explanation"]},
    {"id": "interaction-construction",
     "description": "Steer the reader's thinking and invite engagement.",
     "modes": ["questioning", "answering"]},
    {"id": "evaluation-and-reflection", "display_name": "Evaluation and Reflection",
     "description": "Weigh the value and validity of ideas, methods, and results.",
     "modes": ["evaluation", "verification", "validation"]},
], "e_nodes": [
    {"id": "establishing-shared-conceptual-ground",
     "description": "Give writer and reader a common footing of concepts.",
     "cognitive": ["information-presentation"]},
    {"id": "constructing-relational-understanding",
     "description": "Stand up an account of how things relate.",
     "cognitive": ["relational-reasoning"]},
    {"id": "revealing-operational-logic",
     "description": "Expose how a procedure or method actually runs.",
     "cognitive": ["process-construction"]},
    {"id": "validating-propositions",
     "description": "Establish that stated claims deserve acceptance.",
     "cognitive": ["argumentation-support"]},
    {"id": "achieving-conceptual-coherence",
     "description": "Bring the piece's concepts into a consistent whole.",
     "cognitive": ["understanding-construction"]},
    {"id": "co-constructing-understanding", "display_name": "Co-constructing Understanding",
     "description": "Draw the reader into building the understanding jointly.",
     "cognitive": ["interaction-construction"]},
    {"id": "determining-reliability-and-significance",
     "display_name": "Determining Reliability and Significance",
     "description": "Settle how trustworthy and important the results are.",
     "cognitive": ["evaluation-and-reflection"]},
]}

_PROFILES = {DEFAULT_PROFILE: _DEFAULT_MAPPING, ACADEMIC_PROFILE: _ACADEMIC_MAPPING}
BUILTIN_PROFILES = tuple(_PROFILES)


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
        raise UnknownNode(f"no out-degrees for layer {_shown(layer)!r}")

    def max_degree(self, layer: str) -> int:
        degrees = self._layer(layer)
        return max((d for _, d in degrees), default=0)

    def mean_degree(self, layer: str) -> float:
        degrees = self._layer(layer)
        return math.fsum(d for _, d in degrees) / len(degrees) if degrees else 0.0


class PyramidGraph:
    """Immutable three-layer graph with downward edges C→R and E→C.

    ``profile``, ``edges_cr``, ``edges_ec`` and ``registry`` are read-only.
    The graph is given its C- and E-nodes; its R layer is the registry's
    modes that the C→R edges name, each node carrying its mode's display
    name and description.  The profile is a non-empty string; each node id
    is canonical and unique in its layer, its display name a non-empty
    string and its description a string; each edge names nodes of the graph
    and registry modes; and each C- and E-node has a child.  A node that
    breaks one is named by its place among its layer's nodes
    (``c_nodes[i]``), and an edge's unknown lower end by its place among its
    upper node's edges (``c_nodes[i].modes[j]``).  The edges are stored
    once: one checking pass per upper layer keeps each node's sorted,
    distinct child ids in a table that is itself in node-id order.
    ``edges_cr`` and ``edges_ec`` build a frozenset from it on each access;
    no library code reads them.  Beside it, a table of :class:`LayerNode`
    tuples lets :meth:`children` return a tuple stored at load.
    :func:`compose_re` costs in proportion to its answer;
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
        self._registry = registry if registry is not None else default_registry()
        self._nodes: dict[str, dict[str, LayerNode]] = {C: {}, E: {}}
        for node in nodes:
            if node.layer not in (C, E):
                raise BadEdge(f"node {node.id!r} has layer {node.layer!r}; a graph is given "
                              f"only C- and E-nodes")
            layer = self._nodes[node.layer]
            if not isinstance(node.id, str) or not _ID_PATTERN.match(node.id):
                problem = f"in layer {node.layer} is not a canonical id"
            elif node.id in layer:
                problem = f"duplicated in layer {node.layer}"
            elif not isinstance(node.display_name, str) or not node.display_name:
                problem = f"display name must be a non-empty string, got {node.display_name!r}"
            elif not isinstance(node.description, str):
                problem = f"description must be a string, got {node.description!r}"
            else:
                layer[node.id] = node
                continue
            raise ParseError(f"{node.layer.lower()}_nodes[{len(layer)}]: node {node.id!r} "
                             f"{problem}")
        modes = self._registry._modes
        # Each upper node's child ids, in node order; every edge is checked
        # before any node is refused for having no child.
        grouped: dict[str, dict[str, list[str]]] = {}
        for (upper, lower, key, target_key), edges in zip(_DOCUMENT_KEYS, (edges_cr, edges_ec)):
            lower_ids = modes if lower == R else self._nodes[lower]
            grouped[upper] = by_node = {node_id: [] for node_id in self._nodes[upper]}
            for edge in edges:
                try:
                    up_id, low_id = edge
                    ids = by_node.get(up_id)
                    if ids is None:
                        raise BadEdge(f"edge references unknown {upper}-node {up_id!r}")
                    if low_id not in lower_ids:
                        where = f"{key}[{list(by_node).index(up_id)}].{target_key}[{len(ids)}]"
                        raise BadEdge(f"{where}: {upper}-node {up_id!r} references unknown "
                                      f"{lower}-node {low_id!r}")
                except (TypeError, ValueError):  # not a pair, or an unhashable id
                    raise BadEdge(f"edge {edge!r} is not a pair of node ids") from None
                ids.append(low_id)
        self._child_ids: dict[str, dict[str, tuple[str, ...]]] = {}
        for upper, children in ((C, "modes"), (E, "cognitive functions")):
            for position, (node_id, ids) in enumerate(grouped[upper].items()):
                if not ids:
                    raise BadEdge(f"{upper.lower()}_nodes[{position}]: {upper}-node "
                                  f"{node_id!r} lists no {children}")
            self._child_ids[upper] = {
                node_id: tuple(sorted(set(ids))) for node_id, ids in sorted(grouped[upper].items())}
        named = sorted(set().union(*self._child_ids[C].values()))
        self._nodes[R] = {m.id: LayerNode(R, m.id, m.display_name, m.description)
                          for m in map(modes.__getitem__, named)}
        self._children = {upper: {node_id: tuple(map(self._nodes[lower].__getitem__, ids))
                                  for node_id, ids in self._child_ids[upper].items()}
                          for upper, lower, _, _ in _DOCUMENT_KEYS}

    profile = property(lambda self: self._profile)
    edges_cr = property(lambda self: _edge_view(self._child_ids[C]))
    edges_ec = property(lambda self: _edge_view(self._child_ids[E]))
    registry = property(lambda self: self._registry)

    # -- access --------------------------------------------------------------

    def layer_nodes(self, layer: str) -> tuple[LayerNode, ...]:
        if layer not in LAYERS:
            raise UnknownNode(f"unknown layer {_shown(layer)!r}")
        return tuple(sorted(self._nodes[layer].values(), key=lambda n: n.id))

    def node(self, layer: str, name: str) -> LayerNode:
        if layer not in LAYERS:
            raise UnknownNode(f"unknown layer {_shown(layer)!r}")
        try:
            found = self._nodes[layer].get(canon(name))
        except TypeError:  # not a str: unhashable, or refused by canon
            found = None
        if found is None:
            raise _unknown(UnknownNode, f"{layer}-layer node", name, self._nodes[layer])
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
        for layer, _, key, target_key in _DOCUMENT_KEYS:
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

def _realizers(graph: PyramidGraph, c_ids: Iterable[str]) -> frozenset[str]:
    """The R-ids under the C-nodes ``c_ids``, each an id of a C-node of ``graph``."""
    return frozenset().union(*map(graph._child_ids[C].__getitem__, c_ids))


def compose_re(graph: PyramidGraph, e_name: str) -> tuple[str, ...]:
    """All R-ids reachable from an E-node through its C-children, sorted."""
    return tuple(sorted(_realizers(graph, graph._child_ids[E][graph.node(E, e_name).id])))


def branching_stats(graph: PyramidGraph) -> BranchingStats:
    """Out-degree of every C- and E-node, sorted by node id."""
    def degrees(layer: str) -> tuple[tuple[str, int], ...]:
        table = graph._child_ids[layer]
        return tuple(zip(table, map(len, table.values())))

    return BranchingStats(c_degrees=degrees(C), e_degrees=degrees(E))


# --- construction -----------------------------------------------------------

def _resolve_target(registry: Registry, name: str, profile: str,
                    extras: dict[str, Mode]) -> str | None:
    """The mode id of an R-layer target, minting a generated atom into
    ``extras`` when unknown; ``None`` when the name cannot be an atom's id
    (a ``--`` id names a pair)."""
    mode = registry._lookup(name)
    if mode is not None:
        return mode.id
    cid = canon(name)
    if cid not in extras:
        if not _ID_PATTERN.match(cid) or "--" in cid:
            return None
        extras[cid] = generated_mode(cid, "academic-profile", (),
                                     f"Writing move declared by the {profile} mapping profile.")
    return cid


def load_pyramid(
    profile: str = DEFAULT_PROFILE,
    source: "str | Path | dict | None" = None,
    registry: Registry | None = None,
) -> PyramidGraph:
    """Graph for a built-in profile, or from a mapping document.

    A built-in profile is a mapping document too, and both take one walk to
    the constructor.  A document names its own profile, so ``profile`` may
    not name another one beside ``source``.  When a document references
    modes the registry does not know, they are auto-registered as generated
    atoms; the extended registry rides along as ``graph.registry``.
    """
    if not isinstance(profile, str):
        raise UnknownProfile(f"profile must be a str, got {type(profile).__name__}")
    if source is None:
        source = _PROFILES.get(profile)
        if source is None:
            raise UnknownProfile(f"unknown profile {profile!r}; built-in profiles: "
                                 f"{', '.join(BUILTIN_PROFILES)}")
    elif profile != DEFAULT_PROFILE:
        raise UnknownProfile(f"profile {profile!r} cannot be given with a mapping "
                             f"document, which names its own profile")
    doc = read_document(source, "mapping")
    profile = doc.get("profile", "custom")
    registry = registry if registry is not None else default_registry()
    extras: dict[str, Mode] = {}
    nodes: list[LayerNode] = []
    edges: dict[str, list[tuple[str, str]]] = {C: [], E: []}
    for layer, _, key, target_key in _DOCUMENT_KEYS:
        for where, entry in entries(doc, key, "mapping"):
            node_id = canon(text_field(entry, "id", where))
            nodes.append(LayerNode(layer, node_id,
                                   text_field(entry, "display_name", where) or _title(node_id),
                                   text_field(entry, "description", where)))
            # An unknown R-name is minted; the graph checks each C-name.
            for j, name in enumerate(names_field(entry, target_key, where)):
                target = (canon(name) if layer == E
                          else _resolve_target(registry, name, profile, extras))
                if target is None:
                    raise ParseError(f"{where}.{target_key}[{j}]: invalid mode name {name!r} "
                                     f"in {profile} mapping")
                edges[layer].append((node_id, target))
    registry = registry.with_modes(extras.values()) if extras else registry
    return PyramidGraph(profile, nodes, edges[C], edges[E], registry)


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
    if not _ID_PATTERN.match(name_id) or "--" in name_id:  # ``af-a--b`` is a pair's id
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
