"""Duality operators over modes and bounded-depth closure generation.

Six operators act on registry modes:

* ``split`` — diatomic mode into its two atoms.
* ``unite`` — two distinct atoms into a diatomic mode.
* ``forward_backward`` — directional reversal (cause ↔ effect, ...).
* ``expand`` / ``reduce`` — scale change along registered pairs
  (summary ↔ exposition).
* ``orthogonal`` — complementary-axis partner (narration ↔ description).

The unary operators are rule-driven: a :class:`DualityRuleSet` lists the
pairs they act on, and anything unpaired raises :class:`NoDual` instead of
silently returning the input.  Partners named by the rules but absent from
the registry (generalization, combination, summary) come back as generated
modes.  ``closure`` applies a chosen operator set breadth-first up to a
depth bound and records one derivation per first-reached result.

Rule documents are JSON::

    {"reversal": [["cause", "effect"], ...],
     "scale": [["exposition", "summary"], ...],
     "orthogonal": [["narration", "description"]]}

Scale pairs are ordered ``[expanded, reduced]``.
"""
from __future__ import annotations

from bisect import bisect_right
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    BadRuleSet,
    NoDual,
    NotAtomic,
    NotDiatomic,
    SelfUnite,
    shown,
)
from .jsontext import json_text, read_document
from .records import record
from .registry import (
    Mode,
    Origin,
    Registry,
    _ID_PATTERN,
    _title,
    canon,
    default_registry,
    generated_mode,
)

SPLIT = "split"
UNITE = "unite"
FORWARD_BACKWARD = "forward_backward"
EXPAND = "expand"
REDUCE = "reduce"
ORTHOGONAL = "orthogonal"

#: All operator kinds, in the order closure applies them within a depth.
OPERATOR_KINDS = (SPLIT, UNITE, FORWARD_BACKWARD, EXPAND, REDUCE, ORTHOGONAL)

#: Accepted short spellings for operator kinds (CLI and rule documents).
OPERATOR_ALIASES = {"fb": FORWARD_BACKWARD, "ortho": ORTHOGONAL}


def operator_kind(name: str) -> str:
    """Normalize an operator name, accepting the short CLI spellings."""
    kind = OPERATOR_ALIASES.get(name, name)
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {shown(name)}")
    return kind


#: The rule relations, in document order.
_RELATIONS = ("reversal", "scale", "orthogonal")


class DualityRuleSet:
    """Registered mode pairs for the unary duality operators.

    ``reversal`` and ``orthogonal`` pairs are unordered; ``scale`` pairs are
    ordered ``(expanded, reduced)``.  A mode may appear in at most one pair
    per relation so each unary operator stays a function.
    """

    def __init__(
        self,
        reversal: Iterable[Sequence[str]] = (),
        scale: Iterable[Sequence[str]] = (),
        orthogonal: Iterable[Sequence[str]] = (),
    ):
        self._pairs = {
            relation: self._canon_pairs(pairs, relation, ordered=relation == "scale")
            for relation, pairs in zip(_RELATIONS, (reversal, scale, orthogonal))}
        self._members = frozenset(m for pairs in self._pairs.values()
                                  for pair in pairs for m in pair)

    # The sorted canonical pairs of each relation; read-only.
    reversal_pairs = property(lambda self: self._pairs["reversal"])
    scale_pairs = property(lambda self: self._pairs["scale"])
    orthogonal_pairs = property(lambda self: self._pairs["orthogonal"])

    @staticmethod
    def _canon_pairs(pairs, relation: str, ordered: bool) -> tuple[tuple[str, str], ...]:
        """The sorted canonical pairs; each mode in at most one pair of ``relation``."""
        out = []
        seen: set[str] = set()
        for position, pair in enumerate(pairs):
            prefix = f"{relation}[{position}]: {relation} pair"
            if not isinstance(pair, (list, tuple)) or not all(isinstance(p, str) for p in pair):
                raise BadRuleSet(f"{prefix} {shown(pair)} must be a list of names")
            members = [canon(p) for p in pair]
            if len(members) != 2 or not all(members):
                raise BadRuleSet(f"{prefix} {shown(tuple(pair))} must name two modes")
            if members[0] == members[1]:
                raise BadRuleSet(f"{prefix} repeats {shown(members[0])}")
            for member in members:
                if not _ID_PATTERN.match(member):
                    raise BadRuleSet(f"{prefix} {shown(tuple(pair))}: {shown(member)} is not "
                                     "a mode id")
                if member in seen:
                    raise BadRuleSet(f"{prefix} {shown(tuple(pair))}: mode {shown(member)} "
                                     f"appears in two {relation} pairs")
                seen.add(member)
            if not ordered:
                members.sort()
            out.append(tuple(members))
        return tuple(sorted(out))

    def members(self) -> frozenset[str]:
        """The rule set's own names, as its pairs hold them (an alias stays an alias)."""
        return self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DualityRuleSet):
            return NotImplemented
        return self.to_document() == other.to_document()

    def __repr__(self) -> str:
        return (f"DualityRuleSet(reversal={len(self.reversal_pairs)}, "
                f"scale={len(self.scale_pairs)}, "
                f"orthogonal={len(self.orthogonal_pairs)})")

    def to_document(self) -> dict:
        return {relation: [list(p) for p in pairs] for relation, pairs in self._pairs.items()}


def default_rules() -> DualityRuleSet:
    """The duality pairs the built-in modes are known to participate in."""
    return DualityRuleSet(
        reversal=[("cause", "effect"), ("problem", "solution"),
                  ("exemplification", "generalization"), ("division", "combination")],
        scale=[("exposition", "summary")],
        orthogonal=[("narration", "description")],
    )


def load_rules(source: "str | Path | dict | None" = None) -> DualityRuleSet:
    """Rule set from a JSON document (path, text, or parsed dict)."""
    if source is None:
        return default_rules()
    doc = read_document(source, "rules")
    for key, section in doc.items():
        if key not in _RELATIONS:
            raise BadRuleSet(f"unknown rules section {shown(key)}")
        if not isinstance(section, list):
            raise BadRuleSet(f"rules section {shown(key)} must be a list of name pairs")
    return DualityRuleSet(**doc)


def serialize_rules(rules: DualityRuleSet) -> str:
    """Deterministic JSON text; loads back to an equal rule set."""
    return json_text(rules.to_document())


# --- operator application ---------------------------------------------------

def _rule_mode(registry: Registry, rules: DualityRuleSet, m: "str | Mode") -> Mode:
    """Resolve against the registry, falling back to rule-known generated atoms."""
    if isinstance(m, Mode):
        return m
    try:
        mode = registry._lookup(m)
    except TypeError:  # not a str: resolve refuses it
        return registry.resolve(m)
    if mode is not None:
        return mode
    cid = canon(m)
    if cid in rules.members():
        return generated_mode(cid, "rules", (),
                              f"Duality partner named by the active rule set ({cid}).")
    return registry.resolve(m)  # raises UnknownMode with did-you-mean hints


def split(registry: Registry, m: "str | Mode") -> tuple[Mode, Mode]:
    """The two constituent atoms of a diatomic mode, in stored order."""
    mode = registry.resolve(m)
    if not mode.is_diatomic:
        raise NotDiatomic(f"cannot split {shown(mode.id)}: arity is {mode.arity}")
    return tuple(registry.get(cid) or _generated(SPLIT, (mode.id,), cid)
                 for cid in mode.constituents)


def unite(registry: Registry, a: "str | Mode", b: "str | Mode") -> Mode:
    """Diatomic mode joining two distinct atoms.

    If the pair matches a registered diatomic, that mode is returned;
    otherwise a generated mode whose id joins the two atom ids with ``--``,
    in lexicographic order.  Commutative either way.
    """
    ma, mb = registry.resolve(a), registry.resolve(b)
    if ma.id == mb.id:
        raise SelfUnite(f"cannot unite {shown(ma.id)} with itself")
    for mode in (ma, mb):
        if not mode.is_atomic:
            raise NotAtomic(f"cannot unite {shown(mode.id)}: arity is {mode.arity}")
    pair = (ma.id, mb.id) if ma.id < mb.id else (mb.id, ma.id)
    return registry.diatomic_for_pair(*pair) or _generated(UNITE, pair, "--".join(pair))


#: Per unary operator, the relation whose pairs it reads.
_RELATION_OF = {FORWARD_BACKWARD: "reversal", EXPAND: "scale", REDUCE: "scale",
                ORTHOGONAL: "orthogonal"}
#: Per operator, the description of a result the registry lacks, filled with its inputs.
_DESCRIPTION = {
    SPLIT: "Constituent of {}.",
    UNITE: "Generated pairing of {} and {}.",
    FORWARD_BACKWARD: "Directional reversal of {}.",
    EXPAND: "Expanded-scale form of {}.",
    REDUCE: "Reduced-scale form of {}.",
    ORTHOGONAL: "Complementary-axis partner of {}.",
}


def _generated(operator: str, inputs: tuple[str, ...], mode_id: str) -> Mode:
    """The mode ``operator`` makes as ``mode_id`` from ``inputs`` when the
    registry holds none: for ``unite`` the diatomic ``a--b`` of its two atom
    ids in id order, for every other operator an atom.

    A diatomic is titled from its two atoms' titles, each kept in ``_title``'s
    bounded cache; titling the pair id would fill that cache with pairs.  Its
    records come from their generated ``__new__``, called directly: it is a
    record's whole constructor, without the class call's detour through
    ``type.__call__`` (``records.py``)."""
    description = _DESCRIPTION[operator].format(*inputs)
    if operator == UNITE:
        return Mode.__new__(Mode, mode_id, "-".join(map(_title, inputs)), inputs,
                            Origin.__new__(Origin, "generated", UNITE, inputs), description)
    return generated_mode(mode_id, operator, inputs, description)


def _partners(registry: Registry, rules: DualityRuleSet, operator: str) -> dict[str, str]:
    """The partner map of ``operator``, each member read through the registry's
    aliases, so a rule that names an alias acts on its mode.  ``reduce`` maps
    expanded to reduced, ``expand`` the reverse; other pairs map both ways."""
    aliases, relation = registry._aliases, _RELATION_OF[operator]
    pairs = rules._pairs[relation]
    if operator != REDUCE:
        flipped = [(b, a) for a, b in pairs]
        pairs = flipped if operator == EXPAND else [*pairs, *flipped]
    out: dict[str, str] = {}
    for member, partner in pairs:
        mode_id, partner_id = aliases.get(member, member), aliases.get(partner, partner)
        if mode_id == partner_id:
            raise BadRuleSet(f"{relation} pair ({shown(member)}, {shown(partner)}) names one "
                             f"mode, {shown(mode_id)}, under the registry's aliases")
        if out.setdefault(mode_id, partner_id) != partner_id:
            raise BadRuleSet(f"mode {shown(mode_id)} appears in two {relation} pairs "
                             "under the registry's aliases")
    return out


def _unary(registry: Registry, rules: DualityRuleSet, m: "str | Mode",
           operator: str) -> Mode:
    mode = _rule_mode(registry, rules, m)
    if not mode.is_atomic:
        raise NotAtomic(f"cannot apply {operator} to {shown(mode.id)}: arity is {mode.arity}")
    partner_id = _partners(registry, rules, operator).get(mode.id)
    if partner_id is None:
        raise NoDual(f"{shown(mode.id)} has no {_RELATION_OF[operator]} partner "
                     "under the active rules")
    return registry.get(partner_id) or _generated(operator, (mode.id,), partner_id)


def forward_backward(registry: Registry, rules: DualityRuleSet, m: "str | Mode") -> Mode:
    """Reversal partner of an atom (cause → effect); an involution."""
    return _unary(registry, rules, m, FORWARD_BACKWARD)


def expand(registry: Registry, rules: DualityRuleSet, m: "str | Mode") -> Mode:
    """Expanded-scale partner of a reduced form (summary → exposition)."""
    return _unary(registry, rules, m, EXPAND)


def reduce(registry: Registry, rules: DualityRuleSet, m: "str | Mode") -> Mode:
    """Reduced-scale partner of an expanded form (exposition → summary)."""
    return _unary(registry, rules, m, REDUCE)


def orthogonal(registry: Registry, rules: DualityRuleSet, m: "str | Mode") -> Mode:
    """Complementary-axis partner (narration ↔ description); an involution."""
    return _unary(registry, rules, m, ORTHOGONAL)


# --- closure ----------------------------------------------------------------

def _one_or_many(value, single: "type | tuple[type, ...]", parameter: str, what: str):
    """``value`` as an iterable: a ``single`` value names one item; a value
    that is neither is refused as ``closure`` refuses a bad ``max_depth``."""
    if isinstance(value, single):
        return (value,)
    try:
        return iter(value)
    except TypeError:
        raise ValueError(f"{parameter} must be {what} or an iterable of them, "
                         f"got {shown(value)}") from None


@record
class Derivation:
    """One recorded operator application inside a closure run.

    ``result_ids`` names its results in order; ``held`` holds, in the same
    order, those the starting registry already held, as its own modes.
    """

    operator: str
    inputs: tuple[str, ...]
    result_ids: tuple[str, ...]
    depth: int
    held: tuple[Mode, ...] = ()

    @property
    def rediscovery(self) -> bool:
        """Whether every result already existed in the starting registry."""
        return len(self.held) == len(self.result_ids)

    @property
    def results(self) -> tuple[Mode, ...]:
        """The result modes, built on each read: a held result is the registry's
        own mode, any other the mode ``operator`` makes from ``inputs``."""
        held = {m.id: m for m in self.held}
        return tuple(held.get(rid) or _generated(self.operator, self.inputs, rid)
                     for rid in self.result_ids)


def closure(
    registry: Registry,
    rules: DualityRuleSet | None = None,
    ops: Iterable[str] = OPERATOR_KINDS,
    max_depth: int = 1,
    seed: "Iterable[str | Mode] | None" = None,
) -> tuple[Derivation, ...]:
    """Apply ``ops`` breadth-first up to ``max_depth``, recording derivations.

    Depth 1 tries every operator/input combination over the starting
    universe.  Each later depth tries only the combinations with at least
    one input that the previous depth added to the universe: every other
    combination was tried before and can yield nothing new (semi-naive
    evaluation).  Combinations run in the order of a full pass, so a
    derivation is recorded the first time a result id is reached, and the
    output lists each generated (or rediscovered) mode once, at its
    shallowest depth.  Output is ordered by depth, then result ids.

    ``ops`` names operator kinds; a single string names one kind.  ``seed``
    restricts the starting universe to the given modes (default: the whole
    registry); a single string or :class:`Mode` names one seed mode.  Stops
    early once a depth adds nothing new.
    """
    if not isinstance(max_depth, int) or isinstance(max_depth, bool):
        raise ValueError(f"max_depth must be an integer, got {shown(max_depth)}")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    ops = _one_or_many(ops, str, "ops", "an operator name")
    kinds = sorted({operator_kind(op) for op in ops}, key=OPERATOR_KINDS.index)
    if not kinds:
        raise ValueError("ops must name at least one operator")
    if rules is None:
        rules = default_rules()
    # Each mode of the universe is its id and its constituents; no Mode is built.
    if seed is None:
        universe = {m.id: m.constituents for m in registry}
    else:
        universe = {}
        for entry in _one_or_many(seed, (str, Mode), "seed", "a mode, a mode name"):
            mode = registry.resolve(entry)
            universe[mode.id] = mode.constituents

    partner_maps = {kind: _partners(registry, rules, kind)
                    for kind in kinds if kind in _RELATION_OF}
    derived: set[str] = set()
    out: list[Derivation] = []
    # The loops below pass the operators only inputs they accept: atoms to
    # unite and the unary operators, diatomics to split, distinct pairs in id
    # order.  So they skip the operators' checks and record result ids: split
    # and unite run inline, and unpaired atoms are skipped by lookup.
    fresh_ids: set[str] = set(universe)  # inputs not yet tried: all, at depth 1
    diatomic_for_pair, held_mode = registry.diatomic_for_pair, registry.get
    new = Derivation.__new__  # the whole constructor, without type.__call__ (records.py)
    for depth in range(1, max_depth + 1):
        snapshot = sorted(universe)
        atoms = [i for i in snapshot if not universe[i]]
        fresh = [i for i in snapshot if i in fresh_ids]
        # Each derivation under its first result id.  Every loop records only ids
        # new to ``derived``, so these keys are distinct and order the batch as
        # the whole result-id tuples would.
        batch: dict[str, Derivation] = {}
        for kind in kinds:
            if kind == SPLIT:
                for mode_id in fresh:
                    parts = universe[mode_id]
                    if len(parts) == 2 and not derived.issuperset(parts):
                        novel = tuple(p for p in parts if p not in derived)
                        derived.update(novel)
                        held = tuple(m for m in map(held_mode, novel) if m is not None)
                        batch[novel[0]] = new(Derivation, SPLIT, (mode_id,), novel, depth, held)
            elif kind == UNITE:
                # ``combinations(atoms, 2)`` in its own order, keeping only the
                # pairs with a fresh member.  A generated ``a--b`` is never
                # registered: only the diatomic over (a, b) may take that id.
                fresh_at = [i for i, a in enumerate(atoms) if a in fresh_ids]
                for i, a in enumerate(atoms):
                    for j in (range(i + 1, len(atoms)) if a in fresh_ids
                              else fresh_at[bisect_right(fresh_at, i):]):
                        b = atoms[j]
                        held = diatomic_for_pair(a, b)
                        rid = f"{a}--{b}" if held is None else held.id
                        if rid not in derived:
                            derived.add(rid)
                            batch[rid] = new(Derivation, UNITE, (a, b), (rid,), depth,
                                             () if held is None else (held,))
            else:
                partner_of = partner_maps[kind]
                for mode_id in fresh:
                    rid = partner_of.get(mode_id)
                    if rid is not None and rid not in derived and not universe[mode_id]:
                        derived.add(rid)
                        held = held_mode(rid)
                        batch[rid] = new(Derivation, kind, (mode_id,), (rid,), depth,
                                         () if held is None else (held,))

        out.extend(map(batch.__getitem__, sorted(batch)))
        if depth == max_depth:
            break
        fresh_ids = set()
        for derivation in batch.values():
            # A held result keeps its own constituents; a generated one is
            # unite's pair of inputs, or an atom.
            parts = {m.id: m.constituents for m in derivation.held}
            generated = derivation.inputs if derivation.operator == UNITE else ()
            for rid in derivation.result_ids:
                if rid not in universe:
                    universe[rid] = parts.get(rid, generated)
                    fresh_ids.add(rid)
        if not fresh_ids:
            break
    return tuple(out)
