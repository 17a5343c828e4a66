"""Mode registry: the single source of truth for rhetorical mode identities.

The default registry ships 28 built-in modes: 14 canonical modes (7 atomic,
7 diatomic) plus the 14 atoms obtained by splitting each diatomic into its
two parts.  All other modules resolve mode names against a registry, so
canonicalization and aliasing live here.

Registry documents are JSON::

    {"version": "...",
     "modes": [{"id": "cause-effect", "display_name": "Cause-Effect",
                "arity": "diatomic", "constituents": ["cause", "effect"],
                "origin": "base", "description": "..."}, ...],
     "aliases": {"narrative": "narration"}}

``load_registry`` reads a document through :mod:`rhetor.jsontext`, the one
JSON reader, and treats it as an *extension* of the default registry;
entries that restate a built-in mode verbatim are accepted, so a serialized
registry always loads back.
"""
from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

from .capacity import _shown
from .errors import BadConstituent, DuplicateMode, ParseError, RhetorError, UnknownMode, at
from .jsontext import entries, json_text, names_field, read_document, text_field
from .records import record

_ATOM = r"[a-z][a-z0-9]*(?:-[a-z0-9]+)*"
_ID_PATTERN = re.compile(rf"{_ATOM}(?:--{_ATOM})?\Z")  # one name, or two joined by "--"
_SEPARATORS = re.compile(r"[–—/\s]+")  # en/em dash, slash, whitespace
_DISALLOWED = re.compile(r"[^a-z0-9-]")
_HYPHEN_RUNS = re.compile(r"-{2,}")

ATOMIC = "atomic"
DIATOMIC = "diatomic"
COMPOUND = "compound"

#: Entries kept by each of the name caches of ``canon`` and ``_title``.  One
#: load and query pass over a 2,000-node mapping canonicalizes about 6,000
#: distinct spellings; the least recently used ones drop out past the bound.
_NAME_CACHE_SIZE = 8192


@lru_cache(maxsize=_NAME_CACHE_SIZE)
def canon(name: str) -> str:
    """Canonical id form of a mode name.

    A mode id, ``--`` join included, comes back as it is.  Any other name is
    lowercased, its dash variants, slashes, whitespace and hyphen runs become
    single hyphens, and other punctuation goes.  Idempotent; results come from
    one bounded process-wide cache, so callers keep no memo of their own.
    """
    if _ID_PATTERN.match(name):
        return name
    s = _SEPARATORS.sub("-", name.strip().lower())
    s = _DISALLOWED.sub("", s)
    s = _HYPHEN_RUNS.sub("-", s)
    return s.strip("-")


def _unknown(error: type, what: str, name: object, ids: Iterable[str]) -> RhetorError:
    """The ``error`` for a ``name`` that names no ``what``.

    A ``str`` gets as did-you-mean hints the one or two of ``ids`` closest
    to ``canon(name)``, if any is close.  Any other value gets no hints, and
    ``_shown`` names it.
    """
    if not isinstance(name, str):
        return error(f"no {what} named {_shown(name)!r}: a name must be a str, "
                     f"not {type(name).__name__}")
    import difflib  # only a miss that reaches the user needs hints
    hints = difflib.get_close_matches(canon(name), sorted(ids), n=2, cutoff=0.6)
    return error(f"no {what} named {name!r}", suggestions=tuple(hints))


@record
class Origin:
    """Provenance of a mode: built-in table, decomposition, or one operator application."""

    kind: str  # "base" | "decomposed" | "generated"
    operator: str | None = None
    inputs: tuple[str, ...] = ()


_BASE_ORIGIN = Origin("base")
_DECOMPOSED_ORIGIN = Origin("decomposed")


@record
class Mode:
    """A named rhetorical unit, atomic or composed of other modes."""

    id: str
    display_name: str
    constituents: tuple[str, ...] = ()
    origin: Origin = _BASE_ORIGIN
    description: str = ""

    @property
    def arity(self) -> str:
        n = len(self.constituents)
        if n == 0:
            return ATOMIC
        if n == 2:
            return DIATOMIC
        return COMPOUND

    @property
    def is_atomic(self) -> bool:
        return not self.constituents

    @property
    def is_diatomic(self) -> bool:
        return len(self.constituents) == 2


@lru_cache(maxsize=_NAME_CACHE_SIZE)
def _title(mode_id: str) -> str:
    return "-".join(" ".join(map(str.capitalize, half.split("-")))  # Aa Bb-Cc for aa-bb--cc
                    for half in mode_id.split("--"))


def generated_mode(mode_id: str, operator: str, inputs: tuple[str, ...], description: str,
                   constituents: tuple[str, ...] = (), display_name: str = "") -> Mode:
    """A mode made by ``operator`` from ``inputs``, titled from its id by default.

    ``mode_id`` must already be a canonical id: the id pattern is not checked
    here, but where each caller's names entered, and ``Registry`` checks it
    again on registration.  An atom may not take a ``--`` id.
    """
    if not constituents:
        _check_join(mode_id)
    return Mode(mode_id, display_name or _title(mode_id), constituents,
                Origin("generated", operator, inputs), description)


def _check_join(name: str, constituents: tuple[str, ...] = (), what: str = "mode id") -> None:
    """Keep a ``--`` name for the diatomic of the two ids it joins, as ``unite`` makes it."""
    if "--" in name and constituents != tuple(name.split("--")):
        a, _, b = name.partition("--")
        raise ParseError(f"{what} {name!r} is reserved for the diatomic of {a!r} and {b!r}")


def _check_mode(mode: Mode) -> None:
    """What a registry asks of each of its modes on its own."""
    if not isinstance(mode.id, str) or not _ID_PATTERN.match(mode.id):
        raise ParseError(f"mode id {mode.id!r} is not a valid identifier")
    if not isinstance(mode.display_name, str) or not mode.display_name:
        raise ParseError(f"mode {mode.id!r} display name must be a non-empty string, "
                         f"got {mode.display_name!r}")
    if not isinstance(mode.description, str):
        raise ParseError(f"mode {mode.id!r} description must be a string, "
                         f"got {mode.description!r}")
    _check_join(mode.id, mode.constituents)
    n = len(mode.constituents)
    if n == 1:
        raise BadConstituent(f"mode {mode.id!r} has a single constituent; "
                             "use none (atomic) or two or more")
    if n == 2 and mode.constituents[0] == mode.constituents[1]:
        raise BadConstituent(f"mode {mode.id!r} repeats one constituent twice")


def _check_alias(alias: str, target: str, modes: dict[str, Mode]) -> None:
    """What a registry asks of each alias: a canonical key, neither a mode id
    nor a ``--`` join, that points at one of ``modes``."""
    if not isinstance(alias, str) or not alias or alias != canon(alias):
        raise ParseError(f"alias {alias!r} is not a canonical name")
    _check_join(alias, what="alias")
    if alias in modes:
        raise DuplicateMode(f"alias {alias!r} shadows the registered mode {alias!r}")
    if not isinstance(target, str) or target not in modes:
        raise BadConstituent(f"alias {alias!r} points at unknown mode {target!r}")


# --- built-in tables --------------------------------------------------------
# (id, display name, constituents, description); the 14 canonical modes.
_CANONICAL = (
    ("analysis-synthesis", "Analysis-Synthesis", ("analysis", "synthesis"),
     "Taking a system apart and reassembling the parts into one account."),
    ("analogy", "Analogy", (),
     "Explains one thing through its likeness to another."),
    ("argument-persuasion", "Argument-Persuasion", ("argument", "persuasion"),
     "Reasoned support for a claim joined with appeal to act or believe."),
    ("cause-effect", "Cause-Effect", ("cause", "effect"),
     "Connects prior conditions with the outcomes they produce."),
    ("classification-division", "Classification-Division", ("classification", "division"),
     "Groups items by shared traits or cuts a whole into parts."),
    ("comparison-contrast", "Comparison-Contrast", ("comparison", "contrast"),
     "Works through similarities and differences together."),
    ("definition", "Definition", (),
     "Fixes what a term means and where its boundaries lie."),
    ("description", "Description", (),
     "Renders observable features so a reader can picture them."),
    ("evaluation", "Evaluation", (),
     "Judges worth or quality against stated criteria."),
    ("exemplification-illustration", "Exemplification-Illustration", ("exemplification", "evidence"),
     "Backs a general point with instances and supporting material."),
    ("exposition", "Exposition", (),
     "Lays information out plainly and systematically."),
    ("narration", "Narration", (),
     "Relates events in temporal or logical order."),
    ("problem-solution", "Problem-Solution", ("problem", "solution"),
     "Names an issue and argues for a way to resolve it."),
    ("process-analysis", "Process Analysis", (),
     "Walks through the ordered steps that accomplish something."),
)

# The 14 atoms produced by splitting each diatomic canonical mode.
_DECOMPOSED = (
    ("classification", "Classification", "Groups entities by shared traits."),
    ("division", "Division", "Partitions a whole into its parts."),
    ("cause", "Cause", "Identifies the conditions behind an outcome."),
    ("effect", "Effect", "Describes what follows from given causes."),
    ("exemplification", "Exemplification", "Grounds a claim in concrete instances."),
    ("evidence", "Illustration (Evidence)", "Documents or proves a claim with factual support."),
    ("argument", "Argument", "Advances a claim on stated reasons."),
    ("persuasion", "Persuasion", "Moves attitudes or actions by appeal."),
    ("problem", "Problem", "Poses an issue that needs resolving."),
    ("solution", "Solution", "Justifies a means of resolving an issue."),
    ("comparison", "Comparison", "Highlights similarities between things."),
    ("contrast", "Contrast", "Highlights differences between things."),
    ("analysis", "Analysis", "Breaks a concept down to expose its structure."),
    ("synthesis", "Synthesis", "Integrates separate strands into one understanding."),
)

# Alternative names seen in practice, mapped onto canonical ids.
DEFAULT_ALIASES = {
    "narrative": "narration",
    "illustration": "evidence",
    "argumentation": "argument",
    "persuation": "persuasion",
    "process": "process-analysis",
    "cause-and-effect": "cause-effect",
}

DEFAULT_VERSION = "builtin-1"


class Registry:
    """Immutable set of modes with alias-aware, canonicalizing lookup."""

    def __init__(self, modes: Iterable[Mode], version: str = DEFAULT_VERSION,
                 aliases: dict[str, str] | None = None):
        self._modes = _merged({}, modes)
        if not isinstance(version, str):
            raise ParseError(f"registry version must be a string, got {version!r}")
        self.version = version
        self._aliases = dict(aliases or {})
        for alias, target in self._aliases.items():
            _check_alias(alias, target, self._modes)
        for mode in self._modes.values():
            for cid in mode.constituents:
                part = self._modes.get(cid)
                if part is None:
                    raise BadConstituent(
                        f"mode {mode.id!r} references unknown constituent {cid!r}")
                if mode.is_diatomic and not part.is_atomic:
                    raise BadConstituent(
                        f"diatomic mode {mode.id!r} has non-atomic constituent {cid!r}")
                if not part.is_atomic and not part.is_diatomic:
                    raise BadConstituent(
                        f"mode {mode.id!r} nests the compound mode {cid!r}")
        # One diatomic per pair, or ``unite`` would answer by construction order.
        self._by_pair: dict[tuple[str, ...], Mode] = {}
        for mode in self._modes.values():
            if mode.is_diatomic:
                held = self._by_pair.setdefault(tuple(sorted(mode.constituents)), mode)
                if held is not mode:
                    raise BadConstituent(f"diatomic modes {held.id!r} and {mode.id!r} "
                                         f"join the same pair")

    # -- lookup --------------------------------------------------------------

    def resolve(self, name: "str | Mode") -> Mode:
        """Return the mode whose canonical id matches ``name``.

        Lookup is case-, whitespace- and dash-variant-insensitive and follows
        aliases.  Raises :class:`UnknownMode` with up to two nearby ids, and
        for a ``name`` that is not a ``str``.
        """
        if isinstance(name, Mode):
            return name
        try:
            mode = self._lookup(name)
        except TypeError:  # not a str: unhashable, or refused by canon
            mode = None
        if mode is None:
            raise _unknown(UnknownMode, "mode", name, self._modes)
        return mode

    def _lookup(self, name: str) -> Mode | None:
        """The mode ``name`` resolves to, or ``None``: no hints are built on a miss.

        An exact id skips ``canon``, which would return it unchanged; no alias
        key is a registered id (``_check_alias``).
        """
        mode = self._modes.get(name)
        if mode is not None:
            return mode
        cid = canon(name)
        return self._modes.get(self._aliases.get(cid, cid))

    def get(self, mode_id: str) -> Mode | None:
        return self._modes.get(mode_id)

    def __contains__(self, mode_id: str) -> bool:
        return mode_id in self._modes

    def __iter__(self) -> Iterator[Mode]:
        return iter(self._modes.values())

    def __len__(self) -> int:
        return len(self._modes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Registry):
            return NotImplemented
        return (self._modes == other._modes and self.version == other.version
                and self._aliases == other._aliases)

    def __repr__(self) -> str:
        return f"Registry({len(self)} modes, version={self.version!r})"

    def atoms(self) -> frozenset[Mode]:
        """All atomic modes; 21 in the default registry."""
        return frozenset(m for m in self._modes.values() if m.is_atomic)

    def diatomics(self) -> frozenset[Mode]:
        return frozenset(m for m in self._modes.values() if m.is_diatomic)

    def diatomic_for_pair(self, a: str, b: str) -> Mode | None:
        """The registered diatomic whose constituents are {a, b}, if any."""
        return self._by_pair.get((a, b) if a <= b else (b, a))

    @property
    def aliases(self) -> dict[str, str]:
        return dict(self._aliases)

    # -- derivation ----------------------------------------------------------

    def with_modes(self, modes: Iterable[Mode]) -> "Registry":
        """New registry extended with ``modes``: each id given once, and existing
        ids must not change (restating an equal registered mode is a no-op)."""
        return Registry(_merged(self._modes, modes).values(), version=self.version,
                        aliases=self._aliases)

    # -- serialization -------------------------------------------------------

    def to_document(self) -> dict:
        modes = []
        for mode in sorted(self._modes.values(), key=lambda m: m.id):
            entry: dict = {
                "id": mode.id,
                "display_name": mode.display_name,
                "arity": mode.arity,
                "constituents": list(mode.constituents),
                "description": mode.description,
            }
            if mode.origin.kind == "generated":
                entry["origin"] = {"operator": mode.origin.operator,
                                   "inputs": list(mode.origin.inputs)}
            else:
                entry["origin"] = mode.origin.kind
            modes.append(entry)
        return {"version": self.version, "modes": modes, "aliases": dict(sorted(self._aliases.items()))}


def _merged(held: dict[str, Mode], modes: Iterable[Mode]) -> dict[str, Mode]:
    """``held`` extended with ``modes``, the one loop that checks and merges
    modes: each passes ``_check_mode``, each id is given once, and a held id
    is restated only unchanged.  An error names the mode's place in ``modes``
    (``modes[3]: ...``), in code as in a registry document."""
    merged = dict(held)
    seen: set[str] = set()
    for position, mode in enumerate(modes):
        try:
            _check_mode(mode)
            if mode.id in seen:
                raise DuplicateMode(f"mode id {mode.id!r} defined more than once")
            seen.add(mode.id)
            if merged.setdefault(mode.id, mode) != mode:
                raise DuplicateMode(f"mode id {mode.id!r} conflicts with an existing definition")
        except RhetorError as exc:
            raise at(f"modes[{position}]", exc)
    return merged


@lru_cache(maxsize=None)
def default_registry() -> Registry:
    """The shared built-in registry of 28 modes (21 atomic, 7 diatomic)."""
    modes = [Mode(mode_id, display, constituents, description=description)
             for mode_id, display, constituents, description in _CANONICAL]
    modes += [Mode(mode_id, display, (), _DECOMPOSED_ORIGIN, description)
              for mode_id, display, description in _DECOMPOSED]
    return Registry(modes, version=DEFAULT_VERSION, aliases=DEFAULT_ALIASES)


def base_atoms() -> frozenset[Mode]:
    """The 7 atomic modes of the canonical table."""
    return frozenset(m for m in default_registry() if m.is_atomic and m.origin.kind == "base")


# --- document parsing -------------------------------------------------------

def _parse_origin(raw: object, where: str) -> Origin:
    if raw is None or raw == "generated":
        return Origin("generated", "user")
    if isinstance(raw, str):
        if raw == "base":
            return _BASE_ORIGIN
        if raw == "decomposed":
            return _DECOMPOSED_ORIGIN
        raise ParseError(f"{where}: unknown origin {raw!r}")
    if isinstance(raw, dict):
        where += ".origin"
        return Origin("generated", text_field(raw, "operator", where, required=True),
                      names_field(raw, "inputs", where))
    raise ParseError(f"{where}: origin must be a string or an object")


def _mode_from_entry(entry: dict, where: str) -> Mode:
    mode_id = entry.get("id")
    if not isinstance(mode_id, str):
        raise ParseError(f"{where}: missing or invalid id {mode_id!r}")
    mode = Mode(mode_id, text_field(entry, "display_name", where) or _title(mode_id),
                tuple(map(canon, names_field(entry, "constituents", where))),
                _parse_origin(entry.get("origin"), where),
                text_field(entry, "description", where))
    arity = entry.get("arity")
    if arity is not None and arity != mode.arity:
        raise ParseError(f"{where}: arity {arity!r} does not match "
                         f"{len(mode.constituents)} constituents")
    return mode


def load_registry(source: "str | Path | dict | None" = None) -> Registry:
    """Registry from a document, layered on top of the built-in modes.

    ``source`` may be ``None`` (default registry), a :class:`~pathlib.Path`
    to a JSON file, JSON text, or an already-parsed dict.  Document entries
    extend the default registry; restating a built-in mode or alias unchanged
    is a no-op, redefining it is a :class:`DuplicateMode` error, and so is
    pointing two spellings of one alias at different modes.  The parsed
    modes go through the same merge as :meth:`Registry.with_modes`, so an
    error names its entry the same way (``modes[1]: ...``, ``aliases['x']: ...``).
    """
    if source is None:
        return default_registry()
    doc = read_document(source, "registry")
    modes = [_mode_from_entry(entry, where) for where, entry in entries(doc, "modes", "registry")]
    extra = doc.get("aliases", {})
    if not isinstance(extra, dict):
        raise ParseError("registry 'aliases' must be an object")
    merged = _merged(default_registry()._modes, modes)
    aliases = dict(DEFAULT_ALIASES)
    for alias, target in extra.items():
        try:
            if not isinstance(target, str):
                raise ParseError("alias must name a mode")
            key, target = canon(alias), canon(target)
            _check_alias(key, target, merged)
            if aliases.setdefault(key, target) != target:
                raise DuplicateMode(f"alias {key!r} already points at {aliases[key]!r}")
        except RhetorError as exc:
            raise at(f"aliases[{alias!r}]", exc)
    return Registry(merged.values(), version=doc.get("version", DEFAULT_VERSION),
                    aliases=aliases)


def serialize_registry(registry: Registry) -> str:
    """Deterministic JSON text for a registry; loads back to an equal registry."""
    return json_text(registry.to_document())
