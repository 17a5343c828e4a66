"""Exception hierarchy shared by all rhetor modules, and the one writer of
the values their texts name.

Every domain failure raises a subclass of :class:`RhetorError`; the CLI maps
any of these to exit status 1 and prints ``<ClassName>: <message>``.  Every
value written into a message goes through :func:`shown`.
"""
from __future__ import annotations

import sys


class RhetorError(Exception):
    """Base class for all domain errors.

    ``line`` and ``column``, when known, are kept and appended to the
    message as ``(line L, column C)``.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message += f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message)


def at(position: "str | int", exc: RhetorError) -> RhetorError:
    """``exc`` placed at the document entry it came from: a line number, or a
    path such as ``modes[3]`` put before its message."""
    if isinstance(position, int):
        exc.line = position
        exc.args = (f"{exc.args[0]} (line {position})",)
    else:
        exc.args = (f"{position}: {exc.args[0]}",)
    return exc


#: Characters of a value's text that an error text keeps; a longer text is
#: cut there, and its full length follows the cut.
SHOWN_LENGTH = 200


def shown(value) -> str:
    """``value`` as an error text writes it: as ``repr`` writes it, but an
    ``int`` beyond float range is named, inside a tuple, list, set, frozenset
    or dict too, and a text longer than ``SHOWN_LENGTH`` is cut.  So the text
    is the same on every Python, stays short, and never raises: a value whose
    ``repr`` fails is named by its type."""
    try:
        text = _written(value, set())
    except Exception:  # a repr that raises, or nesting past the recursion limit
        text = f"<unprintable {type(value).__name__} object>"
    if len(text) > SHOWN_LENGTH:
        text = f"{text[:SHOWN_LENGTH]}... ({len(text)} characters)"
    return text


def _written(value, open_ids: set) -> str:
    """``repr(value)``, with ``shown``'s name for an out-of-range ``int`` at any
    depth; ``open_ids`` holds the containers being written, as ``repr`` marks
    a container inside itself."""
    if isinstance(value, int) and _beyond_float(value):
        return ("-" if value < 0 else "") + "<int out of floating-point range>"
    cls = value.__class__
    if cls not in (tuple, list, set, frozenset, dict):
        return repr(value)
    if id(value) in open_ids:
        return "(...)" if cls is tuple else "[...]" if cls is list else "{...}"
    open_ids.add(id(value))
    if cls is dict:
        body = ", ".join(f"{_written(k, open_ids)}: {_written(v, open_ids)}"
                         for k, v in value.items())
    else:
        body = ", ".join(_written(item, open_ids) for item in value)
    open_ids.discard(id(value))
    if cls is list:
        return f"[{body}]"
    if cls is tuple:
        return f"({body},)" if len(value) == 1 else f"({body})"
    if cls is dict:
        return f"{{{body}}}"
    if not value:
        return f"{cls.__name__}()"
    return f"{{{body}}}" if cls is set else f"frozenset({{{body}}})"


def _beyond_float(value) -> bool:
    """Whether real ``value`` is too large for a float: ``float`` raises on it.

    A float itself, ``inf`` and ``nan`` too, is not beyond.
    """
    return not isinstance(value, float) and abs(value) > sys.float_info.max


# --- registry ---------------------------------------------------------------

class DuplicateMode(RhetorError):
    """Two mode definitions share one id, or an extension conflicts with a built-in."""


class BadConstituent(RhetorError):
    """A mode's constituent list is malformed or references an unusable mode."""


class ParseError(RhetorError):
    """A document is structurally malformed; carries line/position when known."""


class _UnknownName(RhetorError):
    """A name that names nothing; ``suggestions`` holds the nearby names."""

    def __init__(self, message: str, suggestions: tuple[str, ...] = (), line: int | None = None):
        super().__init__(message, line)
        self.suggestions = tuple(suggestions)

    def __str__(self) -> str:
        hints = f"; did you mean: {', '.join(self.suggestions)}?" if self.suggestions else ""
        return self.args[0] + hints


class UnknownMode(_UnknownName):
    """A name does not resolve to any registered mode."""


# --- operators --------------------------------------------------------------

class NotDiatomic(RhetorError):
    """Split applied to a mode that is not a two-part compound."""


class NotAtomic(RhetorError):
    """Unite applied to a non-atomic input."""


class SelfUnite(RhetorError):
    """Unite applied to one mode twice."""


class NoDual(RhetorError):
    """A unary duality operator was applied to a mode with no registered partner."""


class BadRuleSet(RhetorError):
    """A duality rule set violates functional pairing or pairs a mode with itself."""


# --- capacity / entropy -----------------------------------------------------

class OutOfRange(RhetorError):
    """A width argument falls outside the supported range."""


class BadCapacity(RhetorError):
    """Learner capacity must be strictly positive."""


class BadCount(RhetorError):
    """A count argument is inconsistent (e.g. modes used exceeds modes available)."""


class BadDistribution(RhetorError):
    """Probabilities are negative or do not sum to one."""


# --- pyramid ----------------------------------------------------------------

class UnknownProfile(RhetorError):
    """No built-in mapping profile with the requested name."""


class BadEdge(RhetorError):
    """A mapping edge references a node that does not exist."""


class UnknownNode(_UnknownName):
    """A (layer, id) pair does not name a node of the graph."""


class BadComposition(RhetorError):
    """An academic-function composition violates its structural rules."""


# --- documents --------------------------------------------------------------

class EmptySegment(RhetorError):
    """A segment line carries no mode names."""


class BadIndex(RhetorError):
    """Segment or stage indices are duplicated or not strictly increasing."""


class UnmappedStage(RhetorError):
    """A document stage has no entry in the supplied stage map."""


class NotEnoughStages(RhetorError):
    """Rate estimation needs at least two distinct stage indices."""


class BadSchedule(RhetorError):
    """A stage schedule is malformed (non-monotone width, bad duration)."""
