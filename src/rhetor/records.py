"""Frozen value records: the one record type behind rhetor's value and report classes.

``@record`` turns a class body of annotated fields into an immutable value
with the contract of ``@dataclass(frozen=True)``:

* fields in annotation order; a class-level value is the field's default;
* construction by position or keyword, then ``__post_init__`` if the class
  defines one;
* ``repr`` as ``Name(field=value, ...)``;
* ``==`` holds only between two records of one class with equal fields;
* ``hash`` is the hash of the field tuple;
* assigning or deleting an attribute raises ``AttributeError``.

The constructor fills the slots of a twin class, then sets ``__class__``; so
a subclass of a record must declare ``__slots__ = ()``, and others are refused.

:func:`asdict` turns a record into a dict.  Records are not dataclasses, so
``dataclasses.asdict`` raises ``TypeError`` on them.

The module imports nothing, so the lightest call can afford it; importing
``dataclasses`` also loads ``inspect``, ``ast``, ``dis`` and ``tokenize``.
"""


def record(cls: type) -> type:
    """The frozen, slotted record class with the fields annotated in ``cls``."""
    names = tuple(cls.__annotations__)
    namespace = {key: value for key, value in vars(cls).items()
                 if key not in names and key not in ("__dict__", "__weakref__")}
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    values = "".join(f"self.{n}, " for n in names)
    source = (
        f"def __new__(cls, {params}):\n    self = _new(_twin)\n"
        + "".join(f"    self.{n} = {n}\n" for n in names) + "    self.__class__ = cls\n"
        + ("    self.__post_init__()\n" if "__post_init__" in namespace else "")
        + "    return self\ndef __eq__(self, other):\n"
          "    if other.__class__ is self.__class__:\n"
          f"        return ({values}) == ({values.replace('self.', 'other.')})\n"
          "    return NotImplemented\n"
          "def __hash__(self):\n"
          f"    return hash(({values}))\n")
    # The twin, like a record class, derives from object alone and has its slots, but keeps
    # the default __setattr__: there a plain store is the interpreter's fast slot store.
    twin = type(cls.__name__, (), {"__slots__": names})
    scope, methods = {"_defaults": defaults, "_new": object.__new__, "_twin": twin}, {}
    exec(source, scope, methods)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    namespace.update(methods, __slots__=names, __match_args__=names,
                     __record_fields__=names, __qualname__=cls.__qualname__,
                     __repr__=_repr, __setattr__=_refuse_set, __delattr__=_refuse_delete,
                     __reduce__=_reduce, __init_subclass__=_check_subclass)
    return type(cls)(cls.__name__, cls.__bases__, namespace)


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{self.__class__.__qualname__}({fields})"


def _refuse_set(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _check_subclass(cls) -> None:
    if vars(cls).get("__slots__") != ():
        raise TypeError(f"{cls.__qualname__} subclasses a record and must declare __slots__ = ()")


def _reduce(self):
    # Copy and pickle rebuild a record through its constructor: a slotted
    # record has no __dict__ to restore, and __setattr__ refuses each field.
    return self.__class__, tuple(getattr(self, name) for name in self.__record_fields__)


def asdict(obj) -> dict:
    """The fields of record ``obj`` as a dict, in field order.

    A nested record becomes a dict too, also inside a tuple or list, which
    keep their type; every other value is returned as it is.
    """
    if not hasattr(type(obj), "__record_fields__"):
        raise TypeError(f"asdict() should be called on a record, not {type(obj).__name__}")
    return {name: _plain(getattr(obj, name)) for name in obj.__record_fields__}


def _plain(value):
    if hasattr(type(value), "__record_fields__"):
        return asdict(value)
    if isinstance(value, (tuple, list)):
        return type(value)(map(_plain, value))
    return value
