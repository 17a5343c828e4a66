"""Records against their dataclass twins.

Each record class of the package is compared with a frozen dataclass made
from the same fields, defaults and methods: on drawn field values both
construct or both raise alike, and ``==``, ``hash``, ``repr`` and ``asdict``
agree.
"""
import copy
import dataclasses
import pickle
import types
from typing import get_args, get_origin

import pytest
from hypothesis import given, settings, strategies as st

import rhetor
from rhetor.records import asdict, record

RECORDS = {name: getattr(rhetor, name) for name in rhetor.__all__
           if hasattr(getattr(rhetor, name), "__record_fields__")}

# NaN is left out: a dataclass compares float fields as a tuple on some
# Python versions and one by one on others, so NaN equality is not stable.
SCALARS = {int: st.integers(-3, 3), float: st.floats(-2.0, 2.0), bool: st.booleans(),
           str: st.text("ab-", max_size=3), type(None): st.none()}


def _hints(cls) -> list:
    """The field types of ``cls``, evaluated from its string annotations."""
    namespace = {**RECORDS, "frozenset": frozenset, "tuple": tuple}
    return [eval(cls.__annotations__[name], namespace) for name in cls.__record_fields__]


def values(tp):
    if tp in RECORDS.values():
        # A field holds only values its record class accepts.
        return (st.tuples(*map(values, _hints(tp))).map(lambda fields: build(tp, fields))
                .filter(lambda value: isinstance(value, tp)))
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(values(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*map(values, args))
    if origin is frozenset:
        return st.frozensets(values(args[0]), max_size=3)
    if origin is types.UnionType:
        return st.one_of(*map(values, args))
    return SCALARS[tp]


def make_twin(cls) -> type:
    """A frozen dataclass with the fields, defaults and methods of ``cls``."""
    fields = cls.__record_fields__
    defaults = cls.__new__.__defaults__ or ()
    specs = [(name, object) for name in fields[:len(fields) - len(defaults)]]
    specs += [(name, object, default)
              for name, default in zip(fields[len(fields) - len(defaults):], defaults)]
    methods = {key: value for key, value in vars(cls).items()
               if key not in fields and (not key.startswith("__") or key == "__post_init__")}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=methods)


TWINS = {cls: make_twin(cls) for cls in RECORDS.values()}
# A second record class with the same name and fields as each record class.
CLONES = {cls: record(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))
          for cls in RECORDS.values()}


def twin_of(value):
    """``value`` with every record in it replaced by its dataclass twin."""
    if type(value) in TWINS:
        return TWINS[type(value)](*(twin_of(getattr(value, f))
                                    for f in value.__record_fields__))
    if isinstance(value, tuple):
        return tuple(map(twin_of, value))
    return value


def build(cls, fields):
    """The value ``cls(*fields)``, or the class and text of what it raised."""
    try:
        return cls(*fields)
    except Exception as exc:  # noqa: BLE001 - the twin must raise the same
        return type(exc), str(exc)


def test_every_record_class_is_covered():
    assert len(RECORDS) == 21
    assert {cls.__module__ for cls in RECORDS.values()} == {
        f"rhetor.{m}" for m in
        "capacity documents entropy operators pyramid registry schedule".split()}


@pytest.mark.parametrize("name", sorted(RECORDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_matches_its_dataclass_twin(name, data):
    cls, twin = RECORDS[name], TWINS[RECORDS[name]]
    fields_a = data.draw(st.tuples(*map(values, _hints(cls))))
    fields_b = data.draw(st.sampled_from([fields_a]) | st.tuples(*map(values, _hints(cls))))
    a, b = build(cls, fields_a), build(cls, fields_b)
    ta, tb = build(twin, twin_of(fields_a)), build(twin, twin_of(fields_b))
    if not isinstance(a, cls):
        assert a == ta  # the same error class and text
        return
    assert cls(**dict(zip(cls.__record_fields__, fields_a))) == a
    assert repr(a) == repr(ta)
    assert hash(a) == hash(ta) == hash(fields_a)
    assert asdict(a) == dataclasses.asdict(ta)
    assert a.__match_args__ == ta.__match_args__
    if isinstance(b, cls):
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)
    assert a != ta and ta != a and not a == ta
    assert a != CLONES[cls](*fields_a)
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    for field in cls.__record_fields__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown_attribute = 1
    assert tuple(getattr(a, f) for f in cls.__record_fields__) == fields_a


def test_defaults_fill_the_trailing_fields():
    mode = rhetor.Mode("narration", "Narration")
    assert mode == rhetor.Mode("narration", "Narration", (), rhetor.Origin("base"), "")
    assert rhetor.Origin("base") == rhetor.Origin("base", None, ())
    with pytest.raises(TypeError, match=r"^Mode\.__new__\(\) missing 1 required positional "
                                        r"argument: 'display_name'$"):
        rhetor.Mode("narration")


@pytest.mark.parametrize("name", sorted(RECORDS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_record_is_of_its_record_class_alone(name, data):
    """The constructor fills a private twin class, which never shows: the
    record it returns is of the record class, whose one base is ``object``."""
    cls = RECORDS[name]
    assert type(data.draw(values(cls))).__mro__ == (cls, object)


def test_class_assignment_is_refused():
    origin = rhetor.Origin("base")
    with pytest.raises(AttributeError, match=r"^cannot assign to field '__class__'$"):
        origin.__class__ = rhetor.Mode
    assert type(origin) is rhetor.Origin


@record
class Point:
    x: int
    y: int = 0


def test_a_subclass_without_slots_of_its_own_keeps_its_type():
    class Named(Point):
        __slots__ = ()

        def norm(self):
            return abs(self.x) + abs(self.y)

    value = Named(3, -4)
    assert type(value) is Named and type(value).__mro__ == (Named, Point, object)
    assert value.norm() == 7 and repr(value).endswith("<locals>.Named(x=3, y=-4)")
    assert value == Named(3, -4) and value != Point(3, -4)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        value.x = 1


@pytest.mark.parametrize("body", [{}, {"__annotations__": {"z": "int"}}, {"__slots__": ("z",)},
                                  {"__slots__": ["z"]}])
def test_any_other_subclass_is_refused_where_it_is_defined(body):
    with pytest.raises(TypeError, match=r"^Extended subclasses a record and must declare "
                                        r"__slots__ = \(\)$"):
        type("Extended", (Point,), dict(body))


def test_asdict_refuses_what_is_not_a_record():
    with pytest.raises(TypeError, match="should be called on a record"):
        asdict({"K": 1})


def test_dataclasses_asdict_refuses_a_record():
    with pytest.raises(TypeError):
        dataclasses.asdict(rhetor.capacity(4))
