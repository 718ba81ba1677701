"""Declared spec fields, and the one walker that parses, checks and
serializes every declarative spec.

A spec - a scenario and its fault, channel, workload, traffic and
temporal blocks, a sweep, a mutation, a script entry - is a frozen
dataclass that declares each field once with :func:`spec_field`: the
field's JSON shape (:class:`Int`, :class:`Number`, :class:`Str`,
:class:`ListOf`, :class:`MapOf`, a nested spec class, ...), its default,
and when ``to_dict`` emits it.  The walker reads those declarations for
three jobs:

* :func:`parse` (every ``from_dict``) rejects non-objects and unknown
  keys, reports missing required keys and builds the spec; omitted keys
  take their defaults, and ``null`` means the default wherever a field
  accepts it;
* :func:`check_fields` (the first call of every ``__post_init__``)
  checks each field against its shape and normalizes it on the way -
  nested payloads become specs, lists tuples, objects dicts - so a spec
  built in Python passes the same checks as one parsed from JSON, and
  the cross-field rules after it only ever see well-typed values;
* :class:`Spec` ``to_dict`` writes the JSON form back, and
  :func:`open_spec` writes it one level deep - nested specs stay built
  - for an edit that rebuilds only the specs it changes (sweep
  expansion, :mod:`repro.sweep.expand`).

Every :class:`~repro.errors.SpecificationError` raised while a spec is
built names its field path - ``temporal.transactions[1].deadline_slots
must be an integer, got str: 'x'`` - and a rule a nested spec checks
itself is prefixed with that spec's path.  Each spec class's table of
fields is built once, on first use.
"""

from __future__ import annotations

import dataclasses
import operator
from collections.abc import Mapping
from typing import Any, Callable, NoReturn

from repro.errors import SpecificationError

#: The field-metadata key the walker's declarations live under.
_DECLARED = "repro.fields"


# ----------------------------------------------------------------------
# Located errors
# ----------------------------------------------------------------------


def _error(path: str, detail: str) -> SpecificationError:
    error = SpecificationError(path + detail)
    error.path, error.detail = path, detail
    return error


def reject(problem: str) -> NoReturn:
    """Raise ``problem`` with the value being checked; the walker
    prefixes the value's path as the error travels up."""
    raise _error("", " " + problem)


def _within(segment: str, error: SpecificationError) -> SpecificationError:
    """``error``, raised at ``segment`` of the enclosing value."""
    path = getattr(error, "path", None)
    if path is None:  # a rule's own message: say where it fired
        return _error(segment, f": {error}")
    if path and path[0] != "[":
        segment += "."
    return _error(segment + path, error.detail)


def load(kind: Any, value: Any, at: str) -> Any:
    """``kind.load(value)``, with any error located at path ``at``."""
    try:
        return kind.load(value)
    except SpecificationError as error:
        raise _within(at, error) from None


def parse(kind: Any, payload: Any, name: str) -> Any:
    """``kind.load(payload)`` for a whole JSON document.

    A problem with the document itself (not an object, unknown or
    missing keys) is reported under ``name``; every other error already
    names its field path.
    """
    try:
        return kind.load(payload)
    except SpecificationError as error:
        if getattr(error, "path", None) != "":
            raise
        raise _within(name, error) from None


def _got(value: Any) -> str:
    return f"got {type(value).__name__}: {value!r}"


# ----------------------------------------------------------------------
# JSON shapes: each loads (checks and normalizes) and dumps one value.
# A leaf's ``dump`` is None: it serializes as itself.
# ----------------------------------------------------------------------


class Number:
    """An int or float (bools excluded), optionally bounded."""

    dump = None
    _exact: tuple[type, ...] = (int, float)

    def __init__(
        self,
        minimum: float | None = None,
        *,
        above: float | None = None,
        maximum: float | None = None,
    ) -> None:
        self.minimum, self.above, self.maximum = minimum, above, maximum
        low = minimum if above is None else above
        if maximum is not None:
            opening = "[" if above is None else "("
            self.bounds = f"in {opening}{low}, {maximum}]"
        elif low is not None:
            self.bounds = f"{'>=' if above is None else '>'} {low}"
        else:
            self.bounds = None

    def load(self, value: Any) -> Any:
        if type(value) not in self._exact:
            value = self._convert(value)
        if self.bounds is not None and (
            (self.minimum is not None and value < self.minimum)
            or (self.above is not None and value <= self.above)
            or (self.maximum is not None and value > self.maximum)
        ):
            reject(f"must be {self.bounds}: {value}")
        return value

    def _convert(self, value: Any) -> Any:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
        reject(f"must be a number, {_got(value)}")


class Int(Number):
    """An integer (bools excluded; numpy and other integer types are
    taken as their plain ``int``), optionally bounded."""

    _exact = (int,)

    def _convert(self, value: Any) -> int:
        if not isinstance(value, bool):
            try:
                return operator.index(value)
            except TypeError:
                pass
        reject(f"must be an integer, {_got(value)}")


class Str:
    """A string, optionally one of ``choices`` or required non-empty."""

    dump = None

    def __init__(self, *choices: str, nonempty: bool = False) -> None:
        self.choices = choices
        self.nonempty = nonempty

    def load(self, value: Any) -> str:
        if not isinstance(value, str):
            reject(f"must be a string, {_got(value)}")
        if self.choices and value not in self.choices:
            reject(f"must be one of {list(self.choices)}, got {value!r}")
        if self.nonempty and not value:
            reject("must be a non-empty string")
        return value


class Anything:
    """Any JSON value, taken as is (sweep axis values)."""

    dump = None

    @staticmethod
    def load(value: Any) -> Any:
        return value


class Object:
    """A free-form JSON object, kept as a dict."""

    def load(self, value: Any) -> dict:
        if not isinstance(value, (dict, Mapping)):
            reject(f"must be an object, {_got(value)}")
        return dict(value)

    dump = load


def _kind(kind: Any) -> Any:
    """A declared shape: a spec class stands for its table."""
    return table_of(kind) if isinstance(kind, type) else kind


class ListOf:
    """A JSON list of ``item`` values, kept as a tuple."""

    def __init__(self, item: Any) -> None:
        self.item = _kind(item)

    def load(self, value: Any) -> tuple:
        if type(value) is not tuple and type(value) is not list:
            if isinstance(value, (str, bytes, Mapping)) or not hasattr(
                value, "__iter__"
            ):
                reject(f"must be a list, {_got(value)}")
        load = self.item.load
        out: list[Any] = []
        try:
            for item in value:
                out.append(load(item))
        except SpecificationError as error:
            raise _within(f"[{len(out)}]", error) from None
        return tuple(out)

    def dump(self, value: Any) -> list:
        dump = self.item.dump
        return list(value) if dump is None else [dump(v) for v in value]


class MapOf:
    """A JSON object of ``value`` values under string keys, kept as a
    dict in key order."""

    def __init__(self, value: Any) -> None:
        self.value = _kind(value)

    def load(self, value: Any) -> dict:
        if not isinstance(value, (dict, Mapping)):
            reject(f"must be an object, {_got(value)}")
        out: dict[Any, Any] = {}
        key = None
        try:
            for key, item in value.items():
                out[key] = self.value.load(item)
        except SpecificationError as error:
            raise _within(f"[{key!r}]", error) from None
        return out

    def dump(self, value: Any) -> dict:
        if self.value.dump is None:
            return dict(value)
        return {key: self.value.dump(item) for key, item in value.items()}


# ----------------------------------------------------------------------
# Declarations and tables
# ----------------------------------------------------------------------


def spec_field(
    kind: Any,
    *,
    default: Any = dataclasses.MISSING,
    default_factory: Any = dataclasses.MISSING,
    nullable: bool = False,
    emit: str | Callable[[Any], bool] | None = None,
    derived: Callable[[Any], bool] | None = None,
    key: str | None = None,
    kw_only: Any = dataclasses.MISSING,
) -> Any:
    """Declare one spec field (a :func:`dataclasses.field`).

    ``kind`` is the field's JSON shape - a shape instance or a spec
    class.  A field without a default is required.  ``null`` is taken
    as the default when the default is ``None`` or ``nullable`` is set.
    ``emit`` says when ``to_dict`` writes the field: always (``None``),
    ``"set"`` (not ``None``), ``"changed"`` (not the default), or when
    a predicate of the spec holds.  While ``derived`` holds of the spec
    the field is computed from others and serializes as its default.
    ``key`` is the JSON key, when it is not the field's name.
    """
    return dataclasses.field(
        default=default,
        default_factory=default_factory,
        kw_only=kw_only,
        metadata={_DECLARED: (kind, nullable, emit, derived, key)},
    )


def _one_level(kind: Any) -> Callable[[Any], Any] | None:
    """How a one-level dump writes a value of shape ``kind``: a nested
    spec stays built (None), a list of specs becomes a list of the built
    items, and any other value takes its JSON form."""
    if getattr(kind, "nested", False):
        return None
    if isinstance(kind, ListOf) and getattr(kind.item, "nested", False):
        return list
    return kind.dump


class _Field:
    __slots__ = (
        "name", "key", "load", "dump", "shallow", "default", "factory",
        "required", "nullable", "emit", "derived",
    )

    def __init__(self, name: str, declared: dataclasses.Field) -> None:
        kind, nullable, emit, derived, key = declared.metadata[_DECLARED]
        self.name, self.key = name, key or name
        kind = _kind(kind)
        self.load, self.dump = kind.load, kind.dump
        self.shallow = _one_level(kind)
        self.default = declared.default
        self.factory = declared.default_factory
        self.required = (
            self.default is dataclasses.MISSING
            and self.factory is dataclasses.MISSING
        )
        self.nullable = nullable or (
            self.default is None and self.factory is dataclasses.MISSING
        )
        self.derived = derived
        if emit == "set":
            self.emit = _is_set
        elif emit == "changed":
            self.emit = self._changed
        elif emit is not None:
            self.emit = lambda spec, value: emit(spec)
        else:
            self.emit = None

    def make_default(self) -> Any:
        if self.factory is not dataclasses.MISSING:
            return self.factory()
        return self.default

    def _changed(self, spec: Any, value: Any) -> bool:
        return value != self.make_default()


def _is_set(spec: Any, value: Any) -> bool:
    return value is not None


def when(name: str, *values: Any) -> Callable[[Any], bool]:
    """An ``emit`` condition: field ``name`` holds one of ``values``."""
    return lambda spec: getattr(spec, name) in values


class _Table:
    """One record shape: its fields, keys and constructor.

    A spec dataclass's table builds the spec from the payload as given
    and leaves the checks to its ``__post_init__`` (:func:`check_fields`);
    a table over another constructor (:func:`record`) loads each field
    before the call.  Either way a built instance loads as itself, so a
    payload may hold built specs wherever it holds their JSON objects.
    """

    #: A one-level dump (:meth:`open`) leaves values of this shape built.
    nested = True

    def __init__(
        self, build: type, fields: list[_Field], *, checks_itself: bool
    ) -> None:
        self.build = build
        self.fields = tuple(fields)
        self.by_key = {f.key: f for f in fields}
        self.keys = frozenset(self.by_key)
        self.required = frozenset(f.key for f in fields if f.required)
        self.plan = tuple(
            (f.name, f.key, f.dump, f.emit, f.derived, f) for f in fields
        )
        self.opening = tuple(
            (f.name, f.key, f.shallow, f.emit, f.derived, f) for f in fields
        )
        self.renamed = any(f.key != f.name for f in fields)
        self.checks_itself = checks_itself

    def load(self, value: Any) -> Any:
        if isinstance(value, self.build):
            return value
        if type(value) is not dict and not isinstance(value, Mapping):
            reject(f"must be an object, {_got(value)}")
        if not self.keys.issuperset(value):
            unknown = sorted(set(value) - self.keys, key=str)
            raise _error(
                "",
                f": unknown keys {unknown} (allowed: {sorted(self.keys)})",
            )
        if not self.required <= value.keys():
            missing = sorted(self.required - value.keys())
            raise _error("", f": missing required keys {missing}")
        if self.checks_itself:
            if self.renamed:
                value = {self.by_key[k].name: v for k, v in value.items()}
            return self.build(**value)
        kwargs = {}
        for key, item in value.items():
            field = self.by_key[key]
            if item is None and field.nullable:
                kwargs[field.name] = field.make_default()
                continue
            try:
                kwargs[field.name] = field.load(item)
            except SpecificationError as error:
                raise _within(key, error) from None
        return self.build(**kwargs)

    def dump(self, spec: Any) -> dict[str, Any]:
        return self._write(spec, self.plan)

    def open(self, spec: Any) -> dict[str, Any]:
        """``spec``'s JSON form one level deep: :meth:`dump`'s keys, with
        nested specs - and the items of a list of them - left built."""
        return self._write(spec, self.opening)

    @staticmethod
    def _write(spec: Any, plan: tuple) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name, key, dump, emit, derived, field in plan:
            value = getattr(spec, name)
            if derived is not None and derived(spec):
                value = field.make_default()
            elif emit is not None and not emit(spec, value):
                continue
            out[key] = value if dump is None or value is None else dump(value)
        return out


_TABLES: dict[type, _Table] = {}


def table_of(cls: type) -> _Table:
    """The field table of spec dataclass ``cls`` (built once), or of a
    :func:`record`'s class."""
    table = _TABLES.get(cls)
    if table is None:
        table = _TABLES[cls] = _Table(
            cls,
            [_Field(f.name, f) for f in dataclasses.fields(cls)],
            checks_itself=True,
        )
    return table


def record(build: type, **fields: Any) -> _Table:
    """The shape of a JSON object that ``build(**fields)`` constructs,
    for a class that checks its own arguments (``fields`` are
    :func:`spec_field` declarations).  It becomes ``build``'s table."""
    table = _TABLES[build] = _Table(
        build,
        [_Field(name, declared) for name, declared in fields.items()],
        checks_itself=False,
    )
    return table


def open_spec(value: Any) -> dict[str, Any] | None:
    """A built spec's JSON form one level deep (:meth:`_Table.open`), or
    ``None`` when ``value`` is not a spec.

    Loading the form - edited or not - through the spec's table builds
    the spec again, passing every nested spec it still holds through as
    it is.
    """
    table = _TABLES.get(type(value))
    return None if table is None else table.open(value)


def check_fields(spec: Any) -> None:
    """Check and normalize every declared field of ``spec`` in place.

    Each spec's ``__post_init__`` calls this first.
    """
    for field in table_of(type(spec)).fields:
        value = getattr(spec, field.name)
        if value is None and field.nullable:
            if field.default is not None:
                object.__setattr__(spec, field.name, field.make_default())
            continue
        try:
            new = field.load(value)
        except SpecificationError as error:
            raise _within(field.key, error) from None
        if new is not value:
            object.__setattr__(spec, field.name, new)


class Spec:
    """Base of the declared-field specs: JSON in and out by the walker."""

    __slots__ = ()

    def __post_init__(self) -> None:
        check_fields(self)

    @classmethod
    def from_dict(cls, payload: Any) -> Any:
        """Build from :meth:`to_dict` output / parsed JSON (unknown keys
        rejected; omitted keys take their defaults)."""
        return parse(table_of(cls), payload, cls.__name__)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict; :meth:`from_dict` round-trips it."""
        return table_of(type(self)).dump(self)


# ----------------------------------------------------------------------
# Argument checks outside the specs
# ----------------------------------------------------------------------


def check_int(value: Any, what: str, *, minimum: int | None = None) -> None:
    """Reject anything but an integer (bools excluded) ``>= minimum``."""
    load(Int(minimum), value, what)


def check_number(value: Any, what: str) -> None:
    """Reject anything but an int or float (bools excluded)."""
    load(Number(), value, what)
