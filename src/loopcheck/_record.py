"""`record`: the value-class decorator behind loopcheck's 21 record types.

It gives a class with annotated fields what ``dataclasses.dataclass(frozen=...)``
gave it: a positional-or-keyword constructor with defaults and
``default_factory``, ``__eq__`` and ``__hash__`` over the compared fields,
and the dataclass ``__repr__``.  The methods are closures over the field
names, with no generated source to ``exec`` and no `inspect`.  Importing
`dataclasses` and building those methods for 21 classes was about three
quarters of ``import loopcheck``.

The classes are not dataclasses: ``dataclasses.replace``, ``asdict`` and
``fields`` do not apply to them; use `replace` below.  Every annotation in
the class body is a field; there is no ``ClassVar``, no inheritance of
fields, no ordering and no ``__post_init__``.  A method the class body
defines itself is kept.
"""
from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class _Field:
    __slots__ = ("default", "default_factory", "compare", "repr")

    def __init__(self, default, default_factory, compare, repr):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def field(*, default=_MISSING, default_factory=_MISSING, compare=True, repr=True):
    """A field with a default or a default factory, or one left out of
    equality and hashing (``compare=False``) or of the repr."""
    return _Field(default, default_factory, compare, repr)


def record(cls=None, /, *, frozen=False):
    """Class decorator; ``@record`` or ``@record(frozen=True)``.

    A frozen record is hashable and refuses assignment and deletion with
    ``dataclasses.FrozenInstanceError``; a mutable one is unhashable.  Field
    values live in the instance ``__dict__``, so `functools.cached_property`
    works on both.
    """
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def replace(obj, /, **changes):
    """A new record of ``obj``'s class with ``changes`` applied, keeping
    every other field, compared or not."""
    values = {name: getattr(obj, name) for name in obj._record_fields}
    values.update(changes)
    return obj.__class__(**values)


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _build(cls, frozen):
    body = cls.__dict__
    names, compared, shown = [], [], []
    optional = []  # (name, default, factory or None) in field order
    for name in body.get("__annotations__", {}):
        spec = body.get(name, _MISSING)
        if not isinstance(spec, _Field):
            spec = _Field(spec, _MISSING, True, True)
        if spec.default_factory is not _MISSING:
            optional.append((name, None, spec.default_factory))
            delattr(cls, name)
        elif spec.default is not _MISSING:
            optional.append((name, spec.default, None))
            setattr(cls, name, spec.default)
        names.append(name)
        if spec.compare:
            compared.append(name)
        if spec.repr:
            shown.append(name)

    n = len(names)
    known = frozenset(names)
    owner = cls.__qualname__

    def __init__(self, *args, **kwargs):
        d = self.__dict__
        d.update(zip(names, args))
        if kwargs:
            if not kwargs.keys() <= known:
                raise _call_error(owner, names, args, kwargs)
            d.update(kwargs)
        given = len(args) + len(kwargs)
        if given != len(d):  # too many positional arguments, or one given twice
            raise _call_error(owner, names, args, kwargs)
        if given < n:
            for name, default, factory in optional:
                if name not in d:
                    d[name] = default if factory is None else factory()
            if len(d) < n:
                raise _call_error(owner, names, args, kwargs)

    # With one compared field the key is that field's value, not the 1-tuple
    # that dataclasses hashed; that changes only hash values, not equality.
    key = attrgetter(*compared) if compared else lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({fields})"

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__}
    if frozen:
        methods.update(
            __hash__=__hash__, __setattr__=_frozen_setattr, __delattr__=_frozen_delattr
        )
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name not in body:
            setattr(cls, name, method)
    cls._record_fields = tuple(names)
    return cls


def _call_error(owner, names, args, kwargs) -> TypeError:
    """The error of a constructor call that does not bind every required
    field exactly once."""
    return TypeError(
        f"{owner}() got {len(args)} positional arguments and the keywords "
        f"{list(kwargs)}; it takes each of the fields {names} at most once, "
        "and each field without a default exactly once"
    )
