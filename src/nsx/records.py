"""Records: plain classes that name their fields and write their own `__init__`.

A record class lists its fields in `_fields` and sets them in its own
`__init__`; the two bases here give it `==`, `hash` and `repr` from that
list.  Nothing is generated or compiled when a record class is defined,
so a record costs no more to define than any other class; generating the
methods instead, with `exec`, would cost every fresh process milliseconds
at import.

- `==` holds only between records of one class whose fields are equal;
  records of two classes never compare equal, whatever their fields.
- `repr` shows every field of `_fields`, in order:
  `Name(field=value, ...)`.
- A `Record` is mutable and unhashable.  A `FrozenRecord` hashes its
  fields and raises AttributeError on any assignment or deletion
  of an attribute, so its `__init__` fills its fields without `setattr`:
  through `vars(self)`, or through its slots' own setters.

`dsl.Statement`, whose fields depend on its keyword, writes its own `==`,
hash and `repr` over its instance dict.
"""

from operator import attrgetter


def _key_of(names):
    """The function that gives a record's values of the fields `names`, as a tuple."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    """A mutable record: `==` by class and fields; unhashable."""

    __slots__ = ()
    _fields = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = staticmethod(_key_of(cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable record, hashed by its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
