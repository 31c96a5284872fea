"""Immutable value classes whose equality, hash, repr and order read a declared field tuple.

A subclass lists its fields in `_fields` and writes its own `__init__`, which
checks the arguments and stores each field with `set_field`.  Code whose
output is valid by construction skips that check through `_trusted`.  The
methods derived here compare and hash the tuple of those fields; they are
closures over one `operator.attrgetter` per class, so defining a class
generates and compiles no code.
"""

from operator import attrgetter, ge, gt, le, lt

# Stores one field past Value.__setattr__.  Unlike a write to `obj.__dict__`,
# it keeps the attributes inline in the instance, which is smaller and faster
# to read than a materialised dict.
set_field = object.__setattr__


def _trusted(cls, **fields):
    """An instance of the value class `cls` with `fields` set as given, unchecked."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        set_field(obj, name, value)
    return obj


def _frozen(self, name, value=None):
    raise AttributeError("%s is immutable: cannot set or delete %r"
                         % (type(self).__qualname__, name))


class Value:
    """Base of the package's value classes: instances are immutable and compare
    by their fields, and only with instances of the same class.  A subclass
    declared with `order=True` is also ordered by its fields, lexicographically."""

    _fields: tuple[str, ...] = ()

    __setattr__ = _frozen
    __delattr__ = _frozen

    def __init_subclass__(cls, order: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        key = attrgetter(*cls._fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
        if order:
            def compare(op):
                def method(self, other):
                    if other.__class__ is self.__class__:
                        return op(key(self), key(other))
                    return NotImplemented
                return method

            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = map(compare, (lt, le, gt, ge))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
