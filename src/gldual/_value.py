"""Immutable value classes whose equality, hash, repr and order read a declared field tuple.

A subclass lists its fields in `_fields` and writes its own `__init__`, which
checks the arguments and stores each field with `set_field`.  Code whose
output is valid by construction skips that check through `_trusted`: the
strata and orbit walks, the fiber search, `parameters.orbit_of`, and the
retraction and homotopy of a parameter.  The methods derived here compare
and hash the tuple of those fields; they are closures over one
`operator.attrgetter` per class, so defining a class generates and compiles
no code.  The `from_json` constructors refuse a JSON value of the wrong type
through `_json_of_type` and `_json_objects`, by name, as the command line does.
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


# what a refusal says it got, for each type that json.loads returns
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_of_type(value, where: str, expected: type):
    """`value` if it is of the `expected` type, dict or list; otherwise refused."""
    if type(value) is not expected:
        raise ValueError("%s must be a JSON %s, got %s" % (
            where, "object" if expected is dict else "list",
            _JSON_TYPES.get(type(value), "a " + type(value).__name__)))
    return value


def _json_objects(value, where: str):
    """The entries of the JSON list `value`, each refused when reached unless an object."""
    return (_json_of_type(d, "%s[%d]" % (where, i), dict)
            for i, d in enumerate(_json_of_type(value, where, list)))


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
