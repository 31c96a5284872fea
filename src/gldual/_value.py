"""Immutable value classes whose equality, hash, repr and order read a declared field tuple.

A subclass lists its fields in `_fields` and writes its own `__init__`, which
checks the arguments and stores each field with `set_field`.  Code whose
output is valid by construction skips that check through `Cls._trusted(*fields)`,
a positional constructor made with each class of one or two fields (the only
ones built unchecked); it is None for a class of more fields, and for one
whose constructor stores more than its fields.  The methods derived here
compare and hash the tuple of those fields; they are closures over one
`operator.attrgetter` per class, so defining a class generates and compiles
no code.  JSON input has one read path: `from_json`, given its object's path,
and the command line read each member with `_json_field` and each list of
objects with `_json_objects`, which refuse it by its full JSON path.
"""

from operator import attrgetter, ge, gt, le, lt

# Stores one field past Value.__setattr__.  Unlike a write to `obj.__dict__`,
# it keeps the attributes inline in the instance, which is smaller and faster
# to read than a materialised dict.
set_field = object.__setattr__


# what a refusal says it got, for each type that json.loads returns
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_of_type(value, where: str, expected: type):
    """`value` if it is of the `expected` JSON type, dict, list or bool; otherwise refused."""
    if type(value) is not expected:
        raise ValueError("%s must be a JSON %s, got %s" % (
            where, _JSON_TYPES[expected].split()[1],
            _JSON_TYPES.get(type(value), "a " + type(value).__name__)))
    return value


def _json_field(data: dict, key: str, read=None, path: str = "", default=None):
    """The member `key` of the JSON object `data` at `path`: `default` when missing,
    refused as `<path> is missing` if that is None; checked to be of the JSON type
    `read` (dict, list or bool), or parsed by `read(member, its path)`, such as
    `exact_int` or `_json_objects`, or returned as it is if `read` is None."""
    where = "%s.%s" % (path, key) if path else key
    if key not in data:
        if default is None:
            raise ValueError("%s is missing" % where)
        return default
    if isinstance(read, type):
        return _json_of_type(data[key], where, read)
    return data[key] if read is None else read(data[key], where)


def _json_objects(value, where: str):
    """Each entry of the JSON list `value` with its path, refused unless an object."""
    for i, entry in enumerate(_json_of_type(value, where, list)):
        at = "%s[%d]" % (where, i)
        yield _json_of_type(entry, at, dict), at


def _frozen(self, name, value=None):
    raise AttributeError("%s is immutable: cannot set or delete %r"
                         % (type(self).__qualname__, name))


def _unchecked(cls):
    """`cls._trusted`: an instance of `cls` with its one or two fields set
    positionally, unchecked; None for a class of more fields."""
    new = object.__new__
    if len(cls._fields) == 1:
        (name,) = cls._fields

        def _trusted(value):
            obj = new(cls)
            set_field(obj, name, value)
            return obj
    elif len(cls._fields) == 2:
        first, second = cls._fields

        def _trusted(a, b):
            obj = new(cls)
            set_field(obj, first, a)
            set_field(obj, second, b)
            return obj
    else:
        return None
    return staticmethod(_trusted)


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
        cls._trusted = _unchecked(cls)
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
