"""Langlands parameters for GL(n), modeled combinatorially.

An irreducible parameter is an inertial class: an opaque label for an
irreducible Weil representation (only its dimension and the unitarity of its
determinant are ever consumed) tensored with the (2j+1)-dimensional
irreducible of SU(2).  A full parameter is a finite twisted sum of inertial
classes, the twist being an unramified quasicharacter held as a
:class:`~gldual.scalars.QScalar`.  Forgetting the twists yields the orbit
descriptor, whose invariants (l, k) fix the shape A^l x (C*)^k of the orbit.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value, _json_field, _json_objects, exact_int, set_field
from .scalars import ONE, QScalar, _fraction, _integer, exact_rational

__all__ = [
    "WeilLabel",
    "InertialClass",
    "LParameter",
    "OrbitDescriptor",
    "TRIVIAL",
    "dimension",
    "orbit_of",
    "orbit_shape",
    "is_tempered",
    "is_supercuspidal",
    "is_discrete_series",
    "steinberg_parameter",
]


class WeilLabel(Value):
    """Opaque name for an irreducible Weil representation.

    Distinct ids are deemed inertially inequivalent; equal ids must carry
    equal (dim, unitary_det), which sum- and orbit-constructors enforce.
    """

    _fields = ("id", "dim", "unitary_det")

    def __init__(self, id: str, dim: int = 1, unitary_det: bool = True):
        if not isinstance(id, str):
            raise TypeError("label id must be a string, got %r" % (id,))
        if not id:
            raise ValueError("label id must be nonempty")
        if _integer(dim, "label dimension") < 1:
            raise ValueError("label dimension must be >= 1")
        if not isinstance(unitary_det, bool):
            raise TypeError("label unitary_det must be a bool, got %r" % (unitary_det,))
        set_field(self, "id", id)
        set_field(self, "dim", dim)
        set_field(self, "unitary_det", unitary_det)

    def key(self):
        return (self.id, self.dim, self.unitary_det)


TRIVIAL = WeilLabel("triv", 1, True)


class InertialClass(Value):
    """rho tensor spin(j): an irreducible parameter up to unramified twist.

    The constructor also keeps j as its JSON text, in `_j`, which is not a
    field: equality, hash and repr read `rho` and `spin_j` alone, and the run
    reader of `orbit_of` and the retraction compares `(rho, _j)`.
    """

    _fields = ("rho", "spin_j")

    def __init__(self, rho: WeilLabel, spin_j: Fraction = Fraction(0)):
        j = _fraction(spin_j)
        if j.numerator < 0 or j.denominator > 2:  # a sign read off an int, not a Fraction
            raise ValueError("spin_j must be a nonnegative half-integer, got %s" % j)
        set_field(self, "rho", rho)
        set_field(self, "spin_j", j)
        set_field(self, "_j", str(j))

    @property
    def dimension(self) -> int:
        return self.rho.dim * int(2 * self.spin_j + 1)

    def key(self):
        return (*self.rho.key(), self.spin_j)

    def to_json(self) -> dict:
        return {
            "rho": {"id": self.rho.id, "dim": self.rho.dim, "unitary_det": self.rho.unitary_det},
            "j": self._j,
        }

    @classmethod
    def from_json(cls, data: dict, path: str = "") -> InertialClass:
        rho, at = _json_field(data, "rho", dict, path), ("%s.rho" % path if path else "rho")
        return cls(WeilLabel(_json_field(rho, "id", str, at),
                             _json_field(rho, "dim", exact_int, at, 1),
                             _json_field(rho, "unitary_det", bool, at, True)),
                   _json_field(data, "j", exact_rational, path))


InertialClass._trusted = None  # every instance keeps its `_j`, set by the constructor alone


def _check_label_consistency(labels):
    seen: dict[str, tuple[int, bool]] = {}
    for rho in labels:
        prev = seen.setdefault(rho.id, (rho.dim, rho.unitary_det))
        if prev != (rho.dim, rho.unitary_det):
            raise ValueError("label %r used with inconsistent attributes" % rho.id)


# the canonical orders of a parameter's (class, twist) summands and of an
# orbit's (class, multiplicity) entries
def _summand_key(summand):
    cls, twist = summand
    return cls.key(), twist.q_exp, twist.turn


def _class_key(entry):
    return entry[0].key()


class LParameter(Value):
    """A twisted sum of inertial classes, kept in canonical (sorted) form."""

    _fields = ("summands",)

    def __init__(self, summands: tuple[tuple[InertialClass, QScalar], ...]):
        summands = tuple(sorted(summands, key=_summand_key))
        if not summands:
            raise ValueError("a parameter needs at least one summand")
        _check_label_consistency(cls.rho for cls, _ in summands)
        set_field(self, "summands", summands)

    def to_json(self) -> dict:
        return {
            "summands": [
                dict(cls.to_json(), twist=twist.to_json()) for cls, twist in self.summands
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> LParameter:
        return cls(tuple(
            (InertialClass.from_json(s, at),
             QScalar.from_json(_json_field(s, "twist", dict, at), at + ".twist"))
            for s, at in _json_field(data, "summands", _json_objects)))


class OrbitDescriptor(Value):
    """An orbit of parameters: inertial classes with multiplicities, twists forgotten.

    The constructor and `from_json` sort the classes into canonical order (by
    `InertialClass.key()`) and check them: at least one, positive
    multiplicities, pairwise distinct, consistent labels.  Two builders whose
    output meets all of this by construction skip the checks, through the
    positional `OrbitDescriptor._trusted(classes)`: `orbit_of`, which counts
    the runs of equal classes in a checked parameter, and the orbit walk of
    `gldual.bernstein`.
    """

    _fields = ("classes",)

    def __init__(self, classes: tuple[tuple[InertialClass, int], ...]):
        classes = tuple(sorted(classes, key=_class_key))
        if not classes:
            raise ValueError("an orbit needs at least one class")
        for _, mult in classes:
            if _integer(mult, "a multiplicity") < 1:
                raise ValueError("multiplicities must be positive")
        if len({cls for cls, _ in classes}) != len(classes):
            raise ValueError("orbit classes must be pairwise distinct")
        _check_label_consistency(cls.rho for cls, _ in classes)
        set_field(self, "classes", classes)

    @property
    def k(self) -> int:
        """Number of distinct inertial classes: the torus rank of the orbit."""
        return len(self.classes)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.classes)

    def to_json(self) -> dict:
        classes, total = [], 0
        for cls, mult in self.classes:
            rho = cls.rho  # the entry is `InertialClass.to_json` with the multiplicity
            classes.append({"rho": {"id": rho.id, "dim": rho.dim, "unitary_det": rho.unitary_det},
                            "j": cls._j, "multiplicity": mult})
            total += mult
        return {"classes": classes, "l": total - len(classes), "k": len(classes)}

    @classmethod
    def from_json(cls, data: dict) -> OrbitDescriptor:
        return cls(tuple(
            (InertialClass.from_json(c, at), _json_field(c, "multiplicity", exact_int, at))
            for c, at in _json_field(data, "classes", _json_objects)))


def dimension(phi: LParameter) -> int:
    """n for which phi is a GL(n) parameter: the sum of the summand dimensions."""
    return sum(cls.dimension for cls, _ in phi.summands)


def _class_runs(summands):
    """The runs of equal classes of a checked parameter's summands, in order, each
    as a tuple of its summands.  The parameter keeps equal classes adjacent, so
    only neighbours are compared: by identity, then by `(rho, _j)`, the label and
    the canonical text of j that every instance keeps, which are equal exactly
    when the classes are.  It hashes no class and compares no `Fraction`."""
    start, first = 0, summands[0][0]
    for i in range(1, len(summands)):
        cls = summands[i][0]
        if cls is not first and (cls.rho, cls._j) != (first.rho, first._j):
            yield summands[start:i]
            start, first = i, cls
    yield summands[start:]


def orbit_of(phi: LParameter) -> OrbitDescriptor:
    """Forget the twists and group equal inertial classes with multiplicities."""
    # Each run of equal classes becomes one entry, its first instance with the
    # run's length, and the runs come in key order: no hash and no sort.  The
    # counts are positive and the labels consistent, as the parameter's were.
    return OrbitDescriptor._trusted(tuple((run[0][0], len(run))
                                          for run in _class_runs(phi.summands)))


def orbit_shape(orbit: OrbitDescriptor) -> tuple[int, int]:
    """(l, k) with the orbit isomorphic to A^l x (C*)^k; l = sum(l_i) - k."""
    k = orbit.k
    return sum(orbit.multiplicities) - k, k


def is_tempered(phi: LParameter) -> bool:
    """All determinants unitary and all twists on the unit circle."""
    return all(cls.rho.unitary_det and twist.is_unit() for cls, twist in phi.summands)


def is_supercuspidal(phi: LParameter) -> bool:
    """A single summand with trivial SU(2) factor."""
    return len(phi.summands) == 1 and phi.summands[0][0].spin_j == 0


def is_discrete_series(phi: LParameter) -> bool:
    """Irreducible with unitary determinant, up to a unitary twist."""
    if len(phi.summands) != 1:
        return False
    cls, twist = phi.summands[0]
    return cls.rho.unitary_det and twist.is_unit()


def steinberg_parameter(n: int) -> LParameter:
    """The GL(n) Steinberg parameter: trivial label tensor spin((n-1)/2)."""
    if _integer(n, "n") < 1:
        raise ValueError("n must be >= 1")
    return LParameter(((InertialClass(TRIVIAL, Fraction(n - 1, 2)), ONE),))
