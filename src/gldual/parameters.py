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

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import ONE, QScalar, _fraction, exact_int, exact_rational

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


def _trusted(cls, **fields):
    """An instance of the frozen dataclass `cls` with `fields` set as given, unchecked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class WeilLabel:
    """Opaque name for an irreducible Weil representation.

    Distinct ids are deemed inertially inequivalent; equal ids must carry
    equal (dim, unitary_det), which sum- and orbit-constructors enforce.
    """

    id: str
    dim: int = 1
    unitary_det: bool = True

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValueError("label id must be a string, got %r" % (self.id,))
        if not self.id:
            raise ValueError("label id must be nonempty")
        if self.dim < 1:
            raise ValueError("label dimension must be >= 1")

    def key(self):
        return (self.id, self.dim, self.unitary_det)


TRIVIAL = WeilLabel("triv", 1, True)


@dataclass(frozen=True)
class InertialClass:
    """rho tensor spin(j): an irreducible parameter up to unramified twist."""

    rho: WeilLabel
    spin_j: Fraction = field(default=Fraction(0))

    def __post_init__(self):
        j = _fraction(self.spin_j)
        object.__setattr__(self, "spin_j", j)
        if j < 0 or j.denominator > 2:
            raise ValueError("spin_j must be a nonnegative half-integer, got %s" % j)

    @property
    def dimension(self) -> int:
        return self.rho.dim * int(2 * self.spin_j + 1)

    def key(self):
        return (*self.rho.key(), self.spin_j)

    def to_json(self) -> dict:
        return {
            "rho": {"id": self.rho.id, "dim": self.rho.dim, "unitary_det": self.rho.unitary_det},
            "j": str(self.spin_j),
        }

    @classmethod
    def from_json(cls, data: dict) -> InertialClass:
        rho = data["rho"]
        if not isinstance(rho, dict):
            raise ValueError("rho must be a JSON object, got %r" % (rho,))
        unitary_det = rho.get("unitary_det", True)
        if not isinstance(unitary_det, bool):
            raise ValueError("unitary_det must be a boolean, got %r" % (unitary_det,))
        return cls(
            WeilLabel(rho["id"], exact_int(rho.get("dim", 1), "dim"), unitary_det),
            exact_rational(data["j"], "j"),
        )


def _check_label_consistency(labels):
    seen: dict[str, tuple[int, bool]] = {}
    for rho in labels:
        prev = seen.setdefault(rho.id, (rho.dim, rho.unitary_det))
        if prev != (rho.dim, rho.unitary_det):
            raise ValueError("label %r used with inconsistent attributes" % rho.id)


@dataclass(frozen=True)
class LParameter:
    """A twisted sum of inertial classes, kept in canonical (sorted) form."""

    summands: tuple[tuple[InertialClass, QScalar], ...]

    def __post_init__(self):
        summands = tuple(sorted(self.summands, key=lambda s: (s[0].key(), s[1].q_exp, s[1].turn)))
        if not summands:
            raise ValueError("a parameter needs at least one summand")
        _check_label_consistency(cls.rho for cls, _ in summands)
        object.__setattr__(self, "summands", summands)

    def to_json(self) -> dict:
        return {
            "summands": [
                dict(cls.to_json(), twist=twist.to_json()) for cls, twist in self.summands
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> LParameter:
        return cls(
            tuple(
                (InertialClass.from_json(s), QScalar.from_json(s["twist"]))
                for s in data["summands"]
            )
        )


@dataclass(frozen=True)
class OrbitDescriptor:
    """An orbit of parameters: inertial classes with multiplicities, twists forgotten.

    The constructor, `from_json` and `orbit_of` sort the classes into canonical
    order (by `InertialClass.key()`) and check them: at least one, positive
    multiplicities, pairwise distinct, consistent labels.  Only the strata walk
    of `gldual.bernstein`, whose output meets all of this by construction,
    skips the checks, through `_trusted`.
    """

    classes: tuple[tuple[InertialClass, int], ...]

    def __post_init__(self):
        classes = tuple(sorted(self.classes, key=lambda c: c[0].key()))
        if not classes:
            raise ValueError("an orbit needs at least one class")
        for _, mult in classes:
            if mult < 1:
                raise ValueError("multiplicities must be positive")
        if len({cls for cls, _ in classes}) != len(classes):
            raise ValueError("orbit classes must be pairwise distinct")
        _check_label_consistency(cls.rho for cls, _ in classes)
        object.__setattr__(self, "classes", classes)

    @property
    def k(self) -> int:
        """Number of distinct inertial classes: the torus rank of the orbit."""
        return len(self.classes)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.classes)

    def to_json(self) -> dict:
        l, k = orbit_shape(self)
        return {
            "classes": [dict(cls.to_json(), multiplicity=m) for cls, m in self.classes],
            "l": l,
            "k": k,
        }

    @classmethod
    def from_json(cls, data: dict) -> OrbitDescriptor:
        return cls(
            tuple(
                (InertialClass.from_json(c), exact_int(c["multiplicity"], "multiplicity"))
                for c in data["classes"]
            )
        )


def dimension(phi: LParameter) -> int:
    """n for which phi is a GL(n) parameter: the sum of the summand dimensions."""
    return sum(cls.dimension for cls, _ in phi.summands)


def orbit_of(phi: LParameter) -> OrbitDescriptor:
    """Forget the twists and group equal inertial classes with multiplicities."""
    counts = Counter(cls for cls, _ in phi.summands)
    return OrbitDescriptor(tuple(counts.items()))


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
    if n < 1:
        raise ValueError("n must be >= 1")
    return LParameter(((InertialClass(TRIVIAL, Fraction(n - 1, 2)), ONE),))
