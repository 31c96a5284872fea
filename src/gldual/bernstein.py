"""Bernstein components, their extended-quotient strata, and the matching orbits.

A component is known to this package only through its exponents e_1,...,e_r
(one per distinct supercuspidal block) since every computed invariant depends
on the exponents alone.  Its Weyl group is S_{e_1} x ... x S_{e_r}, so the
strata of the extended quotient are indexed by multipartitions: one partition
of e_i per block.  The same multipartitions index the parameter orbits lying
over the component, via the dictionary part alpha <-> spin((alpha-1)/2).

Orbits are assembled from the multipartitions, not built one by one: each
block gets one table from its partitions to their (inertial class,
multiplicity) entries read off `part_multiplicities`, sharing one class per
(block, part).  An orbit concatenates its blocks' entries in place, and a
stratum's `sym_factors` its blocks' memoised `run_lengths`, so the walks and
their JSON build their output and little else.  `enumerate_orbits` walks the
multipartitions itself and builds no stratum.  The walks' output is valid by
construction, so it is made by the unchecked positional constructors
`Stratum._trusted`, `CycleType._trusted` and `OrbitDescriptor._trusted`; the
public constructors and every `from_json` still check their input, and take
an int alone for an exponent or a part.  A walk has no degree limit:
`multipartitions` refuses one of more than OUTPUT_LIMIT items by its count,
before anything is built.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value, _json_field, _json_objects, _json_of_type, exact_int, set_field
from .errors import LimitExceeded
from .partitions import multipartitions, part_multiplicities, partitions, run_lengths
from .scalars import _fraction, _integer, exact_rational

__all__ = [
    "Block",
    "Component",
    "CycleType",
    "Stratum",
    "enumerate_strata",
    "enumerate_orbits",
    "orbit_stratum_bijection",
]


class Block(Value):
    """One supercuspidal block: opaque label, exponent, and an optional
    rational rescaling of the q-string step (q_i = q^q_scale escape hatch)."""

    _fields = ("label", "exponent", "q_scale")

    def __init__(self, label: str, exponent: int, q_scale: Fraction = Fraction(1)):
        if not isinstance(label, str):
            raise TypeError("block label must be a string, got %r" % (label,))
        if not label:
            raise ValueError("block label must be nonempty")
        if _integer(exponent, "block exponent") < 1:
            raise ValueError("block exponent must be >= 1")
        q_scale = _fraction(q_scale)
        if q_scale <= 0:
            raise ValueError("q_scale must be positive")
        set_field(self, "label", label)
        set_field(self, "exponent", exponent)
        set_field(self, "q_scale", q_scale)


class Component(Value):
    """A Bernstein component, given by its blocks (pairwise distinct labels)."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple[Block, ...]):
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("a component needs at least one block")
        labels = [b.label for b in blocks]
        if len(set(labels)) != len(labels):
            raise ValueError("block labels must be pairwise distinct")
        set_field(self, "blocks", blocks)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(b.exponent for b in self.blocks)

    @property
    def degree(self) -> int:
        """Complex dimension of the component: the sum of the exponents."""
        return sum(self.exponents)

    def to_json(self) -> dict:
        out = []
        for b in self.blocks:
            entry = {"label": b.label, "exponent": b.exponent}
            if b.q_scale != 1:
                entry["q_scale"] = str(b.q_scale)
            out.append(entry)
        return {"blocks": out}

    @classmethod
    def from_json(cls, data: dict, path: str = "") -> Component:
        return cls(tuple(
            Block(_json_field(b, "label", str, at), _json_field(b, "exponent", exact_int, at),
                  _json_field(b, "q_scale", exact_rational, at, 1))
            for b, at in _json_field(data, "blocks", _json_objects, path)))

    @classmethod
    def from_exponents(cls, exponents: tuple[int, ...]) -> Component:
        return cls(tuple(Block("sc%d" % i, e) for i, e in enumerate(exponents)))


class CycleType(Value):
    """One partition per block: a conjugacy class of the component's Weyl group."""

    _fields = ("parts_per_block",)

    def __init__(self, parts_per_block: tuple[tuple[int, ...], ...]):
        parts_per_block = tuple(map(tuple, parts_per_block))
        for parts in parts_per_block:
            if any(_integer(p, "a part") < 1 for p in parts):
                raise ValueError("parts must be positive")
            if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
                raise ValueError("parts must be weakly decreasing")
        set_field(self, "parts_per_block", parts_per_block)


class Stratum(Value):
    """One piece of the extended quotient: the fixed torus of a conjugacy class
    modulo the residual centralizer action.

    The fixed set of a permutation with the given cycle type is a torus with
    one coordinate per cycle.  Rotating within a cycle fixes it pointwise, so
    the centralizer acts through its symmetric factors, which permute the
    coordinates of equal-length cycles blockwise.
    """

    _fields = ("component", "cycle_type")

    def __init__(self, component: Component, cycle_type: CycleType):
        parts = cycle_type.parts_per_block
        if len(parts) != len(component.blocks):
            raise ValueError("cycle type must have one partition per block")
        for block, p in zip(component.blocks, parts):
            if sum(p) != block.exponent:
                raise ValueError(
                    "partition %s does not sum to exponent %d of block %r"
                    % (p, block.exponent, block.label)
                )
        set_field(self, "component", component)
        set_field(self, "cycle_type", cycle_type)

    @property
    def torus_rank(self) -> int:
        """Complex dimension of the fixed torus: total number of cycles."""
        return sum(map(len, self.cycle_type.parts_per_block))

    def residual_blocks(self) -> tuple[int, ...]:
        """Multiplicity of each (block, part-size) pair in canonical order: the
        lengths of the runs of equal parts, each block's memoised `run_lengths`
        concatenated, as the JSON's `sym_factors`.

        These are the orbit blocks of the residual centralizer action: a
        symmetric group S_m permutes the coordinates of the m cycles of equal
        length within one block, so the stratum is a product of one Sym^m(C*)
        per entry.
        """
        return tuple(self._run_lengths())

    def _run_lengths(self) -> list[int]:
        # a fresh list: the blocks' memoised run lengths, concatenated
        out = []
        for parts in self.cycle_type.parts_per_block:
            out += run_lengths(parts)
        return out

    def to_json(self) -> dict:
        return {
            "cycle_type": list(map(list, self.cycle_type.parts_per_block)),
            "torus_rank": self.torus_rank,
            "sym_factors": self._run_lengths(),
        }

    @classmethod
    def from_json(cls, data: dict, component: Component) -> Stratum:
        return cls(component, CycleType(tuple(
            tuple(exact_int(x, "cycle_type[%d][%d]" % (i, k))
                  for k, x in enumerate(_json_of_type(p, "cycle_type[%d]" % i, list)))
            for i, p in enumerate(_json_field(data, "cycle_type", list)))))


def _check_degree(component: Component, limit: int, name: str = "the limit") -> None:
    """Refuse a component of degree above `limit` with LimitExceeded: the one degree
    guard of `--max-degree`, HP_LIMIT, the fiber reference and `project`'s image."""
    if component.degree > limit:
        raise LimitExceeded("component degree %d exceeds %s %d" % (component.degree, name, limit))


def enumerate_strata(component: Component) -> list[Stratum]:
    """All strata of the extended quotient, one per multipartition, in canonical order;
    more than OUTPUT_LIMIT of them are refused by their count, before any is built."""
    stratum, cycle_type = Stratum._trusted, CycleType._trusted
    # multipartitions yields one weakly decreasing partition of e_i per block
    return [stratum(component, cycle_type(mp)) for mp in multipartitions(component.exponents)]


def _orbits_for(component: Component, mps) -> list[OrbitDescriptor]:
    """The orbit of each multipartition of the component's exponents, in canonical class order.

    A block's entries depend only on its own partition, so each block gets one
    table partition -> ((class, multiplicity), ...) with parts, hence spins,
    ascending.  Every block label is (label, 1, True) and labels are distinct,
    so the blocks taken in label order give the order of `InertialClass.key()`.
    """
    from .parameters import InertialClass, OrbitDescriptor, WeilLabel  # orbits alone need it
    tables = []
    for i, block in sorted(enumerate(component.blocks), key=lambda ib: ib[1].label):
        # Blocks are abstract supercuspidals; a unit-dimensional unitary
        # placeholder suffices because only class identity enters invariants.
        rho = WeilLabel(block.label, 1, True)
        classes = [InertialClass(rho, Fraction(part - 1, 2))
                   for part in range(1, block.exponent + 1)]
        tables.append((i, {
            parts: tuple([(classes[part - 1], mult)
                          for part, mult in reversed(part_multiplicities(parts))])
            for parts in partitions(block.exponent)
        }))
    orbit, orbits = OrbitDescriptor._trusted, []
    for mp in mps:
        classes = ()  # so a one-block orbit holds its table entry itself
        for i, table in tables:
            classes += table[mp[i]]
        orbits.append(orbit(classes))
    return orbits


def enumerate_orbits(component: Component) -> list[OrbitDescriptor]:
    """All parameter orbits over the component.

    A part alpha of the partition of block i contributes the inertial class
    (label_i, spin((alpha-1)/2)) with the part's multiplicity; the orbits are
    enumerated in the same multipartition order as the strata, from one walk
    of the multipartitions that builds no stratum.
    """
    return _orbits_for(component, multipartitions(component.exponents))


def orbit_stratum_bijection(component: Component) -> list[tuple[OrbitDescriptor, Stratum]]:
    """Pair each orbit with the stratum arising from the same multipartition."""
    strata = enumerate_strata(component)
    return list(zip(_orbits_for(component, [s.cycle_type.parts_per_block for s in strata]),
                    strata))
