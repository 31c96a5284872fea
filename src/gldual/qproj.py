"""The q-projection from extended-quotient strata to the ordinary quotient,
with exact fiber enumeration.

A coordinate z sitting on a cycle of length alpha projects to the q-string
{q^((alpha-1)/2) z, ..., q^((1-alpha)/2) z}; a stratum point projects to the
blockwise union of the strings of its coordinates.  A fiber point is thus a
Zelevinsky multisegment: on each q-line (turn, q_exp mod q_scale) of a block
its strings are integer segments covering the query's counts exactly.  One
output-sensitive walk over the occupied positions enumerates them, and their
cycle types sort them into strata.  All comparisons are exact QScalar
equality, so query points must be exact (floats are rejected, never snapped).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from fractions import Fraction

from ._value import Value, set_field
from .bernstein import STRATA_LIMIT, Component, CycleType, Stratum, _check_degree
from .scalars import QScalar

__all__ = [
    "SymPoint",
    "StratumPoint",
    "FIBER_LIMIT",
    "q_string",
    "project",
    "fiber",
    "verify_section",
]

FIBER_LIMIT = 12


class SymPoint(Value):
    """A point of the ordinary quotient: one multiset of scalars per block, stored sorted."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[QScalar, ...], ...]):
        set_field(self, "blocks", tuple(tuple(sorted(b)) for b in blocks))

    def to_json(self) -> dict:
        return {"blocks": [[z.to_json() for z in b] for b in self.blocks]}

    @classmethod
    def from_json(cls, data: dict) -> SymPoint:
        return cls(tuple(tuple(QScalar.from_json(z) for z in b) for b in data["blocks"]))


class StratumPoint(Value):
    """A point of one extended-quotient stratum: one coordinate per cycle.

    Coordinates follow the cycle type (blocks in order, parts weakly
    decreasing) and are sorted within runs of equal-length cycles, which makes
    equality respect the residual centralizer action.
    """

    _fields = ("stratum", "coords")

    def __init__(self, stratum: Stratum, coords: tuple[QScalar, ...]):
        coords = tuple(coords)
        if len(coords) != stratum.torus_rank:
            raise ValueError(
                "expected %d coordinates, got %d" % (stratum.torus_rank, len(coords))
            )
        canonical = []
        i = 0
        for run in stratum.residual_blocks():
            canonical.extend(sorted(coords[i : i + run]))
            i += run
        set_field(self, "stratum", stratum)
        set_field(self, "coords", tuple(canonical))

    def to_json(self) -> dict:
        return {
            "component": self.stratum.component.to_json(),
            "cycle_type": [list(p) for p in self.stratum.cycle_type.parts_per_block],
            "coords": [z.to_json() for z in self.coords],
        }

    @classmethod
    def from_json(cls, data: dict) -> StratumPoint:
        component = Component.from_json(data["component"])
        stratum = Stratum.from_json(data, component)
        return cls(stratum, tuple(QScalar.from_json(z) for z in data["coords"]))


def q_string(alpha: int, z: QScalar, scale: Fraction = Fraction(1)) -> tuple[QScalar, ...]:
    """The length-alpha geometric progression of ratio q^scale centered at z, sorted."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    return tuple(
        sorted(z.q_shift(scale * (Fraction(alpha - 1, 2) - i)) for i in range(alpha))
    )


def project(point: StratumPoint, max_degree: int = STRATA_LIMIT) -> SymPoint:
    """Apply the q-projection: blockwise union of the strings of the coordinates.

    The image has one scalar per unit of the component's degree, so a
    component of degree above `max_degree` is refused with LimitExceeded.
    """
    _check_degree(point.stratum.component, max_degree)
    blocks_out = []
    i = 0
    for block, parts in zip(
        point.stratum.component.blocks, point.stratum.cycle_type.parts_per_block
    ):
        elems: list[QScalar] = []
        for alpha in parts:
            elems.extend(q_string(alpha, point.coords[i], block.q_scale))
            i += 1
        blocks_out.append(tuple(elems))
    return SymPoint(tuple(blocks_out))


def _covers(counts: list[int], joined: list[bool]) -> Iterator[list[tuple[int, int]]]:
    """Every multiset of segments whose coverage is exactly `counts`, as lists
    of (start, length) pairs.  A segment covers cells start .. start+length-1
    and runs from cell i to cell i+1 only where joined[i].

    The lowest cell still to cover starts every segment through it.  It is
    peeled by choosing how many of those segments reach each next cell: never
    more than reached the cell before (segments from one start come in
    non-increasing length), nor more than is left there.  Every choice leaves
    a coverable remainder, so every branch ends in a cover.
    """
    rem = list(counts)

    def peel(start: int, found: list):
        while start < len(rem) and rem[start] == 0:
            start += 1
        if start == len(rem):
            yield found
        else:
            yield from reach(start, 1, rem[start], found)

    def reach(start: int, length: int, width: int, found: list):
        # `width` segments from `start` are at least `length` long
        end = start + length - 1
        rem[end] -= width
        longer = min(width, rem[end + 1]) if end + 1 < len(rem) and joined[end] else 0
        for more in range(longer, -1, -1):
            grown = found + [(start, length)] * (width - more)
            if more:
                yield from reach(start, length + 1, more, grown)
            else:
                yield from peel(start + 1, grown)
        rem[end] += width

    return peel(0, [])


def fiber(
    point: SymPoint, component: Component, max_degree: int = FIBER_LIMIT
) -> list[StratumPoint]:
    """The complete q-projection preimage of `point`, over all strata.

    Empty when the point is outside the image; points are returned in
    canonical order (strata in enumeration order, coordinates sorted within
    each stratum) and are pairwise distinct.
    """
    if len(point.blocks) != len(component.blocks):
        raise ValueError("point has %d blocks, component has %d"
                         % (len(point.blocks), len(component.blocks)))
    for block, mset in zip(component.blocks, point.blocks):
        if len(mset) != block.exponent:
            raise ValueError(
                "block %r expects a multiset of size %d, got %d"
                % (block.label, block.exponent, len(mset))
            )
    _check_degree(component, max_degree, "the fiber limit")

    # An element sits at position q_exp // q_scale of its block's q-line (turn,
    # q_exp mod q_scale).  Only occupied cells are kept, so no q-string crosses a gap.
    elements = sorted((i, z.turn, z.q_exp % b.q_scale, z.q_exp // b.q_scale)
                      for i, (b, mset) in enumerate(zip(component.blocks, point.blocks))
                      for z in mset)
    cells = [cell for cell, _ in itertools.groupby(elements)]
    counts = [len(list(run)) for _, run in itertools.groupby(elements)]
    joined = [a[:3] == b[:3] and a[3] + 1 == b[3] for a, b in zip(cells, cells[1:])]

    @functools.cache
    def string(start: int, length: int) -> tuple[int, int, QScalar]:
        i, turn, offset, position = cells[start]
        center = offset + component.blocks[i].q_scale * (position + Fraction(length - 1, 2))
        return i, -length, QScalar(center, turn)

    found: dict[tuple[tuple[int, ...], ...], list[tuple[QScalar, ...]]] = {}
    for cover in _covers(counts, joined):
        strings = sorted(string(*s) for s in cover)  # blockwise in canonical order
        cycle_type = tuple(tuple(-n for j, n, _ in strings if j == i)
                           for i in range(len(component.blocks)))
        found.setdefault(cycle_type, []).append(tuple(z for _, _, z in strings))
    # cycle types in lexicographic order are the strata in enumeration order
    strata = {ct: Stratum(component, CycleType(ct)) for ct in sorted(found)}
    return [StratumPoint(s, coords) for ct, s in strata.items() for coords in sorted(found[ct])]


def verify_section(point: StratumPoint) -> bool:
    """Round-trip soundness: the point occurs in the fiber over its own image."""
    return point in fiber(project(point), point.stratum.component)
