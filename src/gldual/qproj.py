"""The q-projection from extended-quotient strata to the ordinary quotient,
with exact fiber enumeration.

A coordinate z sitting on a cycle of length alpha projects to the q-string
{q^((alpha-1)/2) z, ..., q^((1-alpha)/2) z}; a stratum point projects to the
blockwise union of the strings of its coordinates.  A fiber point is thus a
Zelevinsky multisegment: on each q-line (turn, q_exp mod q_scale) of a block
its strings are integer segments covering the query's counts exactly.  One
output-sensitive walk over the occupied positions enumerates them, and their
cycle types sort them into strata.  The walk runs on integers alone: each
occupied cell is keyed by the integers of its block, turn, q-line and
position, and strings sort by the rank of their lowest cell, so it does no
rational arithmetic and compares no scalar; each distinct string's scalar is
built once, for the output.  Cells match by exact equality, so query points
must be exact (floats are rejected, never snapped).

Neither map returns more than OUTPUT_LIMIT scalars; `fiber` counts them cover by
cover.  Its walk is one flat loop over one list of open steps, each giving back
what it took when left, and every branch of it ends in a cover.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ._value import Value, _json_objects, _json_of_type, _trusted, set_field
from .bernstein import Component, CycleType, Stratum, _check_degree
from .errors import LimitExceeded
from .partitions import OUTPUT_LIMIT
from .scalars import QScalar

__all__ = [
    "SymPoint",
    "StratumPoint",
    "OUTPUT_LIMIT",
    "q_string",
    "project",
    "fiber",
]

class SymPoint(Value):
    """A point of the ordinary quotient: one multiset of scalars per block, stored sorted."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[QScalar, ...], ...]):
        set_field(self, "blocks", tuple(tuple(sorted(b)) for b in blocks))

    def to_json(self) -> dict:
        return {"blocks": [[z.to_json() for z in b] for b in self.blocks]}

    @classmethod
    def from_json(cls, data: dict) -> SymPoint:
        return cls(tuple(tuple(map(QScalar.from_json, _json_objects(b, "blocks[%d]" % i)))
                         for i, b in enumerate(_json_of_type(data["blocks"], "blocks", list))))


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


def project(point: StratumPoint) -> SymPoint:
    """Apply the q-projection: blockwise union of the strings of the coordinates.

    The image has one scalar per unit of the component's degree, so a
    component of degree above OUTPUT_LIMIT is refused with LimitExceeded.
    """
    component = point.stratum.component
    _check_degree(component, OUTPUT_LIMIT, "the output limit")
    coords = iter(point.coords)  # one per part, blockwise
    return SymPoint(tuple(
        tuple(z for alpha in parts for z in q_string(alpha, next(coords), block.q_scale))
        for block, parts in zip(component.blocks, point.stratum.cycle_type.parts_per_block)))


def fiber(point: SymPoint, component: Component) -> list[StratumPoint]:
    """The complete q-projection preimage of `point`, over all strata.

    Empty when the point is outside the image; points are returned in
    canonical order (strata in enumeration order, coordinates sorted within
    each stratum) and are pairwise distinct.  A preimage of more than
    OUTPUT_LIMIT coordinates in all is refused with LimitExceeded.
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

    # An element z of block i with scale s sits at `position` on the q-line
    # (i, turn, offset/d) of its block, where q_exp/s = position + offset/d in
    # lowest terms; a cell keys all of these as integers.  Only occupied cells
    # are kept, so no q-string crosses a gap.  The blocks of a SymPoint are
    # sorted, so the cells first occur in (block, q_exp, turn) order: their rank.
    first: dict[tuple[int, ...], QScalar] = {}
    tally: dict[tuple[int, ...], int] = {}
    for i, (block, mset) in enumerate(zip(component.blocks, point.blocks)):
        num, den = block.q_scale.numerator, block.q_scale.denominator
        for z in mset:
            n, d = z.q_exp.numerator * den, z.q_exp.denominator * num
            g = math.gcd(n, d)
            position, offset = divmod(n // g, d // g)
            cell = (i, z.turn.numerator, z.turn.denominator, offset, d // g, position)
            first.setdefault(cell, z)
            tally[cell] = tally.get(cell, 0) + 1
    ranked = list(first)
    rank = {cell: r for r, cell in enumerate(ranked)}
    cells = sorted(tally)
    rem = [tally[cell] for cell in cells] + [0]  # a zero past the last cell, read at a cover
    joined = [a[:5] == b[:5] and a[5] + 1 == b[5] for a, b in zip(cells, cells[1:])] + [False]

    # The walk covers the counts exactly by segments, which run from cell i to
    # cell i+1 only where joined[i].  The lowest cell still to cover starts
    # every segment through it, and is peeled by choosing how many of those
    # reach each next cell: never more than reached the cell before (segments
    # from one start come in non-increasing length), nor more than is left
    # there.  Every choice leaves a coverable remainder, so every branch ends
    # in a cover.  One loop runs one list of open steps [start, end, width,
    # more, mark]: a step takes the `width` segments from `start` that reach
    # `end` out of rem[end], tries `more` of them going on, down to 0, each
    # after truncating `segments` to `mark`, and when left gives rem[end] back.
    # A segment is recorded as its sort key: the strings of one block and
    # length differ from their lowest cells by one common factor q^(s(L-1)/2),
    # so they sort as (block, -L, rank of that cell), and each coordinate tuple
    # of a stratum sorts as its tuple of ranks.
    block_of = [cell[0] for cell in cells]
    rank_of = [rank[cell] for cell in cells]
    segments: list[tuple[int, int, int]] = []
    steps: list[list[int]] = []
    # a cover's shape, its blocks and negated lengths in sorted order, names its stratum
    found: dict[tuple[tuple[int, ...], tuple[int, ...]], list[tuple[int, ...]]] = {}
    size = 0
    start, end, width = 0, 0, rem[0]  # the step to open next; past the last cell, a cover
    while True:
        if start < len(cells):
            rem[end] -= width
            more = min(width, rem[end + 1]) if joined[end] else 0
            steps.append([start, end, width, more, len(segments)])
        else:
            size += len(segments)
            if size > OUTPUT_LIMIT:
                raise LimitExceeded("the fiber exceeds the output limit %d" % OUTPUT_LIMIT)
            blocks, negated, ranks = zip(*sorted(segments))
            found.setdefault((blocks, negated), []).append(ranks)
        while steps and steps[-1][3] < 0:
            _, end, width, _, _ = steps.pop()
            rem[end] += width
        if not steps:
            break
        step = steps[-1]
        start, end, width, more, mark = step
        step[3] = more - 1
        del segments[mark:]
        segments.extend([(block_of[start], start - end - 1, rank_of[start])] * (width - more))
        if more:
            end, width = end + 1, more
        else:
            start += 1
            while start < len(cells) and rem[start] == 0:
                start += 1
            end, width = start, rem[start]

    # One scalar per distinct string: a string's coordinate is its center, its
    # lowest cell's scalar times q^(s(L-1)/2); already canonical, so unchecked.
    @functools.cache
    def coordinate(r: int, length: int) -> QScalar:
        z = first[ranked[r]]
        if length == 1:
            return z
        scale = component.blocks[ranked[r][0]].q_scale
        return _trusted(QScalar, q_exp=z.q_exp + scale * Fraction(length - 1, 2), turn=z.turn)

    # cycle types in lexicographic order are the strata in enumeration order;
    # the coordinates come out blockwise, by descending length, then ascending
    shapes = {tuple(tuple(-n for j, n in zip(*shape) if j == i)
                    for i in range(len(component.blocks))): shape for shape in found}
    points = []
    for ct in sorted(shapes):
        shape = shapes[ct]
        stratum = _trusted(Stratum, component=component,
                           cycle_type=_trusted(CycleType, parts_per_block=ct))
        lengths = [-n for n in shape[1]]
        points.extend(_trusted(StratumPoint, stratum=stratum,
                               coords=tuple(map(coordinate, ranks, lengths)))
                      for ranks in sorted(found[shape]))
    return points
