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
position, and its cells are ranked by first occurrence.  A segment of length L
from the cell of rank r in block b is one int, ((b + 1) * S - L) * S + r with
S = (number of cells) + 1: as S is above every rank and every length, its
base-S digits (b, S - L, r) sort as the tuple (b, -L, r) would, so a cover is
one sort of small ints, and the walk does no rational arithmetic and compares
no scalar.  Each distinct string's scalar is built once, for the output, from
its lowest cell's integers: with scale s, that cell at position + offset/d on
its q-line, the center's q_exp is s(2(d * position + offset) + d(L-1))/(2d).
Cells match by exact equality, so query points must be exact (floats are
rejected, never snapped).

Where no two cells are joined (no two scalars of one block lie one q-step
apart on a q-line) no string crosses two cells, and the fiber is one point in
closed form: the query's scalars on the identity stratum, with no walk.

Neither map returns more than OUTPUT_LIMIT scalars.  Every fiber holds that
identity-stratum point, of `degree` coordinates, so `fiber` refuses a component
of degree above OUTPUT_LIMIT before building a cell, and its walk counts the
coordinates cover by cover.  The walk is one flat loop over one list of open
steps, each giving back what it took when left, and every branch of it ends in
a cover.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._value import Value, _json_field, _json_objects, set_field
from .bernstein import Component, CycleType, Stratum, _check_degree
from .errors import LimitExceeded
from .partitions import OUTPUT_LIMIT
from .scalars import QScalar, _integer

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
        return cls(tuple(
            tuple(QScalar.from_json(z, at) for z, at in _json_objects(b, "blocks[%d]" % i))
            for i, b in enumerate(_json_field(data, "blocks", list))))


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
        component = Component.from_json(_json_field(data, "component", dict), "component")
        stratum = Stratum.from_json(data, component)
        return cls(stratum, tuple(QScalar.from_json(z, at)
                                  for z, at in _json_field(data, "coords", _json_objects)))


def q_string(alpha: int, z: QScalar, scale: Fraction = Fraction(1)) -> tuple[QScalar, ...]:
    """The length-alpha geometric progression of ratio q^scale centered at z, sorted."""
    if _integer(alpha, "alpha") < 1:
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

    Every fiber holds the point of the identity stratum whose coordinates are
    the query's scalars; points are returned in canonical order (strata in
    enumeration order, coordinates sorted within each stratum) and are
    pairwise distinct.  A preimage of more than OUTPUT_LIMIT coordinates in
    all is refused with LimitExceeded, a component of higher degree before
    any work.
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
    # every fiber holds the all-ones point, whose `degree` coordinates alone may pass the limit
    if component.degree > OUTPUT_LIMIT:
        raise LimitExceeded("the fiber exceeds the output limit %d" % OUTPUT_LIMIT)

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
    cells = sorted(tally)
    joined = [a[:5] == b[:5] and a[5] + 1 == b[5] for a, b in zip(cells, cells[1:])] + [False]
    if not any(joined):
        # no string crosses two cells: the one cover is every scalar alone, on the
        # identity stratum, in the walk's order (block, then rank): the query's own
        ones = CycleType._trusted(tuple((1,) * block.exponent for block in component.blocks))
        return [StratumPoint._trusted(Stratum._trusted(component, ones),
                                      tuple(z for mset in point.blocks for z in mset))]
    ranked = list(first)
    rank = {cell: r for r, cell in enumerate(ranked)}
    rem = [tally[cell] for cell in cells] + [0]  # a zero past the last cell, read at a cover

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
    # A segment is recorded as one int, its sort key: the strings of one block
    # and length differ from their lowest cells by one common factor
    # q^(s(L-1)/2), so they sort as (block, -L, rank of that cell), and each
    # coordinate tuple of a stratum sorts as its tuple of ranks.  S, one more
    # than the number of cells, is above every rank and every length, so the
    # segment of length L from the cell of rank r in block b is the int
    # ((b + 1) * S - L) * S + r with base-S digits (b, S - L, r), and ints sort
    # as those tuples do; one cell longer is S less.
    S = len(cells) + 1
    lowest = [((cell[0] + 1) * S - 1) * S + rank[cell] for cell in cells]
    segments: list[int] = []
    steps: list[list[int]] = []
    # a cover's shape, the segments floor-divided by S in sorted order, names its stratum
    found: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
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
            cover = tuple(sorted(segments))
            found.setdefault(tuple([segment // S for segment in cover]), []).append(cover)
        while steps and steps[-1][3] < 0:
            _, end, width, _, _ = steps.pop()
            rem[end] += width
        if not steps:
            break
        step = steps[-1]
        start, end, width, more, mark = step
        step[3] = more - 1
        del segments[mark:]
        segments.extend([lowest[start] - (end - start) * S] * (width - more))
        if more:
            end, width = end + 1, more
        else:
            start += 1
            while start < len(cells) and rem[start] == 0:
                start += 1
            end, width = start, rem[start]

    # One scalar per distinct string, built from its lowest cell's integers:
    # that cell's q_exp is s(d * position + offset)/d, so the string's center,
    # q^(s(L-1)/2) above it, has q_exp s(2(d * position + offset) + d(L-1))/(2d),
    # one Fraction made from two ints; already canonical, so unchecked.
    def center(segment: int) -> QScalar:
        shape, r = divmod(segment, S)
        length = S - shape % S
        cell = ranked[r]
        if length == 1:
            return first[cell]
        i, _, _, offset, d, position = cell
        s = component.blocks[i].q_scale
        q_exp = Fraction(s.numerator * (2 * (d * position + offset) + d * (length - 1)),
                         s.denominator * 2 * d)
        return QScalar._trusted(q_exp, first[cell].turn)

    centers = {segment: center(segment) for segment in
               set().union(*[cover for covers in found.values() for cover in covers])}

    # cycle types in lexicographic order are the strata in enumeration order;
    # the coordinates come out blockwise, by descending length, then ascending.
    # A shape's entries (b + 1) * S - L have the base-S digits (b, S - L).
    shapes = {tuple(tuple(S - key % S for key in shape if key // S == i)
                    for i in range(len(component.blocks))): shape for shape in found}
    point = StratumPoint._trusted
    points = []
    for ct in sorted(shapes):
        stratum = Stratum._trusted(component, CycleType._trusted(ct))
        points.extend(point(stratum, tuple(map(centers.__getitem__, cover)))
                      for cover in sorted(found[shapes[ct]]))
    return points
