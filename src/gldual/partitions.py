"""Integer partitions, multipartitions and their counts.

Partitions are weakly decreasing tuples of positive integers.  The canonical
enumeration order used everywhere in this package is plain lexicographic
order on those tuples, e.g. for n = 3: (1,1,1) < (2,1) < (3).  The partitions
of n are one memoised tuple per n, read by strata, orbits and Molien averages
alike; runs of equal parts are read off `part_multiplicities`, the one
grouping, and their lengths off `run_lengths`, memoised from it.  Two
count tables enumerate nothing: p(n) refuses a walk past OUTPUT_LIMIT before
it starts, and the overpartition counts give the HP dimensions in closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator

from .errors import LimitExceeded

OUTPUT_LIMIT = 2**15  # the most partitions, multipartitions or fiber scalars a walk returns

# p(0), ..., p(39): every count up to OUTPUT_LIMIT (p(40) = 37,338 is the first
# above it), filled at the first call; no n asked about grows it
_PARTITIONS: list[int] = []


def _count(n: int) -> int:
    """p(n), from Euler's pentagonal number theorem: for n >= 1,
    p(n) = sum_{k >= 1} (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)).
    More than OUTPUT_LIMIT (n >= 40) is refused with LimitExceeded."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not _PARTITIONS:
        table, total = [], 1
        while total <= OUTPUT_LIMIT:
            table.append(total)
            m = len(table)
            total = sum(table[m - g] if k % 2 else -table[m - g] for k in range(1, m + 1)
                        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g <= m)
        _PARTITIONS[:] = table
    if n >= len(_PARTITIONS):
        raise LimitExceeded("the partitions of %d exceed the output limit %d" % (n, OUTPUT_LIMIT))
    return _PARTITIONS[n]


# one entry per n walked: at most 40 (n <= 39), since a larger n is refused by
# its count; 21 (n <= 20) under the command line's default --max-degree
@functools.lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of n in canonical (lexicographic) order, built once per n;
    more than OUTPUT_LIMIT of them (n >= 40) are refused before the walk, which stops at p(n)."""
    return tuple(itertools.islice(_bounded(n, n), _count(n)))


def _bounded(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    # the partitions of n with parts at most max_part, lexicographic: first part ascending
    if n == 0:
        yield ()
    for first in range(1, min(max_part, n) + 1):
        for rest in _bounded(n - first, first):
            yield (first,) + rest


def multipartitions(sizes: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """An iterator over the tuples of one partition per entry of `sizes`, lexicographic
    with the first entry major; more than OUTPUT_LIMIT are refused by count, before building."""
    if (count := math.prod(map(_count, sizes))) > OUTPUT_LIMIT:
        raise LimitExceeded("%d multipartitions exceed the output limit %d"
                            % (count, OUTPUT_LIMIT))
    return itertools.product(*map(partitions, sizes))


# one entry per partition seen: the walks reach at most 177,969 (the sum of p(n),
# 1 <= n <= 39), and 2,713 (n <= 20) under the command line's default --max-degree
@functools.lru_cache(maxsize=None)
def part_multiplicities(partition: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(part, multiplicity) pairs of a partition, parts in decreasing order."""
    return tuple([(part, len(list(run))) for part, run in itertools.groupby(partition)])


# one entry per partition seen, as `part_multiplicities`: at most 177,969 (n <= 39),
# and 2,713 (n <= 20) under the command line's default --max-degree
@functools.lru_cache(maxsize=None)
def run_lengths(partition: tuple[int, ...]) -> tuple[int, ...]:
    """The multiplicities of `part_multiplicities`: the lengths of the runs of equal parts."""
    return tuple([mult for _, mult in part_multiplicities(partition)])


# p̄(0), p̄(1), ...: grown on demand up to the largest n asked for, at most
# HP_LIMIT + 1 entries through the `hp` verb
_OVERPARTITIONS = [1]


def overpartition_count(n: int) -> int:
    """p̄(n), the number of overpartitions of n (Corteel & Lovejoy 2004; OEIS A015128).

    The generating function is prod (1 + x^m) / (1 - x^m), whose inverse is
    sum_k (-1)^k x^(k^2) by Gauss's identity, so for n >= 1
    p̄(n) = 2 * sum_{k >= 1} (-1)^(k+1) p̄(n - k^2): O(n^1.5) steps to fill the table.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    table = _OVERPARTITIONS
    while len(table) <= n:
        m = len(table)
        total, k, sign = 0, 1, 1
        while k * k <= m:
            total += sign * table[m - k * k]
            k, sign = k + 1, -sign
        table.append(2 * total)
    return table[n]
