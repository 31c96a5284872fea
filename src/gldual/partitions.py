"""Integer partitions, multipartitions and symmetric-group class data.

Partitions are weakly decreasing tuples of positive integers.  The canonical
enumeration order used everywhere in this package is plain lexicographic
order on those tuples, e.g. for n = 3: (1,1,1) < (2,1) < (3).  The partitions
of n are one memoised tuple per n, read by strata, orbits and Molien averages
alike; runs of equal parts are read off `part_multiplicities` alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator


# one entry per n seen: at most 21 (n <= 20) at the default limits, holding the
# same 2,713 partition tuples that part_multiplicities is keyed on; a raised
# --max-degree keeps the p(n) tuples of every n it reaches
@functools.lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of n in canonical (lexicographic) order, built once per n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_bounded(n, n))


def _bounded(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    # the partitions of n with every part at most max_part; one frame per part
    if n == 0:
        yield ()
    for first in range(1, min(max_part, n) + 1):
        for rest in _bounded(n - first, first):
            yield (first,) + rest


def multipartitions(sizes: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """An iterator over the tuples of one partition per entry of `sizes`,
    lexicographic with the first entry major."""
    return itertools.product(*map(partitions, sizes))


# one entry per partition seen: at most 2,713 (the sum of p(n), 1 <= n <= 20) at
# the default limits; a raised --max-degree, or `project` above degree 20, keeps more
@functools.lru_cache(maxsize=None)
def part_multiplicities(partition: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(part, multiplicity) pairs of a partition, parts in decreasing order."""
    return tuple((part, sum(1 for _ in run)) for part, run in itertools.groupby(partition))


def centralizer_order(partition: tuple[int, ...]) -> int:
    """Order of the S_n-centralizer of a permutation with this cycle type.

    Equals prod(part^mult * mult!) over distinct parts; the conjugacy class of
    the cycle type has n!/centralizer_order elements.
    """
    z = 1
    for part, mult in part_multiplicities(partition):
        z *= part**mult * math.factorial(mult)
    return z
