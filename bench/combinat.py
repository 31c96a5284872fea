"""The benchmark's own combinatorics, written independently of gldual.

These feed the oracles: partition and overpartition numbers for the HP and
strata counts, and a multisegment counter for fiber sizes.  None of this code
calls into gldual.partitions or gldual.qproj.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, defaultdict
from fractions import Fraction


@functools.lru_cache(maxsize=None)
def partitions_sorted(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as weakly decreasing tuples, in lexicographic order."""
    found = set()

    def grow(rest: int, parts: tuple[int, ...]):
        if rest == 0:
            found.add(tuple(sorted(parts, reverse=True)))
            return
        for p in range(1, rest + 1):
            if not parts or p <= parts[-1]:
                grow(rest - p, parts + (p,))

    grow(n, ())
    return tuple(sorted(found))


def multipartitions_sorted(sizes) -> list[tuple[tuple[int, ...], ...]]:
    """One partition per size, lexicographic with the first size major."""
    return sorted(itertools.product(*(partitions_sorted(n) for n in sizes)))


def _series(n: int, overpartitions: bool) -> list[int]:
    # prod 1/(1 - x^k), times prod (1 + x^k) for overpartitions
    s = [1] + [0] * n
    for k in range(1, n + 1):
        if overpartitions:
            for i in range(n, k - 1, -1):
                s[i] += s[i - k]
        for i in range(k, n + 1):
            s[i] += s[i - k]
    return s


def partition_count(n: int) -> int:
    return _series(n, False)[n]


def overpartition_count(n: int) -> int:
    return _series(n, True)[n]


def product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def multiplicities(parts) -> list[int]:
    """Multiplicity of each distinct part, parts taken in decreasing order."""
    return [parts.count(p) for p in sorted(set(parts), reverse=True)]


def multisegment_count(counts: list[int]) -> int:
    """Number of multisets of integer segments whose coverage is `counts`.

    Scans positions left to right.  The state is how many open segments
    started at each earlier position; at each position some of them continue
    and the rest of the coverage is made of segments starting there.
    """
    states: Counter = Counter({(): 1})
    for pos, need in enumerate(counts):
        new: Counter = Counter()
        for open_runs, ways in states.items():
            for keep in itertools.product(*(range(k + 1) for _, k in open_runs)):
                fresh = need - sum(keep)
                if fresh < 0:
                    continue
                state = tuple((s, k) for (s, _), k in zip(open_runs, keep) if k)
                if fresh:
                    state += ((pos, fresh),)
                new[state] += ways
        states = new
    return sum(states.values())


def line_counts(elements, scale: Fraction) -> list[list[int]]:
    """Split (q_exp, turn) elements into q-lines of step q^scale and return one
    coverage vector per line, from its lowest to its highest position."""
    lines: dict = defaultdict(Counter)
    for q_exp, turn in elements:
        offset = q_exp % scale
        lines[(turn, offset)][(q_exp - offset) / scale] += 1
    out = []
    for positions in lines.values():
        lo, hi = int(min(positions)), int(max(positions))
        out.append([positions.get(Fraction(p), 0) for p in range(lo, hi + 1)])
    return out


def fiber_size(blocks, scales) -> int:
    """Number of q-projection preimages of a point: per block and q-line, the
    number of ways to cover it by q-strings."""
    return product(
        multisegment_count(vec)
        for elements, scale in zip(blocks, scales)
        for vec in line_counts(elements, scale)
    )


def string(alpha: int, center, scale: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The length-alpha q-string of step q^scale centered at (q_exp, turn)."""
    q_exp, turn = center
    return [(q_exp + scale * (Fraction(alpha - 1, 2) - i), turn) for i in range(alpha)]
