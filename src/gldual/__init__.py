"""Exact geometric invariants of the smooth dual of p-adic GL(n).

Orbits of Langlands parameters and their (l, k) shapes, Bernstein components
with their extended-quotient strata, periodic cyclic homology dimensions from
the per-stratum cohomology (1+t)^k, as for the compact orbits (exact Molien
averaging is only the cross-check of `verify` and the tests), the q-projection
with complete fiber enumeration, and the tempering retraction.
Rationals are exact throughout: a float where a rational belongs raises
TypeError rather than being snapped.
"""

from .bernstein import *
from .cohomology import *
from .errors import *
from .parameters import *
from .qproj import *
from .retract import *
from .scalars import *
from .symfun import *

__version__ = "0.1.0"
