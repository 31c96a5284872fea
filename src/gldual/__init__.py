"""Exact geometric invariants of the smooth dual of p-adic GL(n).

Orbits of Langlands parameters and their (l, k) shapes, Bernstein components
with their extended-quotient strata, periodic cyclic homology dimensions from
the per-stratum cohomology (1+t)^k, as for the compact orbits (exact Molien
averaging is only the cross-check of `verify` and the tests), the q-projection
with complete fiber enumeration, and the tempering retraction.
Rationals are exact throughout: a float where a rational belongs raises
TypeError rather than being snapped.
"""

from .bernstein import (
    Block,
    Component,
    CycleType,
    Stratum,
    enumerate_orbits,
    enumerate_strata,
    orbit_stratum_bijection,
)
from .cohomology import (
    PermutationAction,
    PoincarePolynomial,
    component_hp,
    invariant_exterior_dims,
    orbit_hp_dimension,
    orbit_poincare,
    stratum_poincare,
    tempered_orbit_poincare,
)
from .errors import LimitExceeded, RootFindingError
from .parameters import (
    InertialClass,
    LParameter,
    OrbitDescriptor,
    WeilLabel,
    dimension,
    is_discrete_series,
    is_supercuspidal,
    is_tempered,
    orbit_of,
    orbit_shape,
    steinberg_parameter,
)
from .qproj import StratumPoint, SymPoint, fiber, project, q_string, verify_section
from .retract import homotopy, homotopy_point, temper_parameter, temper_point
from .scalars import ONE, QScalar, q_power, unit
from .symfun import SymCoords, from_sym_coords, match_multisets, to_sym_coords

__version__ = "0.1.0"
