"""Exact geometric invariants of the smooth dual of p-adic GL(n).

Orbits of Langlands parameters and their (l, k) shapes, Bernstein components
with their extended-quotient strata, periodic cyclic homology dimensions in
closed form, half the product of the exponents' overpartition counts (the
walks over strata and orbits that sum the per-stratum cohomology (1+t)^k, and
exact Molien averaging, are only the cross-checks of `verify` and the tests),
the q-projection with complete fiber enumeration, and the tempering retraction.
Rationals are exact throughout: a float where a rational belongs raises
TypeError rather than being snapped.

The package exports the `__all__` names of the modules in `_EXPORTING`, but
`import gldual` loads none of them: the first lookup of an exported name (or
of `__all__`, as `from gldual import *` does) loads all eight, and a
submodule name loads just that module.
"""

__version__ = "0.1.0"

_EXPORTING = ("bernstein", "cohomology", "errors", "parameters", "qproj", "retract", "scalars",
              "symfun")
_SUBMODULES = (*_EXPORTING, "aberth", "cli", "partitions", "verify")


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    exports = {}
    for modname in _EXPORTING:
        module = import_module("." + modname, __name__)
        exports.update((export, getattr(module, export)) for export in module.__all__)
    # bound here once, so later lookups no longer reach this function
    globals().update(exports, __all__=list(exports))
    if name not in globals():
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), *_SUBMODULES})
