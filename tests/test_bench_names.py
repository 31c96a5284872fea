"""Every gldual function the benchmark's traced run wraps by name still exists.

`bench/layers.py` looks each `(module, name)` of `SPANNED` and `COUNTED` up on
the `gldual` package and wraps it, so renaming or moving one of them breaks
`bench/run.py --trace 1`.  This check fails first, without running the bench.
"""

import importlib
from pathlib import Path

import gldual

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrapped_name_is_a_gldual_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    names = [(modname, name) for modname, name, _ in layers.SPANNED] + list(layers.COUNTED)
    assert names
    missing = [(modname, name) for modname, name in names
               if not callable(getattr(getattr(gldual, modname, None), name, None))]
    assert missing == []
