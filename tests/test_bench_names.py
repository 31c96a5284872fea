"""Every gldual function the benchmark's traced run wraps by name still exists.

`bench/layers.py` looks each `(module, name)` of `SPANNED` and `COUNTED` up on
the `gldual` package and wraps it, so renaming or moving one of them breaks
`bench/run.py --trace 1`.  This check fails first, without running the bench.
The same run counts `QScalar` constructions by patching `QScalar.__post_init__`,
which every checked construction must call exactly once.
"""

import importlib
from fractions import Fraction as F
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


def test_the_traced_run_counts_each_checked_qscalar_once(monkeypatch):
    # the traced run counts QScalar constructions by patching QScalar.__post_init__
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    from gldual.scalars import ONE, QScalar, q_power, unit

    original = QScalar.__post_init__
    tracer = spans.Tracer()
    patches = layers.install(tracer)
    try:
        z = QScalar(F(1, 2), F(4, 3))  # 1
        made = [q_power(1), unit(F(1, 3)), z * z, z.inverse(), z ** 2, z.unit_part(),
                z.q_shift(1), QScalar.from_json(z.to_json())]  # 8 more
        counted = tracer.counts["scalars.qscalar.count"]
    finally:
        patches.restore()
    assert counted == 9
    # the counting hook still normalises, and restore puts the original back
    assert z.turn == F(1, 3) and made[2] == QScalar(1, F(2, 3)) and made[1] != ONE
    assert QScalar.__post_init__ is original
