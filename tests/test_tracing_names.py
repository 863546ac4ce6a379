"""The benchmark tracer's view of the package, read without editing it.

perfbench/tracing.py patches package functions by name, reads the
length of what the state listings return, and reads the field name and
size of each matrix rref is given.  A rename, a listing that stops
returning a list, or a matrix whose field stops naming itself as the
tracer's FIELDS do would leave a traced run measuring nothing, so the
suite checks all three.
"""

import importlib
import importlib.util
from pathlib import Path

from vertexforms.algebra import GF2, GF3, QQ, FieldMatrix
from vertexforms.grid import GridShape

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = load_tracing()
    for layer, names in tracing.WRAPPED.items():
        module = importlib.import_module(f"vertexforms.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_state_listings_return_lists():
    tracing = load_tracing()
    assert len(tracing._STATE_LISTS) == 3
    shape = GridShape(2, 2)
    for qualified in tracing._STATE_LISTS:
        layer, name = qualified.split(".")
        out = getattr(importlib.import_module(f"vertexforms.{layer}"), name)(shape)
        assert type(out) is list and out, qualified
        info = tracing._INFO[qualified]((shape,), {}, out)
        assert tracing._out(info) == len(out)


def test_rref_spans_name_their_field():
    tracing = load_tracing()
    for field in (GF2, GF3, QQ):
        m = FieldMatrix.from_rows(field, [[1, 0, 1], [0, 1, 1]])
        assert tracing._INFO["algebra.rref"]((m,), {}, None) == (field.name, 6)
    assert (GF2.name, GF3.name, QQ.name) == tracing.FIELDS
