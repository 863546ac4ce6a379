"""The package's records behave as the frozen dataclasses they replaced.

Each record class derives from algebra.Record and lists its fields as
annotations.  FIELDS pins, for every class, the field names its dataclass had, in
order; SAMPLES gives one valid positional construction of each.
"""

from fractions import Fraction

import pytest

from conftest import BoundaryHex
from vertexforms.algebra import GF2, GF3, Field, FieldMatrix
from vertexforms.forms_rect import Coloring, OneForm, ScalarField
from vertexforms.grid import BoundarySpec, GridShape, LatticeState
from vertexforms.toroidal import (
    CohomologyDecomposition,
    FiberEntry,
    PeriodicField,
    ToroidalOneForm,
)
from vertexforms.yangbaxter import ConditionReport, SolveReport, VertexWeights

FIELDS = {
    Field: ("p", "name"),
    FieldMatrix: ("field", "rows", "cols", "entries"),
    GridShape: ("m", "n"),
    LatticeState: ("shape", "field", "f", "g"),
    BoundarySpec: ("shape", "field", "f_bottom", "f_top", "g_left", "g_right"),
    ScalarField: ("shape", "h"),
    OneForm: ("shape", "fx", "gy"),
    Coloring: ("shape", "cells"),
    PeriodicField: ("shape", "values"),
    ToroidalOneForm: ("shape", "fx", "gy"),
    CohomologyDecomposition: ("r", "s", "h"),
    FiberEntry: ("h", "states", "r_choices", "s_choices"),
    VertexWeights: ("a1", "a_neg1", "b1", "b_neg1", "c1", "c_neg1", "d1", "d_neg1"),
    BoundaryHex: ("sigma", "tau", "beta", "theta", "rho", "alpha"),
    ConditionReport: (
        "ab_balance_t", "ab_balance_s", "g_squared_plus", "g_squared_minus", "cd_ratio",
        "f_s", "f_t", "g_plus", "g_minus", "alpha", "beta", "minors_plus", "minors_minus",
    ),
    SolveReport: ("basis", "witness", "scanned"),
}

S22 = GridShape(2, 2)
H = PeriodicField(S22, ((0, 1), (2, 0)))


def grid(rows, cols):
    return tuple(tuple((i + j) % 3 for j in range(cols)) for i in range(rows))


SAMPLES = {
    Field: (2, "F2"),
    FieldMatrix: (GF3, 2, 2, (1, 0, 2, 1)),
    GridShape: (3, 2),
    LatticeState: (S22, GF3, grid(2, 3), grid(3, 2)),
    BoundarySpec: (S22, GF2, (0, 1), (1, 0), (0, 0), (1, 1)),
    ScalarField: (S22, grid(3, 3)),
    OneForm: (S22, grid(2, 3), grid(3, 2)),
    Coloring: (S22, grid(3, 3)),
    PeriodicField: (S22, grid(2, 2)),
    ToroidalOneForm: (S22, grid(2, 2), grid(2, 2)),
    CohomologyDecomposition: (1, 2, H),
    FiberEntry: (H, (), (0,), (1, 2)),
    VertexWeights: tuple(Fraction(k, 3) for k in range(8)),
    BoundaryHex: (0, 1, 1, 0, 1, 0),
    ConditionReport: (True, False, True, True, False, Fraction(1), Fraction(-2, 3),
                      Fraction(0), Fraction(5), (Fraction(1), Fraction(2)), (Fraction(3),),
                      (Fraction(0),) * 6, (Fraction(1),) * 6),
    SolveReport: ((tuple(range(8)),), None, 27),
}


def test_every_record_class_is_sampled():
    assert len(FIELDS) == 16 and FIELDS.keys() == SAMPLES.keys()


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_matches_its_dataclass(cls):
    fields, args = FIELDS[cls], SAMPLES[cls]
    assert cls._fields == fields
    record = cls(*args)
    keywords = dict(zip(fields, args))
    assert cls(**keywords) == record
    reordered = cls(**dict(reversed(keywords.items())))
    assert reordered == record and hash(reordered) == hash(record)
    assert hash(record) == hash(tuple(getattr(record, name) for name in fields))
    assert repr(record) == (
        f"{cls.__name__}(" + ", ".join(f"{name}={getattr(record, name)!r}" for name in fields) + ")"
    )

    first = fields[0]
    rest = dict(list(keywords.items())[1:])
    for bad_call in (
        lambda: cls(*args[:-1]),  # missing
        lambda: cls(**rest),  # missing keyword
        lambda: cls(*args, args[0]),  # extra positional
        lambda: cls(*args, extra=1),  # extra keyword
        lambda: cls(extra=args[0], **rest),  # one keyword misnamed
        lambda: cls(*args, **{first: args[0]}),  # repeated
    ):
        with pytest.raises(TypeError):
            bad_call()

    for attack in (
        lambda: setattr(record, first, args[0]),
        lambda: setattr(record, "extra", 1),
        lambda: delattr(record, first),
    ):
        with pytest.raises(AttributeError):
            attack()
    assert record == cls(*args)


def test_records_of_two_classes_on_the_same_tables_are_unequal():
    fx, gy = grid(2, 2), grid(2, 2)
    rect, torus = OneForm.trusted(S22, fx, gy), ToroidalOneForm.trusted(S22, fx, gy)
    assert vars(rect) == vars(torus)
    assert rect != torus and torus != rect


def test_a_record_repr_reads_like_its_dataclass():
    assert repr(GridShape(3, 2)) == "GridShape(m=3, n=2)"
    assert repr(GF2) == "Field(p=2, name='F2')"


TRUSTED = [LatticeState, ScalarField, OneForm, Coloring, PeriodicField, ToroidalOneForm]


def test_every_trusted_constructor_is_listed():
    assert {cls for cls in FIELDS if hasattr(cls, "trusted")} == set(TRUSTED)


@pytest.mark.parametrize("cls", TRUSTED, ids=lambda c: c.__name__)
def test_a_trusted_record_is_the_validated_one(cls):
    args = SAMPLES[cls]
    trusted, checked = cls.trusted(*args), cls(*args)
    assert type(trusted) is cls
    assert trusted == checked and checked == trusted and not trusted != checked
    assert hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)
    assert list(vars(trusted).items()) == list(vars(checked).items())
    # it holds the values it was handed, uncopied, and stays immutable
    assert all(getattr(trusted, name) is value for name, value in zip(cls._fields, args))
    with pytest.raises(AttributeError):
        setattr(trusted, cls._fields[-1], args[-1])
    other = cls.trusted(*args[:-1], grid(len(args[-1]), len(args[-1][0]))[::-1])
    assert other != trusted and other == cls(*args[:-1], other._values(other)[-1])
