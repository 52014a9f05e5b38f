"""The public records: immutable, compared by type and fields, printed as
``Name(field=value, ...)``, and rebuilt through their checks by pickle and
copy. Importing the package loads none of dataclasses, inspect or typing."""

import copy
import math
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest

from treebed import (
    CoveringReport,
    CubeId,
    DistortionReport,
    EmbeddedPoint,
    HoroPoint,
    Params,
    RationalBox,
    Region,
    SamplePlan,
    SeparationKind,
    SeparationVerdict,
    embed,
    validate_params,
    verify_covering_level0,
)

P = validate_params(1, 5)
Z, ZP = HoroPoint(0.5, (1.5,)), HoroPoint(-1.0, (2.0,))
PLAN = SamplePlan(Region(-1.0, 1.0, 2.0), 3, "uniform", 4)

# One record of each public type, and its repr in the format dataclasses print.
RECORDS = [
    (P, "Params(n=1, p=5, m=(0, 2), D=20, C=(-1, 9), W=12, "
        "level_bound=441.0127954671545, sigma=1.6094379124341003)"),
    (RationalBox((F(1, 5),), (F(4, 5),)),
     "RationalBox(lo=(Fraction(1, 5),), hi=(Fraction(4, 5),))"),
    (CubeId(0, 1, (2,)), "CubeId(c=0, k=1, gamma=(2,))"),
    (SeparationVerdict(SeparationKind.NESTED_DEEP, margin=F(1, 25)),
     "SeparationVerdict(kind=<SeparationKind.NESTED_DEEP: 'nested_deep'>, "
     "gap_sq=None, margin=Fraction(1, 25))"),
    (verify_covering_level0(P, [0]),
     "CoveringReport(n=1, p=5, colors=(0,), grid_step=Fraction(1, 10), "
     "cells_total=10, cells_uncovered=4, witnesses=((Fraction(1, 20),), "
     "(Fraction(3, 20),), (Fraction(17, 20),), (Fraction(19, 20),)))"),
    (Z, "HoroPoint(t=0.5, x=(1.5,))"),
    (embed(P, Z),
     "EmbeddedPoint(images=(CubeId(c=0, k=1, gamma=(6,)), "
     "CubeId(c=1, k=1, gamma=(5,))), source=HoroPoint(t=0.5, x=(1.5,)))"),
    (PLAN.region, "Region(t_min=-1.0, t_max=1.0, x_radius=2.0)"),
    (PLAN,
     "SamplePlan(region=Region(t_min=-1.0, t_max=1.0, x_radius=2.0), count=3, "
     "strategy='uniform', seed=4)"),
    (DistortionReport(1, 5, "l1", ((1.25, 2.0),), PLAN, 1.0, 2.0, 0),
     "DistortionReport(n=1, p=5, norm='l1', samples=((1.25, 2.0),), "
     "plan=SamplePlan(region=Region(t_min=-1.0, t_max=1.0, x_radius=2.0), "
     "count=3, strategy='uniform', seed=4), l=1.0, m=2.0, violations=0, "
     "runtime_ms=None)"),
]
_ids = [type(r).__name__ for r, _ in RECORDS]


def test_every_public_record_is_covered():
    types = {type(r) for r, _ in RECORDS}
    assert types == {
        Params, RationalBox, CubeId, SeparationVerdict, CoveringReport, HoroPoint,
        EmbeddedPoint, Region, SamplePlan, DistortionReport,
    }


@pytest.mark.parametrize("record,text", RECORDS, ids=_ids)
def test_fields_cannot_be_assigned_or_deleted(record, text):
    for name in type(record).__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record,text", RECORDS, ids=_ids)
def test_repr_names_every_field(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=_ids)
def test_equal_copies_hash_equal(record, text):
    fields = tuple(getattr(record, name) for name in type(record).__slots__)
    twin = type(record)(*fields)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(fields)


@pytest.mark.parametrize("record,text", RECORDS, ids=_ids)
def test_pickle_and_copy_round_trip(record, text):
    copies = [pickle.loads(pickle.dumps(record, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for twin in copies:
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == text


def test_equality_needs_the_same_type():
    cid = CubeId(0, 1, (2,))
    assert cid != (0, 1, (2,)) and (0, 1, (2,)) != cid
    assert cid.__eq__((0, 1, (2,))) is NotImplemented
    assert cid != CubeId(0, 1, (3,))
    assert {cid: 1}[CubeId(0, 1, (2,))] == 1


def _unchecked(cls, **fields):
    """A record whose fields skipped the constructor's checks."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


@pytest.mark.parametrize(
    "bad",
    [
        _unchecked(HoroPoint, t=math.inf, x=(0.0,)),
        _unchecked(Region, t_min=1.0, t_max=0.0, x_radius=1.0),
        _unchecked(SamplePlan, region=PLAN.region, count=0, strategy="uniform", seed=0),
        _unchecked(RationalBox, lo=(F(1),), hi=(F(0),)),
    ],
    ids=lambda r: type(r).__name__,
)
def test_copies_rerun_the_checks(bad):
    blob = pickle.dumps(bad)
    with pytest.raises(ValueError):
        pickle.loads(blob)
    with pytest.raises(ValueError):
        copy.copy(bad)
    with pytest.raises(ValueError):
        copy.deepcopy(bad)


def test_import_loads_no_dataclasses():
    # -S keeps site from importing typing before the package does. tempfile
    # is imported only where verify writes per-pair rows.
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import treebed, treebed.cli; "
        "loaded = {'dataclasses', 'inspect', 'typing', 'tempfile'} & set(sys.modules); "
        "assert not loaded, sorted(loaded)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
