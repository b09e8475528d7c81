"""The immutable result records share one base, ``errors.Record``.

They keep the value semantics of frozen dataclasses: keyword or
positional construction, ``Name(field=value, ...)`` repr, equality and
hashing by the tuple of values within one class, and no assignment.
"""

import pytest

from schurlab.bounds import GammaImages, SweepRow, TheoremReport
from schurlab.catalog import heisenberg
from schurlab.errors import Record
from schurlab.hall import HallWord
from schurlab.liealg import Quotient, SeriesReport
from schurlab.multiplier import GaneaReport, MultiplierReport

RECORDS = [
    SeriesReport,
    Quotient,
    HallWord,
    GaneaReport,
    MultiplierReport,
    GammaImages,
    TheoremReport,
    SweepRow,
]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields = list(cls.__annotations__)
    values = [(k, f"v{k}") for k in range(len(fields))]
    a = cls(*values)
    b = cls(**dict(zip(fields, values)))
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(values))
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    assert [getattr(a, f) for f in fields] == values
    assert a != cls(*values[:-1], "other")

    twin = type("Twin", (Record,), {"__annotations__": dict(cls.__annotations__)})
    assert twin(*values) != a and a != twin(*values)
    assert a != tuple(values)

    with pytest.raises(AttributeError):
        setattr(a, fields[0], 1)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    with pytest.raises(TypeError):
        cls(*values[:-1], **{fields[-1]: 1, "nonfield": 2})
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: 1})


def test_records_from_the_engine():
    rep = heisenberg(1).series()
    assert repr(rep) == (
        "SeriesReport(gamma_dims=(3, 1, 0), derived_dim=1, nilpotency_class=2,"
        " center_dim=1, min_generators=2, central_complement_dim=0)"
    )
    assert rep == heisenberg(1).series()
    assert len({rep, heisenberg(1).series()}) == 1
    # the memo is per algebra value: two live H(1) share one record, and
    # H(1) in another basis, a different value, gets an equal record
    # of its own
    h, twin = heisenberg(1), heisenberg(1)
    assert h.series() is twin.series()
    swapped = h.change_basis([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert swapped != h
    assert swapped.series() == h.series() and swapped.series() is not h.series()
