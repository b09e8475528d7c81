import pytest

import schurlab.multiplier
from schurlab.catalog import (
    abelian,
    catalog_get,
    enumerate_catalog,
    heisenberg,
    verify_catalog,
)
from schurlab.dsl import parse_presentation
from schurlab.errors import (
    InvariantMismatch,
    MissingParameter,
    ResourceCapExceeded,
    UnknownName,
)


def test_name_forms():
    assert catalog_get("A4").dim == 4
    assert catalog_get("A(4)").name == "A(4)"
    assert catalog_get("H2").dim == 5
    assert catalog_get("H(2)").name == "H(2)"
    assert catalog_get("L5_7").name == "L5_7"
    total = catalog_get("H(1)+A(2)")
    assert total.dim == 5 and total.name == "H(1)+A(2)"
    assert catalog_get("L6_22(1/2)").name == "L6_22(1/2)"
    assert catalog_get("L6_22(2/4)").name == "L6_22(1/2)"
    assert catalog_get("L6_22(-1)").name == "L6_22(-1)"
    assert catalog_get("L5_7+L6_22(2)").name == "L5_7+L6_22(2)"
    both = catalog_get("L6_22(1/2)+L6_22(-1)")
    assert both.dim == 12 and both.name == "L6_22(1/2)+L6_22(-1)"


def test_unknown_and_missing():
    with pytest.raises(UnknownName):
        catalog_get("NOPE")
    with pytest.raises(UnknownName):
        catalog_get("L9_99")
    with pytest.raises(UnknownName):
        catalog_get("L5_7(3)")
    with pytest.raises(MissingParameter) as info:
        catalog_get("L6_22")
    assert str(info.value) == (
        "L6_22 needs a value for 'eps', written as L6_22(VALUE)"
    )
    with pytest.raises(MissingParameter):
        catalog_get("L5_7+L6_22")
    with pytest.raises(UnknownName):
        catalog_get("")
    for unbalanced in ("A(4", "A4)", "H2)", "H(2", "L6_22(1/2", "L6_22(1/2))"):
        with pytest.raises(UnknownName):
            catalog_get(unbalanced)
    # a bad inline value raises UnknownName naming the part
    for bad in ("one", "x", "1/0", "0.5", "1e-1", "1_0", "+1", "1+1"):
        with pytest.raises(UnknownName) as info:
            catalog_get(f"L6_22({bad})")
        assert str(info.value) == (
            f"invalid parameter value {bad!r} in 'L6_22({bad})'"
        )
    # a value for an entry that takes no parameter is refused
    for name in ("L5_7(1/2)", "H(1)+L5_7(3)"):
        with pytest.raises(UnknownName) as info:
            catalog_get(name)
        assert str(info.value) == "L5_7 takes no parameter"


def test_constructors():
    h = heisenberg(3)
    assert h.dim == 7
    rep = h.series()
    assert rep.derived_dim == 1 and rep.nilpotency_class == 2
    assert abelian(0).dim == 0
    with pytest.raises(ValueError):
        heisenberg(0)
    with pytest.raises(ValueError):
        abelian(-1)


def test_heisenberg_matches_presentation_text():
    text = "algebra H dim 3\n[x1, x2] = x3\n"
    assert parse_presentation(text).sc == heisenberg(1).sc


def test_catalog_entries_validate(catalog6):
    for name, algebra in catalog6:
        algebra.validate()
        assert algebra.name == name


def test_enumerate_shape_and_determinism(catalog6):
    names = [name for name, _ in catalog6]
    assert len(names) == len(set(names))
    assert names == [name for name, _ in enumerate_catalog(6)]
    assert names[:6] == [f"A({k})" for k in range(1, 7)]
    assert "L6_22(1/2)" in names
    assert "L5_8+A(1)" in names
    assert all(algebra.dim <= 6 for _, algebra in catalog6)


def test_enumerate_lists_the_eps_samples():
    names = [name for name, _ in enumerate_catalog(6)]
    assert [name for name in names if name.startswith("L6_22")] == [
        "L6_22(0)",
        "L6_22(1)",
        "L6_22(-1)",
        "L6_22(1/2)",
    ]


def test_enumerate_caps():
    with pytest.raises(ResourceCapExceeded):
        enumerate_catalog(9)
    with pytest.raises(ValueError):
        enumerate_catalog(0)
    assert all(a.dim <= 8 for _, a in enumerate_catalog(8))


def test_verify_catalog_runs():
    names = verify_catalog()
    assert "L5_8" in names and "L6_26" in names


def test_failed_gate_fails_every_lookup(monkeypatch):
    real = schurlab.multiplier.schur_multiplier_dim
    monkeypatch.setattr(
        schurlab.multiplier,
        "schur_multiplier_dim",
        lambda L: real(L) + (L.name == "L5_8"),
    )
    # a failed gate is not remembered as passed: it fails again, also
    # inside a sum; a name of families alone reads no data file
    for _ in range(2):
        with pytest.raises(InvariantMismatch, match="L5_8"):
            verify_catalog()
        with pytest.raises(InvariantMismatch, match="L5_8"):
            catalog_get("L5_7")
        with pytest.raises(InvariantMismatch, match="L5_8"):
            catalog_get("H(1)+L5_7")
        assert catalog_get("H(1)+A(2)").dim == 5
    monkeypatch.undo()
    assert "L5_8" in verify_catalog()
