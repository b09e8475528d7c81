import random
from fractions import Fraction

import pytest

from schurlab.bounds import (
    attains_e2,
    bound_e1,
    bound_e2,
    check_theorem_2_1,
    check_theorem_2_2,
    check_theorem_2_5,
    check_theorem_2_6,
    check_theorem_3_7,
    classification_sweep,
    gamma_images,
    run_checks,
    scan_theorem_2_9,
    SweepRow,
)
from schurlab.catalog import abelian, catalog_get, enumerate_catalog, heisenberg
from schurlab.errors import NotCentral
from schurlab.linalg import Subspace
from schurlab.multiplier import present_minimal

from oracles import literal_gamma_images, random_basis_change


def test_bound_values():
    assert bound_e1(3, 1) == 2
    assert bound_e1(4, 2) == 3
    assert bound_e1(5, 2) == 6
    assert bound_e2(3, 1, 2) == 2
    assert bound_e2(5, 2, 2) == 6
    assert bound_e2(6, 3, 2) == 8
    assert bound_e2(4, 2, 3) == 3
    assert bound_e2(5, 3, 4) == 4
    assert bound_e2(5, 3, 3) == 4
    # codimension-2 derived subalgebra collapses the bound to n - 1
    for n in range(4, 10):
        for c in range(2, n):
            assert bound_e2(n, n - 2, c) == n - 1


def test_bound_validation():
    with pytest.raises(ValueError):
        bound_e1(3, 0)
    with pytest.raises(ValueError):
        bound_e1(3, 2)
    with pytest.raises(ValueError):
        bound_e2(5, 2, 1)
    with pytest.raises(ValueError):
        bound_e2(5, 2, 5)


def test_refined_bound_never_exceeds_first():
    for n in range(3, 13):
        for m in range(1, n - 1):
            assert bound_e2(n, m, 2) == bound_e1(n, m)
            for c in range(2, n):
                assert bound_e2(n, m, c) <= bound_e1(n, m)


def test_equality_characterization():
    """bound_e2 = bound_e1 exactly when c = 2 or n - m <= 3.

    For n - m <= 3 every subtracted term n - m - i with i in
    2..min(n-m,c) vanishes or the range is empty, so the bounds agree
    at any class; (4,2,3), (5,2,3) and (5,3,3) are the smallest
    equal-at-class-3 cases.
    """
    for n in range(3, 13):
        for m in range(1, n - 1):
            for c in range(2, n):
                equal = bound_e2(n, m, c) == bound_e1(n, m)
                assert equal == (c == 2 or n - m <= 3), (n, m, c)
    assert bound_e2(4, 2, 3) == bound_e1(4, 2)
    assert bound_e2(5, 2, 3) == bound_e1(5, 2)
    assert bound_e2(6, 2, 3) < bound_e1(6, 2)


def test_attains():
    assert attains_e2(catalog_get("L5_8"))
    assert attains_e2(catalog_get("L6_26"))
    assert attains_e2(heisenberg(1))
    assert not attains_e2(heisenberg(2))
    assert not attains_e2(catalog_get("L5_7"))
    with pytest.raises(ValueError):
        attains_e2(abelian(3))


def test_gamma_images_values():
    images = gamma_images(catalog_get("L4_3"))
    assert images.dim_im_gamma_L == 0
    assert images.dim_im_gamma_prime2 == 0
    assert images.dim_im_gamma_prime3 == 1
    images = gamma_images(heisenberg(2))
    assert images.dim_im_gamma_L == 4
    assert images.dim_im_gamma_prime2 == 4
    assert images.dim_im_gamma_prime3 is None
    images = gamma_images(abelian(4))
    assert images.dim_im_gamma_L == 0
    assert images.dim_im_gamma_prime3 is None


def _dense_change(n, seed):
    """A seeded dense rational basis change with non-unit diagonal."""
    rng = random.Random(seed)
    rows = [[Fraction(int(r == t)) for t in range(n)] for r in range(n)]
    for r in range(n):
        for t in range(n):
            if r != t and rng.random() < 0.5:
                num = rng.randint(-3, 3)
                rows[r][t] = Fraction(num, rng.choice([1, 2, 3, 5]))
        num = rng.choice([1, 2, 3, 7])
        rows[r][r] = Fraction(num, rng.choice([1, 2, 3]))
    return rows


def test_gamma_images_match_literal_definition():
    """The rank over alternating index sets equals the rank over every
    ordered tuple.  The basis changes move the representatives off the
    trailing basis vectors; the dense triangular one also makes the
    basis brackets non-monomial, without which a sign error in one
    gamma term leaves every rank unchanged."""
    names = ["L4_3", "L5_7", "L5_9", "L6_22(1/2)", "L6_26", "H(2)", "L5_8+A(1)"]
    algebras = [catalog_get(name) for name in names + ["L5_5+A(1)"]]
    rng = random.Random(3)
    for name in ["L5_7", "L5_9", "L6_22(1/2)", "L6_26"]:
        algebras += [random_basis_change(catalog_get(name), rng) for _ in range(2)]
    for name in ["L5_8+A(1)", "L5_5+A(1)"]:
        n = catalog_get(name).dim
        triangular = [[int(r <= t) for t in range(n)] for r in range(n)]
        algebras.append(catalog_get(name).change_basis(triangular))
    # dense changes with non-unit pivots: the representatives' brackets
    # have L3 parts that reduce modulo L3's echelon with differing
    # scales, and each rank here is wrong if those parts are kept, or
    # are dropped with the three terms of a gamma row at unequal scales
    for name, seed in [
        ("L5_7+A(2)", 23),
        ("L5_9+A(2)", 23),
        ("L5_5+A(1)", 12),
    ]:
        base = catalog_get(name)
        algebras.append(base.change_basis(_dense_change(base.dim, seed)))
    for algebra in algebras:
        images = gamma_images(algebra)
        assert literal_gamma_images(algebra) == (
            images.dim_im_gamma_L,
            images.dim_im_gamma_prime2,
            images.dim_im_gamma_prime3,
        ), algebra


def test_theorem_2_1_on_catalog(catalog6):
    for name, algebra in catalog6:
        center = algebra.center()
        report = check_theorem_2_1(algebra, center)
        assert report.holds, name
        for row in center.rows:
            line = Subspace([row], algebra.dim)
            assert check_theorem_2_1(algebra, line).holds, name
    with pytest.raises(NotCentral):
        check_theorem_2_1(
            catalog_get("L5_7"), Subspace([[1, 0, 0, 0, 0]], 5)
        )


def test_theorem_2_2_applicability(catalog6):
    applicable = []
    for name, algebra in catalog6:
        rep = algebra.series()
        if rep.derived_dim == algebra.dim - 2 and algebra.dim >= 4:
            report = check_theorem_2_2(algebra)
            assert report.holds, name
            applicable.append(name)
    assert applicable == ["L4_3", "L5_7", "L5_9"]
    with pytest.raises(ValueError):
        check_theorem_2_2(heisenberg(1))
    with pytest.raises(ValueError):
        check_theorem_2_2(heisenberg(2))


def test_theorem_2_5_and_2_6(catalog6):
    for name, algebra in catalog6:
        rep = algebra.series()
        if rep.derived_dim:
            assert check_theorem_2_5(algebra).holds, name
        if rep.nilpotency_class == 3:
            assert check_theorem_2_6(algebra).holds, name
    with pytest.raises(ValueError):
        check_theorem_2_5(abelian(2))
    with pytest.raises(ValueError):
        check_theorem_2_6(catalog_get("L5_7"))


def test_theorem_2_5_tight_for_heisenberg():
    report = check_theorem_2_5(heisenberg(2))
    assert report.lhs == report.rhs == 10


def test_scan_2_9():
    report = scan_theorem_2_9(6)
    assert report.holds
    assert report.witnesses["violations"] == []
    assert report.witnesses["class_two_matches"] == ["L6_26"]
    assert "L5_9" in report.witnesses["checked"]


def test_theorem_3_7_witnesses():
    report = check_theorem_3_7(6)
    assert report.holds
    assert report.witnesses["equality_witnesses"] == [
        "L4_3",
        "L5_7",
        "L5_9",
    ]


def test_run_checks_on_any_source(catalog6):
    """run_checks reads only the pairs it is given: seeded basis
    changes of the catalog, under the catalog names, give the catalog's
    reports, each per-algebra report named after its pair although
    change_basis drops L.name."""
    rng = random.Random(16)
    moved = [(name, random_basis_change(L, rng)) for name, L in catalog6]
    source = "catalog up to dimension 6"
    want = run_checks(catalog6, "all", source)
    got = run_checks(moved, "all", source)
    assert len(got) == len(want) == 62
    assert got == want
    with pytest.raises(ValueError):
        run_checks(catalog6, "2.7", source)


def test_scans_count_violations(monkeypatch):
    """No catalog entry violates a scan, so dim M is raised here to each
    scan's limit: e2 for 3.7, (n-1)(n-2)/2 - 2 at class >= 3 for 2.9."""
    import schurlab.bounds

    dims = {"L4_3": 3, "L5_7": 3, "L5_9": 4, "L6_26": 8}
    monkeypatch.setattr(
        schurlab.bounds, "schur_multiplier_dim", lambda L: dims[L.name]
    )
    entries = [(name, catalog_get(name)) for name in dims]
    (scan_3_7,) = run_checks(entries, "3.7", "four entries")
    assert scan_3_7.witnesses["violations"] == ["L4_3", "L5_9"]
    assert scan_3_7.witnesses["equality_witnesses"] == ["L5_7"]
    assert (scan_3_7.lhs, scan_3_7.holds) == (2, False)
    (scan_2_9,) = run_checks(entries, "2.9", "four entries")
    assert scan_2_9.witnesses["checked"] == ["L5_7", "L5_9", "L6_26"]
    assert scan_2_9.witnesses["violations"] == ["L5_9"]
    assert scan_2_9.witnesses["class_two_matches"] == ["L6_26"]
    assert (scan_2_9.lhs, scan_2_9.holds) == (1, False)


def test_sweep_small():
    rows3 = classification_sweep(3)
    assert [r.name for r in rows3 if r.attains_e2] == ["H(1)"]
    rows4 = classification_sweep(4)
    assert [r.name for r in rows4 if r.attains_e2] == [
        "H(1)",
        "H(1)+A(1)",
    ]
    by_name = {r.name: r for r in rows4}
    assert by_name["A(4)"].bound_e2 is None
    assert not by_name["A(4)"].attains_e2
    assert by_name["L4_3"].dim_M == 2
    assert by_name["L4_3"].bound_e2 == 3


def test_sweep_deterministic():
    assert classification_sweep(5) == classification_sweep(5)


def test_equal_algebras_are_presented_once(monkeypatch, empty_memos):
    # counts, not clocks: the memo is per algebra value, so the core L0
    # of each base+A(k) shares the memo of its base.  The catalog gates
    # run first, here under this test's registry: their three algebras
    # stay alive in the gates' cache and are equal to three bases, so
    # their presentations answer those bases in both figures below, as
    # in a fresh process (see the next test).  Abelian algebras split
    # off whole and are never presented.
    import functools

    from schurlab import catalog
    from schurlab.hall import free_nilpotent_algebra
    from schurlab.liealg import SeriesReport

    presented, series = [], []
    monkeypatch.setattr(
        "schurlab.multiplier.free_nilpotent_algebra",
        lambda d, s: presented.append(d) or free_nilpotent_algebra(d, s),
    )
    monkeypatch.setattr(
        "schurlab.liealg.SeriesReport",
        lambda **fields: series.append(1) or SeriesReport(**fields),
    )
    monkeypatch.setattr(
        catalog, "_run_gates", functools.cache(catalog._run_gates.__wrapped__)
    )
    enumerate_catalog(1)
    assert len(presented) == 3
    run_checks(enumerate_catalog(7), "all", "catalog up to dimension 7")
    assert (len(presented), len(series)) == (13, 49)
    presented.clear()
    classification_sweep(8)
    assert len(presented) == 10


# Counts the presentations one command computes in a fresh process.
FRESH_COUNT_SCRIPT = (
    "import io, sys\n"
    "import schurlab.multiplier as multiplier\n"
    "from schurlab.cli import main\n"
    "free, presented = multiplier.free_nilpotent_algebra, []\n"
    "multiplier.free_nilpotent_algebra = (\n"
    "    lambda d, s: presented.append(d) or free(d, s))\n"
    "sys.stdout = io.StringIO()\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout = sys.__stdout__\n"
    "print(code, len(presented))\n"
)


@pytest.mark.parametrize("argv, presented", [
    (["sweep", "--max-dim", "8"], 13),
    (["check", "--theorem", "all", "--max-dim", "7"], 13),
    (["info", "--name", "A(1)"], 0),
    (["info", "--name", "L5_7"], 3),
], ids=["sweep", "check", "info-family", "info-table"])
def test_fresh_process_presents_each_value_once(argv, presented):
    # the cached gates keep L4_3, L5_8 and L6_26 alive, so their
    # presentations answer the equal bases: 13, not 16 with the gates.
    # The gates run before a data-file lookup only: a family name
    # presents nothing, L5_7 the three gated entries
    from test_cli import _child

    proc = _child(["-c", FRESH_COUNT_SCRIPT, *argv, "--format", "json"])
    assert proc.stdout.split() == ["0", str(presented)], proc.stderr


def test_sweep_abelian_extension_rows_match_engine():
    """The sweep derives each base+A(k) row from its base; here every
    such entry of the dimension-8 catalog is built as a direct sum and
    presented whole by the unsplit engine (schur_multiplier_dim applies
    the same formula), so k = 4 and 5 are covered too."""
    rows = {row.name: row for row in classification_sweep(8)}
    sums = [(name, L) for name, L in enumerate_catalog(8) if "+A(" in name]
    assert len(sums) == 35
    assert {"L4_3+A(4)", "H(1)+A(5)"} <= {name for name, _ in sums}
    for name, L in sums:
        rep = L.series()
        n, m, c = L.dim, rep.derived_dim, rep.nilpotency_class
        dim_m = present_minimal(L).dim_multiplier
        bound = bound_e2(n, m, c)
        want = SweepRow(name, n, m, c, dim_m, bound, dim_m == bound)
        assert rows[name] == want
