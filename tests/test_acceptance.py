"""Acceptance suite: twelve numbered criteria, one per test.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s)
and asserts exact equalities; all arithmetic is rational, so every
tolerance is zero.

Criterion 6 states the exact equality condition of the two bounds:
bound_e2(n, m, c) = bound_e1(n, m) if and only if c = 2 or n - m <= 3.
The original clause, equality "only at class 2", was dropped because it
is false: bound_e1 - bound_e2 = sum((n - m - i) for i = 3..min(n - m, c)),
which is zero whenever c = 2 or n - m <= 3.  At (n, m, c) = (4, 2, 3), the
invariant triple of L4_3, both bounds are 3.
"""

import contextlib
import random
import time
from collections import Counter

from schurlab.bounds import (
    attains_e2,
    bound_e1,
    bound_e2,
    check_theorem_2_1,
    check_theorem_2_2,
    check_theorem_2_5,
    check_theorem_2_6,
    classification_sweep,
    scan_theorem_2_9,
)
from schurlab.catalog import abelian, catalog_get, heisenberg
from schurlab.hall import free_nilpotent_algebra, hall_basis, witt_dim
from schurlab.liealg import direct_sum
from schurlab.linalg import Subspace
from schurlab.multiplier import (
    exterior_center,
    exterior_square_dim,
    ganea_dimension_check,
    is_capable,
    present_minimal,
    schur_multiplier,
    schur_multiplier_dim,
)

from oracles import random_basis_change


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


def test_criterion_01():
    with criterion(
        1, "dim M(L5_7) = dim M(L5_9) = 3, each computed in under one second"
    ):
        for name in ("L5_7", "L5_9"):
            algebra = catalog_get(name)
            start = time.perf_counter()
            dim_m = schur_multiplier_dim(algebra)
            elapsed = time.perf_counter() - start
            assert dim_m == 3, (name, dim_m)
            assert elapsed < 1.0, (name, elapsed)


def test_criterion_02():
    with criterion(
        2,
        "dim M(H(1)) = 2 equals the coarse bound; "
        "H(1)+A(k) attains the refined bound for k = 0..4",
    ):
        assert schur_multiplier_dim(heisenberg(1)) == 2 == bound_e1(3, 1)
        for k in range(5):
            assert attains_e2(direct_sum(heisenberg(1), abelian(k))), k


def test_criterion_03():
    with criterion(
        3,
        "L5_8 and L6_26 attain the refined bound: "
        "6 = bound(5,2,2) and 8 = bound(6,3,2)",
    ):
        assert schur_multiplier_dim(catalog_get("L5_8")) == 6 == bound_e2(5, 2, 2)
        assert schur_multiplier_dim(catalog_get("L6_26")) == 8 == bound_e2(6, 3, 2)


def test_criterion_04():
    with criterion(
        4,
        "the dimension-6 sweep finds exactly six attainers; "
        "L5_8+A(1) misses the bound (9 < 10)",
    ):
        rows = classification_sweep(6)
        attainers = {row.name for row in rows if row.attains_e2}
        assert attainers == {
            "H(1)",
            "H(1)+A(1)",
            "H(1)+A(2)",
            "H(1)+A(3)",
            "L5_8",
            "L6_26",
        }, attainers
        extended = next(row for row in rows if row.name == "L5_8+A(1)")
        assert extended.dim_M == 9 and extended.bound_e2 == 10
        assert not extended.attains_e2


def test_criterion_05():
    with criterion(
        5,
        "class >= 3 forces dim M <= bound - 1, with equality "
        "exactly for L4_3, L5_7, L5_9",
    ):
        equality = set()
        for row in classification_sweep(6):
            if row.m and row.c >= 3:
                assert row.dim_M <= row.bound_e2 - 1, row.name
                if row.dim_M == row.bound_e2 - 1:
                    equality.add(row.name)
        assert equality == {"L4_3", "L5_7", "L5_9"}, equality


def test_criterion_06():
    with criterion(
        6,
        "the refined bound equals the coarse bound at class 2, never "
        "exceeds it, and equals it exactly when c = 2 or n - m <= 3 "
        "(n <= 12)",
    ):
        for n in range(3, 13):
            for m in range(1, n - 1):
                assert bound_e2(n, m, 2) == bound_e1(n, m), (n, m)
                for c in range(2, n):
                    assert bound_e2(n, m, c) <= bound_e1(n, m), (n, m, c)
        for n in range(3, 13):
            for m in range(1, n - 1):
                for c in range(2, n):
                    equal = bound_e2(n, m, c) == bound_e1(n, m)
                    assert equal == (c == 2 or n - m <= 3), (
                        f"at (n, m, c) = ({n}, {m}, {c}) the bounds are "
                        f"bound_e1 = {bound_e1(n, m)} and bound_e2 = "
                        f"{bound_e2(n, m, c)}, but they should be equal "
                        f"exactly when c = 2 or n - m <= 3"
                    )
        assert bound_e2(4, 2, 3) == bound_e1(4, 2) == 3
        assert (bound_e1(6, 2), bound_e2(6, 2, 3)) == (10, 9)


def test_criterion_07(catalog6):
    with criterion(
        7,
        "direct sums: dim M(L+A(k)) = dim M(L) + C(k,2) + k*dim(L/L2) "
        "for every base entry and k <= 3; matches the closed form for "
        "L4_3+A(n-4), n = 4..8",
    ):
        for name, base in catalog6:
            if "+" in name:
                continue
            ab = base.dim - base.series().derived_dim
            base_m = schur_multiplier_dim(base)
            for k in range(1, 4):
                total = direct_sum(base, abelian(k))
                expected = base_m + k * (k - 1) // 2 + k * ab
                # the unsplit engine: schur_multiplier_dim applies the formula
                assert present_minimal(total).dim_multiplier == expected, (name, k)
        for n in range(4, 9):
            total = direct_sum(catalog_get("L4_3"), abelian(n - 4))
            expected = 2 + (n - 4) * (n - 5) // 2 + 2 * (n - 4)
            assert present_minimal(total).dim_multiplier == expected, n


def test_criterion_08(catalog6, reports6):
    with criterion(
        8,
        "fifty random rational basis changes per catalog entry leave "
        "(n, m, c, dim M, dim wedge, dim Z^, capable) unchanged",
    ):
        rng = random.Random(987654321)
        for name, base in catalog6:
            report = reports6[name]
            want = (
                report.n,
                report.m,
                report.c,
                report.dim_M,
                report.dim_exterior_square,
                report.exterior_center.dim,
                report.capable,
            )
            for _ in range(50):
                other = random_basis_change(base, rng)
                rep = other.series()
                got = (
                    other.dim,
                    rep.derived_dim,
                    rep.nilpotency_class,
                    schur_multiplier_dim(other),
                    exterior_square_dim(other),
                    exterior_center(other).dim,
                    is_capable(other),
                )
                assert got == want, (name, got, want)


def test_criterion_09(catalog6):
    with criterion(
        9,
        "capability: A(1) no, A(n>=2) yes, H(1)+A(k) yes, H(2) no, "
        "L5_8 yes, L4_3 and L5_5 yes (with abelian extensions); "
        "Z^ lies inside L2 for every non-abelian entry",
    ):
        assert not is_capable(abelian(1))
        for n in range(2, 7):
            assert is_capable(abelian(n)), n
        for k in range(5):
            assert is_capable(direct_sum(heisenberg(1), abelian(k))), k
        assert not is_capable(heisenberg(2))
        assert is_capable(catalog_get("L5_8"))
        for name, algebra in catalog6:
            if name.startswith(("L4_3", "L5_5")):
                assert is_capable(algebra), name
            if algebra.series().derived_dim:
                assert exterior_center(algebra) <= algebra.derived_subspace(), name


def test_criterion_10(catalog6):
    with criterion(
        10,
        "dim(L wedge L) = dim M(L) + dim L2 and [F,R] inside R cap F2 "
        "for every entry; the central-line dimension comparison agrees "
        "with exterior-center membership on every center basis line",
    ):
        for name, algebra in catalog6:
            dim_m, (r_cap_f2, fr) = schur_multiplier(algebra)
            rep = algebra.series()
            assert exterior_square_dim(algebra) == dim_m + rep.derived_dim, name
            if algebra.dim:
                pres = present_minimal(algebra)
                assert fr <= (r_cap_f2 & pres.f2), name
            for row in algebra.center().rows:
                line = Subspace([row], algebra.dim)
                assert ganea_dimension_check(algebra, line).consistent, name


def test_criterion_11():
    with criterion(
        11,
        "Hall word counts match the Witt formula for d <= 3, s <= 6; "
        "the free class-2 algebra on 3 generators has invariants "
        "(6, 3, 2) and dim M = 8, agreeing with L6_26",
    ):
        for d in (1, 2, 3):
            for s in range(1, 7):
                counts = Counter(w.degree for w in hall_basis(d, s))
                for k in range(1, s + 1):
                    assert counts.get(k, 0) == witt_dim(d, k), (d, s, k)
        free = free_nilpotent_algebra(3, 2).algebra
        rep = free.series()
        assert (free.dim, rep.derived_dim, rep.nilpotency_class) == (6, 3, 2)
        assert (
            schur_multiplier_dim(free)
            == 8
            == schur_multiplier_dim(catalog_get("L6_26"))
        )


def test_criterion_12(catalog6):
    with criterion(
        12,
        "central-quotient, codimension-2, and both gamma-image "
        "inequalities hold on all applicable entries; the m = 3 gap "
        "scan is clean for class >= 3; no entry of dimension >= 4 "
        "with m = n - 2 attains the refined bound",
    ):
        for name, algebra in catalog6:
            rep = algebra.series()
            center = algebra.center()
            if center.dim:
                assert check_theorem_2_1(algebra, center).holds, name
                for row in center.rows:
                    line = Subspace([row], algebra.dim)
                    assert check_theorem_2_1(algebra, line).holds, name
            if rep.derived_dim == algebra.dim - 2 and algebra.dim >= 4:
                assert check_theorem_2_2(algebra).holds, name
            if rep.derived_dim:
                assert check_theorem_2_5(algebra).holds, name
            if rep.nilpotency_class == 3:
                assert check_theorem_2_6(algebra).holds, name
        assert scan_theorem_2_9(6).holds
        for row in classification_sweep(6):
            if row.n >= 4 and row.m == row.n - 2:
                assert not row.attains_e2, row.name
