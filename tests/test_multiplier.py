import json
import random
from fractions import Fraction

import pytest

from schurlab.catalog import (
    abelian,
    catalog_get,
    enumerate_catalog,
    heisenberg,
)
from schurlab.bounds import gamma_images
from schurlab.cli import main
from schurlab.errors import (
    NotCentral,
    NotNilpotent,
    NotOneDimensional,
    ResourceCapExceeded,
)
from schurlab.liealg import LieAlgebra, direct_sum
from schurlab.linalg import SpanBuilder, Subspace
from schurlab.multiplier import (
    exterior_center,
    exterior_square_dim,
    ganea_dimension_check,
    is_capable,
    multiplier_report,
    present_minimal,
    _split,
    schur_multiplier,
    schur_multiplier_dim,
)

from oracles import (
    ce_multiplier_dim,
    random_basis_change,
    unit,
    wedge_dim,
    wedge_exterior_center,
)

KNOWN_MULTIPLIERS = {
    "L5_7": 3,
    "L5_9": 3,
    "L4_3": 2,
    "L5_8": 6,
    "L6_26": 8,
    "H(1)": 2,
    "H(2)": 5,
    "A(4)": 6,
}


def test_known_multiplier_dimensions():
    for name, expected in KNOWN_MULTIPLIERS.items():
        assert schur_multiplier_dim(catalog_get(name)) == expected, name


def test_abelian_multiplier_is_binomial():
    for n in range(0, 7):
        assert schur_multiplier_dim(abelian(n)) == n * (n - 1) // 2


def test_multiplier_agrees_with_homology_oracle(catalog6):
    for name, algebra in catalog6:
        assert schur_multiplier_dim(algebra) == ce_multiplier_dim(algebra), name


def test_presentation_witness_structure(catalog6):
    for name, algebra in catalog6:
        dim_m, (r_cap_f2, fr) = schur_multiplier(algebra)
        pres = present_minimal(algebra)
        assert fr <= r_cap_f2, name
        assert r_cap_f2 <= pres.f2, name
        assert dim_m == r_cap_f2.dim - fr.dim, name
        assert r_cap_f2 == pres.r, name
        # generator columns of the kernel vanish: R sits inside F2
        d = pres.free.generators
        assert all(
            row[g] == 0 for row in pres.r.rows for g in range(d)
        ), name


def test_wedge_equals_multiplier_plus_derived(catalog6):
    for name, algebra in catalog6:
        rep = algebra.series()
        assert exterior_square_dim(algebra) == schur_multiplier_dim(
            algebra
        ) + rep.derived_dim, name


def test_exterior_center_inclusions(catalog6):
    for name, algebra in catalog6:
        zext = exterior_center(algebra)
        assert zext <= algebra.center(), name
        if algebra.series().derived_dim:
            assert zext <= algebra.derived_subspace(), name


def _oracle_center(algebra):
    """Z^ from the Lambda^2 oracle, as a Subspace."""
    return Subspace(
        [
            [Fraction(int(x.p), int(x.q)) for x in vec]
            for vec in wedge_exterior_center(algebra)
        ],
        algebra.dim,
    )


def test_exterior_center_matches_wedge_oracle():
    # the catalog up to dimension 7, and random bases of two algebras
    # with a nonzero exterior center (H(2), H(2)+A(1)) and two capable
    # ones, where the center is nonzero but Z^ is zero
    cases = enumerate_catalog(7)
    rng = random.Random(20261018)
    for name in ("H(2)", "H(2)+A(1)", "L5_7", "L6_22(1/2)"):
        base = catalog_get(name)
        for t in range(3):
            cases.append((f"{name} basis {t}", random_basis_change(base, rng)))
    for name, algebra in cases:
        assert exterior_center(algebra) == _oracle_center(algebra), name


def _unitriangular(L, rng):
    """L in the basis y_a = sum_i p[a][i] x_i, with p unit upper
    triangular and a random sign at every place above the diagonal.
    p is inverted by back substitution, so no echelon is involved."""
    n = L.dim
    p = [
        [1 if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(n)]
        for i in range(n)
    ]
    p_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            p_inv[i][j] = -sum(p[i][k] * p_inv[k][j] for k in range(i + 1, j + 1))
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = L.bracket(p[a], p[b])
            brackets[(a, b)] = {
                t: sum(w[i] * p_inv[i][t] for i in range(n)) for t in range(n)
            }
    return LieAlgebra(n, brackets, name=L.name)


def _induced_map(L, free):
    """The map F' -> L by Fraction brackets in L, word by word: the
    generators go to the basis vectors outside the pivots of L2."""
    pivots = set(L.derived_subspace().echelon)
    gens = [i for i in range(L.dim) if i not in pivots]
    images = []
    for word in free.basis:
        if word.gen is not None:
            images.append(unit(L.dim, gens[word.gen]))
        else:
            images.append(L.bracket(images[word.left], images[word.right]))
    return tuple(zip(*images))


def test_heavy_presentations_match_wedge_oracle():
    # dense bases of the heaviest presentations (L5_7+A(3) is presented
    # in a free algebra of dimension 829), and a rational basis, where
    # the adjoint table's denominator D > 1 scales the images of pi.
    # Scaling words of degree k by D^(k-1) is an automorphism of F', so
    # only pi and the witness R, not the dimensions, would show a
    # missing rescale.
    rng = random.Random(20261018)
    for name in ("L5_7+A(3)", "L5_9+A(3)", "L4_3+A(4)", "L6_22(1/2)+A(1)"):
        if name.startswith("L6_22"):
            algebra = random_basis_change(catalog_get(name), rng)
            assert algebra._den > 1
        else:
            algebra = _unitriangular(catalog_get(name), rng)
        pres = present_minimal(algebra)
        if name == "L5_7+A(3)":
            assert pres.free.dim == 829
        pi = _induced_map(algebra, pres.free)
        # pi_rows is D^c times the literal map, c the class
        scale = algebra._den ** algebra.series().nilpotency_class
        assert pres.pi_rows == [
            {col: scale * x for col, x in enumerate(pi_k) if x} for pi_k in pi
        ], name
        assert all(
            not any(sum(pi_k[col] * x for col, x in row.items()) for pi_k in pi)
            for row in pres.r_rows
        ), name
        assert schur_multiplier_dim(algebra) == ce_multiplier_dim(algebra), name
        assert exterior_square_dim(algebra) == wedge_dim(algebra), name
        assert exterior_center(algebra) == _oracle_center(algebra), name


def test_exterior_center_eliminates_only_inside_L(monkeypatch):
    # once the core L0 of L = L0 + A(k) is presented, Z^(L0) lifts L0's
    # basis by Hall words and reduces modulo [F,R], and Z^(L) is a kernel
    # over L2's rows: no echelon may be wider than L itself (an echelon
    # of [pi | I] would be dim F' + dim L wide)
    rng = random.Random(20261018)
    dense = _unitriangular(catalog_get("L5_7+A(3)"), rng)
    rational = random_basis_change(catalog_get("L6_22(1/2)+A(1)"), rng)
    assert rational._den > 1
    init = SpanBuilder.__init__
    for algebra in (dense, rational):
        schur_multiplier_dim(algebra)
        ambients = []

        def record(self, ambient):
            ambients.append(ambient)
            init(self, ambient)

        monkeypatch.setattr(SpanBuilder, "__init__", record)
        zext = exterior_center(algebra)
        monkeypatch.setattr(SpanBuilder, "__init__", init)
        assert ambients and max(ambients) <= algebra.dim, ambients
        assert zext.ambient == algebra.dim


def test_exterior_center_known_values():
    assert exterior_center(abelian(1)) == Subspace.full(1)
    assert exterior_center(abelian(2)).dim == 0
    assert exterior_center(heisenberg(1)).dim == 0
    # H(2): not capable, and the whole center is the obstruction
    assert exterior_center(heisenberg(2)) == heisenberg(2).center()


def test_capability_known_values():
    assert not is_capable(abelian(1))
    assert is_capable(abelian(2))
    assert is_capable(heisenberg(1))
    assert not is_capable(heisenberg(2))
    assert is_capable(catalog_get("L5_8"))


def test_kunneth_direct_sums():
    base = catalog_get("L5_7")
    ab_dim = 2
    for k in range(0, 4):
        total = direct_sum(base, abelian(k))
        expected = 3 + k * (k - 1) // 2 + k * ab_dim
        # the unsplit engine: schur_multiplier_dim applies the formula
        assert present_minimal(total).dim_multiplier == expected, k
    assert present_minimal(catalog_get("L5_8+A(1)")).dim_multiplier == 9


def test_abelian_algebras_split_without_a_presentation(monkeypatch, capsys):
    # A(n) splits as the zero algebra plus A(n): C(n,2) by the Kunneth
    # formula and Z^ from the dimension <= 1 base case, with no free
    # algebra built, so A(100) answers under the 5000-word Hall cap
    def refuse(d, s):
        raise AssertionError(f"presented a free algebra on {d} generators")

    enumerate_catalog(1)  # the catalog gates present their witnesses
    monkeypatch.setattr("schurlab.multiplier.free_nilpotent_algebra", refuse)
    for n in [*range(9), 100]:
        algebra = abelian(n)
        want = n * (n - 1) // 2
        assert schur_multiplier_dim(algebra) == want, n
        assert exterior_square_dim(algebra) == want, n
        zext = Subspace.full(1) if n == 1 else Subspace.zero(n)
        assert exterior_center(algebra) == zext, n
        assert is_capable(algebra) == (n != 1), n
    code = main(["multiplier", "--name", "A(100)", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["dim_M"], doc["capable"]) == (0, 4950, True)


def test_split_matches_unsplit_engine_and_oracles():
    # every base+A(k) entry up to dimension 7 in two random bases and a
    # dense one: the split route (the Kunneth formula for dim M, Z^
    # pulled back from the core) against the whole algebra presented by
    # the unsplit engine, the Chevalley-Eilenberg multiplier and the
    # Lambda^2 exterior center.  In the dense basis L2 meets the pivot
    # columns of the split-off complement, so a Z^ lifted from the core
    # without the pull-back to L2 would differ.  A(1)..A(7) split too,
    # with the zero algebra as the core.
    rng = random.Random(20261019)
    sums = [(name, L) for name, L in enumerate_catalog(7) if "+A(" in name]
    assert len(sums) == 22
    for name, base in sums + [(f"A({k})", abelian(k)) for k in range(1, 8)]:
        for make in (random_basis_change, random_basis_change, _unitriangular):
            algebra = make(base, rng)
            pres = present_minimal(algebra)
            dim_m = schur_multiplier_dim(algebra)
            assert _split(algebra), name
            assert dim_m == pres.dim_multiplier == ce_multiplier_dim(algebra), name
            assert exterior_square_dim(algebra) == pres.dim_exterior_square, name
            assert exterior_center(algebra) == _oracle_center(algebra), name
            assert schur_multiplier(algebra)[0] == dim_m, name


def test_zero_algebra():
    zero = abelian(0)
    assert schur_multiplier_dim(zero) == 0
    assert exterior_square_dim(zero) == 0
    assert exterior_center(zero).dim == 0
    assert is_capable(zero)


def test_ganea_check_validates_input():
    L = heisenberg(1)
    with pytest.raises(NotOneDimensional):
        ganea_dimension_check(L, Subspace.zero(3))
    with pytest.raises(NotCentral):
        ganea_dimension_check(L, Subspace([[1, 0, 0]], 3))


def test_ganea_on_center_lines(catalog6):
    for name, algebra in catalog6:
        for row in algebra.center().rows:
            report = ganea_dimension_check(
                algebra, Subspace([row], algebra.dim)
            )
            assert report.consistent, (name, row)


def test_ganea_equality_cases():
    # center line inside the exterior center: equality
    L = heisenberg(2)
    report = ganea_dimension_check(L, L.center())
    assert report.n_in_exterior_center
    assert report.lhs == report.rhs == 6
    # capable algebra: no line is in the exterior center, so always <
    L = heisenberg(1)
    report = ganea_dimension_check(L, L.center())
    assert not report.n_in_exterior_center
    assert report.lhs != report.rhs


def test_report_fields():
    report = multiplier_report(catalog_get("L5_8"))
    assert (report.n, report.m, report.c, report.d) == (5, 2, 2, 3)
    assert report.dim_M == 6
    assert report.dim_exterior_square == 8
    assert report.capable
    assert report.bound_e1 == 6
    assert report.bound_e2 == 6
    assert report.attains_e2
    abelian_report = multiplier_report(abelian(3))
    assert abelian_report.bound_e1 is None
    assert abelian_report.bound_e2 is None
    assert abelian_report.attains_e2 is None
    assert abelian_report.dim_M == 3


def test_invariance_under_basis_change_spot():
    rng = random.Random(20260815)
    for name in ("L5_9", "H(2)", "L6_22(1/2)"):
        base = catalog_get(name)
        want = (
            schur_multiplier_dim(base),
            exterior_square_dim(base),
            exterior_center(base).dim,
            is_capable(base),
        )
        for _ in range(5):
            other = random_basis_change(base, rng)
            got = (
                schur_multiplier_dim(other),
                exterior_square_dim(other),
                exterior_center(other).dim,
                is_capable(other),
            )
            assert got == want, name


def test_presentation_cached():
    L = catalog_get("L5_9")
    assert present_minimal(L) is present_minimal(L)


def test_split_reuses_the_memoised_complement():
    # series() counts k with the central complement and the split
    # quotients by it: one subspace, built once per algebra
    L = random_basis_change(catalog_get("L5_7+A(2)"), random.Random(24))
    assert L.series().central_complement_dim == 2
    assert _split(L).ideal is L._central_complement()
    assert L.series() is L.series()
    assert present_minimal(L) is present_minimal(L)
    assert gamma_images(L) is gamma_images(L)


def test_a_raising_call_is_not_memoised():
    L = LieAlgebra(2, {(0, 1): {1: 1}})
    for _ in range(2):
        with pytest.raises(NotNilpotent):
            L.lower_central_series()
        with pytest.raises(NotNilpotent):
            L.series()
    wide = abelian(100)
    for _ in range(2):
        with pytest.raises(ResourceCapExceeded):
            present_minimal(wide)


def test_fraction_scalars_throughout():
    L = catalog_get("L6_22(1/2)")
    pres = present_minimal(L)
    for row in pres.r.rows:
        assert all(isinstance(x, Fraction) for x in row)
    zext = exterior_center(L)
    for row in zext.rows:
        assert all(isinstance(x, Fraction) for x in row)
