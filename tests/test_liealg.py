from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab.errors import (
    JacobiViolation,
    NotAnIdeal,
    NotNilpotent,
    SingularMatrix,
)
from schurlab.catalog import abelian, catalog_get, heisenberg
from schurlab.liealg import LieAlgebra, direct_sum
from schurlab.linalg import Subspace, invert

from oracles import literal_change_basis, random_basis_change, unit

# Entries with mixed structure, and L6_22(1/2), whose constants already
# have denominator 2; rational basis changes add more denominators.
REFERENCE_NAMES = ["L4_3", "L5_5", "L5_7", "L5_9", "L6_22(1/2)", "L6_26",
                   "H(2)", "L5_8+A(1)"]


# brackets for dimension 3 that the constructor refuses: the first bad
# input, in the order given, names the error
REFUSED = [
    ({(0, 3): {1: 1}}, ValueError, "bracket index out of range: (0, 3)"),
    ({(-1, 0): {1: 1}}, ValueError, "bracket index out of range: (-1, 0)"),
    # the pair is checked before its coefficients are read
    ({(3, 1): {2: 0.5}}, ValueError, "bracket index out of range: (3, 1)"),
    ({(0, 1): {3: 1}}, ValueError, "target index out of range: 3"),
    ({(0, 1): {2: 1, 3: 0}}, ValueError, "target index out of range: 3"),
    ({(1, 0): {-1: "1/2"}}, ValueError, "target index out of range: -1"),
    ({(0, 0): {1: 1}}, ValueError, "[x1, x1] must vanish"),
    # a vanishing [x_i, x_i] may name any target
    ({(0, 0): {7: 0}, (2, 2): {1: "1/2"}}, ValueError, "[x3, x3] must vanish"),
    ({(0, 1): {2: 1}, (1, 0): {2: 1}}, ValueError,
     "conflicting definitions for [x1, x2]"),
    ({(1, 2): {0: "1/2"}, (2, 1): {0: Fraction(1, 2)}}, ValueError,
     "conflicting definitions for [x2, x3]"),
    ({(0, 1): {2: 1}, (1, 0): {2: 1}, (0, 5): {}}, ValueError,
     "conflicting definitions for [x1, x2]"),
    ({(0, 1): {2: 0.5}, (0, 5): {1: 1}}, TypeError, "floats are not exact: 0.5"),
    ({(1, 2): {0: 1.0}}, TypeError, "floats are not exact: 1.0"),
    ({(1, 1): {2: 0.0}}, TypeError, "floats are not exact: 0.0"),
]


def test_constructor_normalizes_and_rejects():
    a = LieAlgebra(3, {(1, 0): {2: -1}})
    b = LieAlgebra(3, {(0, 1): {2: 1}})
    assert a.sc == b.sc
    for brackets, error, message in REFUSED:
        with pytest.raises(error) as info:
            LieAlgebra(3, brackets)
        assert (type(info.value), str(info.value)) == (error, message), brackets
    # consistent duplicate is fine
    LieAlgebra(3, {(0, 1): {2: 1}, (1, 0): {2: -1}})


# [x1, x2] = 1/2 x3, [x1, x3] = 5/4 x4: its constants have denominator 4
QUARTERS = {(0, 1): {2: Fraction(1, 2)}, (0, 2): {3: Fraction(5, 4)}}


def test_value_is_the_rational_constants_whatever_their_form(empty_memos):
    from schurlab.dsl import parse_presentation

    target = LieAlgebra(4, QUARTERS)
    # the same constants through every route that builds an algebra
    mod_ideal = LieAlgebra(
        5, {(0, 1): {2: Fraction(1, 2)}, (0, 2): {3: -1, 4: Fraction(-1, 4)}}
    )
    # modulo the central 2 x4 + 3 x5, x4 = -3/2 x5, so [x1, x3] = 5/4 x5
    ideal = Subspace([[0, 0, 0, 2, 3]], 5)
    p = [[1, Fraction(1, 3), 0, 2], [0, 1, Fraction(-2, 5), 0],
         [0, 0, 1, Fraction(3, 2)], [0, 0, 0, 1]]
    den, inv_rows = invert(p)
    p_inv = [[Fraction(row.get(k, 0), den) for k in range(4)] for row in inv_rows]
    forms = {
        "ints and Fractions": LieAlgebra(
            4, {(0, 1): {2: Fraction(1, 2), 3: 0}, (0, 2): {3: Fraction(5, 4)},
                (1, 2): {3: 0}}
        ),
        "strings, one pair reversed": LieAlgebra(
            4, {(1, 0): {2: "-1/2"}, (0, 2): {3: "10/8"}}
        ),
        "parsed text": parse_presentation(
            "algebra T dim 4\n[x1, x2] = 2/4*x3\n[x3, x1] = 5/4*x4 - 10/4*x4\n"
        ),
        "quotient": mod_ideal.quotient(ideal).algebra,
        "direct sum": direct_sum(abelian(0), target),
        "change_basis round trip": target.change_basis(p).change_basis(p_inv),
        "integer rows": LieAlgebra._integral(
            4, {(0, 1): (2, {2: 1}), (0, 2): (8, {3: 10})}
        ),
    }
    assert dict(target.sc) == QUARTERS
    # one stored pair, whatever the route: D and the integer table
    assert (target._den, target._table) == (4, {(0, 1): {2: 2}, (0, 2): {3: 5}})
    for label, algebra in forms.items():
        assert algebra == target, label
        assert hash(algebra) == hash(target), label
        assert algebra._memo is target._memo, label
        assert algebra.sc == QUARTERS, label
        assert all(
            type(c) is Fraction for vec in algebra.sc.values() for c in vec.values()
        ), label
    assert target.change_basis(p) != target
    assert LieAlgebra(4, {**QUARTERS, (0, 2): {3: Fraction(5, 3)}}) != target
    # a sum with integer constants is brought to the common denominator
    wide = direct_sum(target, heisenberg(1))
    assert wide == LieAlgebra(7, {**QUARTERS, (4, 5): {6: 1}})
    ints = LieAlgebra(4, {(1, 0): {2: -2, 3: 0}, (0, 2): {3: 4}})
    assert (ints._den, ints._table) == (1, {(0, 1): {2: 2}, (0, 2): {3: 4}})
    assert ints == LieAlgebra._integral(4, {(0, 1): (1, {2: 2}), (0, 2): (1, {3: 4})})
    assert wide.sc[(4, 5)] == {6: Fraction(1)}
    # ``sc`` keeps each row in the order given, zeros dropped
    mixed = LieAlgebra(5, {(0, 1): {4: "1/3", 2: 0, 3: Fraction(-2)}})
    assert list(mixed.sc[(0, 1)].items()) == [(4, Fraction(1, 3)), (3, Fraction(-2))]
    assert LieAlgebra(5, {(0, 1): {3: -2, 4: Fraction(2, 6)}}) == mixed
    # bools count as 0 and 1, and floats are refused, as for Fraction inputs
    assert LieAlgebra(3, {(0, 1): {2: True, 1: False}}) == heisenberg(1)
    assert LieAlgebra(3, {(0, 1): {2: True}}).sc == {(0, 1): {2: Fraction(1)}}
    assert LieAlgebra(3, {(0, 0): {1: False}}) == abelian(3)
    for brackets in ({(0, 1): {2: 0.5}}, {(0, 1): {2: 1.0}}, {(1, 1): {2: 0.0}}):
        with pytest.raises(TypeError, match="floats are not exact"):
            LieAlgebra(3, brackets)


def test_zero_statement_conflicts_in_either_order():
    for brackets in (
        {(0, 1): {}, (1, 0): {2: 1}},
        {(1, 0): {2: 1}, (0, 1): {}},
        {(0, 1): {2: 0}, (1, 0): {2: 1}},
    ):
        with pytest.raises(ValueError, match=r"conflicting .*\[x1, x2\]"):
            LieAlgebra(3, brackets)
    # two agreeing zero statements are accepted and store nothing
    assert LieAlgebra(3, {(0, 1): {2: 0}, (1, 0): {}}).sc == {}


def test_negative_dimension_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        LieAlgebra(-1, {})
    assert LieAlgebra(0, {}).series().min_generators == 0


vectors5 = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    min_size=5,
    max_size=5,
)


@given(vectors5, vectors5, vectors5)
@settings(max_examples=60, deadline=None)
def test_bracket_bilinear_antisymmetric(u, v, w):
    L = catalog_get("L5_9")
    assert L.bracket(u, u) == unit(5)
    assert L.bracket(u, v) == tuple(-x for x in L.bracket(v, u))
    left = L.bracket([a + b for a, b in zip(u, v)], w)
    split = tuple(
        a + b for a, b in zip(L.bracket(u, w), L.bracket(v, w))
    )
    assert left == split


@given(vectors5, vectors5, vectors5)
@settings(max_examples=40, deadline=None)
def test_jacobi_identity_on_elements(u, v, w):
    L = catalog_get("H(2)")
    total = [
        a + b + c
        for a, b, c in zip(
            L.bracket(L.bracket(u, v), w),
            L.bracket(L.bracket(v, w), u),
            L.bracket(L.bracket(w, u), v),
        )
    ]
    assert all(x == 0 for x in total)


def test_validate_catches_violation():
    # both (1,2,3) and (1,2,4) genuinely fail Jacobi here; the checker
    # reports the first in lexicographic order
    L = LieAlgebra(
        4, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 3): {2: 1}}
    )
    with pytest.raises(JacobiViolation) as info:
        L.validate()
    err = info.value
    assert err.triple in ((1, 2, 3), (1, 2, 4))
    # independent hand expansion of the (1,2,4) Jacobiator:
    # [[x1,x2],x4] + [[x2,x4],x1] + [[x4,x1],x2] = 0 + [x3,x1] + 0 = -x4
    n = L.dim
    i, j, k = (x - 1 for x in (1, 2, 4))
    jac = [
        a + b + c
        for a, b, c in zip(
            L.bracket(L.bracket(unit(n, i), unit(n, j)), unit(n, k)),
            L.bracket(L.bracket(unit(n, j), unit(n, k)), unit(n, i)),
            L.bracket(L.bracket(unit(n, k), unit(n, i)), unit(n, j)),
        )
    ]
    assert jac == [0, 0, 0, -1]
    # and the reported residual matches the true Jacobiator of the
    # reported triple
    ri, rj, rk = (x - 1 for x in err.triple)
    true_residual = [
        a + b + c
        for a, b, c in zip(
            L.bracket(L.bracket(unit(n, ri), unit(n, rj)), unit(n, rk)),
            L.bracket(L.bracket(unit(n, rj), unit(n, rk)), unit(n, ri)),
            L.bracket(L.bracket(unit(n, rk), unit(n, ri)), unit(n, rj)),
        )
    ]
    assert list(err.residual) == true_residual
    assert any(true_residual)


def test_series_reports():
    rep = catalog_get("L5_7").series()
    assert rep.gamma_dims == (5, 3, 2, 1, 0)
    assert rep.derived_dim == 3
    assert rep.nilpotency_class == 4
    assert rep.min_generators == 2
    rep = heisenberg(2).series()
    assert rep.gamma_dims == (5, 1, 0)
    assert rep.center_dim == 1
    assert rep.min_generators == 4
    rep = abelian(3).series()
    assert rep.gamma_dims == (3, 0)
    assert rep.nilpotency_class == 1
    assert rep.center_dim == 3


def test_series_of_one_bracket_in_dimension_2000_is_small():
    # the series and the center cost memory in the nonzero brackets,
    # not in n^2
    import tracemalloc

    L = LieAlgebra(2000, {(0, 1): {2: 1}})
    tracemalloc.start()
    try:
        rep = L.series()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.gamma_dims == (2000, 1, 0)
    assert rep.center_dim == 1998
    assert peak < 8 * 2**20


def test_series_of_one_bracket_in_dimension_5000_is_narrow(monkeypatch):
    # counts, not clocks: gamma_2 is spanned from the two basis vectors
    # outside the center, not from all n, and k comes from an n-wide
    # echelon, not a 2n-wide Zassenhaus intersection
    from schurlab.linalg import SpanBuilder

    n = 5000
    L = LieAlgebra(n, {(0, 1): {2: 1}})
    calls = []
    sparse_bracket = LieAlgebra._sparse_bracket

    def count(self, a, b):
        calls.append((a, b))
        return sparse_bracket(self, a, b)

    monkeypatch.setattr(LieAlgebra, "_sparse_bracket", count)
    assert [g.dim for g in L.lower_central_series()] == [n, 1, 0]
    assert len(calls) <= 8, len(calls)
    # the adjoint table has rows for x1 and x2 only, not one per vector
    assert sorted(L._adjoint()) == [0, 1]
    ambients = []
    init = SpanBuilder.__init__

    def record(self, ambient):
        ambients.append(ambient)
        init(self, ambient)

    monkeypatch.setattr(SpanBuilder, "__init__", record)
    assert L.series().central_complement_dim == n - 3
    assert ambients and max(ambients) <= n, max(ambients)


def test_adjoint_index_shares_the_table_rows(empty_memos):
    # one row object per bracket, under both index orders: the readers
    # take the sign from the order, so [x_j, x_i] is the negated row.
    # The index is memoised per value, so its rows are those of the
    # first algebra of that value to build it: here, each L below.
    import random

    rational = random_basis_change(catalog_get("L6_22(1/2)"), random.Random(5))
    assert rational._den > 1
    for L in (heisenberg(3), catalog_get("L5_7"), rational):
        adj = L._adjoint()
        assert {(min(i, j), max(i, j)) for i in adj for j in adj[i]} == set(L._table)
        for (i, j), row in L._table.items():
            assert adj[i][j] is adj[j][i] is row
            assert L._sparse_bracket({i: 1}, {j: 1}) == row
            assert L._sparse_bracket({j: 1}, {i: 1}) == {k: -c for k, c in row.items()}


def test_center_reads_the_kernel_off_without_a_scan_per_column(
    monkeypatch, empty_memos
):
    # counts, not clocks: the center of H(200)+A(200) is the kernel of
    # 400 equations of rank 400, with 201 columns outside the pivots;
    # the kernel rows are read off the reduced echelon without asking
    # each of its rows whether it holds each of those columns
    from schurlab.linalg import SpanBuilder

    tests = []

    class Counted(dict):
        def __contains__(self, key):
            tests.append(key)
            return super().__contains__(key)

    reduced = SpanBuilder.reduced
    ranks = []

    def counted(self):
        pivots, rows = reduced(self)
        ranks.append(len(rows))
        return pivots, [Counted(row) for row in rows]

    monkeypatch.setattr(SpanBuilder, "reduced", counted)
    L = direct_sum(heisenberg(200), abelian(200))
    assert L.center().dim == 201
    assert ranks == [400]
    assert len(tests) == 0, len(tests)


def test_memo_registry_drops_a_value_no_algebra_has(empty_memos):
    import gc

    h, twin = heisenberg(1), heisenberg(1)
    assert h.series() is twin.series()
    assert h.center() is twin.center()
    assert list(empty_memos) == [h]
    del h, twin
    gc.collect()
    assert len(empty_memos) == 0


def test_not_nilpotent():
    L = LieAlgebra(2, {(0, 1): {1: 1}})
    with pytest.raises(NotNilpotent):
        L.lower_central_series()


def test_center_and_derived():
    L = catalog_get("L6_26")
    assert L.center() == L.derived_subspace()
    assert L.center().dim == 3


def test_quotient_heisenberg_mod_center_is_abelian():
    L = heisenberg(2)
    q = L.quotient(L.center())
    assert q.algebra.dim == 4
    assert q.algebra.series().derived_dim == 0
    # projection and section compose to the identity on the quotient
    for t in range(4):
        unit = [Fraction(int(s == t)) for s in range(4)]
        assert list(q.project(q.lift(unit))) == unit
    # wrong lengths are refused, not truncated
    for bad in ([1] * 4, [1] * 6):
        with pytest.raises(ValueError):
            q.project(bad)
    for bad in ([1] * 3, [1] * 5):
        with pytest.raises(ValueError):
            q.lift(bad)


def test_quotient_requires_ideal():
    L = catalog_get("L5_7")
    not_ideal = Subspace([[1, 0, 0, 0, 0]], 5)
    with pytest.raises(NotAnIdeal):
        L.quotient(not_ideal)


def test_quotient_ideal_check_brackets_noncentral_basis(monkeypatch):
    # [x1, x2] = x3 in dimension 40: only x1 and x2 have a nonzero
    # adjoint row, and no row of the central C = <x4, ..., x40> meets
    # them, so checking that C is an ideal takes no bracket at all
    n = 40
    L = LieAlgebra(n, {(0, 1): {2: 1}})
    C = Subspace([[int(i == j) for i in range(n)] for j in range(3, n)], n)
    calls = []
    real = LieAlgebra._sparse_bracket
    monkeypatch.setattr(
        LieAlgebra,
        "_sparse_bracket",
        lambda self, a, b: calls.append(1) or real(self, a, b),
    )
    quotient = L.quotient(C).algebra
    assert len(calls) == 0, len(calls)
    assert quotient.dim == 3 and quotient.sc == {(0, 1): {2: 1}}


def test_quotient_ideal_check_keeps_rows_that_meet_the_noncentral_basis():
    # a row that mixes a noncentral and a central coordinate is still
    # bracketed, and a row on central coordinates alone needs no bracket
    n = 40
    L = LieAlgebra(n, {(0, 1): {2: 1}})

    def unit_sum(i, j):
        return [int(t in (i, j)) for t in range(n)]

    with pytest.raises(NotAnIdeal):
        L.quotient(Subspace([unit_sum(0, 3)], n))
    assert L.quotient(Subspace([unit_sum(2, 3)], n)).algebra.dim == n - 1


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_quotient_bracket_is_projected_bracket(name):
    # the catalog basis, and rational basis changes that give D > 1 and
    # ideals not spanned by basis vectors; with seeds 6 and 23 the
    # reduction of a bracket modulo the ideal carries a scale > 1 for
    # L4_3, L5_7 and L5_9
    import random

    base = catalog_get(name)
    for L in [base] + [random_basis_change(base, random.Random(s)) for s in (6, 23)]:
        for ideal in (L.lower_central_series()[2], L.center()):
            q = L.quotient(ideal)
            q.algebra.validate()
            units = [
                [Fraction(int(s == i)) for s in range(q.algebra.dim)]
                for i in range(q.algebra.dim)
            ]
            for ei in units:
                for ej in units:
                    lhs = q.algebra.bracket(ei, ej)
                    rhs = q.project(L.bracket(q.lift(ei), q.lift(ej)))
                    assert list(lhs) == list(rhs), (name, L.sc)
            with pytest.raises(ValueError):
                q.project([0] * (L.dim - 1))
            with pytest.raises(ValueError):
                q.lift([0] * (q.algebra.dim + 1))


def test_quotient_reduces_against_the_ideal_echelon(monkeypatch):
    # the ideal's echelon is already canonical, so quotient reduces
    # against it as it stands and builds no SpanBuilder; with every
    # ideal built first, a builder that raises changes no quotient
    import random

    rng = random.Random(11)
    algebras = []
    for name in REFERENCE_NAMES + ["L4_3+A(2)", "A(3)"]:
        base = catalog_get(name)
        algebras += [base, random_basis_change(base, rng)]
    cases = [
        (L, ideal)
        for L in algebras
        for ideal in (L.center(), L._central_complement())
    ]
    want = [L.quotient(ideal) for L, ideal in cases]

    def no_builder(ambient):
        raise AssertionError("quotient built a SpanBuilder")

    monkeypatch.setattr("schurlab.liealg.SpanBuilder", no_builder)
    assert [L.quotient(ideal) for L, ideal in cases] == want
    assert any(ideal.dim and L._den > 1 for L, ideal in cases)


def test_direct_sum_series_adds():
    a = catalog_get("L5_8")
    b = abelian(2)
    s = direct_sum(a, b)
    assert s.name == "L5_8+A(2)"
    rep = s.series()
    assert rep.gamma_dims == (7, 2, 0)
    assert rep.center_dim == a.series().center_dim + 2
    s.validate()


def test_change_basis_keeps_invariants():
    import random

    L = catalog_get("L5_5")
    rng = random.Random(7)
    for _ in range(5):
        other = random_basis_change(L, rng)
        other.validate()
        assert other.series() == L.series()


@pytest.mark.parametrize("name", ["L6_22(1/2)", "L5_7+A(2)", "H(2)"])
def test_change_basis_matches_literal_definition(name):
    # seeded invertible P whose nonzero entries mostly have non-unit
    # denominators; L6_22(1/2) has D = 2, so the adjoint table is scaled
    import random

    from sympy import Matrix

    L = catalog_get(name)
    assert (L._den > 1) == (name == "L6_22(1/2)")
    n = L.dim
    rng = random.Random(17)
    for _ in range(3):
        while True:
            p = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            if Matrix(p).det():
                break
        assert any(x.denominator > 1 for row in p for x in row)
        assert L.change_basis(p).sc == literal_change_basis(L, p)


def unimodular(n, rng):
    """A seeded n x n integer matrix of determinant +-1: integer shears,
    swaps and sign changes of the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.choice([-2, -1, 1, 2])
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        else:
            rows[i] = [-x for x in rows[i]]
        rows[i], rows[j] = rows[j], rows[i]
    return rows


def test_change_basis_by_an_integer_p_builds_no_fraction(monkeypatch):
    # integers inside: for an integer P, the scaling, the inverse, the
    # brackets and the new table are integer rows and pairs
    import random

    from schurlab import linalg

    rng = random.Random(29)
    cases = []
    for name in ("L6_22(1/2)", "L5_7+A(2)"):
        L = catalog_get(name)
        p = unimodular(L.dim, rng)
        cases.append((L, p, L.change_basis(p)))
        assert cases[-1][2] != L, name
    assert cases[0][0]._den == 2

    def refuse():
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(linalg, "_fraction", refuse)
    for L, p, expected in cases:
        assert L.change_basis(p) == expected, L.name


def test_change_basis_rejects_singular():
    L = abelian(2)
    with pytest.raises(SingularMatrix):
        L.change_basis([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        L.change_basis([[1, 0]])
    with pytest.raises(TypeError):
        L.change_basis([[1, 0], [0.5, 1]])


def literal_bracket_span(L, s, t):
    """[s, t] by its definition: the span of every [a, b]."""
    return Subspace([L.bracket(a, b) for a in s.rows for b in t.rows], L.dim)


@st.composite
def algebra_and_subspaces(draw):
    L = catalog_get(draw(st.sampled_from(REFERENCE_NAMES)))
    if draw(st.booleans()):
        L = random_basis_change(L, draw(st.randoms(use_true_random=False)))
    n = L.dim
    vector = st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        min_size=n,
        max_size=n,
    )
    subspace = st.one_of(
        st.just(Subspace.full(n)),
        st.lists(vector, max_size=3).map(lambda vs: Subspace(vs, n)),
    )
    return L, draw(subspace), draw(subspace)


@given(algebra_and_subspaces())
@settings(max_examples=80, deadline=None)
def test_bracket_subspaces_matches_literal_definition(case):
    L, s, t = case
    assert L.bracket_subspaces(s, t) == literal_bracket_span(L, s, t)


def test_series_and_center_match_literal_definitions():
    import random

    rng = random.Random(11)
    denominators = set()
    for name in REFERENCE_NAMES:
        base = catalog_get(name)
        for L in [base] + [random_basis_change(base, rng) for _ in range(3)]:
            denominators.add(L._den)
            n = L.dim
            full = Subspace.full(n)
            want = [full]
            while want[-1].dim:
                want.append(literal_bracket_span(L, full, want[-1]))
            assert L.lower_central_series() == want, name
            # Z(L) is central, and its dimension is n minus the rank of
            # z -> ([z, x_1], ..., [z, x_n])
            basis = [unit(n, j) for j in range(n)]
            center = L.center()
            assert all(
                not any(L.bracket(z, x)) for z in center.rows for x in basis
            ), name
            ad = Subspace(
                [sum((L.bracket(x, y) for y in basis), ()) for x in basis],
                n * n,
            )
            assert center.dim == n - ad.dim, name
    # the scaled integer table is exercised, not only D = 1
    assert max(denominators) > 1


def test_series_terms_are_brackets_with_the_previous_term(catalog6):
    # the series builds every [x_l, r] of a row r in one pass over the
    # adjoint rows of supp(r), as bracket_subspaces does, so each term
    # is held to the dense Fraction bracket of the literal definition
    import random

    rng = random.Random(7)
    algebras = [random_basis_change(L, rng) for _, L in catalog6]
    for _ in range(6):
        wide = LieAlgebra(0, {})
        for _, part in rng.sample(catalog6, 3):
            wide = wide.direct_sum(part)
        perm = list(range(wide.dim))
        rng.shuffle(perm)
        algebras.append(LieAlgebra(wide.dim, {
            (perm[i], perm[j]): {perm[k]: c for k, c in vec.items()}
            for (i, j), vec in wide.sc.items()
        }))
    for L in algebras:
        full = Subspace.full(L.dim)
        gammas = L.lower_central_series()
        assert gammas[0] == full and gammas[-1].dim == 0
        for previous, term in zip(gammas, gammas[1:]):
            assert term == literal_bracket_span(L, full, previous), L


def first_jacobi_failure(L):
    """The first failing basis triple over all i < j < k, 1-based, and
    its residual; None when the Jacobi identity holds."""
    n = L.dim
    x = [unit(n, i) for i in range(n)]
    br = L.bracket
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac = [
                    a + b + c
                    for a, b, c in zip(
                        br(br(x[i], x[j]), x[k]),
                        br(br(x[j], x[k]), x[i]),
                        br(br(x[k], x[i]), x[j]),
                    )
                ]
                if any(jac):
                    return (i + 1, j + 1, k + 1), tuple(jac)
    return None


def test_validate_sums_images_that_cancel_across_a_bracket():
    # [[x1, x2], x5] = [x3 + x4, x5] is the sum of the images of x3 and
    # x4, which cancel exactly when [x4, x5] = -[x3, x5]
    sc = {(0, 1): {2: 1, 3: 1}, (2, 4): {5: 1}, (3, 4): {5: -1}}
    L = LieAlgebra(6, sc)
    L.validate()
    assert L.series().nilpotency_class == 2
    bad = LieAlgebra(6, {**sc, (3, 4): {5: -2}})
    with pytest.raises(JacobiViolation) as info:
        bad.validate()
    assert info.value.triple == (1, 2, 5)
    assert info.value.residual == (0, 0, 0, 0, 0, -1)
    assert first_jacobi_failure(bad) == ((1, 2, 5), (0, 0, 0, 0, 0, -1))


@pytest.mark.parametrize(
    "bad",
    [
        # a rational bracket of two abelian generators into H(3)
        {(23, 25): {0: Fraction(1, 2), 2: 1}},
        # the last two indices, hitting the centre of H(3)
        {(25, 26): {1: -3}},
        # a bracket from inside H(3) out to the abelian block
        {(0, 26): {3: Fraction(2, 3)}, (20, 21): {26: 1}},
        # fails only through [x8, x9]: the other two pairs of (8, 9, 27)
        # vanish
        {(7, 8): {25: Fraction(3, 2)}, (25, 26): {6: 1}},
    ],
)
def test_validate_matches_brute_force(bad):
    wide = direct_sum(heisenberg(3), abelian(20))
    L = LieAlgebra(wide.dim, {**wide.sc, **bad})
    want = first_jacobi_failure(L)
    assert want is not None
    with pytest.raises(JacobiViolation) as info:
        L.validate()
    assert (info.value.triple, info.value.residual) == want
    assert all(isinstance(c, Fraction) for c in info.value.residual)



@pytest.mark.parametrize("name", ["L5_9", "L6_26+A(1)", "F(2,4)"])
def test_validate_matches_brute_force_on_dense_basis_changes(name):
    # a random basis change fills the brackets with many target columns,
    # so every residual is a sum of many terms that must cancel; one
    # perturbed constant, integer or rational, must then be caught
    import random

    from schurlab.hall import free_nilpotent_algebra

    rng = random.Random(28)
    base = (free_nilpotent_algebra(2, 4).algebra if name == "F(2,4)"
            else catalog_get(name))
    L = random_basis_change(base, rng)
    assert max(len(vec) for vec in L.sc.values()) > 2
    assert first_jacobi_failure(L) is None
    L.validate()
    for delta in (rng.choice((-2, 1, 3)), Fraction(rng.choice((-1, 2)), 3)):
        sc = {key: dict(vec) for key, vec in L.sc.items()}
        vec = sc[rng.choice(sorted(sc))]
        k = rng.randrange(L.dim)
        vec[k] = vec.get(k, 0) + delta
        bad = LieAlgebra(L.dim, sc)
        want = first_jacobi_failure(bad)
        assert want is not None
        with pytest.raises(JacobiViolation) as info:
            bad.validate()
        assert (info.value.triple, info.value.residual) == want


def test_validate_matches_brute_force_on_random_algebras():
    # random sparse rational constants, about half of them Lie algebras;
    # small n is drawn more often, so the passing ones stay cheap to
    # walk by brute force
    import random

    rng = random.Random(10)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        n = min(rng.randint(1, 12), rng.randint(1, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))
        L = LieAlgebra(n, {
            p: {rng.randrange(n): rng.choice((1, -2, Fraction(1, 2)))
                for _ in range(rng.randint(1, 2))}
            for p in chosen
        })
        want = first_jacobi_failure(L)
        outcomes[want is None] += 1
        if want is None:
            L.validate()
            continue
        with pytest.raises(JacobiViolation) as info:
            L.validate()
        assert (info.value.triple, info.value.residual) == want
    assert min(outcomes.values()) > 800


def test_validate_of_one_bracket_in_dimension_20000_is_fast():
    # validate walks the nonzero brackets, not the triples or all n^2
    # pairs
    import time

    L = LieAlgebra(20000, {(0, 1): {2: 1}})
    start = time.perf_counter()
    L.validate()
    assert time.perf_counter() - start < 5
