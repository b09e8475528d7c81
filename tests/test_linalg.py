import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational

from schurlab.errors import SingularMatrix
from schurlab.linalg import (
    SpanBuilder,
    Subspace,
    axpy,
    frac,
    int_row,
    invert,
    kernel_basis,
)

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=3
)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n),
            min_size=1,
            max_size=max_rows,
        )
    )


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)
    assert frac("3/2") == Fraction(3, 2)


def test_int_row_primitive():
    row = [Fraction(1, 2), Fraction(-3, 4), Fraction(0)]
    assert int_row(row) == {0: 2, 1: -3}
    assert int_row([Fraction(0)] * 3) == {}
    assert int_row([4, "6", 0, -2]) == {0: 2, 1: 3, 3: -1}


sparse_rows = st.dictionaries(
    st.integers(0, 7), st.integers(-3, 3).filter(bool), max_size=6
)


@given(sparse_rows, st.integers(-3, 3), sparse_rows, st.data())
@settings(max_examples=200, deadline=None)
def test_axpy_matches_dense_arithmetic(out, c, row, data):
    # some entries of out are set to cancel c * row exactly
    if c and row:
        for k in data.draw(st.sets(st.sampled_from(sorted(row)))):
            out[k] = -c * row[k]
    dense = [out.get(k, 0) + c * row.get(k, 0) for k in range(8)]
    before = dict(row)
    result = axpy(out, c, row)
    assert result is out
    assert result == {k: x for k, x in enumerate(dense) if x}
    assert row == before


def test_subspace_canonical_equality():
    a = Subspace([[1, 2, 0], [0, 0, 1]], 3)
    b = Subspace([[2, 4, 2], [0, 0, -5], [1, 2, 1]], 3)
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2
    # span(e1, e3, e4) in Q^4 built four ways; the SpanBuilder rows
    # hold their keys in another order than the kernel rows
    builder = SpanBuilder(4)
    for row in ({3: 2, 2: 1, 0: 3}, {3: 1, 0: 1}, {2: 4, 3: -1}):
        builder.add(row)
    ways = [
        Subspace([[1, 0, Fraction(1, 2), 0], [0, 0, 3, -1], [1, 0, 0, 1]], 4),
        builder.subspace(),
        kernel_basis([[0, Fraction(2, 3), 0, 0]]),
        Subspace.coordinate([3, 0, 2, 0], 4),
    ]
    for s in ways:
        assert s == ways[0] and hash(s) == hash(ways[0])
        assert s.rows == ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert tuple(s.echelon) == (0, 2, 3)
    # a space not spanned by basis vectors, three ways
    c = Subspace([[2, -4, 6, 0], [0, 0, 0, 5]], 4)
    builder = SpanBuilder(4)
    builder.add({3: 7, 2: 9, 0: 3, 1: -6})
    builder.add({3: -1})
    assert builder.subspace() == c
    assert kernel_basis([[2, 1, 0, 0], [3, 0, -1, 0]]) == c
    assert hash(builder.subspace()) == hash(c)
    assert c.rows == ((1, -2, 3, 0), (0, 0, 0, 1))
    assert all(type(x) is Fraction for row in c.rows for x in row)


def test_nonpivots_complement_the_pivots():
    assert Subspace([[1, 1]], 2).nonpivots() == [1]
    assert Subspace([[0, 2, 1, 0], [0, 0, 1, 1]], 4).nonpivots() == [0, 3]
    assert Subspace.zero(3).nonpivots() == [0, 1, 2]
    assert Subspace.full(3).nonpivots() == []


def test_subspace_reduce_contains_coords():
    s = Subspace([[1, 0, 2], [0, 1, -1]], 3)
    assert s.contains([1, 1, 1])
    assert not s.contains([0, 0, 1])
    assert s.coords([2, 3, 1]) == (Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        s.coords([0, 0, 1])
    # Fraction vectors with non-unit denominators against sympy: the
    # residual is zero at every pivot and vec - residual lies in the span
    import random

    rng = random.Random(5)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))

    for dim in (0, 1, 2, 4):
        rows = [[rational() for _ in range(5)] for _ in range(dim)]
        sub = Subspace(rows, 5)
        assert sub.dim == _sympy_rank(rows, 5)
        for _ in range(6):
            vec = [rational() for _ in range(5)]
            residual = sub.reduce(vec)
            assert all(type(x) is Fraction for x in residual)
            assert not any(residual[p] for p in sub.echelon)
            diff = [x - r for x, r in zip(vec, residual)]
            assert _sympy_rank(rows + [diff], 5) == sub.dim
            assert sub.reduce([str(x) for x in vec]) == residual
            # an integer sequence goes through the same reduction
            ints = [rng.randint(-4, 4) for _ in range(5)]
            assert sub.reduce(ints) == sub.reduce([Fraction(x) for x in ints])
    with pytest.raises(ValueError):
        s.reduce([1, 0])


def test_subspace_sum_and_intersection():
    a = Subspace([[1, 0, 0], [0, 1, 0]], 3)
    b = Subspace([[0, 1, 0], [0, 0, 1]], 3)
    assert (a + b).dim == 3
    meet = a & b
    assert meet == Subspace([[0, 1, 0]], 3)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_intersection_dimension_formula(rows):
    n = len(rows[0])
    half = max(1, len(rows) // 2)
    a = Subspace(rows[:half], n)
    b = Subspace(rows[half:] or [rows[0]], n)
    assert (a & b).dim == a.dim + b.dim - (a + b).dim
    assert (a & b) <= a and (a & b) <= b
    assert a <= (a + b)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_subspace_invariant_under_row_operations(rows):
    n = len(rows[0])
    s = Subspace(rows, n)
    mixed = [
        [2 * x for x in rows[0]],
    ] + [
        [x + y for x, y in zip(row, rows[0])] for row in rows[1:]
    ]
    assert Subspace(mixed + rows, n) == Subspace(rows + mixed, n)
    assert Subspace(list(reversed(rows)), n) == s


def _sympy(rows):
    return Matrix(
        [[Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_annihilates_and_complements_rank(rows):
    n = len(rows[0])
    ker = kernel_basis(rows, ncols=n)
    assert ker.dim == n - _sympy(rows).rank()
    for vec in ker.rows:
        assert all(
            sum(r * v for r, v in zip(row, vec)) == 0 for row in rows
        )


def _sympy_kernel(rows, n):
    """The canonical basis of the kernel by sympy: nullspace, then RREF."""
    null = _sympy(rows).nullspace()
    if not null:
        return ()
    basis, _ = Matrix.hstack(*null).T.rref()
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in basis.row(i))
        for i in range(len(null))
    )


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(
            st.one_of(
                st.lists(rationals, min_size=n, max_size=n),
                st.just([Fraction(0)] * n),
            ),
            min_size=1,
            max_size=4,
        )
    ),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_kernel_basis_is_canonical(rows, dependent):
    # wide matrices up to 4 x 12, zero rows, rational entries, and (with
    # ``dependent``) a last row that is a combination of the first two
    n = len(rows[0])
    if dependent and len(rows) >= 3:
        rows[-1] = [2 * x - Fraction(1, 3) * y for x, y in zip(rows[0], rows[1])]
    assert kernel_basis(rows, ncols=n).rows == _sympy_kernel(rows, n)


def test_kernel_basis_is_canonical_examples():
    cases = [
        [[1, 2, 3], [0, 1, 1]],
        [[1, 2, 3, 4], [2, 4, 6, 8]],
        [[0, 0, 0, 0, 0]],
        [[0, 1, 0, 2], [0, 0, 0, 0], [0, 2, 0, 4]],
        [[Fraction(1, 2), Fraction(-2, 3), 0, 1, 0, 0, 3, 0, 0, 0, 0, 1]],
    ]
    for rows in cases:
        rows = [[Fraction(x) for x in row] for row in rows]
        assert kernel_basis(rows).rows == _sympy_kernel(rows, len(rows[0]))


def test_spanbuilder_integer_reduce_linearity():
    builder = SpanBuilder(3)
    builder.add({0: 2, 1: 4, 2: 0})
    builder.add({2: 3})
    vec = {0: 1, 1: 3, 2: 5}
    residual, scale = builder.reduce(vec)
    assert scale > 0
    # residual == scale * vec modulo the span
    check = {k: scale * x - residual.get(k, 0) for k, x in vec.items()}
    assert builder.contains(check)
    assert builder.subspace() == Subspace([[1, 2, 0], [0, 0, 1]], 3)


def test_spanbuilder_add_reports_novelty():
    builder = SpanBuilder(2)
    assert builder.add({0: 1, 1: 1})
    assert not builder.add({0: 2, 1: 2})
    assert not builder.add({0: 0, 1: 0})
    assert builder.add({0: 1, 1: 0})
    assert builder.rank == 2


def _int_rows(n):
    dense = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    sparse = st.lists(
        st.one_of(st.just(0), st.just(0), st.integers(-5, 5)),
        min_size=n,
        max_size=n,
    )
    return st.one_of(dense, sparse, st.just([0] * n))


@st.composite
def _spanbuilder_case(draw):
    n = draw(st.integers(0, 8))
    rows = draw(st.lists(_int_rows(n), max_size=6))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    vecs = draw(st.lists(_int_rows(n), min_size=1, max_size=3))
    if rows and draw(st.booleans()):
        # a vector inside the span, scaled
        vecs.append([3 * x - y for x, y in zip(rows[0], rows[-1])])
    keep_zeros = draw(st.booleans())
    return n, rows, vecs, keep_zeros


def _as_dict(row, keep_zeros):
    return {c: x for c, x in enumerate(row) if x or keep_zeros}


def _sympy_rank(rows, n):
    if not rows or n == 0:
        return 0
    return Matrix(rows).rank()


@given(_spanbuilder_case())
@settings(max_examples=150, deadline=None)
def test_spanbuilder_dict_rows_match_sympy(case):
    # dict rows (with explicit zero entries when ``keep_zeros``) give
    # sympy's rank and RREF; reduce and contains agree with sympy's ranks
    n, rows, vecs, keep_zeros = case
    builder = SpanBuilder(n)
    for i, row in enumerate(rows):
        grew = _sympy_rank(rows[: i + 1], n) > _sympy_rank(rows[:i], n)
        assert builder.add(_as_dict(row, keep_zeros)) == grew
    assert builder.rank == _sympy_rank(rows, n)
    for pivot, row in builder.rows.items():
        assert min(row) == pivot and row[pivot] > 0
        assert all(row.values())
        assert gcd(*row.values()) == 1
    if rows and n:
        rref, _ = Matrix(rows).rref()
        want = tuple(
            tuple(Fraction(int(x.p), int(x.q)) for x in rref.row(i))
            for i in range(builder.rank)
        )
    else:
        want = ()
    assert builder.subspace().rows == want

    rank = builder.rank
    for vec in vecs:
        row = _as_dict(vec, keep_zeros)
        residual, scale = builder.reduce(row)
        assert row == _as_dict(vec, keep_zeros)  # the input is not changed
        # only nonzero entries, in column order
        assert all(residual.values()) and list(residual) == sorted(residual)
        assert scale > 0
        inside = _sympy_rank(rows + [vec], n) == rank
        assert (not residual) == inside == builder.contains(row)
        # residual == scale * vec modulo the span
        diff = [scale * x - residual.get(c, 0) for c, x in enumerate(vec)]
        assert _sympy_rank(rows + [diff], n) == rank
        assert not any(p in residual for p in builder.rows)


def _jordan_case(rng, kind, n):
    """Seeded integer rows in Q^n: dense, sparse, or with a non-unit
    leading entry in every row."""
    rows = []
    for _ in range(rng.randint(1, 8)):
        if kind == "dense":
            row = {c: rng.randint(-9, 9) for c in range(n)}
        elif kind == "sparse":
            cols = rng.sample(range(n), rng.randint(0, min(2, n)))
            row = {c: rng.choice((-1, 1, 2)) for c in cols}
        else:
            lead = rng.randrange(n)
            row = {lead: rng.choice((-6, -4, -3, -2, 2, 3, 4, 6))}
            row.update({c: rng.randint(-5, 5) for c in range(lead + 1, n)})
        rows.append({c: x for c, x in row.items() if x})
    return rows


def test_jordan_phase_gives_the_canonical_echelon():
    # every row of reduced() is primitive, positive at its pivot and zero
    # at every other pivot, and the rows span what was added
    rng = random.Random(29)
    non_unit = 0
    for case in range(600):
        kind = ("dense", "sparse", "non-unit")[case % 3]
        n = rng.randint(1, 10)
        rows = _jordan_case(rng, kind, n)
        builder = SpanBuilder(n)
        for row in rows:
            builder.add(row)
        pivots, reduced = builder.reduced()
        assert pivots == sorted(builder.rows)
        for p, row in zip(pivots, reduced):
            assert min(row) == p and row[p] > 0
            assert all(row.values()) and gcd(*row.values()) == 1
            assert not any(q in row for q in pivots if q != p)
            non_unit += row[p] > 1
        dense = [[row.get(c, 0) for c in range(n)] for row in rows]
        assert Subspace(dense, n).echelon == dict(zip(pivots, reduced))
        rank = _sympy_rank(dense, n)
        assert len(reduced) == rank
        clean = [[row.get(c, 0) for c in range(n)] for row in reduced]
        assert _sympy_rank(dense + clean, n) == rank
    assert non_unit > 100


def fraction_inverse(matrix):
    """``invert(matrix)``, the pair (den, rows) of den A^-1, read as
    dense tuples of Fractions once its integer contract is checked:
    den > 0 and every stored entry a nonzero int."""
    den, rows = invert(matrix)
    assert type(den) is int and den > 0
    assert all(type(x) is int and x for row in rows for x in row.values())
    n = len(rows)
    return tuple(tuple(Fraction(row.get(k, 0), den) for k in range(n)) for row in rows)


def test_invert_roundtrip_and_singular():
    a = [[1, 2], [3, 4]]
    inv = fraction_inverse(a)
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)]
            for row in inv] == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]
    # row swaps, the empty matrix and rank deficiency in a later column
    assert fraction_inverse([[0, 1], [1, 0]]) == ((0, 1), (1, 0))
    assert fraction_inverse([[0, 2], [Fraction(1, 3), 5]]) == (
        (Fraction(-15, 2), 3),
        (Fraction(1, 2), 0),
    )
    assert fraction_inverse([]) == ()
    # the integer pair itself: den is the lcm of the pivot entries
    assert invert([[0, 2], [Fraction(1, 3), 5]]) == (2, [{0: -15, 1: 6}, {0: 1}])
    assert invert([]) == (1, [])
    for singular in (
        [[1, 2], [2, 4]],
        [[0]],
        [[0, 0], [0, 0]],
        [[1, 2, 3], [0, 1, 1], [1, 3, 4]],
    ):
        with pytest.raises(SingularMatrix):
            invert(singular)
    with pytest.raises(ValueError):
        invert([[1, 0]])


@given(
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(rationals, min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.permutations(range(n)),
        )
    ),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_invert_matches_sympy(case, dependent):
    # sizes 0-5 with zero entries common, so leading zeros that need a
    # row swap occur; ``dependent`` makes one row a combination of two
    rows, perm = case
    n = len(rows)
    if dependent and n >= 3:
        rows[-1] = [2 * x - Fraction(1, 3) * y for x, y in zip(rows[0], rows[1])]
    rows = [rows[i] for i in perm]
    m = _sympy(rows)
    if m.rank() < n:
        with pytest.raises(SingularMatrix):
            invert(rows)
        return
    inv = fraction_inverse(rows)
    assert inv == tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in m.inv().row(i))
        for i in range(n)
    )


def test_zero_and_full_and_coordinate():
    assert Subspace.zero(4).dim == 0
    assert Subspace.full(4).dim == 4
    s = Subspace.coordinate([1, 3], 4)
    assert s.dim == 2 and s.contains([0, 5, 0, -1])


def test_coordinate_rejects_indices_outside_the_ambient_space():
    # an index past the end would give a pivot outside Q^n, and a
    # negative one would wrap round to the last coordinate of ``rows``
    for indices, ambient in (([7], 3), ([-1], 3), ([0, 3], 3), ([-1, 2], 3), ([0], 0)):
        with pytest.raises(ValueError):
            Subspace.coordinate(indices, ambient)
    assert tuple(Subspace.coordinate([2, 0, 2], 3).echelon) == (0, 2)
    assert Subspace.coordinate([], 0) == Subspace.zero(0)
    assert Subspace.coordinate(range(3), 3) == Subspace.full(3)


def test_rational_edges_reject_dict_vectors():
    # a dict with ``ambient`` keys passes every length check, and was
    # read as {column: value} with its columns unchecked, or as the
    # list of its keys; each edge that takes a rational sequence now
    # raises TypeError for one
    from schurlab.catalog import heisenberg

    L = heisenberg(1)
    q = L.quotient(L.center())
    s = Subspace([[1, 0]], 2)
    cases = [
        lambda: Subspace([{0: 1, 5: 1}], 2),
        lambda: Subspace([{0: 1, -1: 1}], 2),
        lambda: s.contains({0: 1, 5: 1}),
        lambda: s.reduce({-1: 1, 0: 1}),
        lambda: kernel_basis([{0: 1, 9: 1}], 2),
        lambda: kernel_basis([{0: 1, 9: 1}]),
        lambda: invert([{0: 1, 1: 1}, [0, 1]]),
        lambda: L.change_basis([{0: 1, 1: 0, 2: 0}, [0, 1, 0], [0, 0, 1]]),
        lambda: q.lift({0: 1, 5: 1}),
    ]
    for case in cases:
        with pytest.raises(TypeError):
            case()
