import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import hall
from schurlab.catalog import catalog_get
from schurlab.errors import InvariantMismatch, ResourceCapExceeded
from schurlab.hall import (
    FreeNilpotentAlgebra,
    HallWord,
    free_nilpotent_algebra,
    hall_basis,
    witt_dim,
)
from schurlab.multiplier import present_minimal, schur_multiplier_dim

from oracles import lyndon_count


def test_witt_values():
    assert [witt_dim(2, k) for k in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert witt_dim(3, 3) == 8
    assert witt_dim(1, 1) == 1 and witt_dim(1, 5) == 0
    with pytest.raises(ValueError):
        witt_dim(0, 1)
    with pytest.raises(ValueError):
        witt_dim(2, 0)


def test_witt_matches_lyndon_brute_force():
    for d in (1, 2, 3):
        for k in range(1, 7):
            assert witt_dim(d, k) == lyndon_count(d, k), (d, k)


def test_hall_basis_counts_match_witt():
    for d in (1, 2, 3):
        for s in range(1, 7):
            words = hall_basis(d, s)
            by_degree = {}
            for w in words:
                by_degree[w.degree] = by_degree.get(w.degree, 0) + 1
            for k in range(1, s + 1):
                assert by_degree.get(k, 0) == witt_dim(d, k), (d, s, k)


def test_hall_basis_small_labels():
    labels = [w.label for w in hall_basis(2, 3)]
    assert labels == [
        "x1",
        "x2",
        "[x1, x2]",
        "[x1, [x1, x2]]",
        "[x2, [x1, x2]]",
    ]


def test_hall_word_structure():
    words = hall_basis(2, 4)
    assert len(words) == 8
    for pos, w in enumerate(words):
        assert w.position == pos
        if w.gen is None:
            assert words[w.left].degree + words[w.right].degree == w.degree
            assert w.left < w.right


def test_resource_cap():
    # F(5, 7) needs 14,569 Hall words, past the cap of 5000
    assert sum(witt_dim(5, k) for k in range(1, 8)) == 14569
    for build in (hall_basis, free_nilpotent_algebra, FreeNilpotentAlgebra):
        with pytest.raises(ResourceCapExceeded) as info:
            build(5, 7)
        assert "needs 14569 basis words (cap 5000)" in str(info.value)
    # a failure is not cached: every call raises again
    for _ in range(2):
        with pytest.raises(ResourceCapExceeded):
            free_nilpotent_algebra(2, 20)


BUILDERS = (hall_basis, FreeNilpotentAlgebra, free_nilpotent_algebra)


def test_resource_cap_builds_no_word(monkeypatch):
    """Past the cap every entry point refuses with the same text before
    it builds a single Hall word."""
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        return HallWord(*args, **kwargs)

    monkeypatch.setattr(hall, "HallWord", spy)
    messages = set()
    for build in BUILDERS:
        with pytest.raises(ResourceCapExceeded) as info:
            build(5, 7)
        messages.add(str(info.value))
    assert messages == {
        "free nilpotent algebra on 5 generators of class 7 "
        "needs 14569 basis words (cap 5000)"
    }
    assert built == []
    assert len(hall_basis(2, 3)) == len(built) == 5  # the spy sees words


def test_degree_blocks_tile_the_basis():
    for d, s in ((1, 4), (2, 5), (3, 4), (5, 3)):
        free = FreeNilpotentAlgebra(d, s)
        blocks = free.degree_offsets
        assert sorted(blocks) == list(range(1, s + 1))
        tiled = [p for k in range(1, s + 1) for p in blocks[k]]
        assert tiled == list(range(free.dim)), (d, s)
        for k, block in blocks.items():
            assert all(free.basis[p].degree == k for p in block), (d, s, k)


def test_free_algebra_satisfies_jacobi():
    for d, s in ((2, 4), (3, 3)):
        free = free_nilpotent_algebra(d, s)
        free.algebra.validate()


def test_free_algebra_grading_and_truncation():
    free = free_nilpotent_algebra(2, 4)
    for a in range(free.dim):
        for b in range(free.dim):
            prod = free.product(a, b)
            da = free.basis[a].degree
            db = free.basis[b].degree
            if da + db > free.class_bound:
                assert prod == {}
            for t in prod:
                assert free.basis[t].degree == da + db
    # antisymmetry of the memoized product
    for a in range(free.dim):
        for b in range(free.dim):
            ab = free.product(a, b)
            ba = free.product(b, a)
            assert ba == {t: -c for t, c in ab.items()}


def test_lower_central_series_is_degree_filtration():
    free = free_nilpotent_algebra(2, 4)
    gammas = free.algebra.lower_central_series()
    for i, gamma in enumerate(gammas[:-1], start=1):
        expected = sum(
            witt_dim(2, k) for k in range(i, free.class_bound + 1)
        )
        assert gamma.dim == expected, i


def test_free_3_2_invariants():
    free = free_nilpotent_algebra(3, 2)
    algebra = free.algebra
    rep = algebra.series()
    assert (algebra.dim, rep.derived_dim, rep.nilpotency_class) == (6, 3, 2)
    assert schur_multiplier_dim(algebra) == 8


def test_instances_cached():
    a = free_nilpotent_algebra(2, 3)
    b = free_nilpotent_algebra(2, 3)
    assert a is b
    assert isinstance(a, FreeNilpotentAlgebra)
    # L5_8 and L6_26 both have 3 generators and class 2, so both are
    # presented over F(3, 3) and share its memoised products
    free = present_minimal(catalog_get("L5_8")).free
    assert free is present_minimal(catalog_get("L6_26")).free
    assert free is free_nilpotent_algebra(3, 3)


@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
)
@settings(max_examples=50, deadline=None)
def test_product_bilinearity_via_product(a, b, c, q):
    """The bracket of (a + q b) with c equals the matching combination
    of the sparse products, read as dense vectors."""
    free = free_nilpotent_algebra(2, 3)
    n = free.dim

    def dense(prod):
        out = [Fraction(0)] * n
        for k, v in prod.items():
            out[k] = Fraction(v)
        return out

    u = [Fraction(0)] * n
    u[a] += 1
    u[b] += q
    lhs = free.algebra.bracket(u, free.algebra.basis_vector(c))
    rhs = [
        x + q * y
        for x, y in zip(dense(free.product(a, c)), dense(free.product(b, c)))
    ]
    assert list(lhs) == rhs


def _commutator(a, b):
    """ab - ba for tensor polynomials keyed by tuples of generators."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
            out[wb + wa] = out.get(wb + wa, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


def _tensor(free, pos):
    word = free.basis[pos]
    if word.gen is not None:
        return {(word.gen,): 1}
    return _commutator(_tensor(free, word.left), _tensor(free, word.right))


def test_products_expand_to_commutators():
    """Each product, expanded in the tensor algebra through the Hall
    trees, is poly(a) poly(b) - poly(b) poly(a), and zero past the
    class: a check that shares no code with ``product``'s rewriting.
    F(2,8) nests the rewriting deepest, F(5,3) has many generators."""
    for d, s in ((2, 6), (3, 4), (4, 3), (2, 8), (5, 3)):
        free = free_nilpotent_algebra(d, s)
        tensors = [_tensor(free, pos) for pos in range(free.dim)]
        for a in range(free.dim):
            for b in range(free.dim):
                prod = free.product(a, b)
                assert all(type(c) is int for c in prod.values())
                if free.basis[a].degree + free.basis[b].degree > s:
                    assert prod == {}, (d, s, a, b)
                    continue
                expanded = {}
                for t, c in prod.items():
                    for w, x in tensors[t].items():
                        expanded[w] = expanded.get(w, 0) + c * x
                expanded = {w: x for w, x in expanded.items() if x}
                assert expanded == _commutator(tensors[a], tensors[b]), (
                    d, s, a, b,
                )


def _table_digest(cases, skip_past_class=False):
    """sha256 of the product tables of F(d, s) for (d, s) in cases, one
    line per pair a < b; past the class the pairs are left out when
    ``skip_past_class`` is set."""
    digest = hashlib.sha256()
    for d, s in cases:
        free = free_nilpotent_algebra(d, s)
        degree = [w.degree for w in free.basis]
        lines = []
        for a in range(free.dim):
            for b in range(a + 1, free.dim):
                if skip_past_class and degree[a] + degree[b] > s:
                    continue
                terms = sorted(free.product(a, b).items())
                lines.append(
                    f"{a} {b} " + " ".join(f"{k}:{v}" for k, v in terms)
                )
        digest.update(("\n".join(lines) + "\n").encode())
    return digest.hexdigest()


def test_product_tables_digest():
    """The product tables of F(2,6), F(3,4) and F(4,3), pinned."""
    assert _table_digest(((2, 6), (3, 4), (4, 3))) == (
        "2e4fcc74a6d622713f0de17df5c813b3f9814bd89f59da71d37d91834b81e207"
    )


def test_deep_product_tables_digest():
    """The products up to the class in F(2,12), F(5,4) and F(7,3),
    pinned from the earlier tensor-algebra elimination: F(2,12) rewrites
    brackets of degree 12."""
    cases = ((2, 12), (5, 4), (7, 3))
    assert _table_digest(cases, skip_past_class=True) == (
        "327c0bbeade6ad906427ea5fdf7985b71beee06083de4eee30fd225c6102a0a5"
    )


def test_witt_miscount_is_an_invariant_mismatch(monkeypatch):
    """A Witt number that disagrees with the words built in its degree
    is refused by every entry point.  It clears the instance cache, so
    it stays last here: memoised presentations keep the instances built
    before, and ``test_instances_cached`` compares those by identity."""
    witt = hall.witt_dim
    monkeypatch.setattr(
        hall, "witt_dim", lambda d, k: witt(d, k) + (k == 3)
    )
    free_nilpotent_algebra.cache_clear()
    try:
        for build in BUILDERS:
            with pytest.raises(InvariantMismatch, match="degree 3"):
                build(2, 4)
    finally:
        free_nilpotent_algebra.cache_clear()
