"""Hall bases and free nilpotent Lie algebras.

The free nilpotent Lie algebra F(d, s) on generators x1..xd of class s
has a basis of Hall words of degree at most s; the number of words of
degree k is the Witt number (1/k)*sum_{j|k} mu(j) d^(k/j).

Hall words are binary trees.  With words totally ordered by position
(degree first, then creation order), [u, v] is a Hall word exactly when
u and v are Hall words, u < v, and v is either a generator or has its
left subtree <= u.  One pass builds the words degree by degree, and
the range of positions each degree fills is the degree block
(``FreeNilpotentAlgebra.degree_offsets``).  The Witt numbers serve only
the basis-size cap, checked before any word is built, and one
cross-check of each block's length.

Brackets of basis words are collected into Hall words by rewriting:
for a < b = [v1, v2] with a < v1, the Jacobi identity gives
[a, [v1, v2]] = [v1, [a, v2]] + [v2, [v1, a]], whose inner brackets
have lower degree and whose outer brackets have both factors above a,
so the memoised recursion ends in Hall pairs with integer coefficients
(M. Hall, Proc. AMS 1 (1950); Reutenauer, Free Lie Algebras, ch. 4).
"""

from functools import cache

from .errors import InvariantMismatch, Record, ResourceCapExceeded
from .liealg import LieAlgebra
from .linalg import axpy

DEFAULT_BASIS_CAP = 5000


def _mobius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_dim(d, k):
    """Number of Hall words of degree k on d generators."""
    if d < 1 or k < 1:
        raise ValueError("witt_dim needs d >= 1 and k >= 1")
    total = 0
    for j in range(1, k + 1):
        if k % j == 0:
            total += _mobius(j) * d ** (k // j)
    return total // k


class HallWord(Record):
    """One Hall basis word: a generator or a bracket of earlier words.

    ``left`` and ``right`` are positions into the containing basis list
    (None for generators); ``label`` is the bracket string, e.g.
    "[x1, [x1, x2]]".
    """

    position: int
    degree: int
    gen: int
    left: int
    right: int
    label: str


def _build_words(d, s):
    """The Hall words of degree <= s on d generators in basis order,
    and the range of positions each degree fills.

    The Witt numbers are summed for the cap before any word is built,
    then each degree's block is checked against its Witt number.
    """
    if d < 1 or s < 1:
        raise ValueError("a free nilpotent algebra needs d >= 1 and s >= 1")
    counts = [witt_dim(d, k) for k in range(1, s + 1)]
    total = sum(counts)
    if total > DEFAULT_BASIS_CAP:
        raise ResourceCapExceeded(
            f"free nilpotent algebra on {d} generators of class {s} "
            f"needs {total} basis words (cap {DEFAULT_BASIS_CAP})"
        )
    words = [HallWord(g, 1, g, None, None, f"x{g + 1}") for g in range(d)]
    blocks = {1: range(d)}
    for n in range(2, s + 1):
        start = len(words)
        for u in range(start):
            block = blocks[n - words[u].degree]
            for v in range(max(u + 1, block.start), block.stop):
                right = words[v]
                if right.gen is not None or right.left <= u:
                    label = f"[{words[u].label}, {right.label}]"
                    words.append(HallWord(len(words), n, None, u, v, label))
        blocks[n] = range(start, len(words))
    for k, count in enumerate(counts, 1):
        if len(blocks[k]) != count:
            raise InvariantMismatch(
                f"Hall count in degree {k} disagrees with the Witt number"
            )
    return words, blocks


def hall_basis(d, s):
    """The Hall words of degree <= s on d generators, in basis order;
    raises ResourceCapExceeded past ``DEFAULT_BASIS_CAP`` words."""
    return _build_words(d, s)[0]


class FreeNilpotentAlgebra:
    """Free nilpotent Lie algebra on d generators of class s.

    ``basis`` lists the Hall words; brackets of basis words are
    computed on demand and memoised as sparse integer dicts
    (``product``, and ``ad`` against a vector).  ``algebra`` assembles
    the full structure-constant table as a LieAlgebra, built on each
    read.
    """

    def __init__(self, d, s):
        self.generators = d
        self.class_bound = s
        self.basis, self.degree_offsets = _build_words(d, s)
        self.dim = len(self.basis)
        # the products (a, b), a < b, computed so far; Hall pairs to begin
        self._table = {
            (w.left, w.right): {w.position: 1}
            for w in self.basis
            if w.gen is None
        }

    def product(self, a, b):
        """[basis_a, basis_b] as a sparse integer coordinate dict.

        The returned dict is shared and must not be mutated.
        """
        if a == b:
            return {}
        if a > b:
            return {k: -v for k, v in self.product(b, a).items()}
        key = (a, b)
        cached = self._table.get(key)
        if cached is None:
            v = self.basis[b]
            if self.basis[a].degree + v.degree > self.class_bound:
                cached = {}
            else:  # not a Hall pair: b = [v1, v2] with a < v1
                cached = self.ad(v.left, self.product(a, v.right))
                self.ad(v.right, self.product(v.left, a), cached)
            self._table[key] = cached
        return cached

    def ad(self, j, vec, out=None):
        """Add [basis_j, vec] into ``out`` and return it, for a sparse
        integer dict vec of Hall word coordinates: one ``axpy`` of each
        product [basis_j, basis_pos] scaled by vec[pos].  ``out`` is a
        new dict by default and holds only nonzero entries."""
        if out is None:
            out = {}
        for pos, coeff in vec.items():
            axpy(out, coeff, self.product(j, pos))
        return out

    @property
    def algebra(self) -> LieAlgebra:
        """The underlying LieAlgebra with the full bracket table, whose
        rows are the memoised product dicts themselves (D = 1)."""
        brackets = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                prod = self.product(a, b)
                if prod:
                    brackets[(a, b)] = 1, prod
        return LieAlgebra._integral(
            self.dim,
            brackets,
            name=f"F({self.generators},{self.class_bound})",
        )

    def __repr__(self):
        return (
            f"FreeNilpotentAlgebra(d={self.generators}, "
            f"s={self.class_bound}, dim={self.dim})"
        )


@cache
def free_nilpotent_algebra(d, s):
    """The free nilpotent algebra on d generators of class s: one
    instance per (d, s) per process, so every presentation over it
    shares its memoised products."""
    return FreeNilpotentAlgebra(d, s)
