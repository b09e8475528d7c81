"""Hall bases and free nilpotent Lie algebras.

The free nilpotent Lie algebra F(d, s) on generators x1..xd of class s
has a basis of Hall words of degree at most s; the number of words of
degree k is the Witt number (1/k)*sum_{j|k} mu(j) d^(k/j).

Hall words are binary trees.  With words totally ordered by position
(degree first, then creation order), [u, v] is a Hall word exactly when
u and v are Hall words, u < v, and v is either a generator or has its
left subtree <= u.

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
    words = []
    by_degree = {1: list(range(d))}
    for g in range(d):
        words.append(
            HallWord(
                position=g,
                degree=1,
                gen=g,
                left=None,
                right=None,
                label=f"x{g + 1}",
            )
        )
    for n in range(2, s + 1):
        pairs = []
        for u_pos in range(len(words)):
            u = words[u_pos]
            need = n - u.degree
            if need < 1:
                continue
            for v_pos in by_degree.get(need, ()):
                if v_pos <= u_pos:
                    continue
                v = words[v_pos]
                if v.gen is not None or v.left <= u_pos:
                    pairs.append((u_pos, v_pos))
        block = []
        for u_pos, v_pos in pairs:
            pos = len(words)
            words.append(
                HallWord(
                    position=pos,
                    degree=n,
                    gen=None,
                    left=u_pos,
                    right=v_pos,
                    label=f"[{words[u_pos].label}, {words[v_pos].label}]",
                )
            )
            block.append(pos)
        by_degree[n] = block
    return words


def hall_basis(d, s):
    """The Hall words of degree <= s on d generators, in basis order;
    raises ResourceCapExceeded past ``DEFAULT_BASIS_CAP`` words."""
    if d < 1 or s < 1:
        raise ValueError("a free nilpotent algebra needs d >= 1 and s >= 1")
    total = sum(witt_dim(d, k) for k in range(1, s + 1))
    if total > DEFAULT_BASIS_CAP:
        raise ResourceCapExceeded(
            f"free nilpotent algebra on {d} generators of class {s} "
            f"needs {total} basis words (cap {DEFAULT_BASIS_CAP})"
        )
    return _build_words(d, s)


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
        self.basis = hall_basis(d, s)
        self.dim = len(self.basis)
        offsets = {}
        start = 0
        for k in range(1, s + 1):
            count = witt_dim(d, k)
            block = range(start, start + count)
            if any(self.basis[p].degree != k for p in block):
                raise InvariantMismatch(
                    f"Hall count in degree {k} disagrees with the "
                    "Witt number"
                )
            offsets[k] = block
            start += count
        if start != self.dim:
            raise InvariantMismatch("Hall counts disagree with Witt numbers")
        self.degree_offsets = offsets
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
        integer dict vec of Hall word coordinates; ``out`` is a new dict
        by default and holds only nonzero entries."""
        if out is None:
            out = {}
        for pos, coeff in vec.items():
            for t, v in self.product(j, pos).items():
                x = out.get(t, 0) + coeff * v
                if x:
                    out[t] = x
                else:
                    del out[t]
        return out

    @property
    def algebra(self) -> LieAlgebra:
        """The underlying LieAlgebra with the full bracket table."""
        brackets = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                prod = self.product(a, b)
                if prod:
                    brackets[(a, b)] = prod
        return LieAlgebra(
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
