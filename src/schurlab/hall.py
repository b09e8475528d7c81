"""Hall bases and free nilpotent Lie algebras.

The free nilpotent Lie algebra F(d, s) on generators x1..xd of class s
has a basis of Hall words of degree at most s; the number of words of
degree k is the Witt number (1/k)*sum_{j|k} mu(j) d^(k/j).

Hall words are binary trees.  With words totally ordered by position
(degree first, then creation order), [u, v] is a Hall word exactly when
u and v are Hall words, u < v, and v is either a generator or has its
left subtree <= u.

To express an arbitrary bracket of basis words in the Hall basis, each
word is realised as a noncommutative polynomial in the tensor algebra
([u, v] expands to uv - vu), a tensor word of degree k on d generators
held as its base-d integer.  The polynomials of one degree's Hall words
are echelonised by ``linalg.SpanBuilder``, each with a tag column of its
own after every tensor word, so reducing a bracket polynomial leaves
-scale times its Hall coordinates in the tag columns.  The elimination
doubles as a certificate: it verifies the Hall words are linearly
independent, that every bracket lies in their span, and that every
structure constant is an integer.  The Jacobi validator on the
assembled algebra is kept as an independent test-side oracle.
"""

from fractions import Fraction

from .errors import InvariantMismatch, Record, ResourceCapExceeded
from .liealg import LieAlgebra
from .linalg import SpanBuilder

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


def _check_size(d, s, cap):
    """Reject a free nilpotent algebra whose Witt sum exceeds ``cap``."""
    if d < 1 or s < 1:
        raise ValueError("a free nilpotent algebra needs d >= 1 and s >= 1")
    total = sum(witt_dim(d, k) for k in range(1, s + 1))
    if total > cap:
        raise ResourceCapExceeded(
            f"free nilpotent algebra on {d} generators of class {s} "
            f"needs {total} basis words (cap {cap})"
        )


def hall_basis(d, s, cap=DEFAULT_BASIS_CAP):
    """The Hall words of degree <= s on d generators, in basis order."""
    _check_size(d, s, cap)
    return _build_words(d, s)


class FreeNilpotentAlgebra:
    """Free nilpotent Lie algebra on d generators of class s.

    ``basis`` lists the Hall words; brackets of basis words are
    computed on demand and memoised (``product`` sparse, ``collect``
    dense).  ``algebra`` assembles the full structure-constant table as
    a LieAlgebra, also on demand.
    """

    def __init__(self, d, s, cap=DEFAULT_BASIS_CAP):
        self.generators = d
        self.class_bound = s
        self.basis = hall_basis(d, s, cap=cap)
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
        self._word_index = {
            (w.left, w.right): w.position
            for w in self.basis
            if w.gen is None
        }
        self._polys = {}
        self._solvers = {}
        self._table = {}
        self._lie = None

    def _poly_of(self, pos):
        poly = self._polys.get(pos)
        if poly is None:
            word = self.basis[pos]
            if word.gen is not None:
                poly = {word.gen: 1}
            else:
                poly = self._bracket_of(word.left, word.right)
            self._polys[pos] = poly
        return poly

    def _bracket_of(self, a, b):
        """poly(a) poly(b) - poly(b) poly(a), where the concatenation uv
        of base-d words is u * d^deg(v) + v."""
        shift_a = self.generators ** self.basis[a].degree
        shift_b = self.generators ** self.basis[b].degree
        out = {}
        for wa, ca in self._poly_of(a).items():
            for wb, cb in self._poly_of(b).items():
                key = wa * shift_b + wb
                out[key] = out.get(key, 0) + ca * cb
                key = wb * shift_a + wa
                out[key] = out.get(key, 0) - ca * cb
        return {key: c for key, c in out.items() if c}

    def _solver(self, degree):
        """The echelon of the degree's Hall words: the row of word
        ``pos`` is its polynomial plus the tag column d^degree + pos.

        A new pivot in the tag block means the polynomial reduced to
        zero, so the words are dependent; ``add``'s result cannot tell,
        since the tag column always raises the rank.
        """
        solver = self._solvers.get(degree)
        if solver is None:
            top = self.generators ** degree
            solver = SpanBuilder(top + self.dim)
            for pos in self.degree_offsets[degree]:
                solver.add({**self._poly_of(pos), top + pos: 1})
                if next(reversed(solver.rows)) >= top:
                    raise InvariantMismatch(
                        "Hall-word tensor polynomials are linearly dependent"
                    )
            self._solvers[degree] = solver
        return solver

    def _coordinates(self, degree, poly):
        """Integer Hall coordinates of a polynomial of that degree."""
        top = self.generators ** degree
        residual, scale = self._solver(degree).reduce(poly)
        out = {}
        for col, val in residual.items():
            if col < top:
                raise InvariantMismatch(
                    "bracket polynomial does not lie in the Hall span"
                )
            q, r = divmod(-val, scale)
            if r:
                raise InvariantMismatch("non-integer structure constant")
            out[col - top] = q
        return out

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
            degree = self.basis[a].degree + self.basis[b].degree
            if degree > self.class_bound:
                cached = {}
            else:
                pos = self._word_index.get(key)
                if pos is not None:
                    cached = {pos: 1}
                else:
                    cached = self._coordinates(degree, self._bracket_of(a, b))
            self._table[key] = cached
        return cached

    def collect(self, a, b):
        """[basis_a, basis_b] as a dense coordinate tuple."""
        if not (0 <= a < self.dim and 0 <= b < self.dim):
            raise ValueError("Hall word index out of range")
        out = [Fraction(0)] * self.dim
        for k, v in self.product(a, b).items():
            out[k] = Fraction(v)
        return tuple(out)

    @property
    def algebra(self) -> LieAlgebra:
        """The underlying LieAlgebra with the full bracket table."""
        if self._lie is None:
            brackets = {}
            for a in range(self.dim):
                for b in range(a + 1, self.dim):
                    prod = self.product(a, b)
                    if prod:
                        brackets[(a, b)] = prod
            self._lie = LieAlgebra(
                self.dim,
                brackets,
                name=f"F({self.generators},{self.class_bound})",
            )
        return self._lie

    def __repr__(self):
        return (
            f"FreeNilpotentAlgebra(d={self.generators}, "
            f"s={self.class_bound}, dim={self.dim})"
        )


_FREE_CACHE = {}


def free_nilpotent_algebra(d, s, cap=DEFAULT_BASIS_CAP):
    """The free nilpotent algebra on d generators of class s (cached)."""
    _check_size(d, s, cap)
    key = (d, s)
    cached = _FREE_CACHE.get(key)
    if cached is None:
        cached = FreeNilpotentAlgebra(d, s, cap=cap)
        _FREE_CACHE[key] = cached
    return cached
