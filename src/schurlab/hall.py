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
([u, v] expands to uv - vu) and the product polynomial is reduced by
exact integer elimination against the polynomials of the basis words of
the same degree.  The elimination doubles as a certificate: it verifies
the Hall words are linearly independent, and every structure constant
it produces is checked to be an integer.  The Jacobi validator on the
assembled algebra is kept as an independent test-side oracle.
"""

from fractions import Fraction
from math import gcd

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


def _bracket_poly(a, b):
    """ab - ba for sparse integer tensor polynomials."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            c = ca * cb
            key = wa + wb
            val = out.get(key, 0) + c
            if val:
                out[key] = val
            else:
                del out[key]
            key = wb + wa
            val = out.get(key, 0) - c
            if val:
                out[key] = val
            else:
                del out[key]
    return out


class _DegreeSolver:
    """Echelonised tensor polynomials of the Hall words of one degree.

    Rows carry coordinate tracking, so reducing a bracket polynomial to
    zero recovers its exact coefficients over the Hall words.
    """

    def __init__(self):
        self.rows = {}

    def _reduce(self, poly, coords):
        """Eliminate in place; return (scale, leftover pivot or None)."""
        scale = 1
        while poly:
            pivot = min(poly)
            row = self.rows.get(pivot)
            if row is None:
                return scale, pivot
            rpoly, rcoords = row
            a = poly[pivot]
            b = rpoly[pivot]
            g = gcd(a, b)
            ma = a // g
            mb = b // g
            if mb != 1:
                scale *= mb
                for key in poly:
                    poly[key] *= mb
                for key in coords:
                    coords[key] *= mb
            for key, val in rpoly.items():
                new = poly.get(key, 0) - ma * val
                if new:
                    poly[key] = new
                else:
                    poly.pop(key, None)
            for key, val in rcoords.items():
                new = coords.get(key, 0) - ma * val
                if new:
                    coords[key] = new
                else:
                    coords.pop(key, None)
        return scale, None

    def insert(self, position, poly):
        poly = dict(poly)
        coords = {position: 1}
        _, pivot = self._reduce(poly, coords)
        if pivot is None:
            raise InvariantMismatch(
                "Hall-word tensor polynomials are linearly dependent"
            )
        g = 0
        for val in poly.values():
            g = gcd(g, val)
        for val in coords.values():
            g = gcd(g, val)
        if poly[pivot] < 0:
            g = -g
        if g != 1:
            poly = {k: v // g for k, v in poly.items()}
            coords = {k: v // g for k, v in coords.items()}
        self.rows[pivot] = (poly, coords)

    def coordinates(self, poly):
        """Integer Hall coordinates of a bracket polynomial."""
        poly = dict(poly)
        coords = {}
        scale, pivot = self._reduce(poly, coords)
        if pivot is not None:
            raise InvariantMismatch(
                "bracket polynomial does not lie in the Hall span"
            )
        out = {}
        for t, val in coords.items():
            q, r = divmod(-val, scale)
            if r:
                raise InvariantMismatch("non-integer structure constant")
            if q:
                out[t] = q
        return out


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
                poly = {(word.gen,): 1}
            else:
                poly = _bracket_poly(
                    self._poly_of(word.left), self._poly_of(word.right)
                )
            self._polys[pos] = poly
        return poly

    def _solver(self, degree):
        solver = self._solvers.get(degree)
        if solver is None:
            solver = _DegreeSolver()
            for pos in self.degree_offsets[degree]:
                solver.insert(pos, self._poly_of(pos))
            self._solvers[degree] = solver
        return solver

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
                    poly = _bracket_poly(self._poly_of(a), self._poly_of(b))
                    cached = self._solver(degree).coordinates(poly)
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
