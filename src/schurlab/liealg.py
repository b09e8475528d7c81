"""Finite-dimensional Lie algebras over Q by structure constants.

A ``LieAlgebra`` of dimension n fixes a basis x1..xn and stores the
brackets [x_i, x_j] = sum_k c_ijk x_k for i < j; the bracket extends
antisymmetrically and bilinearly.  The constants are held as D, their
least common denominator, and the integers D c_ijk; ``sc`` is their
Fraction view.  Elements are coordinate vectors (tuples of Fractions).
Coordinates are 0-based in code; only error messages and the
presentation DSL use the 1-based x1..xn labels.

Nothing here assumes nilpotency except ``series``, which raises
``NotNilpotent`` when the lower central series stabilises above zero.
Instances are treated as immutable; what is derived from one and read
again is memoised per algebra value by ``per_algebra``, here and in
other modules: equal algebras (same dimension and structure constants,
whatever their names) share one memo.
"""

import functools
import weakref
from math import gcd, lcm

from .errors import (
    JacobiViolation,
    NotAnIdeal,
    NotNilpotent,
    Record,
    ResourceCapExceeded,
)
from .linalg import (
    Subspace,
    SpanBuilder,
    _reduce,
    _scaled,
    _seq,
    axpy,
    exact,
    frac,
    frac_dict,
    frac_tuple,
    invert,
    kernel_rows,
)


# algebra value -> its memo, keyed weakly by the first live algebra of
# that value: every equal algebra built while it lives shares the dict,
# and the entry goes when it is collected
_MEMOS = weakref.WeakKeyDictionary()


def per_algebra(fn):
    """Memoise ``fn(L)`` in ``L._memo``, the one memo of the algebra
    value of L, which L shares with the algebras equal to it (see
    ``_MEMOS``); a call that raises stores nothing.  ``fn`` must depend
    on the dimension and the structure constants alone, never on
    ``L.name``."""

    @functools.wraps(fn)
    def memo(L):
        cache = L._memo
        if fn not in cache:
            cache[fn] = fn(L)
        return cache[fn]

    return memo


class SeriesReport(Record):
    """Dimension data of the lower central series.

    gamma_dims lists dim(gamma_1), dim(gamma_2), ... down to the first
    zero term, inclusive.  For L5_7 this is (5, 3, 2, 1, 0).
    """

    gamma_dims: tuple
    derived_dim: int
    nilpotency_class: int
    center_dim: int
    min_generators: int
    central_complement_dim: int


class Quotient(Record):
    """A quotient L/I: ``algebra`` is L/I and ``ideal`` is I.

    The quotient basis is the image of the standard basis vectors in
    the columns ``ideal.nonpivots()``; for I = span(e1 + e2) in A(2)
    the pivot sits in the e1 column, so the basis is the image of e2.
    ``project`` maps coordinates on L to quotient coordinates: the
    canonical representative ``ideal.reduce(vec)``, read at those
    columns.  ``lift`` puts quotient coordinates in those columns and
    zero elsewhere.  Both raise ValueError on a vector of the wrong
    length.
    """

    algebra: "LieAlgebra"
    ideal: Subspace

    def project(self, vec):
        residual = self.ideal.reduce(vec)
        return tuple(residual[j] for j in self.ideal.nonpivots())

    def lift(self, vec):
        columns = self.ideal.nonpivots()
        if len(_seq(vec)) != len(columns):
            raise ValueError("vector/quotient dimension mismatch")
        out = list(frac_tuple({}, self.ideal.ambient))
        for j, x in zip(columns, vec):
            out[j] = frac(x)
        return tuple(out)


# the largest dimension answered: a one-bracket algebra of this
# dimension already takes about 1 GB and 9-12 s
MAX_DIM = 10**6


def check_dim(dim):
    """A declared dimension, checked before anything linear in it is
    built: above ``MAX_DIM`` it raises ResourceCapExceeded."""
    if dim > MAX_DIM:
        raise ResourceCapExceeded(
            f"dimension {dim} is above the cap of {MAX_DIM}"
        )
    return dim


def _ad_images(adj, r):
    """{l: D [x_l, r]} for a sparse dict row r, read off the adjoint
    index ``adj`` of ``LieAlgebra._adjoint``.

    One pass over the adjoint rows of supp(r) builds every
    [x_l, r] = -sum_j r_j [x_j, x_l] at once, so the cost is the
    nonzero brackets met, not one bracket per noncentral x_l; the row
    under (j, l) is D [x_j, x_l] for j < l and its negative otherwise.
    The keys are the l with a nonzero [x_j, x_l] for some j in supp(r);
    an image whose terms all cancel is an empty dict.  The series,
    ``validate`` and the closure check of ``quotient`` read this one
    pass.
    """
    images = {}
    for j, x in r.items():
        for l, vec in adj.get(j, {}).items():
            axpy(images.setdefault(l, {}), -x if j < l else x, vec)
    return images


class LieAlgebra:
    """A Lie algebra presented by rational structure constants: ints,
    Fractions or strings such as "1/2".  Its value is its dimension and
    the constants' values, whatever their form: each bracket is checked
    and scaled to an integer row by ``linalg._scaled``, and ``_set``
    stores them as ``_integral`` does.  It is only the library edge:
    every algebra the package builds comes through ``_integral``."""

    def __init__(self, dim, brackets, name=None):
        if dim < 0:
            raise ValueError(f"dimension must be non-negative, got {dim}")
        rows = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index out of range: ({i}, {j})")
            vec = dict(vec)
            if i == j:
                if any(map(exact, vec.values())):
                    raise ValueError(f"[x{i + 1}, x{i + 1}] must vanish")
                continue
            for k in vec:
                if not 0 <= k < dim:
                    raise ValueError(f"target index out of range: {k}")
            row, d = _scaled(vec)
            if i > j:
                i, j = j, i
                row = {k: -x for k, x in row.items()}
            # kept even when zero: zero and nonzero conflict in either order
            if rows.setdefault((i, j), (d, row)) != (d, row):
                raise ValueError(
                    f"conflicting definitions for [x{i + 1}, x{j + 1}]"
                )
        self._set(dim, rows, name)

    @classmethod
    def _integral(cls, dim, rows, name=None):
        """The algebra with [x_i, x_j] = row / d for each (i, j): (d, row)
        of ``rows``, i < j, each row an integer dict of nonzero entries
        over a positive integer d."""
        self = object.__new__(cls)
        self._set(dim, rows, name)
        return self

    def _set(self, dim, rows, name):
        """Store ``rows`` {(i, j): (d, row)} as the canonical pair: D,
        the common denominator, and the table of D [x_i, x_j] with empty
        rows dropped, pairs sorted and gcd(D, entries) divided out.  A
        row is kept, not copied, when its d is D."""
        self.dim = dim
        self.name = name
        rows = {key: rows[key] for key in sorted(rows) if rows[key][1]}
        den = lcm(*(d for d, _ in rows.values()))
        table = {
            key: row if d == den else {k: x * (den // d) for k, x in row.items()}
            for key, (d, row) in rows.items()
        }
        if den > 1:
            g = gcd(den, *(x for row in table.values() for x in row.values()))
            den //= g
            table = {
                key: {k: x // g for k, x in row.items()}
                for key, row in table.items()
            }
        self._den = den
        self._table = table
        self._memo = _MEMOS.setdefault(self, {})

    @property
    def sc(self):
        """{(i, j): {k: c_ijk}} for i < j as Fractions, built when read."""
        return {key: frac_dict(row, self._den) for key, row in self._table.items()}

    # -- elements ----------------------------------------------------

    def bracket(self, u, v):
        """[u, v] for coordinate vectors u, v, by the literal loop over
        the integer table D c_ijk, divided by D once at the end.  It is
        the reference the tests hold the sparse adjoint table to; no
        computation in the package calls it."""
        out = [0] * self.dim
        for (i, j), vec in self._table.items():
            c = u[i] * v[j] - u[j] * v[i]
            if c:
                for k, w in vec.items():
                    out[k] += c * w
        return tuple(frac(x) / self._den for x in out)

    # -- structure ---------------------------------------------------

    @per_algebra
    def _adjoint(self):
        """The sparse adjoint index ``adj`` of the table.

        ``adj[i][j]`` and ``adj[j][i]`` are one object, the ``_table``
        row of the pair (of the first algebra of this value to build the
        index): D [x_i, x_j] for i < j as an integer dict {k: c}, so a
        reader takes the sign from the index order (D [x_j, x_i] is its
        negative).  No row is copied.  Only nonzero brackets are
        indexed, so ``adj`` has a row only for each basis vector with a
        nonzero bracket: a missing row means x_i is central, and
        ``sorted(adj)`` is the noncentral basis.  D is ``_den``; the
        scaling changes no span and no zero test.  Only this module
        calls it; elsewhere brackets go through ``_sparse_bracket``.
        """
        adj = {}
        for (i, j), row in self._table.items():
            adj.setdefault(i, {})[j] = row
            adj.setdefault(j, {})[i] = row
        return adj

    def validate(self):
        """Check the Jacobi identity on every basis triple.

        Raises JacobiViolation naming the first failing triple i < j < k
        (1-based, in lexicographic order) and the residual
        [[xi,xj],xk] + [[xj,xk],xi] + [[xk,xi],xj].  The three terms are
        the cyclic rotations of the triple, so each is [[xa,xb],xc] for
        one nonzero bracket [xa,xb] with a < b, taken with sign -1 when
        a < c < b.  For each nonzero bracket, ``_ad_images`` of its
        table row D [xa,xb] gives image c = D^2 [xc,[xa,xb]] =
        -D^2 [[xa,xb],xc] for every c at once, and each is added to the
        residual of its sorted triple; triples with no nonzero term are
        never visited.  Antisymmetry and bilinearity hold by
        construction, so passing this check makes the structure
        constants a Lie algebra.
        """
        adj = self._adjoint()
        residuals = {}
        for (a, b), row in self._table.items():
            for c, image in _ad_images(adj, row).items():
                if c != a and c != b:
                    res = residuals.setdefault(tuple(sorted((a, b, c))), {})
                    axpy(res, 1 if a < c < b else -1, image)
        for triple, res in sorted(residuals.items()):
            if res:
                vec = frac_tuple(res, self.dim, self._den**2)
                raise JacobiViolation(tuple(i + 1 for i in triple), vec)

    def _sparse_bracket(self, a, b):
        """D * [a, b] for sparse dicts a, b {index: entry}, as a dict
        of its nonzero entries.  Only the pairs (i in supp a,
        j in supp b) with a nonzero adjoint entry are evaluated."""
        adj = self._adjoint()
        out = {}
        for i, x in a.items():
            row = adj.get(i)
            if row is None:
                continue
            for j, y in b.items():
                vec = row.get(j)
                if vec:
                    axpy(out, x * y if i < j else -x * y, vec)
        return out

    def bracket_subspaces(self, s: Subspace, t: Subspace) -> Subspace:
        """The span of [a, b] over a in s, b in t: one builder of the
        ``_sparse_bracket`` of each pair of echelon rows."""
        builder = SpanBuilder(self.dim)
        for b in t.echelon.values():
            for a in s.echelon.values():
                builder.add(self._sparse_bracket(a, b))
        return builder.subspace()

    @per_algebra
    def lower_central_series(self):
        """Subspaces gamma_1 = L, gamma_{i+1} = [L, gamma_i], ending at 0.

        [L, gamma_i] is spanned by the brackets [x_l, r] of the
        noncentral basis vectors x_l, the keys of the adjoint table (the
        others bracket to zero), with the rows r of gamma_i: gamma_1 as
        those same basis vectors, since [L, L] = [basis, basis], each
        later term as the integer echelon rows of the builder that
        spanned it.  ``_ad_images`` builds every [x_l, r] of a row r in
        one pass, so the cost is the nonzero brackets met, not
        (noncentral vectors) x (rows); empty images are skipped, so no
        empty row reaches the builder.
        """
        adj = self._adjoint()
        gammas = [Subspace.full(self.dim)]
        rows = [{i: 1} for i in sorted(adj)]
        while gammas[-1].dim:
            builder = SpanBuilder(self.dim)
            for r in rows:
                for image in _ad_images(adj, r).values():
                    if image:
                        builder.add(image)
            if builder.rank == gammas[-1].dim:
                raise NotNilpotent(
                    "lower central series stabilises at dimension "
                    f"{builder.rank}"
                )
            gammas.append(builder.subspace())
            rows = builder.rows.values()
        return gammas

    def derived_subspace(self) -> Subspace:
        gammas = self.lower_central_series()
        return gammas[1] if len(gammas) > 1 else gammas[0]

    @per_algebra
    def center(self) -> Subspace:
        """{z : [z, L] = 0}, the kernel of the adjoint action."""
        n = self.dim
        rows = []
        for j, row in self._adjoint().items():
            # one equation sum_i z_i [x_j, x_i]_k = 0 per used k
            eqs = {}
            for i, vec in row.items():
                for k, c in vec.items():
                    eqs.setdefault(k, {})[i] = c if j < i else -c
            rows.extend(eqs.values())
        return Subspace._trusted(kernel_rows(rows, n), n)

    @per_algebra
    def _central_complement(self) -> Subspace:
        """A complement C of Z cap L2 in Z, spanned by the echelon rows
        of Z that raise the rank of a builder seeded with L2's echelon;
        any subset of a canonical echelon is one."""
        builder = SpanBuilder(self.dim)
        builder.rows.update(self.derived_subspace().echelon)
        rows = [row for row in self.center().echelon.values() if builder.add(row)]
        return Subspace._trusted(rows, self.dim)

    @per_algebra
    def series(self) -> SeriesReport:
        gammas = self.lower_central_series()
        derived = self.derived_subspace()
        return SeriesReport(
            gamma_dims=tuple(g.dim for g in gammas),
            derived_dim=derived.dim,
            nilpotency_class=len(gammas) - 1,
            center_dim=self.center().dim,
            min_generators=self.dim - derived.dim,
            central_complement_dim=self._central_complement().dim,
        )

    # -- constructions -----------------------------------------------

    def quotient(self, ideal: Subspace) -> Quotient:
        """L/I for an ideal I, with its ``project`` and ``lift``.  L/I
        has no name: it is derived from L's value, and the split that
        memoises one is shared by every algebra equal to L."""
        if ideal.ambient != self.dim:
            raise ValueError("ideal lives in the wrong ambient space")
        # only the noncentral basis vectors, the keys of the adjoint
        # table, bracket to anything, and only with an ideal row whose
        # support meets them; I is closed when each such bracket, an
        # image of ``_ad_images``, reduces to zero against I's echelon,
        # which ``_reduce`` only reads
        adj = self._adjoint()
        echelon = ideal.echelon
        rows = [r for r in echelon.values() if not adj.keys().isdisjoint(r)]
        brackets = (image for r in rows for image in _ad_images(adj, r).values())
        if any(_reduce(echelon, image)[0] for image in brackets):
            raise NotAnIdeal("subspace is not closed under bracketing with L")
        comp = ideal.nonpivots()
        # D [x_i, x_j] modulo I is residual / scale, so the quotient's
        # bracket is residual / (scale D), read in the non-pivot columns
        index = {c: t for t, c in enumerate(comp)}
        brackets = {}
        for (i, j), w in self._table.items():
            if i in index and j in index:
                residual, scale = _reduce(echelon, w)
                if residual:
                    brackets[(index[i], index[j])] = scale * self._den, {
                        index[k]: x for k, x in residual.items()
                    }
        return Quotient(LieAlgebra._integral(len(comp), brackets), ideal)

    def direct_sum(self, other: "LieAlgebra", name=None) -> "LieAlgebra":
        n1 = self.dim
        rows = {key: (self._den, row) for key, row in self._table.items()}
        for (i, j), row in other._table.items():
            rows[(i + n1, j + n1)] = other._den, {k + n1: x for k, x in row.items()}
        if name is None and self.name and other.name:
            name = f"{self.name}+{other.name}"
        return LieAlgebra._integral(n1 + other.dim, rows, name=name)

    def change_basis(self, p_rows, name=None) -> "LieAlgebra":
        """The same algebra in the basis given by the columns of P.

        New basis vector y_t has old coordinates P[:, t]; raises
        ValueError when P is not n x n, TypeError for a float entry and
        SingularMatrix when P is not invertible.  P is scaled once to an
        integer matrix A = d P, and ``invert`` of its transpose gives
        the columns of q A^-1.  Then [y_s, y_t] is
        (q A^-1) (D [A e_s, A e_t]) / (q d D): the bracket is read off
        the adjoint table on the sparse columns of A and mapped through
        the sparse columns of q A^-1, all in integers.
        """
        n = self.dim
        p_rows = [list(_seq(row)) for row in p_rows]
        if len(p_rows) != n or any(len(r) != n for r in p_rows):
            raise ValueError("change of basis matrix has the wrong shape")
        flat = {(r, c): x for r, row in enumerate(p_rows) for c, x in enumerate(row)}
        entries, d = _scaled(flat)
        cols = [{} for _ in range(n)]
        for (r, c), x in entries.items():
            cols[c][r] = x
        q, inv_cols = invert([[col.get(r, 0) for r in range(n)] for col in cols])
        den = q * d * self._den
        brackets = {}
        for s in range(n):
            for t in range(s + 1, n):
                img = {}
                for k, x in self._sparse_bracket(cols[s], cols[t]).items():
                    axpy(img, x, inv_cols[k])
                brackets[(s, t)] = den, img
        return LieAlgebra._integral(n, brackets, name=name)

    # -- misc --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self._den == other._den
            and self._table == other._table
        )

    def __hash__(self):
        # equal values have equal tables, so their keys suffice
        return hash((self.dim, self._den, tuple(self._table)))

    def __repr__(self):
        label = self.name or f"{len(self._table)} brackets"
        return f"LieAlgebra(dim={self.dim}, {label})"


def direct_sum(a: LieAlgebra, b: LieAlgebra, name=None) -> LieAlgebra:
    return a.direct_sum(b, name=name)
