"""Exact linear algebra over the rationals.

Conventions used throughout schurlab:

* scalars are exact: ints, Fractions or strings such as "2/3" come
  in, never floats, and rationals go out as Fractions,
* a vector handed across the API is a sequence of scalars, returned as
  a tuple,
* a matrix is a sequence of rows,
* a subspace of Q^n is held as an integer echelon: one sparse row
  {column: entry} per pivot, in increasing pivot order, each row
  primitive, positive at its pivot (its least column) and zero at every
  other pivot.  That form is unique, so subspace equality is a
  structural comparison.  ``Subspace.rows`` materialises the canonical
  reduced row echelon basis (pivot entries 1) as tuples of Fractions,
  ``basis_text`` as strings written from the integers.

Below the API edges every row is a sparse integer dict {column: entry}
of its nonzero entries, so a row costs time in its nonzeros, not in the
ambient dimension; ``SpanBuilder`` and ``kernel_rows`` take no other
format.  ``axpy`` is the one combination of dict rows: it adds a
multiple of one row into another and deletes each entry that cancels,
here and wherever a bracket or an image is accumulated.  Elimination
is fraction-free in the Bareiss spirit: rows are scaled to primitive
integer vectors and combined by integer cross-multiplication, dividing
out the content when it grows, so intermediate entries stay small.
``_reduce`` is the one loop that reduces a row against an echelon:
``SpanBuilder.reduce``, ``contains`` and the Jordan phase ``reduced``
all run it, and so do the callers that hold a fixed echelon, such as
``LieAlgebra.quotient``, on that echelon itself; only
``SpanBuilder.add`` keeps a loop of its own, which stops at the first
free column.  A builder is made only where rows are added; one that
starts from a canonical echelon takes its rows as they are, without
eliminating them again.  Rational sequences become dict
rows only at the API edges (``Subspace``, ``kernel_basis``,
``invert``, the public ``LieAlgebra`` constructor and the matrix P of
``LieAlgebra.change_basis``), through one scaling helper, ``_scaled``;
a dict where a vector is due raises TypeError (``_seq``), since it
would pass a length check.  ``rows`` and ``reduce`` hand Fractions
back, and ``invert`` an integer pair.
Only the edge helpers below build Fractions, importing ``fractions``
on first use, so a run on integers never loads it.
"""

from math import gcd, lcm

from .errors import SingularMatrix


def _fraction():
    """The class ``fractions.Fraction``, imported on first use."""
    from fractions import Fraction

    return Fraction


def frac(x):
    """Coerce ints, strings like '2/3' and Fractions to Fraction."""
    if isinstance(x, float):
        raise TypeError(f"floats are not exact: {x!r}")
    return _fraction()(x)


def exact(x):
    """An integral value as an int (bools too), any other as ``frac(x)``."""
    if not isinstance(x, int):
        x = frac(x)
        if x.denominator > 1:
            return x
    return int(x)


def frac_dict(row, den=1):
    """{k: row[k] / den} as Fractions, for an integer dict row."""
    Fraction = _fraction()
    return {k: Fraction(x, den) for k, x in row.items()}


def frac_tuple(row, n, den=1):
    """The dense tuple of Fractions row[k] / den, zero off the keys."""
    Fraction = _fraction()
    vec = [Fraction(0)] * n
    for k, x in row.items():
        vec[k] = Fraction(x, den)
    return tuple(vec)


def ratio_text(x, den=1):
    """``str(Fraction(x, den))`` for integers, den > 0, without one."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def basis_text(space):
    """``space.rows`` as lists of ``str`` of its entries."""
    rows = []
    for p, row in space.echelon.items():
        lead = row[p]
        vec = ["0"] * space.ambient
        for col, x in row.items():
            vec[col] = ratio_text(x, lead)
        rows.append(vec)
    return rows


def _content(values):
    g = 0
    for x in values:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g or 1


def _primitive(row):
    """A dict row divided by its content."""
    g = _content(row.values())
    if g > 1:
        return {k: x // g for k, x in row.items()}
    return row


def _scaled(vec):
    """``(row, den)`` for a rational sequence, or a dict {column: value}
    of rationals: ``den`` is the lcm of their denominators and ``row``
    the sparse integer dict of ``den * vec``, in the order given.  It is
    the one place where rationals become integer rows: vectors at the
    API edges and the public ``LieAlgebra`` constructor both come here.
    """
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    fs = {c: exact(x) for c, x in items}
    den = lcm(*(f.denominator for f in fs.values()))
    row = {c: f.numerator * (den // f.denominator) for c, f in fs.items() if f}
    return row, den


def int_row(vec):
    """The primitive integer row on the line of a rational sequence, as
    a sparse dict {column: entry} of its nonzero entries."""
    return _primitive(_scaled(vec)[0])


def _seq(vec):
    """``vec`` itself, a rational sequence.  A dict raises TypeError: it
    would pass a length check as {column: value}, with its columns
    unchecked."""
    if isinstance(vec, dict):
        raise TypeError("a vector is a sequence of scalars, not a dict")
    return vec


def _sparse(row):
    """A fresh dict of the nonzero entries of a dict row."""
    return {c: x for c, x in row.items() if x}


def axpy(out, c, row):
    """Add c * row into the dict row ``out`` in place and return it.

    Each entry that cancels is deleted, so a row of nonzero entries
    stays one; c = 0 leaves ``out`` unchanged, and ``row`` is only
    read.
    """
    if c:
        for k, y in row.items():
            x = out.get(k, 0) + c * y
            if x:
                out[k] = x
            else:
                del out[k]
    return out


def _eliminate(row, prow, c):
    """Clear column c of ``row`` in place with ``prow``, whose pivot is c.

    ``row`` becomes (b/g) row - (a/g) prow, where a and b are the
    column-c entries and g = gcd(a, b) (g = 1 when b = 1).  Returns
    the multiplier b/g, a positive integer since b is.
    """
    a = row[c]
    b = prow[c]
    if b == 1:
        mb = 1
    else:
        g = gcd(a, b)
        mb = b // g
        a //= g
        if mb != 1:
            for k in row:
                row[k] *= mb
    axpy(row, -a, prow)
    return mb


def _reduce(rows, vec):
    """Reduce an integer row against echelon rows.

    ``rows`` maps each pivot to a sparse row whose least column it is,
    as ``SpanBuilder.rows`` and ``Subspace.echelon`` do; ``vec`` is a
    dict row and is not changed.  Returns ``(residual,
    scale)`` with ``residual == scale * vec`` modulo the row space and
    ``scale`` a positive integer, so ``residual/scale`` depends linearly
    on ``vec``.  The residual is a dict of its nonzero entries in column
    order, zero at every pivot, and empty exactly when ``vec`` lies in
    the span.
    """
    row = _sparse(vec)
    scale = 1
    # clear the pivots in the row, least first; one set of them serves
    # the call, as clearing c adds only the columns of rows[c].  The
    # other entries stay in the row and are sorted once at the end.
    pivot = rows.__contains__
    hits = set(filter(pivot, row))
    while hits:
        c = min(hits)
        prow = rows[c]
        hits.update(filter(pivot, prow))
        hits.discard(c)
        if c in row:
            scale *= _eliminate(row, prow, c)
    return (dict(sorted(row.items())) if len(row) > 1 else row), scale


class SpanBuilder:
    """Incrementally built integer row space in echelon form.

    ``rows`` maps each pivot column to its echelon row, a sparse dict
    {column: entry}: primitive, with a positive entry at the pivot, its
    least column.  Every span, kernel, rank and inverse goes through a
    builder, and so do the gamma-image ranks.  Callers feed it integer
    rows as sparse dicts {column: entry} (a rational sequence becomes
    one through ``int_row``), or put the rows of a canonical echelon
    straight into ``rows``, and extract a canonical ``Subspace`` at the
    end.  ``add`` clears the least nonzero column of the incoming row at
    each step; ``reduce``, ``contains`` and ``reduced`` run ``_reduce``.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        """Insert an integer dict row; return True if the rank grew.

        Its loop is not ``_reduce``: it stops at the first free column,
        where the rest of the row is stored as it is, and makes the row
        primitive after each step.  Run through ``_reduce`` instead,
        which clears every pivot in the row and makes it primitive only
        at the end, dense random integer matrices and 100,000
        unit-vector adds both took about twice as long.
        """
        row = _sparse(vec)
        rows = self.rows
        while row:
            c = min(row)
            prow = rows.get(c)
            if prow is None:
                if row[c] < 0:
                    row = {k: -x for k, x in row.items()}
                rows[c] = _primitive(row)
                return True
            _eliminate(row, prow, c)
            if prow[c] != 1:
                row = _primitive(row)
        return False

    def reduce(self, vec):
        """Reduce an integer dict row against the current echelon rows;
        returns ``(residual, scale)`` as ``_reduce`` does."""
        return _reduce(self.rows, vec)

    def contains(self, vec) -> bool:
        return not _reduce(self.rows, vec)[0]

    def reduced(self):
        """The integer Jordan phase: ``(pivots, rows)`` in pivot order.

        Each row is primitive, positive at its pivot and zero in every
        other pivot column: the canonical echelon.  Pivots are walked
        from the right, and ``_reduce`` reduces each row against the
        later rows, which are already clean; a row that meets no later
        pivot is clean as it stands.
        """
        clean = {}
        for p in sorted(self.rows, reverse=True):
            row = self.rows[p]
            if not clean.keys().isdisjoint(row):
                row = _primitive(_reduce(clean, row)[0])
            clean[p] = row
        pivots = sorted(clean)
        return pivots, [clean[p] for p in pivots]

    def subspace(self) -> "Subspace":
        """Canonicalise by the Jordan phase."""
        return Subspace._trusted(self.reduced()[1], self.ambient)


class Subspace:
    """A subspace of Q^ambient, held as its unique integer echelon.

    ``echelon`` maps each pivot, in increasing order, to a sparse
    integer row {column: entry}: primitive, positive at the pivot (its
    least column) and zero at every other pivot.  ``rows`` is the
    canonical reduced row echelon basis, each echelon row divided by its
    pivot entry, as tuples of Fractions built when read.
    """

    __slots__ = ("ambient", "echelon")

    def __init__(self, vectors, ambient: int):
        builder = SpanBuilder(ambient)
        for v in vectors:
            if len(_seq(v)) != ambient:
                raise ValueError(
                    f"vector of length {len(v)} in ambient dimension {ambient}"
                )
            builder.add(int_row(v))
        self.ambient = ambient
        self.echelon = builder.subspace().echelon

    @classmethod
    def _trusted(cls, rows, ambient):
        """The Subspace whose echelon rows are ``rows``, sparse integer
        dicts trusted to be in the canonical form and in pivot order."""
        self = object.__new__(cls)
        self.ambient = ambient
        self.echelon = {min(row): row for row in rows}
        return self

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls._trusted((), ambient)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.coordinate(range(ambient), ambient)

    @classmethod
    def coordinate(cls, indices, ambient: int) -> "Subspace":
        """Span of the standard basis vectors e_i for i in indices;
        raises ValueError for an index outside range(ambient)."""
        indices = sorted(set(indices))
        if indices and not (indices[0] >= 0 and indices[-1] < ambient):
            raise ValueError(f"coordinate index out of range({ambient})")
        return cls._trusted(({i: 1} for i in indices), ambient)

    @property
    def rows(self):
        return tuple(
            frac_tuple(row, self.ambient, row[p])
            for p, row in self.echelon.items()
        )

    @property
    def dim(self) -> int:
        return len(self.echelon)

    def nonpivots(self):
        """The columns outside the pivots, in increasing order: their
        standard basis vectors map to the basis of every quotient by
        this subspace in schurlab."""
        echelon = self.echelon
        return [j for j in range(self.ambient) if j not in echelon]

    def reduce(self, vec):
        """Canonical representative of a rational sequence modulo this
        subspace, zero at every pivot, as a tuple of Fractions."""
        if len(_seq(vec)) != self.ambient:
            raise ValueError("vector/ambient mismatch")
        row, den = _scaled(vec)
        residual, scale = _reduce(self.echelon, row)
        return frac_tuple(residual, self.ambient, scale * den)

    def contains(self, vec) -> bool:
        if len(_seq(vec)) != self.ambient:
            raise ValueError("vector/ambient mismatch")
        return not _reduce(self.echelon, int_row(vec))[0]

    def coords(self, vec):
        """Coordinates of vec in the canonical basis; vec must lie here."""
        if not self.contains(vec):
            raise ValueError("vector is not in the subspace")
        return tuple(frac(vec[p]) for p in self.echelon)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.echelon == other.echelon
        )

    def __hash__(self):
        # order-free: a row's key order depends on how it was eliminated
        rows = frozenset(frozenset(row.items()) for row in self.echelon.values())
        return hash((self.ambient, rows))

    def __le__(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        return all(
            not _reduce(other.echelon, row)[0] for row in self.echelon.values()
        )

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        builder = SpanBuilder(self.ambient)
        builder.rows.update(self.echelon)
        for row in other.echelon.values():
            builder.add(row)
        return builder.subspace()

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection by the Zassenhaus double-block trick."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        n = self.ambient
        builder = SpanBuilder(2 * n)
        for p, row in self.echelon.items():
            builder.rows[p] = {**row, **{k + n: x for k, x in row.items()}}
        for row in other.echelon.values():
            builder.add(row)
        inner = SpanBuilder(n)
        for p, row in builder.rows.items():
            if p >= n:
                inner.add({k - n: x for k, x in row.items()})
        return inner.subspace()

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def kernel_rows(matrix, ncols):
    """The canonical basis of {x : A x = 0} as sparse integer rows.

    The rows of A are sparse integer dicts {column: entry} with columns
    below ``ncols``.  Each kernel row is a dict: primitive, its
    pivot (least column) first with a positive entry, the other entries
    in column order.  Rows come in pivot order; dividing each by its
    pivot entry gives the canonical reduced echelon basis of the kernel.

    The basis is read straight off one integer echelon of A with its
    columns reversed.  That echelon's pivots Q are the columns of A
    outside the span of the columns after them, so every other column
    j is a combination of the Q-columns after j.  The kernel row of j
    is e_j minus that combination: pivot j, zero on every other column
    outside Q, and at most rank + 1 nonzeros.  Row operations keep the
    linear relations among columns, and in the reduced echelon column
    k is sum(row_t[k] / b_t * (column p_t)), with p_t the pivot of row
    t and b_t its entry; the kernel row is scaled by the lcm of the b_t
    involved to keep it integer.  One pass over the non-pivot entries
    of the echelon files each under its column, so the read-off costs
    those entries, not (columns outside Q) x rank.
    """
    builder = SpanBuilder(ncols)
    last = ncols - 1
    for r in matrix:
        builder.add({last - k: x for k, x in r.items()})
    pivots, reduced = builder.reduced()
    # column k -> [(p_t, row_t[k], b_t)] in pivot order; a reduced row
    # is zero at every other pivot, so these are the columns outside Q
    columns = {}
    for p, row in zip(pivots, reduced):
        b = row[p]
        for k, a in row.items():
            if k != p:
                columns.setdefault(k, []).append((p, a, b))
    taken = set(pivots)
    rows = []
    for j in range(ncols):
        k = last - j
        if k in taken:
            continue
        terms = columns.get(k, ())
        den = lcm(*(b for _, _, b in terms))
        row = {j: den}
        for p, a, b in reversed(terms):  # reversed pivot order is column order
            row[last - p] = -a * (den // b)
        rows.append(_primitive(row))
    return rows


def kernel_basis(matrix, ncols=None) -> Subspace:
    """The solution space {x : A x = 0} of a rational matrix as a
    canonical Subspace, read off one echelon by ``kernel_rows``."""
    matrix = list(matrix)
    if ncols is None:
        if not matrix:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(matrix[0])
    for r in matrix:
        if len(_seq(r)) != ncols:
            raise ValueError(f"row of length {len(r)} with {ncols} columns")
    return Subspace._trusted(kernel_rows(map(int_row, matrix), ncols), ncols)


def invert(matrix):
    """The inverse of a square rational matrix A as an integer pair
    ``(den, rows)``: ``rows`` are the sparse integer dict rows of
    den A^-1, and den > 0.  Raises SingularMatrix.

    One integer echelon of [A | I]: every row of it is c [A | I] for
    some c.  A is invertible exactly when no pivot lands in the I
    block, and then the reduced row t is [b_t e_t | c_t] with
    c_t A = b_t e_t, so row t of A^-1 is c_t / b_t; den is the lcm of
    the b_t.
    """
    n = len(matrix)
    builder = SpanBuilder(2 * n)
    for i, row in enumerate(matrix):
        if len(_seq(row)) != n:
            raise ValueError("matrix is not square")
        unit = [0] * n
        unit[i] = 1
        builder.add(int_row(list(row) + unit))
    pivots, rows = builder.reduced()
    if pivots and pivots[-1] >= n:
        rank = sum(p < n for p in pivots)
        raise SingularMatrix(f"{n} x {n} matrix of rank {rank}")
    den = lcm(*(row[t] for t, row in enumerate(rows)))
    return den, [
        {k - n: x * (den // row[t]) for k, x in row.items() if k >= n}
        for t, row in enumerate(rows)
    ]
