"""Finite-dimensional Lie algebras over Q by structure constants.

A ``LieAlgebra`` of dimension n fixes a basis x1..xn and stores the
brackets [x_i, x_j] = sum_k c_ijk x_k for i < j; the bracket extends
antisymmetrically and bilinearly.  Elements are coordinate vectors
(tuples of Fractions).  Coordinates are 0-based in code; only error
messages and the presentation DSL use the 1-based x1..xn labels.

Nothing here assumes nilpotency except ``series``, which raises
``NotNilpotent`` when the lower central series stabilises above zero.
Instances are treated as immutable; derived data (series, presentation)
is cached on the instance.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import JacobiViolation, NotAnIdeal, NotNilpotent
from .linalg import (
    Subspace,
    SpanBuilder,
    frac,
    int_row,
    invert,
    kernel_basis,
    matvec,
)


@dataclass(frozen=True)
class SeriesReport:
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


@dataclass(frozen=True)
class Quotient:
    """A quotient L/I together with its projection and section.

    ``project`` maps old coordinates to quotient coordinates; ``lift``
    sends the quotient basis back to the standard basis vectors of L
    outside the pivot columns of I's reduced echelon form, in index
    order.  For I = span(e1 + e2) in A(2) the pivot sits in the e1
    column, so ``lift([1])`` is e2.
    """

    algebra: "LieAlgebra"
    ideal: Subspace
    proj_rows: tuple
    section_rows: tuple

    def project(self, vec):
        return matvec(self.proj_rows, vec)

    def lift(self, vec):
        return matvec(self.section_rows, vec)


class LieAlgebra:
    """A Lie algebra presented by rational structure constants."""

    def __init__(self, dim, brackets, name=None):
        self.dim = dim
        self.name = name
        sc = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index out of range: ({i}, {j})")
            if i == j:
                if any(frac(c) for c in dict(vec).values()):
                    raise ValueError(f"[x{i + 1}, x{i + 1}] must vanish")
                continue
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            entry = {}
            for k, c in dict(vec).items():
                if not 0 <= k < dim:
                    raise ValueError(f"target index out of range: {k}")
                c = frac(c) * sign
                if c:
                    entry[k] = c
            if (i, j) in sc:
                if sc[(i, j)] != entry:
                    raise ValueError(
                        f"conflicting definitions for [x{i + 1}, x{j + 1}]"
                    )
                continue
            if entry:
                sc[(i, j)] = entry
        self.sc = {key: sc[key] for key in sorted(sc)}
        self._series = None
        self._gammas = None
        self._center = None
        self._presentation = None
        self._gamma_images = None

    # -- elements ----------------------------------------------------

    def zero(self):
        return (Fraction(0),) * self.dim

    def basis_vector(self, i):
        return tuple(
            Fraction(1) if j == i else Fraction(0) for j in range(self.dim)
        )

    def _bracket_basis(self, i, j):
        """Sparse [x_i, x_j] as a dict, any index order."""
        if i == j:
            return {}
        if i < j:
            return self.sc.get((i, j), {})
        vec = self.sc.get((j, i))
        if not vec:
            return {}
        return {k: -c for k, c in vec.items()}

    def bracket(self, u, v):
        """[u, v] for coordinate vectors u, v."""
        out = [Fraction(0)] * self.dim
        for (i, j), vec in self.sc.items():
            c = u[i] * v[j] - u[j] * v[i]
            if c:
                for k, w in vec.items():
                    out[k] += c * w
        return tuple(frac(x) for x in out)

    # -- structure ---------------------------------------------------

    def validate(self):
        """Check the Jacobi identity on every basis triple.

        Raises JacobiViolation naming the first failing triple (1-based)
        and the residual [[xi,xj],xk] + [[xj,xk],xi] + [[xk,xi],xj].
        Antisymmetry and bilinearity hold by construction, so passing
        this check makes the structure constants a Lie algebra.
        """
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    residual = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, w in self._bracket_basis(a, b).items():
                            for t, w2 in self._bracket_basis(l, c).items():
                                val = residual.get(t, 0) + w * w2
                                if val:
                                    residual[t] = val
                                else:
                                    residual.pop(t, None)
                    if residual:
                        vec = [Fraction(0)] * n
                        for t, val in residual.items():
                            vec[t] = val
                        raise JacobiViolation((i + 1, j + 1, k + 1), vec)

    def bracket_subspaces(self, s: Subspace, t: Subspace) -> Subspace:
        """The span of [a, b] over a in s, b in t."""
        builder = SpanBuilder(self.dim)
        for a in s.rows:
            for b in t.rows:
                w = self.bracket(a, b)
                if any(w):
                    builder.add(int_row(w))
        return builder.subspace()

    def lower_central_series(self):
        """Subspaces gamma_1 = L, gamma_{i+1} = [L, gamma_i], ending at 0."""
        if self._gammas is None:
            full = Subspace.full(self.dim)
            gammas = [full]
            current = full
            while current.dim:
                nxt = self.bracket_subspaces(full, current)
                if nxt.dim == current.dim:
                    raise NotNilpotent(
                        "lower central series stabilises at dimension "
                        f"{nxt.dim}"
                    )
                gammas.append(nxt)
                current = nxt
            self._gammas = gammas
        return self._gammas

    def derived_subspace(self) -> Subspace:
        gammas = self.lower_central_series()
        return gammas[1] if len(gammas) > 1 else gammas[0]

    def center(self) -> Subspace:
        """{z : [z, L] = 0}, the kernel of the adjoint action."""
        if self._center is None:
            n = self.dim
            rows = []
            for j in range(n):
                cols = [self._bracket_basis(i, j) for i in range(n)]
                used = sorted(set().union(*(c.keys() for c in cols)))
                for k in used:
                    rows.append([cols[i].get(k, 0) for i in range(n)])
            self._center = kernel_basis(rows, ncols=n)
        return self._center

    def series(self) -> SeriesReport:
        if self._series is None:
            gammas = self.lower_central_series()
            dims = tuple(g.dim for g in gammas)
            center = self.center()
            derived = gammas[1] if len(gammas) > 1 else gammas[0]
            central_in_derived = (center & derived).dim
            self._series = SeriesReport(
                gamma_dims=dims,
                derived_dim=dims[1] if len(dims) > 1 else 0,
                nilpotency_class=len(dims) - 1,
                center_dim=center.dim,
                min_generators=self.dim - (dims[1] if len(dims) > 1 else 0),
                central_complement_dim=center.dim - central_in_derived,
            )
        return self._series

    # -- constructions -----------------------------------------------

    def quotient(self, ideal: Subspace) -> Quotient:
        """L/I for an ideal I, with projection and section retained."""
        n = self.dim
        if ideal.ambient != n:
            raise ValueError("ideal lives in the wrong ambient space")
        if not self.bracket_subspaces(Subspace.full(n), ideal) <= ideal:
            raise NotAnIdeal("subspace is not closed under bracketing with L")
        pivot_set = set(ideal.pivots)
        comp = [j for j in range(n) if j not in pivot_set]
        q = len(comp)
        reduced = [ideal.reduce(self.basis_vector(j)) for j in range(n)]
        proj_rows = tuple(
            tuple(reduced[j][comp[t]] for j in range(n)) for t in range(q)
        )
        section_rows = tuple(
            tuple(Fraction(1) if comp[t] == r else Fraction(0) for t in range(q))
            for r in range(n)
        )
        brackets = {}
        for s in range(q):
            for t in range(s + 1, q):
                w = self._bracket_basis(comp[s], comp[t])
                if not w:
                    continue
                vec = [Fraction(0)] * n
                for k, c in w.items():
                    vec[k] = c
                img = matvec(proj_rows, ideal.reduce(vec))
                entry = {k: c for k, c in enumerate(img) if c}
                if entry:
                    brackets[(s, t)] = entry
        name = f"{self.name}/I" if self.name else None
        return Quotient(
            algebra=LieAlgebra(q, brackets, name=name),
            ideal=ideal,
            proj_rows=proj_rows,
            section_rows=section_rows,
        )

    def direct_sum(self, other: "LieAlgebra", name=None) -> "LieAlgebra":
        n1 = self.dim
        brackets = {key: dict(vec) for key, vec in self.sc.items()}
        for (i, j), vec in other.sc.items():
            brackets[(i + n1, j + n1)] = {k + n1: c for k, c in vec.items()}
        if name is None and self.name and other.name:
            name = f"{self.name}+{other.name}"
        return LieAlgebra(n1 + other.dim, brackets, name=name)

    def change_basis(self, p_rows, name=None) -> "LieAlgebra":
        """The same algebra in the basis given by the columns of P.

        New basis vector y_t has old coordinates P[:, t]; raises
        SingularMatrix when P is not invertible.
        """
        n = self.dim
        p_rows = [[frac(x) for x in row] for row in p_rows]
        if len(p_rows) != n or any(len(r) != n for r in p_rows):
            raise ValueError("change of basis matrix has the wrong shape")
        p_inv = invert(p_rows)
        cols = [tuple(p_rows[r][t] for r in range(n)) for t in range(n)]
        brackets = {}
        for s in range(n):
            for t in range(s + 1, n):
                w = self.bracket(cols[s], cols[t])
                if any(w):
                    img = matvec(p_inv, w)
                    entry = {k: c for k, c in enumerate(img) if c}
                    if entry:
                        brackets[(s, t)] = entry
        return LieAlgebra(n, brackets, name=name)

    # -- misc --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.sc == other.sc
        )

    def __hash__(self):
        return hash(
            (
                self.dim,
                tuple(
                    (key, tuple(sorted(vec.items())))
                    for key, vec in self.sc.items()
                ),
            )
        )

    def __repr__(self):
        label = self.name or f"{len(self.sc)} brackets"
        return f"LieAlgebra(dim={self.dim}, {label})"


def direct_sum(a: LieAlgebra, b: LieAlgebra, name=None) -> LieAlgebra:
    return a.direct_sum(b, name=name)
