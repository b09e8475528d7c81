"""Schur multipliers, exterior squares and capability.

For a nilpotent algebra L with d minimal generators and class c, write
L = F/R with F free on d generators.  Everything below is computed in
the free nilpotent algebra F' = F/gamma_{c+2}(F) of class c+1: the
truncation is exact because gamma_{c+1}(F) lies in R, which forces
gamma_{c+2}(F) into [F, R], so R/[F,R] and F2/[F,R] are unchanged.

    dim M(L)  = dim(R cap F2) - dim [F,R]      (Hopf formula)
    L wedge L = F2 / [F,R]
    Z^(L)     = {z in L : [lift(z), F'] contained in [F',R']}

Minimal generators are the standard basis vectors of L in the columns
``L2.nonpivots()`` (``Subspace.nonpivots``, the quotient basis of
L/L2), so R automatically lies inside F2.  Since R is an ideal, [F,R]
is spanned by the brackets of R with the generators alone; and because
every top-degree Hall word already lies in R, only the kernel rows
supported below the top degree contribute.  For Z^, the Hall words
``R.nonpivots()`` lift a basis of L, so the presentation map is
eliminated once.

An abelian direct factor is split off before any presentation.  With
k = dim Z - dim(Z cap L2), any complement C of Z cap L2 in Z is a
central ideal and L = L0 + A(k) with L0 = L/C, so for k >= 1, by the
Kunneth formula (Batten, Moneyhun and Stitzinger, Comm. Algebra 24
(1996))

    dim M(L)  = dim M(L0) + C(k,2) + k(n - k - m)
    Z^(L)     = {x in L2 : pi(x) in Z^(L0)},   pi: L -> L0

The second holds because L wedge L = (L0 wedge L0) + (A wedge A) +
(L0/L0^2 (x) A).  Write z = z0 + a with z0 in L0 and a in A(k).  For
a nonabelian L, the cross term of z wedge L0 is the image of a in
L0/L0^2 (x) A, nonzero for some element of L0 unless a = 0, since
L0/L0^2 != 0; that of z wedge A is the image of z0, nonzero unless z0
lies in L0^2 = L2, since k >= 1.  For z in L2, z wedge L = 0 exactly
when pi(z) wedge L0 = 0 in L0 wedge L0.  An abelian L of dimension n
splits whole: C = Z = L and L0 is the zero algebra, so dim M(L) =
C(n,2), and Z^(L) = L2 = 0 for n >= 2, since a nonzero a has a nonzero
a wedge b in A wedge A.  For n <= 1, L wedge L = 0 and Z^(L) = L, the
base case of ``exterior_center``.  The results do not depend on the
choice of C, and Z^ comes out as a canonical Subspace of L.

``schur_multiplier_dim``, ``exterior_square_dim`` and
``exterior_center``, and with them capability, the report and the Ganea
check, take the split.  Only the witnesses ``present_minimal`` and
``schur_multiplier`` present L whole, abelian or not.

The closed forms bound_e1 and bound_e2 that multiplier_report quotes
are defined here; bounds.py, which holds the paper's inequalities,
re-exports them.
"""

from math import lcm

from .errors import (
    InvariantMismatch,
    NotCentral,
    NotOneDimensional,
    Record,
)
from .hall import free_nilpotent_algebra
from .liealg import LieAlgebra, per_algebra
from .linalg import SpanBuilder, Subspace, axpy, kernel_rows


class Presentation:
    """A minimal free presentation of L, truncated at class c+1: what
    the Hopf formula and the exterior center read.

    ``pi_rows`` is the induced map F' -> L, one sparse integer dict
    {word: entry} per basis vector of L, scaled to D^c times the
    literal map.  The images come from L's adjoint table, which holds D
    times each bracket (D the common denominator of the structure
    constants), so a word of degree k maps to D^(k-1) times its image;
    every column of degree k is multiplied by D^(c+1-k), c the class of
    L, so that D^c is one factor for all columns and the kernel is
    unchanged.  ``r_rows`` are the sparse integer rows of
    ``kernel_rows``, already the echelon of ``r`` = R = ker pi; ``f2``
    is the span of the Hall words of degree >= 2, and ``fr`` the
    bracket ideal [F', R'], built when read while ``dim_fr`` is always
    available.
    """

    def __init__(self, free, pi_rows, r_rows, fr_builder):
        self.free = free
        self.pi_rows = pi_rows
        self.r_rows = r_rows
        self._fr_builder = fr_builder

    @property
    def dim_fr(self):
        return self._fr_builder.rank

    @property
    def r(self) -> Subspace:
        return Subspace._trusted(self.r_rows, self.free.dim)

    @property
    def f2(self) -> Subspace:
        free = self.free
        return Subspace.coordinate(range(free.generators, free.dim), free.dim)

    @property
    def fr(self) -> Subspace:
        return self._fr_builder.subspace()

    @property
    def dim_multiplier(self):
        return len(self.r_rows) - self.dim_fr

    @property
    def dim_exterior_square(self):
        return (self.free.dim - self.free.generators) - self.dim_fr

    def __repr__(self):
        return (
            f"Presentation(free={self.free!r}, dim R={len(self.r_rows)}, "
            f"dim [F,R]={self.dim_fr})"
        )


class GaneaReport(Record):
    """Dimension comparison for a central line N: dim M(L/N) against
    dim M(L) + dim(N cap L2), and whether N lies in the exterior
    center.  The two tests must agree; ``consistent`` records that."""

    lhs: int
    rhs: int
    n_in_exterior_center: bool
    consistent: bool


class MultiplierReport(Record):
    """All computed invariants of one algebra.

    ``bound_e1``, ``bound_e2`` and ``attains_e2`` are None for abelian
    algebras (the bounds assume a nonzero derived subalgebra).
    """

    n: int
    m: int
    c: int
    d: int
    dim_M: int
    dim_exterior_square: int
    exterior_center: Subspace
    capable: bool
    bound_e1: int | None
    bound_e2: int | None
    attains_e2: bool | None


@per_algebra
def present_minimal(L: LieAlgebra) -> Presentation:
    """The minimal truncated free presentation, built once per algebra
    value."""
    if L.dim == 0:
        raise ValueError("the zero algebra has no generators to present")
    rep = L.series()
    n = L.dim
    m = rep.derived_dim
    c = rep.nilpotency_class
    d = n - m
    complement = L.derived_subspace().nonpivots()
    free = free_nilpotent_algebra(d, c + 1)
    big = free.dim

    # images[pos] is D^(k-1) times the image of a word of degree k;
    # its column of pi_rows is scaled up to D^c times the image
    den = L._den
    images = [None] * big
    pi_rows = [{} for _ in range(n)]
    for word in free.basis:
        pos = word.position
        if word.gen is not None:
            image = {complement[word.gen]: 1}
        else:
            image = L._sparse_bracket(images[word.left], images[word.right])
        images[pos] = image
        factor = den ** (c + 1 - word.degree)
        for k, x in image.items():
            pi_rows[k][pos] = factor * x

    r_rows = kernel_rows(pi_rows, big)
    if len(r_rows) != big - n:
        raise InvariantMismatch("induced map onto L is not surjective")
    if any(col < d for row in r_rows for col in row):
        raise InvariantMismatch("kernel meets the generator block")

    top_start = free.degree_offsets[c + 1].start

    fr_builder = SpanBuilder(big)
    # Highest-degree rows first: their brackets are supported in few
    # trailing degree blocks, which keeps the echelon reduction cheap.
    # The top-degree rows come first of all and are only checked, since
    # their brackets vanish in the truncated algebra.
    for row in reversed(r_rows):
        if next(iter(row)) >= top_start:
            if len(row) > 1:
                raise InvariantMismatch(
                    "top-degree kernel row is not a coordinate vector"
                )
            continue
        for j in range(d):
            vec = free.ad(j, row)
            if vec:
                fr_builder.add(vec)

    return Presentation(free, pi_rows, r_rows, fr_builder)


@per_algebra
def _split(L: LieAlgebra):
    """The quotient onto L0 in L = L0 + A(k), or False when nothing
    splits off: k = dim Z - dim(Z cap L2) is 0.

    C is ``L._central_complement()``, the complement that ``series``
    counts k with: the rows of Z's echelon that are independent modulo
    L2.  C is central, hence an ideal, and L0 = L/C.  An abelian L
    splits whole: C = L, and L0 is the zero algebra.
    """
    if L.series().central_complement_dim:
        return L.quotient(L._central_complement())
    return False


def kunneth_gain(k: int, width: int) -> int:
    """dim M(L0 + A(k)) - dim M(L0) = C(k, 2) + k * width, for
    width = dim(L0/L0^2)."""
    return k * (k - 1) // 2 + k * width


def schur_multiplier_dim(L: LieAlgebra) -> int:
    """dim M(L), without materialising witness subspaces: for
    L = L0 + A(k), dim M(L0) + C(k,2) + k dim(L0/L0^2)."""
    if L.dim == 0:
        return 0
    split = _split(L)
    if not split:
        return present_minimal(L).dim_multiplier
    rep = L.series()
    k = rep.central_complement_dim
    return schur_multiplier_dim(split.algebra) + kunneth_gain(
        k, rep.min_generators - k
    )


def schur_multiplier(L: LieAlgebra):
    """(dim M(L), (R cap F2, [F,R])) from the Hopf formula.

    R lies inside F2 for a minimal presentation, so R cap F2 is R.
    """
    if L.dim == 0:
        zero = Subspace.zero(0)
        return 0, (zero, zero)
    pres = present_minimal(L)
    return pres.dim_multiplier, (pres.r, pres.fr)


def exterior_square_dim(L: LieAlgebra) -> int:
    """dim(L wedge L) = dim F2 - dim [F,R] = dim M(L) + dim L2."""
    return schur_multiplier_dim(L) + L.series().derived_dim


def exterior_center(L: LieAlgebra) -> Subspace:
    """Z^(L): the z with z wedge L = 0 in L wedge L.

    In dimension <= 1, L wedge L = 0 and Z^ = L.  Otherwise an abelian
    direct factor is split off first, all of L when L is abelian (see
    the module docstring), and what has none to split off has Z^ read
    off its own presentation.

    A lift of z is bracketed with each free generator and reduced
    modulo [F,R]; the simultaneous kernel of those residuals is Z^.
    Generator brackets suffice: if [z~, g] lies in [F,R] for every
    generator g then [z~, w] does for every Hall word w, by induction
    on the degree of w using the Jacobi identity and the fact that
    [F,R] is an ideal.

    The lifts are the n Hall words ``pres.r.nonpivots()``, outside the
    pivots of R's echelon: no nonzero vector supported on them lies in
    R, so their images under pi are a basis of L.  Any other lift
    choice gives the same Z^: two lifts of one element differ by some r
    in R, and [r, g] lies in [F,R].  The kernel, in coordinates over those words, is
    mapped through their columns of ``pi_rows`` (all scaled by D^c,
    which changes no span).
    """
    if L.dim <= 1:
        return Subspace.full(L.dim)
    split = _split(L)
    if split:
        return _split_exterior_center(L, split)
    pres = present_minimal(L)
    free = pres.free
    images = {word: {} for word in pres.r.nonpivots()}
    constraints = []
    for j in range(free.generators):
        # residual / scale of reduced[t] is the residual of [x_j, word t]
        reduced = [pres._fr_builder.reduce(free.product(j, q)) for q in images]
        constraints.extend(_constraints(reduced))
    # image of word t: pi(word t) scaled by D^c, its column of pi_rows
    for k, pi_k in enumerate(pres.pi_rows):
        for word in images.keys() & pi_k.keys():
            images[word][k] = pi_k[word]
    return _kernel_span(constraints, list(images.values()), L.dim)


def _constraints(reduced):
    """Integer rows whose kernel is {a : sum_t a_t residual_t / scale_t
    = 0} for the ``(residual, scale)`` pairs of ``reduced``: one row per
    column the residuals use, over the columns t, brought to one
    denominator."""
    common = lcm(*(scale for _, scale in reduced))
    rows = {}
    for t, (residual, scale) in enumerate(reduced):
        for idx, x in residual.items():
            rows.setdefault(idx, {})[t] = x * (common // scale)
    return [rows[idx] for idx in sorted(rows)]


def _kernel_span(constraints, vectors, n):
    """The canonical span in Q^n of sum_t a_t vectors[t] over the kernel
    rows a of ``constraints``, integer rows over the columns t."""
    span = SpanBuilder(n)
    for row in kernel_rows(constraints, len(vectors)):
        vec = {}
        for t, a in row.items():
            axpy(vec, a, vectors[t])
        span.add(vec)
    return span.subspace()


def _split_exterior_center(L, split):
    """Z^(L) = {x in L2 : pi(x) in Z^(L0)}, pi the quotient map onto L0.

    pi^-1(Z^(L0)) is C plus Z^(L0) put back in C's non-pivot columns;
    x = sum_t a_t b_t over the echelon rows b_t of L2, for the kernel
    rows a of the b_t reduced modulo it.
    """
    cols = split.ideal.nonpivots()
    preimage = SpanBuilder(L.dim)
    preimage.rows.update(split.ideal.echelon)
    # cols is increasing, so each moved row keeps its least column as its
    # pivot, a column outside C's pivots: no two pivots collide and the
    # union is already one echelon
    for p, row in exterior_center(split.algebra).echelon.items():
        preimage.rows[cols[p]] = {cols[c]: x for c, x in row.items()}
    basis = list(L.derived_subspace().echelon.values())
    reduced = [preimage.reduce(b) for b in basis]
    return _kernel_span(_constraints(reduced), basis, L.dim)


def is_capable(L: LieAlgebra) -> bool:
    """Whether L is a central quotient E/Z(E); equivalently Z^(L) = 0."""
    return exterior_center(L).dim == 0


def ganea_dimension_check(L: LieAlgebra, line: Subspace) -> GaneaReport:
    """Compare dim M(L/N) with dim M(L) + dim(N cap L2) for a central
    line N, and test N against the exterior center; equality must hold
    exactly when N lies in Z^(L)."""
    if line.dim != 1:
        raise NotOneDimensional(
            f"expected a 1-dimensional subspace, got dimension {line.dim}"
        )
    if not line <= L.center():
        raise NotCentral("the given line is not central")
    quotient = L.quotient(line)
    lhs = schur_multiplier_dim(quotient.algebra)
    rhs = schur_multiplier_dim(L) + (line & L.derived_subspace()).dim
    member = line <= exterior_center(L)
    return GaneaReport(
        lhs=lhs,
        rhs=rhs,
        n_in_exterior_center=member,
        consistent=(lhs == rhs) == member,
    )


def _bound_domain(n, m):
    """Raise ValueError unless (n, m) is in the domain of both bounds."""
    if m < 1:
        raise ValueError("requires a nonzero derived subalgebra (m >= 1)")
    if n < m + 2:
        raise ValueError("requires n >= m + 2")


def bound_e1(n: int, m: int) -> int:
    """Upper bound for dim M(L) depending on n and m only."""
    _bound_domain(n, m)
    return (n + m - 2) * (n - m - 1) // 2 + 1


def bound_e2(n: int, m: int, c: int) -> int:
    """Refined upper bound for dim M(L) using the class c.

    bound_e2(n, m, c) = (n - m - 1)(n + m)/2
                        - sum((n - m - i) for i = 2..min(n - m, c))

    It is non-increasing in c and constant once c >= n - m.  Since
    bound_e1 - bound_e2 = sum((n - m - i) for i = 3..min(n - m, c)),
    it equals bound_e1(n, m) exactly when c = 2 or n - m <= 3, and is
    strictly smaller otherwise.
    """
    _bound_domain(n, m)
    if not 2 <= c <= n - 1:
        raise ValueError("requires 2 <= c <= n - 1")
    total = (n - m - 1) * (n + m) // 2
    for i in range(2, min(n - m, c) + 1):
        total -= n - m - i
    return total


def multiplier_report(L: LieAlgebra) -> MultiplierReport:
    """Compute every invariant the reports and the CLI expose."""
    rep = L.series()
    n = L.dim
    m = rep.derived_dim
    c = rep.nilpotency_class
    dim_m = schur_multiplier_dim(L)
    wedge = exterior_square_dim(L)
    zext = exterior_center(L)
    if m == 0:
        b1 = b2 = attains = None
    else:
        b1 = bound_e1(n, m)
        b2 = bound_e2(n, m, c)
        attains = dim_m == b2
    return MultiplierReport(
        n=n,
        m=m,
        c=c,
        d=n - m,
        dim_M=dim_m,
        dim_exterior_square=wedge,
        exterior_center=zext,
        capable=zext.dim == 0,
        bound_e1=b1,
        bound_e2=b2,
        attains_e2=attains,
    )
