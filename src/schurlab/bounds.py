"""Dimension bounds for multipliers of nilpotent algebras.

For L of dimension n with dim L2 = m >= 1 and class c, two upper
bounds on dim M(L) are computed exactly:

    bound_e1(n, m)    = (n + m - 2)(n - m - 1)/2 + 1
    bound_e2(n, m, c) = (n - m - 1)(n + m)/2
                        - sum((n - m - i) for i = 2..min(n - m, c))

Both products are even, so the division is exact.  bound_e2 refines
bound_e1 (they agree exactly when c = 2 or n - m <= 3), and
bound_e2(n, n-2, c) = n - 1.  The two formulas live in multiplier.py,
where multiplier_report reads them without loading this module, and
are re-exported here, so ``schurlab.bounds.bound_e1`` keeps working.

The remaining functions verify inequalities relating dim(L wedge L)
to the images of the trilinear map

    gamma(x, y, z) = [x,y] (x) z + [z,x] (x) y + [y,z] (x) x

(values in L2/L3 tensor L/L2, and the primed variants on L/Z(L)L2),
and ``run_checks`` runs them and the paper's scans, each from one
entry of the table THEOREMS, over any source of (name, algebra) pairs.
"""

from itertools import combinations
from math import comb

from .errors import InvariantMismatch, NotCentral, Record
from .liealg import LieAlgebra, per_algebra
from .linalg import SpanBuilder, Subspace
from .multiplier import (
    bound_e1,
    bound_e2,
    exterior_square_dim,
    kunneth_gain,
    schur_multiplier_dim,
)


def _invariants(L):
    """(n, m, c) = (dim L, dim L2, class), the invariants THEOREMS reads."""
    rep = L.series()
    return L.dim, rep.derived_dim, rep.nilpotency_class


def attains_e2(L: LieAlgebra) -> bool:
    """Whether dim M(L) equals bound_e2(n, m, c)."""
    n, m, c = _invariants(L)
    if m == 0:
        raise ValueError("the bound applies to non-abelian algebras only")
    return schur_multiplier_dim(L) == bound_e2(n, m, c)


class GammaImages(Record):
    """Dimensions of the images of gamma and its primed variants.

    ``dim_im_gamma_prime3`` is None when the class is below 3.
    """

    dim_im_gamma_L: int
    dim_im_gamma_prime2: int
    dim_im_gamma_prime3: int | None


class TheoremReport(Record):
    """Outcome of one inequality or scan: lhs <= rhs (or a violation
    count against zero), with the intermediate dimensions retained."""

    theorem: str
    instance: str
    lhs: int
    rhs: int
    holds: bool
    witnesses: dict


def _tensor_rank(rows, n, width, modulo):
    """Dimension of the span of the tensors sum(coeff * left (x) e_col),
    one per row of (coeff, left, col) terms with left a sparse integer
    dict over Q^n, modulo ``modulo`` (x) Q^width for a Subspace
    ``modulo`` of Q^n.  The tensors g (x) e_col of its canonical
    echelon rows g, pivot p, are one canonical echelon with pivots
    p * width + col, so they seed the builder as they are, uncounted."""
    builder = SpanBuilder(n * width)
    for p, g in modulo.echelon.items():
        for col in range(width):
            builder.rows[p * width + col] = {k * width + col: x for k, x in g.items()}
    for terms in rows:
        vec = {}
        for coeff, left, col in terms:
            for k, c in left.items():
                key = k * width + col
                vec[key] = vec.get(key, 0) + coeff * c
        builder.add(vec)
    return builder.rank - modulo.dim * width


def _gamma_rank(L, reps, gamma3):
    """Image dimension of gamma on the unit-vector images of the basis
    vectors reps, with D [x, y] standing in for [x, y] in L2/L3.
    gamma is alternating, so a < b < c suffices."""
    rows = (
        (
            (1, L._sparse_bracket({x: 1}, {y: 1}), c),
            (1, L._sparse_bracket({z: 1}, {x: 1}), b),
            (1, L._sparse_bracket({y: 1}, {z: 1}), a),
        )
        for (a, x), (b, y), (c, z) in combinations(enumerate(reps), 3)
    )
    return _tensor_rank(rows, L.dim, len(reps), gamma3)


def _gamma_prime3_rank(L, reps):
    """Image dimension of the degree-4 map

        [[x,y],z] (x) w + [w,[x,y]] (x) z + [[z,w],x] (x) y + [y,[z,w]] (x) x

    on the unit-vector images of the basis vectors reps, with values in
    L3, each taken as D^2 times its value.  It is antisymmetric in
    (x, y) and in (z, w), so pairs a < b, c < d suffice.
    """
    pairs = list(combinations(range(len(reps)), 2))
    table = {
        (p, c): L._sparse_bracket(
            L._sparse_bracket({reps[p[0]]: 1}, {reps[p[1]]: 1}), {z: 1}
        )
        for p in pairs
        for c, z in enumerate(reps)
    }
    rows = (
        (
            (1, table[(a, b), c], d),
            (-1, table[(a, b), d], c),
            (1, table[(c, d), a], b),
            (-1, table[(c, d), b], a),
        )
        for a, b in pairs
        for c, d in pairs
    )
    return _tensor_rank(rows, L.dim, len(reps), Subspace.zero(L.dim))


@per_algebra
def gamma_images(L: LieAlgebra) -> GammaImages:
    """Image dimensions of gamma on L/L2, and of the primed variants
    on L/(Z(L) + L2) (the degree-4 variant only when the class is at
    least 3).  Each quotient basis is the image of the basis vectors in
    the ideal's ``nonpivots()``.  Memoised per algebra value, like
    ``series``."""
    n = L.dim
    gammas = L.lower_central_series()
    gamma2 = L.derived_subspace()
    gamma3 = gammas[2] if len(gammas) > 2 else Subspace.zero(n)
    ab_reps = gamma2.nonpivots()
    prime_reps = (gamma2 + L.center()).nonpivots()

    dim_prime3 = None
    if L.series().nilpotency_class >= 3:
        dim_prime3 = _gamma_prime3_rank(L, prime_reps)
    return GammaImages(
        dim_im_gamma_L=_gamma_rank(L, ab_reps, gamma3),
        dim_im_gamma_prime2=_gamma_rank(L, prime_reps, gamma3),
        dim_im_gamma_prime3=dim_prime3,
    )


def _applicable(L, theorem, message):
    """The invariants (n, m, c) of L; raises ValueError(message) unless
    the theorem ``theorem`` of THEOREMS applies to L."""
    invariants = _invariants(L)
    if not THEOREMS[theorem][0](*invariants):
        raise ValueError(message)
    return invariants


def _report(title, L, lhs, rhs, witnesses):
    """The report of the inequality lhs <= rhs on L."""
    name = L.name if L.name is not None else f"<algebra of dimension {L.dim}>"
    return TheoremReport(title, name, lhs, rhs, lhs <= rhs, witnesses)


def check_theorem_2_1(L: LieAlgebra, K: Subspace) -> TheoremReport:
    """For central K of dimension k:

    dim M(L) + dim(L2 cap K)
        <= dim M(L/K) + k(k-1)/2 + k * dim((L/K)/(L/K)2).
    """
    if not K <= L.center():
        raise NotCentral("K must be a central subspace")
    k = K.dim
    quotient = L.quotient(K).algebra
    q_n, q_m, _ = _invariants(quotient)
    dim_m_quotient = schur_multiplier_dim(quotient)
    lhs = schur_multiplier_dim(L) + (L.derived_subspace() & K).dim
    rhs = dim_m_quotient + kunneth_gain(k, q_n - q_m)
    witnesses = {"k": k, "dim_M_quotient": dim_m_quotient}
    return _report("central quotient bound", L, lhs, rhs, witnesses)


def check_theorem_2_2(L: LieAlgebra) -> TheoremReport:
    """dim M(L) <= m when dim L >= 4 and L2 has codimension 2."""
    n, m, _ = _applicable(
        L, "2.2", "applies only in dimension at least 4 with L2 of codimension 2"
    )
    title = "codimension-2 derived subalgebra bound"
    return _report(title, L, schur_multiplier_dim(L), m, {"n": n, "m": m})


def check_theorem_2_5(L: LieAlgebra) -> TheoremReport:
    """dim(L wedge L) + dim im(gamma')
        <= C(n-m, 2) + sum over i >= 2 of dim(g_i/g_{i+1}) * dim L/(Z(L)+L2).

    The layers dim(g_i/g_{i+1}) add up to dim L2 = m, so the sum is
    m * dim L/(Z(L)+L2).
    """
    n, m, _ = _applicable(L, "2.5", "applies to non-abelian algebras only")
    wedge = exterior_square_dim(L)
    prime2 = gamma_images(L).dim_im_gamma_prime2
    # dim(L2 + Z) = m + k, k = dim Z - dim(Z cap L2)
    prime_width = n - m - L.series().central_complement_dim
    return _report(
        "exterior square bound via gamma'",
        L,
        wedge + prime2,
        comb(n - m, 2) + m * prime_width,
        {"dim_wedge": wedge, "dim_im_gamma_prime2": prime2},
    )


def check_theorem_2_6(L: LieAlgebra) -> TheoremReport:
    """For class exactly 3:

    dim(L wedge L) + dim im(gamma'_2) + dim im(gamma'_3)
        <= C(n-m, 2) + (m - g3)(n - m) + g3 (n - m),  g3 = dim L3.

    The two layer terms add up to m(n - m), so g3 does not enter the
    bound; it is reported as a witness.
    """
    n, m, _ = _applicable(L, "2.6", "applies to algebras of class exactly 3")
    wedge = exterior_square_dim(L)
    images = gamma_images(L)
    g3 = L.lower_central_series()[2].dim
    witnesses = {
        "dim_wedge": wedge,
        "dim_im_gamma_prime2": images.dim_im_gamma_prime2,
        "dim_im_gamma_prime3": images.dim_im_gamma_prime3,
        "g3": g3,
    }
    return _report(
        "class-3 exterior square bound",
        L,
        wedge + images.dim_im_gamma_prime2 + images.dim_im_gamma_prime3,
        comb(n - m, 2) + m * (n - m),
        witnesses,
    )


# Theorem id -> (applies, check), in the order ``run_checks`` reports
# them.  ``applies`` reads the invariants (n, m, c) = (dim L, dim L2,
# class); a nilpotent L has Z(L) != 0 exactly when n > 0.  A callable
# ``check`` gives one report per applicable algebra.  A scan's check is
# (title, noted, outcome): outcome(n, m, c, dim M) names the witness
# list an applicable algebra joins, "violations" or ``noted``, or is
# falsy, and the scan reports the number of violations.
THEOREMS = {
    "2.1": (lambda n, m, c: n > 0, lambda L: check_theorem_2_1(L, L.center())),
    "2.2": (lambda n, m, c: m == n - 2 and n >= 4, check_theorem_2_2),
    "2.5": (lambda n, m, c: m > 0, check_theorem_2_5),
    "2.6": (lambda n, m, c: c == 3, check_theorem_2_6),
    "2.9": (
        lambda n, m, c: m == 3,
        (
            "multiplier gap for m = 3",
            "class_two_matches",
            lambda n, m, c, dim_m: dim_m == (n - 1) * (n - 2) // 2 - 2
            and ("violations" if c >= 3 else "class_two_matches"),
        ),
    ),
    "3.7": (
        lambda n, m, c: m > 0 and c >= 3,
        (
            "strict refinement for class >= 3",
            "equality_witnesses",
            lambda n, m, c, dim_m: (
                "violations" if dim_m >= bound_e2(n, m, c)
                else dim_m == bound_e2(n, m, c) - 1 and "equality_witnesses"
            ),
        ),
    ),
}


def run_checks(entries, theorem: str, source: str) -> list[TheoremReport]:
    """Run the theorem ``theorem`` (an id of THEOREMS, or "all" for
    each in table order) over ``entries``, any iterable of (name,
    algebra) pairs.  Returns one report per applicable algebra, whose
    ``instance`` is the name of its pair, or one per scan, whose
    ``instance`` is ``source`` and whose witnesses list the entries by
    name."""
    if theorem != "all" and theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    rows = [(name, L, _invariants(L)) for name, L in entries]
    reports = []
    for key, (applies, check) in THEOREMS.items():
        if theorem not in (key, "all"):
            continue
        applicable = [row for row in rows if applies(*row[2])]
        if callable(check):
            reports += [
                TheoremReport(**{**vars(check(L)), "instance": name})
                for name, L, _ in applicable
            ]
            continue
        title, noted, outcome = check
        witnesses = {"checked": [], "violations": [], noted: []}
        for name, L, invariants in applicable:
            witnesses["checked"].append(name)
            joins = outcome(*invariants, schur_multiplier_dim(L))
            if joins:
                witnesses[joins].append(name)
        violations = len(witnesses["violations"])
        reports.append(
            TheoremReport(title, source, violations, 0, not violations, witnesses)
        )
    return reports


def _scan_catalog(theorem, max_dim):
    """The report of the scan ``theorem`` over the catalog up to
    ``max_dim``."""
    from .catalog import enumerate_catalog

    source = f"catalog up to dimension {max_dim}"
    return run_checks(enumerate_catalog(max_dim), theorem, source)[0]


def scan_theorem_2_9(max_dim: int = 6) -> TheoremReport:
    """Scan the catalog: no algebra of class >= 3 with m = 3 has
    dim M(L) = (n-1)(n-2)/2 - 2.  Class-2 algebras hitting that value
    are recorded for information but are not violations."""
    return _scan_catalog("2.9", max_dim)


def check_theorem_3_7(max_dim: int = 6) -> TheoremReport:
    """Scan the catalog: every algebra of class >= 3 satisfies
    dim M(L) <= bound_e2 - 1; the equality witnesses are recorded."""
    return _scan_catalog("3.7", max_dim)


class SweepRow(Record):
    """One catalog entry in a classification sweep."""

    name: str
    n: int
    m: int
    c: int
    dim_M: int
    bound_e2: int | None
    attains_e2: bool


def _sweep_row(name, n, m, c, dim_m):
    """The row of an entry with invariants (n, m, c) and dim M(L) =
    ``dim_m``; raises InvariantMismatch if it contradicts the strict
    refinement for class >= 3 or the codimension-2 bound.

    The 2.2 guard cannot fire before the 3.7 guard: with m = n - 2
    there are two generators, so dim L2/L3 <= 1, and n >= 4 then forces
    c >= 3, where attaining bound_e2 already exceeds bound_e2 - 1.  It
    stays only as a consistency check of the two."""
    if m == 0:
        return SweepRow(name, n, m, c, dim_m, None, False)
    bound = bound_e2(n, m, c)
    attains = dim_m == bound
    applies, (_, _, outcome) = THEOREMS["3.7"]
    if applies(n, m, c) and outcome(n, m, c, dim_m) == "violations":
        raise InvariantMismatch(
            f"{name}: class {c} >= 3 but dim M = {dim_m} exceeds {bound} - 1"
        )
    if THEOREMS["2.2"][0](n, m, c) and attains:
        raise InvariantMismatch(
            f"{name}: codimension-2 derived subalgebra attains the bound"
        )
    return SweepRow(name, n, m, c, dim_m, bound, attains)


def classification_sweep(max_dim: int = 6):
    """Multiplier data for every catalog entry up to ``max_dim``,
    in deterministic catalog order (that of ``enumerate_catalog``).

    Each non-abelian base gets one Hopf computation, and A(n) none:
    ``schur_multiplier_dim`` splits it whole.  A row base+A(k) is
    derived from its base with no presentation and no direct sum:
    L + A(k) has invariants (n + k, m, c), and by the Kunneth formula
    M(A + B) = M(A) + M(B) + (A/A2 (x) B/B2) (Batten, Moneyhun and
    Stitzinger, Comm. Algebra 24 (1996))

        dim M(L + A(k)) = dim M(L) + C(k, 2) + k(n - m).
    """
    from .catalog import _catalog_walk

    rows = []
    for base, extensions in _catalog_walk(max_dim):
        n, m, c = _invariants(base)
        dim_m = schur_multiplier_dim(base)
        rows.append(_sweep_row(base.name, n, m, c, dim_m))
        for k, name in extensions:
            dim_sum = dim_m + kunneth_gain(k, n - m)
            rows.append(_sweep_row(name, n + k, m, c, dim_sum))
    return rows

