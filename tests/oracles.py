"""Independent oracles used to cross-check the main computations.

The multiplier oracle goes through Chevalley-Eilenberg homology with
sympy: dim M(L) = dim H2(L; Q) = dim ker(d2) - rank(d3), a completely
different route from the Hopf-formula engine (no free algebras, no
Hall bases, no echelon code shared).  The exterior-center oracle uses
the same d3: L wedge L = Lambda^2 L / im d3, so Z^(L) is the set of z
with z wedge e_i in im d3 for every i.  The gamma oracle evaluates the
maps of ``schurlab.bounds.gamma_images`` on every ordered tuple of
representatives, in sympy coordinates.  The change-of-basis oracle
conjugates the literal bracket by P with sympy.  The Witt oracle counts
Lyndon words by brute force.
"""

from fractions import Fraction
from itertools import combinations, product

from sympy import Matrix, Rational, zeros


def _rat(x):
    x = Fraction(x)
    return Rational(x.numerator, x.denominator)


def _d3(L):
    """The map d3: Lambda^3 L -> Lambda^2 L, x^y^z to
    [x,y]^z - [x,z]^y + [y,z]^x, on the bases e_i ^ e_j (i < j) and
    e_i ^ e_j ^ e_k (i < j < k); also returns the pair index."""
    n = L.dim
    pairs = list(combinations(range(n), 2))
    pair_index = {p: t for t, p in enumerate(pairs)}
    triples = list(combinations(range(n), 3))
    d3 = Matrix.zeros(len(pairs), len(triples))

    def add_wedge(col, coeff, vec, k):
        # coeff * ([vec] wedge e_k) expanded into the pair basis
        for l, c in vec.items():
            if l == k:
                continue
            if l < k:
                d3[pair_index[(l, k)], col] += coeff * _rat(c)
            else:
                d3[pair_index[(k, l)], col] -= coeff * _rat(c)

    for col, (x, y, z) in enumerate(triples):
        add_wedge(col, 1, L.sc.get((x, y), {}), z)
        add_wedge(col, -1, L.sc.get((x, z), {}), y)
        add_wedge(col, 1, L.sc.get((y, z), {}), x)
    return d3, pair_index


def ce_multiplier_dim(L):
    """dim H2(L; Q) from the Chevalley-Eilenberg complex."""
    n = L.dim
    d3, pair_index = _d3(L)
    d2 = Matrix.zeros(n, len(pair_index))
    for (i, j), t in pair_index.items():
        for k, val in L.sc.get((i, j), {}).items():
            d2[k, t] = _rat(val)
    return (len(pair_index) - d2.rank()) - d3.rank()


def wedge_dim(L):
    """dim(L wedge L) = dim Lambda^2 L - rank d3."""
    d3, pair_index = _d3(L)
    return len(pair_index) - d3.rank()


def wedge_exterior_center(L):
    """Z^(L) = {z : z ^ e_i in im d3 for all i}, as a sympy basis of
    column vectors.

    The rows of Q span the vectors orthogonal to im d3, so w lies in
    im d3 exactly when Q w = 0; z ^ e_i is linear in z, with the matrix
    W_i, and Z^ is the kernel of all the Q W_i stacked.
    """
    n = L.dim
    d3, pair_index = _d3(L)
    npairs = len(pair_index)
    orthogonal = d3.T.nullspace()
    if not orthogonal:  # im d3 is all of Lambda^2 L, or Lambda^2 L = 0
        return [Matrix.eye(n)[:, i] for i in range(n)]
    q = Matrix.hstack(*orthogonal).T
    blocks = []
    for i in range(n):
        wedge = Matrix.zeros(npairs, n)
        for z in range(n):
            if z < i:
                wedge[pair_index[(z, i)], z] = 1
            elif z > i:
                wedge[pair_index[(i, z)], z] = -1
        blocks.append(q * wedge)
    return Matrix.vstack(*blocks).nullspace()


def _columns(vectors):
    """A basis of the span of sympy column vectors, keeping the earliest
    independent ones, as a list of columns."""
    if not vectors:
        return []
    return Matrix.hstack(*vectors).columnspace()


def _coordinate_map(frame):
    """Coordinates in the (independent) columns of frame, for vectors in
    their span: the exact left inverse (F^T F)^-1 F^T."""
    frame = Matrix.hstack(*frame)
    return (frame.T * frame).inv() * frame.T


def literal_gamma_images(L):
    """(dim im gamma, dim im gamma'_2, dim im gamma'_3) by the definitions.

    gamma(x, y, z) = [x,y] (x) z + [z,x] (x) y + [y,z] (x) x takes values
    in L2/L3 (x) L/L2, and gamma'_2 is the same map on L/(Z(L) + L2).
    gamma'_3(x, y, z, w) = [[x,y],z] (x) w + [w,[x,y]] (x) z
    + [[z,w],x] (x) y + [y,[z,w]] (x) x takes values in L3 (x) L/(Z(L) + L2)
    and is None below class 3.  Every ordered triple and quadruple of
    representatives is evaluated; the representatives of L/I are the
    standard basis vectors outside the pivot columns of I in reduced row
    echelon form.
    """
    n = L.dim
    basis = [Matrix.eye(n)[:, i] for i in range(n)]
    sc = [
        (i, j, [(k, _rat(c)) for k, c in vec.items()])
        for (i, j), vec in L.sc.items()
    ]

    def bracket(u, v):
        out = zeros(n, 1)
        for i, j, vec in sc:
            c = u[i] * v[j] - u[j] * v[i]
            if c:
                for k, w in vec:
                    out[k] += c * w
        return out

    l2 = _columns([bracket(x, y) for x in basis for y in basis])
    l3 = _columns([bracket(x, y) for x in basis for y in l2])
    # a basis of L2 that starts with the basis of L3: trailing coordinates
    # are the L2/L3 coordinates
    g3 = len(l3)
    mod3 = _coordinate_map(_columns(l3 + l2))[g3:, :] if l2 else zeros(0, n)
    on_l3 = _coordinate_map(l3) if l3 else zeros(0, n)
    ad = Matrix.vstack(
        *[Matrix.hstack(*[bracket(x, y) for x in basis]) for y in basis]
    )
    center = ad.nullspace()

    def quotient(ideal):
        """Representatives of L/I and the coordinate map onto them."""
        pivots = Matrix.hstack(*ideal).T.rref()[1] if ideal else ()
        reps = [basis[j] for j in range(n) if j not in pivots]
        if not reps:
            return reps, zeros(0, n)
        return reps, _coordinate_map(ideal + reps)[len(ideal) :, :]

    def rank(values):
        if not values:
            return 0
        flat = [v.reshape(v.rows * v.cols, 1) for v in values]
        return Matrix.hstack(*flat).rank()

    def gamma(reps, proj):
        values = []
        for x in reps:
            for y in reps:
                for z in reps:
                    values.append(
                        sum(
                            (
                                (mod3 * bracket(u, v)) * (proj * w).T
                                for u, v, w in ((x, y, z), (z, x, y), (y, z, x))
                            ),
                            zeros(mod3.rows, len(reps)),
                        )
                    )
        return rank(values)

    ab_reps, ab_proj = quotient(l2)
    prime_reps, prime_proj = quotient(_columns(l2 + center))
    dim_prime3 = None
    if l3:
        values = []
        for x in prime_reps:
            for y in prime_reps:
                for z in prime_reps:
                    for w in prime_reps:
                        xy, zw = bracket(x, y), bracket(z, w)
                        values.append(
                            sum(
                                (
                                    (on_l3 * u) * (prime_proj * v).T
                                    for u, v in (
                                        (bracket(xy, z), w),
                                        (bracket(w, xy), z),
                                        (bracket(zw, x), y),
                                        (bracket(y, zw), x),
                                    )
                                ),
                                zeros(g3, len(prime_reps)),
                            )
                        )
        dim_prime3 = rank(values)
    return gamma(ab_reps, ab_proj), gamma(prime_reps, prime_proj), dim_prime3


def literal_change_basis(L, p_rows):
    """The structure constants of L in the basis of the columns of P, by
    the definition [y_s, y_t] = P^-1 [P e_s, P e_t]: sympy's inverse,
    and the bracket expanded term by term from ``L.sc``.  Returns the
    nonzero brackets for s < t as {(s, t): {k: Fraction}}."""
    n = L.dim
    p = Matrix(n, n, lambda i, j: _rat(p_rows[i][j]))
    p_inv = p.inv()
    out = {}
    for s in range(n):
        for t in range(s + 1, n):
            u, v = p[:, s], p[:, t]
            w = zeros(n, 1)
            for (i, j), vec in L.sc.items():
                c = u[i] * v[j] - u[j] * v[i]
                for k, x in vec.items():
                    w[k] += c * _rat(x)
            img = p_inv * w
            entry = {
                k: Fraction(int(img[k].p), int(img[k].q))
                for k in range(n)
                if img[k]
            }
            if entry:
                out[(s, t)] = entry
    return out


def lyndon_count(d, k):
    """Number of Lyndon words of length k over a d-letter alphabet."""
    if k == 1:
        return d
    count = 0
    for word in product(range(d), repeat=k):
        if all(word < word[i:] + word[:i] for i in range(1, k)):
            count += 1
    return count


def random_basis_change(L, rng):
    """A random invertible rational change of basis of L.

    Built from elementary shears, swaps and scalings so invertibility
    is automatic.
    """
    n = L.dim
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for t in range(n):
                rows[i][t] += q * rows[j][t]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            q = rng.choice([Fraction(-1), Fraction(2), Fraction(1, 2)])
            for t in range(n):
                rows[i][t] *= q
    return L.change_basis(rows)
