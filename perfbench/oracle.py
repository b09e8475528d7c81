"""Independent answers for the benchmark's correctness checks.

Nothing here calls schurlab's linear algebra.  An algebra is a pair
``(n, sc)`` with ``sc[(i, j)] = {k: Fraction}`` for i < j (0-based),
read from the public presentation text by ``parse_presentation_text``.

Ranks come from the Chevalley-Eilenberg complex, as in the test
suite's sympy oracle, but with plain integer elimination:

    dim(L wedge L) = C(n, 2) - rank d3,   d3: Lambda^3 L -> Lambda^2 L
    dim M(L)       = dim(L wedge L) - dim L^2
    Z^(L)          = {z : z wedge x in im d3 for every x}
"""

import re
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

_HEADER = re.compile(r"algebra\s+\S+\s+dim\s+(\d+)\s*$")
_LINE = re.compile(r"\[\s*x(\d+)\s*,\s*x(\d+)\s*\]\s*=\s*(.*?)\s*$")
_TERM = re.compile(r"([+-])?\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?x(\d+)")


def parse_presentation_text(text):
    """(n, sc) from the presentation format written by schurlab."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(_HEADER.match(lines[0]).group(1))
    sc = {}
    for line in lines[1:]:
        i, j, rhs = _LINE.match(line).groups()
        i, j = int(i) - 1, int(j) - 1
        vec = {}
        for sign, coeff, gen in _TERM.findall(rhs):
            c = Fraction(coeff or 1) * (-1 if sign == "-" else 1)
            vec[int(gen) - 1] = vec.get(int(gen) - 1, 0) + c
        if i > j:
            i, j = j, i
            vec = {k: -c for k, c in vec.items()}
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            sc[(i, j)] = vec
    return n, sc


def _bracket(sc, i, j):
    if i < j:
        return sc.get((i, j), {})
    if i > j:
        return {k: -c for k, c in sc.get((j, i), {}).items()}
    return {}


def _primitive_int(row):
    den = 1
    for x in row:
        if x:
            den = lcm(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints] if g > 1 else ints


class Echelon:
    """Row space over Q, kept as primitive integer rows by pivot."""

    def __init__(self, width):
        self.width = width
        self.rows = {}

    def reduce(self, row):
        row = _primitive_int(row)
        for c in range(self.width):
            a = row[c]
            if a:
                prow = self.rows.get(c)
                if prow is not None:
                    b = prow[c]
                    row = _primitive_int([b * x - a * y for x, y in zip(row, prow)])
        return row

    def add(self, row):
        row = self.reduce(row)
        for c, a in enumerate(row):
            if a:
                self.rows[c] = row
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)


def rank(rows, width):
    ech = Echelon(width)
    for row in rows:
        ech.add(row)
    return ech.rank


def _dense(vec, n):
    out = [0] * n
    for k, c in vec.items():
        out[k] = c
    return out


def _bracket_vec(sc, n, u, j):
    """[u, x_j] for a dense coordinate vector u."""
    out = [0] * n
    for i, a in enumerate(u):
        if a:
            for k, c in _bracket(sc, i, j).items():
                out[k] += a * c
    return out


def series_invariants(n, sc):
    """(gamma_dims ending at the first 0, center_dim)."""
    dims = [n]
    current = [_dense({i: 1}, n) for i in range(n)]
    while current:
        ech = Echelon(n)
        for u in current:
            for j in range(n):
                ech.add(_bracket_vec(sc, n, u, j))
        if ech.rank == len(current):
            raise ValueError("the algebra is not nilpotent")
        current = list(ech.rows.values())
        dims.append(len(current))
    ad_rank = rank(
        [sum((_dense(_bracket(sc, i, j), n) for j in range(n)), []) for i in range(n)],
        n * n,
    )
    return dims, n - ad_rank


def wedge_invariants(n, sc):
    """(dim M, dim L wedge L, dim Z^) from the Lambda^2 / d3 complex."""
    pairs = list(combinations(range(n), 2))
    index = {p: t for t, p in enumerate(pairs)}
    width = len(pairs)

    def wedge(vec, k, coeff, out):
        # adds coeff * (vec wedge x_k) in the pair basis
        for l, c in vec.items():
            if l < k:
                out[index[(l, k)]] += coeff * c
            elif l > k:
                out[index[(k, l)]] -= coeff * c

    im_d3 = Echelon(width)
    for x, y, z in combinations(range(n), 3):
        out = [0] * width
        wedge(_bracket(sc, x, y), z, 1, out)
        wedge(_bracket(sc, x, z), y, -1, out)
        wedge(_bracket(sc, y, z), x, 1, out)
        im_d3.add(out)
    m = rank([_dense(_bracket(sc, i, j), n) for i, j in pairs], n)
    dim_wedge = width - im_d3.rank

    # z -> (z wedge x_j mod im d3)_j is linear in z; Z^ is its kernel.
    columns = []
    for i in range(n):
        col = []
        for j in range(n):
            out = [0] * width
            wedge({i: 1}, j, 1, out)
            col.extend(_residual(im_d3, out))
        columns.append(col)
    dim_zhat = n - rank(columns, n * width)
    return dim_wedge - m, dim_wedge, dim_zhat


def _residual(ech, row):
    """A fixed linear function of ``row`` that vanishes exactly on the
    row space: reduce with rational pivots so no rescaling happens."""
    row = [Fraction(x) for x in row]
    for c in range(ech.width):
        a = row[c]
        if a:
            prow = ech.rows.get(c)
            if prow is not None:
                f = a / prow[c]
                row = [x - f * y for x, y in zip(row, prow)]
    return row
