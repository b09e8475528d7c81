"""Built-in catalog of small nilpotent algebras.

Families A(n) (abelian) and H(m) (Heisenberg, dimension 2m + 1) are
constructed directly.  The named algebras L4_3, L5_5, L5_7, L5_8,
L5_9, L6_22(eps), L6_26 are read from data/catalog.json, which follows
the standard classification of nilpotent Lie algebras in dimension at
most 6 over fields of characteristic not 2 (de Graaf); see the data
file for the exact citation and layout.

Every constructed algebra passes the Jacobi check, and each data-file
entry is gated against its asserted (n, m, c) triple.  The entries that
also assert a multiplier dimension (L4_3, L5_8, L6_26) are verified
before the first lookup that reads the data file, and before each later
one until they pass, once per process, so a wrong structure constant
fails loudly rather than producing quiet nonsense.  A name made of
families only, such as "H(1)+A(2)", reads no data file and runs no
gate, so it loads none of the data file's reader, the presentation
parser, the Hall basis and the multiplier engine.

Names accepted by catalog_get: "A(4)" or "A4", "H(2)" or "H2",
"L5_7", "L6_22(1/2)", and direct sums joined with "+", for example
"H(1)+A(2)".
"""

import re
from functools import cache

from .errors import (
    InvariantMismatch,
    MissingParameter,
    ResourceCapExceeded,
    UnknownName,
)
from .liealg import LieAlgebra, check_dim, direct_sum
from .linalg import ratio_text

MAX_ENUMERATION_DIM = 8
# the parameter values p/q enumerated, as (p, q)
DEFAULT_EPS_SAMPLES = ((0, 1), (1, 1), (-1, 1), (1, 2))


def abelian(n: int) -> LieAlgebra:
    """A(n): the abelian algebra of dimension n >= 0."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return LieAlgebra._integral(n, {}, name=f"A({n})")


def heisenberg(m: int) -> LieAlgebra:
    """H(m): dimension 2m + 1 with [x_{2i-1}, x_{2i}] = x_{2m+1}."""
    if m < 1:
        raise ValueError(f"H({m}): requires m >= 1")
    rows = {(2 * i, 2 * i + 1): (1, {2 * m: 1}) for i in range(m)}
    return LieAlgebra._integral(2 * m + 1, rows, name=f"H({m})")


@cache
def _entries():
    import json
    from importlib import resources

    text = (
        resources.files("schurlab")
        .joinpath("data/catalog.json")
        .read_text(encoding="utf-8")
    )
    return {e["name"]: e for e in json.loads(text)["entries"]}


# the presentation grammar's p or p/q, q nonzero, with an optional sign
_VALUE = re.compile(r"-?\d+(?:/\d*[1-9]\d*)?")


def _parameter_value(text, part):
    """The rational ``text`` written inline in ``part``, as "1/2" in
    "L6_22(1/2)", as an integer pair (p, q); text that is not one
    raises UnknownName."""
    if not _VALUE.fullmatch(text):
        raise UnknownName(f"invalid parameter value {text!r} in {part!r}")
    p, _, q = text.partition("/")
    return int(p), int(q or 1)


def _build_entry(entry, values) -> LieAlgebra:
    """The algebra of a data-file entry, its parameters given as integer
    pairs (p, q); one with no value raises MissingParameter."""
    from .dsl import parse_combo

    dim = entry["dim"]
    for parameter in entry["parameters"]:
        if parameter not in values:
            raise MissingParameter(
                f"{entry['name']} needs a value for {parameter!r}, "
                f"written as {entry['name']}(VALUE)"
            )
    brackets = {}
    for i, j, combo in entry["brackets"]:
        brackets[(i - 1, j - 1)] = parse_combo(combo, dim, params=values)
    if entry["parameters"]:
        args = ",".join(ratio_text(*values[p]) for p in entry["parameters"])
        name = f"{entry['name']}({args})"
    else:
        name = entry["name"]
    algebra = LieAlgebra._integral(dim, brackets, name=name)
    algebra.validate()
    rep = algebra.series()
    want = entry["invariants"]
    got = {"n": algebra.dim, "m": rep.derived_dim, "c": rep.nilpotency_class}
    if got != want:
        raise InvariantMismatch(
            f"{name}: computed (n, m, c) = {got}, asserted {want}"
        )
    return algebra


@cache
def _run_gates():
    """Check asserted multiplier dimensions; only a pass is cached.
    Run before every lookup that reads the data file and every walk of
    the catalog; a family name reads no data file and runs none, so it
    loads no multiplier engine.  The cached result
    is the gated algebras, which so stay alive for the process and keep
    the memo of their values, presentations included, for every equal
    algebra built later."""
    from . import multiplier

    gated = []
    for entry in _entries().values():
        if "dim_M" in entry:
            algebra = _build_entry(entry, {})
            got = multiplier.schur_multiplier_dim(algebra)
            if got != entry["dim_M"]:
                raise InvariantMismatch(
                    f"{entry['name']}: computed dim M = {got}, "
                    f"asserted {entry['dim_M']}"
                )
            gated.append(algebra)
    return tuple(gated)


_PART = re.compile(
    r"(?:(?P<fam>[AH])(?P<paren>\()?(?P<idx>\d+)(?(paren)\))"
    r"|(?P<table>L\d+_\d+)(?:\((?P<value>[^()]+)\))?)$"
)

# a "+" outside parentheses: "L6_22(+1)" is one part, with a bad value
_SUM = re.compile(r"\+(?![^()]*\))")


def _build_part(part: str) -> LieAlgebra:
    """One "+"-part of a catalog name."""
    match = _PART.match(part)
    if match is None:
        raise UnknownName(f"unknown algebra name {part!r}")
    if match.group("fam") == "A":
        return abelian(int(match.group("idx")))
    if match.group("fam") == "H":
        m = int(match.group("idx"))
        check_dim(2 * m + 1)
        return heisenberg(m)
    table = match.group("table")
    _run_gates()
    entry = _entries().get(table)
    if entry is None:
        raise UnknownName(f"unknown algebra name {part!r}")
    value = match.group("value")
    if value is None:
        return _build_entry(entry, {})
    if not entry["parameters"]:
        raise UnknownName(f"{table} takes no parameter")
    inline = _parameter_value(value, part)
    return _build_entry(entry, {entry["parameters"][0]: inline})


def catalog_get(name: str) -> LieAlgebra:
    """Construct a catalog algebra by name, or a "+"-joined direct sum.

    A parameter value is written in the name, as in "L6_22(1/2)"; a
    parameterised entry named without one raises MissingParameter.  A
    name of dimension above ``liealg.MAX_DIM`` raises
    ResourceCapExceeded.  The multiplier gates run before the first
    part that reads the data file ("L5_7" in "A(1)+L5_7"), so a failed
    gate fails every such name; a name of families alone runs none.
    """
    parts = [part.strip() for part in _SUM.split(name.replace(" ", ""))]
    if not all(parts):
        raise UnknownName(f"unknown algebra name {name!r}")
    algebras = [_build_part(part) for part in parts]
    check_dim(sum(algebra.dim for algebra in algebras))
    result = algebras[0]
    for other in algebras[1:]:
        result = direct_sum(result, other)
    return result


def _catalog_walk(max_dim: int):
    """The catalog up to ``max_dim`` in enumeration order, as
    (algebra, extensions) pairs: the abelians A(1)..A(max_dim) with no
    extensions, then each non-abelian base with the (k, name) pairs of
    its abelian extensions base+A(k), k = 1..max_dim - dim(base).
    ``enumerate_catalog`` and ``classification_sweep`` both walk it."""
    if max_dim < 1:
        raise ValueError("max_dim must be at least 1")
    if max_dim > MAX_ENUMERATION_DIM:
        raise ResourceCapExceeded(
            f"catalog enumeration is capped at dimension "
            f"{MAX_ENUMERATION_DIM} (asked for {max_dim})"
        )
    _run_gates()

    walk = [(abelian(k), []) for k in range(1, max_dim + 1)]

    bases = []
    m = 1
    while 2 * m + 1 <= max_dim:
        bases.append(heisenberg(m))
        m += 1
    for entry in _entries().values():
        if entry["dim"] > max_dim:
            continue
        if entry["parameters"]:
            parameter = entry["parameters"][0]
            for eps in DEFAULT_EPS_SAMPLES:
                bases.append(_build_entry(entry, {parameter: eps}))
        else:
            bases.append(_build_entry(entry, {}))

    for base in bases:
        ks = range(1, max_dim - base.dim + 1)
        walk.append((base, [(k, f"{base.name}+A({k})") for k in ks]))
    return walk


def enumerate_catalog(max_dim: int):
    """All catalog entries of dimension <= max_dim as (name, algebra)
    pairs: abelians, then each non-abelian base followed by its
    abelian extensions base+A(k).  The order is deterministic.

    ``classification_sweep`` reports its rows in this order but builds
    no base+A(k); its docstring gives the Kunneth formula it uses
    instead.  Here every direct sum is built, for ``check``, the scans
    and the tests.
    """
    out = []
    for base, extensions in _catalog_walk(max_dim):
        out.append((base.name, base))
        for k, name in extensions:
            out.append((name, direct_sum(base, abelian(k), name=name)))
    return out


def verify_catalog():
    """Rebuild and gate every entry; returns the verified names."""
    _run_gates.cache_clear()
    return [name for name, _ in enumerate_catalog(MAX_ENUMERATION_DIM)]
