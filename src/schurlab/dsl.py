"""A small textual format for presenting algebras.

    algebra NAME dim INT
    line*                  one bracket statement per line

    line     :=  "[" GEN "," GEN "]" "=" combo
    combo    :=  "0" | term (("+" | "-") term)*
    term     :=  (COEFF "*")? GEN
    COEFF    :=  RATIONAL | NAME  NAME only in catalog data, valued by
                                  the entry's parameters
    GEN      :=  "x" INT          generators are x1 .. xn
    RATIONAL :=  INT ("/" INT)?
    NAME     :=  a word that does not start like a generator

"#" starts a comment running to the end of the line; blank lines are
ignored.  Whitespace may surround brackets, signs and "*", but not sit
inside a GEN or a RATIONAL.  A combination may not start with a sign
(write "[x2, x1] = ..." instead of a leading minus).  Unstated brackets
are zero, and statements given as [xj, xi] with j > i are normalized
by antisymmetry.  Parsing validates the Jacobi identity and
nilpotency, so the result is always a nilpotent Lie algebra.
Coefficients are read as integers, with no Fraction.
"""

import re
from math import gcd, lcm

from .errors import (
    DslSyntaxError,
    DuplicateInconsistentBracket,
    MissingParameter,
    UnknownGenerator,
)
from .liealg import LieAlgebra, check_dim
from .linalg import axpy, ratio_text

_HEADER = re.compile(r"algebra\s+(\S+)\s+dim\s+(\d+)\s*$")
_LINE = re.compile(r"\[\s*x(\d+)\s*,\s*x(\d+)\s*\]\s*=\s*(.*?)\s*$")
_SIGN = re.compile(r"([+-])")
# NAME may not start like a generator: "x2*x1" is no lookup of "x2"
_TERM = re.compile(
    r"(?:(?:(?P<rat>\d+(?:/\d+)?)|(?P<name>(?!x\d)[A-Za-z_]\w*))\s*\*\s*)?"
    r"x(?P<gen>\d+)"
)


def _generator(digits, dim, line):
    """The 0-based index of generator x<digits>, which must exist."""
    gen = int(digits)
    if not 1 <= gen <= dim:
        raise UnknownGenerator(
            f"unknown generator x{gen} (dimension is {dim})", line
        )
    return gen - 1


def _coefficient(rat, name, line, params):
    if name is not None:
        if params is None:
            raise DslSyntaxError(f"unexpected name {name!r}", line)
        if name not in params:
            raise MissingParameter(f"no value supplied for parameter {name!r}")
        return params[name]
    if rat is None:
        return 1, 1
    p, _, q = rat.partition("/")
    q = int(q or 1)
    if not q:
        raise DslSyntaxError(f"zero denominator in {rat!r}", line)
    return int(p), q


def parse_combo(text, dim, line=None, params=None):
    """Parse a right-hand side into ``(den, row)``: the combination is
    row / den, row a sparse integer dict {index: entry}, in lowest terms.

    The text is split at its signs and each term matched whole.
    ``params`` maps symbolic coefficient names (catalog parameters) to
    integer pairs (p, q) for p/q, q > 0; plain presentation text passes
    None and any name is a syntax error.
    """
    pieces = _SIGN.split(text)
    if not pieces[0].strip():
        if len(pieces) == 1:
            raise DslSyntaxError("empty right-hand side", line)
        raise DslSyntaxError("a combination may not start with a sign", line)
    if text.strip() == "0":
        return 1, {}
    terms = []
    for sign, term in zip(["+", *pieces[1::2]], pieces[::2]):
        term = term.strip()
        match = _TERM.fullmatch(term)
        if match is None:
            raise DslSyntaxError(
                f"expected a term such as x3 or 2*x3, got {term!r}"
                if term
                else f"expected a term after {sign!r}",
                line,
            )
        p, q = _coefficient(*match.group("rat", "name"), line, params)
        key = _generator(match.group("gen"), dim, line)
        terms.append((key, p if sign == "+" else -p, q))
    den = lcm(*(q for _, _, q in terms))
    out = {}
    for key, p, q in terms:
        axpy(out, p * (den // q), {key: 1})
    g = gcd(den, *out.values())
    if g > 1:
        den //= g
        out = {k: x // g for k, x in out.items()}
    return den, out


def _significant_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield number, stripped


def parse_presentation(text: str) -> LieAlgebra:
    """Parse, validate (Jacobi) and nilpotency-check a presentation."""
    # some editors start a file with a byte-order mark
    lines = _significant_lines(text.removeprefix("\ufeff"))
    try:
        number, header = next(lines)
    except StopIteration:
        raise DslSyntaxError("empty presentation", 1) from None
    match = _HEADER.match(header)
    if match is None:
        raise DslSyntaxError("expected 'algebra NAME dim INT'", number)
    name = match.group(1)
    dim = check_dim(int(match.group(2)))

    brackets = {}
    for number, body in lines:
        match = _LINE.match(body)
        if match is None:
            raise DslSyntaxError("expected '[xi, xj] = combination'", number)
        i, j = (_generator(g, dim, number) for g in match.group(1, 2))
        den, combo = parse_combo(match.group(3), dim, line=number)
        if i == j:
            if combo:
                raise DslSyntaxError(
                    f"[x{i + 1}, x{i + 1}] must equal 0 by antisymmetry",
                    number,
                )
            continue
        if i > j:
            i, j = j, i
            combo = {k: -c for k, c in combo.items()}
        if brackets.setdefault((i, j), (den, combo)) != (den, combo):
            raise DuplicateInconsistentBracket(
                f"conflicting definitions for [x{i + 1}, x{j + 1}]", number
            )

    algebra = LieAlgebra._integral(dim, brackets, name=name)
    algebra.validate()
    algebra.lower_central_series()
    return algebra


def _format_term(coeff, den, gen):
    if coeff == den:
        return f"x{gen + 1}"
    return f"{ratio_text(coeff, den)}*x{gen + 1}"


def format_presentation(L: LieAlgebra, name=None) -> str:
    """Serialize an algebra; the output reparses to an equal algebra.

    Terms are written positive first, then by index, and a statement
    with no positive term is emitted with the bracket swapped, since
    combinations may not start with a sign.
    """
    label = name or L.name or "L"
    # whitespace would split the header and "#" would start a comment
    label = "".join(label.replace("#", " ").split()) or "L"
    lines = [f"algebra {label} dim {L.dim}"]
    den = L._den
    for (i, j), vec in L._table.items():
        if not any(c > 0 for c in vec.values()):
            i, j, vec = j, i, {k: -c for k, c in vec.items()}
        terms = sorted(vec.items(), key=lambda t: (t[1] < 0, t[0]))
        # each term with its sign; the first is positive and drops "+ "
        rhs = " ".join(
            f"{'+' if c > 0 else '-'} {_format_term(abs(c), den, k)}"
            for k, c in terms
        )
        lines.append(f"[x{i + 1}, x{j + 1}] = {rhs[2:]}")
    return "\n".join(lines) + "\n"
