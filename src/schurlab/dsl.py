"""A small textual format for presenting algebras.

    algebra NAME dim INT
    line*                  one bracket statement per line

    line     :=  "[" GEN "," GEN "]" "=" combo
    combo    :=  "0" | term (("+" | "-") term)*
    term     :=  (RATIONAL "*")? GEN
    GEN      :=  "x" INT          generators are x1 .. xn
    RATIONAL :=  INT ("/" INT)?

"#" starts a comment running to the end of the line; blank lines are
ignored; whitespace within a line is insignificant.  A combination may
not start with a sign (write "[x2, x1] = ..." instead of a leading
minus).  Unstated brackets are zero, and statements given as [xj, xi]
with j > i are normalized by antisymmetry.  Parsing validates the
Jacobi identity and nilpotency, so the result is always a nilpotent
Lie algebra.
"""

import re
from fractions import Fraction

from .errors import (
    DslSyntaxError,
    DuplicateInconsistentBracket,
    MissingParameter,
    UnknownGenerator,
)
from .liealg import LieAlgebra

_HEADER = re.compile(r"algebra\s+(\S+)\s+dim\s+(\d+)\s*$")
_LINE = re.compile(r"\[\s*x(\d+)\s*,\s*x(\d+)\s*\]\s*=\s*(.*?)\s*$")
_TOKEN = re.compile(
    r"\s*(?:(?P<gen>x\d+)"
    r"|(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[+\-*])"
    r"|(?P<bad>\S))"
)


def _tokenize(text, line):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            break
        if match.group("bad"):
            raise DslSyntaxError(
                f"unexpected character {match.group('bad')!r}", line
            )
        for kind in ("gen", "rat", "name", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
        pos = match.end()
    return tokens


def parse_combo(text, dim, line=None, params=None):
    """Parse a right-hand side into a sparse {index: Fraction} dict.

    ``params`` maps symbolic coefficient names (catalog parameters) to
    Fractions; plain presentation text passes None and any name is a
    syntax error.
    """
    tokens = _tokenize(text, line)
    if not tokens:
        raise DslSyntaxError("empty right-hand side", line)
    if len(tokens) == 1 and tokens[0] == ("rat", "0"):
        return {}
    if tokens[0][0] == "op":
        raise DslSyntaxError(
            "a combination may not start with a sign", line
        )
    out = {}
    sign = 1
    idx = 0
    while idx < len(tokens):
        kind, value = tokens[idx]
        coeff = Fraction(1)
        if kind in ("rat", "name"):
            if kind == "rat":
                try:
                    coeff = Fraction(value)
                except ZeroDivisionError:
                    raise DslSyntaxError(
                        f"zero denominator in {value!r}", line
                    ) from None
            else:
                if params is None:
                    raise DslSyntaxError(f"unexpected name {value!r}", line)
                if value not in params:
                    raise MissingParameter(
                        f"no value supplied for parameter {value!r}"
                    )
                coeff = Fraction(params[value])
            idx += 1
            if idx >= len(tokens) or tokens[idx] != ("op", "*"):
                raise DslSyntaxError(
                    "a coefficient must be followed by '*'", line
                )
            idx += 1
            if idx >= len(tokens) or tokens[idx][0] != "gen":
                raise DslSyntaxError("expected a generator after '*'", line)
            kind, value = tokens[idx]
        if kind != "gen":
            raise DslSyntaxError(f"expected a term, got {value!r}", line)
        gen = int(value[1:])
        if not 1 <= gen <= dim:
            raise UnknownGenerator(
                f"unknown generator x{gen} (dimension is {dim})", line
            )
        key = gen - 1
        total = out.get(key, Fraction(0)) + sign * coeff
        if total:
            out[key] = total
        else:
            out.pop(key, None)
        idx += 1
        if idx == len(tokens):
            break
        kind, value = tokens[idx]
        if kind != "op" or value not in "+-":
            raise DslSyntaxError(f"expected '+' or '-', got {value!r}", line)
        sign = 1 if value == "+" else -1
        idx += 1
        if idx == len(tokens):
            raise DslSyntaxError("trailing operator", line)
    return out


def _significant_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield number, stripped


def parse_presentation(text: str) -> LieAlgebra:
    """Parse, validate (Jacobi) and nilpotency-check a presentation."""
    lines = _significant_lines(text)
    try:
        number, header = next(lines)
    except StopIteration:
        raise DslSyntaxError("empty presentation", 1) from None
    match = _HEADER.match(header)
    if match is None:
        raise DslSyntaxError("expected 'algebra NAME dim INT'", number)
    name = match.group(1)
    dim = int(match.group(2))

    brackets = {}
    for number, body in lines:
        match = _LINE.match(body)
        if match is None:
            raise DslSyntaxError("expected '[xi, xj] = combination'", number)
        i, j = int(match.group(1)), int(match.group(2))
        for gen in (i, j):
            if not 1 <= gen <= dim:
                raise UnknownGenerator(
                    f"unknown generator x{gen} (dimension is {dim})", number
                )
        combo = parse_combo(match.group(3), dim, line=number)
        if i == j:
            if combo:
                raise DslSyntaxError(
                    f"[x{i}, x{i}] must equal 0 by antisymmetry", number
                )
            continue
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        entry = {k: sign * c for k, c in combo.items()}
        key = (i - 1, j - 1)
        if key in brackets:
            if brackets[key] != entry:
                raise DuplicateInconsistentBracket(
                    f"conflicting definitions for [x{i}, x{j}]", number
                )
            continue
        brackets[key] = entry

    algebra = LieAlgebra(dim, brackets, name=name)
    algebra.validate()
    algebra.lower_central_series()
    return algebra


def _format_coeff(coeff, gen):
    if coeff == 1:
        return f"x{gen + 1}"
    return f"{coeff}*x{gen + 1}"


def format_presentation(L: LieAlgebra, name=None) -> str:
    """Serialize an algebra; the output reparses to an equal algebra.

    A statement whose coefficients are all negative is emitted with
    the bracket swapped, and mixed-sign statements lead with a
    positive term, since combinations may not start with a sign.
    """
    label = name or L.name or "L"
    # whitespace would split the header and "#" would start a comment
    label = "".join(label.replace("#", " ").split()) or "L"
    lines = [f"algebra {label} dim {L.dim}"]
    for (i, j), vec in L.sc.items():
        terms = sorted(vec.items())
        if all(c < 0 for _, c in terms):
            i, j = j, i
            terms = [(k, -c) for k, c in terms]
        else:
            terms = [t for t in terms if t[1] > 0] + [
                t for t in terms if t[1] < 0
            ]
        parts = [_format_coeff(terms[0][1], terms[0][0])]
        for k, c in terms[1:]:
            parts.append("+" if c > 0 else "-")
            parts.append(_format_coeff(abs(c), k))
        lines.append(f"[x{i + 1}, x{j + 1}] = " + " ".join(parts))
    return "\n".join(lines) + "\n"
