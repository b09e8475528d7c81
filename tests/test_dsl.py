import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import random_basis_change
from schurlab.catalog import catalog_get
from schurlab.dsl import format_presentation, parse_combo, parse_presentation
from schurlab.errors import (
    DslError,
    DslSyntaxError,
    DuplicateInconsistentBracket,
    JacobiViolation,
    MissingParameter,
    NotNilpotent,
    SchurlabError,
    UnknownGenerator,
)

L5_7_TEXT = """\
# five generators, filiform
algebra L5_7 dim 5
[x1, x2] = x3
[x1, x3] = x4
[x1, x4] = x5
"""


def test_parse_known_presentation():
    algebra = parse_presentation(L5_7_TEXT)
    rep = algebra.series()
    assert (algebra.dim, rep.derived_dim, rep.nilpotency_class) == (5, 3, 4)
    assert algebra.sc == catalog_get("L5_7").sc
    assert algebra.name == "L5_7"


def test_parse_combos():
    # (den, row): the combination row / den in lowest terms
    assert parse_combo("0", 4) == (1, {})
    assert parse_combo("x3", 4) == (1, {2: 1})
    assert parse_combo("2*x1 - x2", 4) == (1, {0: 2, 1: -1})
    assert parse_combo("1/2*x1 + 3/4*x2 - x1", 4) == (4, {0: -2, 1: 3})
    assert parse_combo("x1 - x1", 4) == (1, {})
    assert parse_combo("2/4*x1 + 6/4*x2", 4) == (2, {0: 1, 1: 3})
    assert parse_combo("1/2*x1 + 1/2*x1", 4) == (1, {0: 1})
    assert parse_combo("eps*x2", 4, params={"eps": (5, 1)}) == (1, {1: 5})
    assert parse_combo("eps*x2 + x3", 4, params={"eps": (-1, 2)}) == (
        2,
        {1: -1, 2: 2},
    )


def test_combo_errors():
    with pytest.raises(DslSyntaxError):
        parse_combo("-x1", 4)
    with pytest.raises(DslSyntaxError):
        parse_combo("", 4)
    with pytest.raises(DslSyntaxError):
        parse_combo("x1 +", 4)
    with pytest.raises(DslSyntaxError):
        parse_combo("2 x1", 4)
    with pytest.raises(DslSyntaxError):
        parse_combo("x1 x2", 4)
    with pytest.raises(DslSyntaxError):
        parse_combo("eps*x1", 4)
    with pytest.raises(UnknownGenerator):
        parse_combo("x9", 4)


# one fault each, read as the right-hand side of line 4 at dimension 3
SINGLE_FAULTS = [
    ("-x3", DslSyntaxError, "a combination may not start with a sign"),
    ("+ x3", DslSyntaxError, "a combination may not start with a sign"),
    ("", DslSyntaxError, "empty right-hand side"),
    ("x3 +", DslSyntaxError, "expected a term after '+'"),
    ("x3 + - x1", DslSyntaxError, "expected a term after '+'"),
    ("2 x3", DslSyntaxError, "got '2 x3'"),
    ("x3 x1", DslSyntaxError, "got 'x3 x1'"),
    ("x3 2", DslSyntaxError, "got 'x3 2'"),
    ("x3 @", DslSyntaxError, "got 'x3 @'"),
    ("2*", DslSyntaxError, "got '2*'"),
    ("x3 - 2 * ", DslSyntaxError, "got '2 *'"),
    ("0/1", DslSyntaxError, "got '0/1'"),
    ("1/2x3", DslSyntaxError, "got '1/2x3'"),
    ("x3 +* x1", DslSyntaxError, "got '* x1'"),
    ("*x3", DslSyntaxError, "got '*x3'"),
    ("eps*x3", DslSyntaxError, "unexpected name 'eps'"),
    ("1/0*x3", DslSyntaxError, "zero denominator in '1/0'"),
    ("x9", UnknownGenerator, "unknown generator x9 (dimension is 3)"),
    ("x0", UnknownGenerator, "unknown generator x0 (dimension is 3)"),
]


@pytest.mark.parametrize("rhs, kind, message", SINGLE_FAULTS)
def test_single_fault_messages(rhs, kind, message):
    text = f"algebra T dim 3\n# a comment\n\n[x1, x2] = {rhs}\n"
    with pytest.raises(DslError) as info:
        parse_presentation(text)
    assert type(info.value) is kind
    assert info.value.line == 4
    assert str(info.value).startswith("line 4: ")
    assert message in str(info.value)
    assert "''" not in str(info.value)


def test_missing_parameter_names_it():
    with pytest.raises(MissingParameter) as info:
        parse_combo("eps*x1", 3, params={})
    assert str(info.value) == "no value supplied for parameter 'eps'"


def test_fuzz_combos():
    pieces = [
        "x1", "x9", "x0", "x", "2", "0", "1/2", "3/0", "/", "*", "+", "-",
        " ", "\t", "eps", "@", "x1a", "_b",
    ]
    rng = random.Random(19)
    accepted = 0
    for _ in range(20000):
        text = "".join(rng.choices(pieces, k=rng.randint(0, 7)))
        for params in (None, {"eps": (2, 1)}):
            try:
                den, combo = parse_combo(text, 4, line=7, params=params)
            except DslError as exc:
                assert exc.line == 7, text
                assert "''" not in str(exc), text
                continue
            except SchurlabError:
                continue
            accepted += 1
            assert all(0 <= k < 4 and c for k, c in combo.items()), text
            assert all(type(c) is int for c in (den, *combo.values())), text
            assert den > 0 and gcd(den, *combo.values()) == 1, text
    assert accepted > 0


def test_header_errors():
    with pytest.raises(DslSyntaxError) as info:
        parse_presentation("")
    assert info.value.line == 1
    with pytest.raises(DslSyntaxError):
        parse_presentation("algebra X\n")
    with pytest.raises(DslSyntaxError):
        parse_presentation("algebra X dim five\n")


def test_line_errors_carry_numbers():
    text = "algebra X dim 3\n\n# comment\n[x1, x2] == x3\n"
    with pytest.raises(DslSyntaxError) as info:
        parse_presentation(text)
    assert info.value.line == 4
    assert "line 4" in str(info.value)
    with pytest.raises(DslSyntaxError) as info:
        parse_presentation("algebra Z dim 3\n[x1, x2] = 1/0*x3\n")
    assert info.value.line == 2
    assert "zero denominator" in str(info.value)


def test_unknown_generator_in_bracket():
    with pytest.raises(UnknownGenerator):
        parse_presentation("algebra X dim 2\n[x1, x5] = x2\n")


def test_self_bracket():
    with pytest.raises(DslSyntaxError):
        parse_presentation("algebra X dim 3\n[x1, x1] = x2\n")
    # explicitly zero self-bracket is harmless
    algebra = parse_presentation("algebra X dim 3\n[x1, x1] = 0\n")
    assert algebra.sc == {}


def test_antisymmetric_normalization_and_duplicates():
    text = "algebra X dim 3\n[x2, x1] = x3\n"
    algebra = parse_presentation(text)
    assert algebra.sc == {(0, 1): {2: Fraction(-1)}}
    # "0 - x3" is not in the grammar: "0" is only valid alone
    with pytest.raises(DslSyntaxError):
        parse_presentation(
            "algebra X dim 3\n[x1, x2] = x3\n[x2, x1] = 0 - x3\n"
        )
    repeated = "algebra X dim 3\n[x1, x2] = x3\n[x1, x2] = x3\n"
    assert parse_presentation(repeated).sc == {(0, 1): {2: Fraction(1)}}
    inconsistent = "algebra X dim 3\n[x1, x2] = x3\n[x2, x1] = x3\n"
    with pytest.raises(DuplicateInconsistentBracket) as info:
        parse_presentation(inconsistent)
    assert info.value.line == 3


def test_parse_rejects_non_jacobi_and_non_nilpotent():
    bad = (
        "algebra B dim 4\n"
        "[x1, x2] = x3\n"
        "[x1, x3] = x4\n"
        "[x2, x4] = x3\n"
    )
    with pytest.raises(JacobiViolation):
        parse_presentation(bad)
    with pytest.raises(NotNilpotent):
        parse_presentation("algebra S dim 2\n[x1, x2] = x2\n")


def test_jacobi_violation_of_rational_text_names_its_residual():
    # the residual is read off the integer table over D^2 and handed
    # back as Fractions
    bad = (
        "algebra J dim 5\n"
        "[x1, x2] = 1/2*x3\n"
        "[x1, x3] = 2/3*x4 - 1/4*x5\n"
        "[x2, x3] = 3/4*x4\n"
        "[x2, x4] = 1/3*x3 - 2/7*x5\n"
    )
    with pytest.raises(JacobiViolation) as info:
        parse_presentation(bad)
    assert str(info.value) == (
        "Jacobi identity fails on (x1, x2, x3); residual 2/9*x3, -4/21*x5"
    )
    assert info.value.triple == (1, 2, 3)
    assert info.value.residual == (0, 0, Fraction(2, 9), 0, Fraction(-4, 21))
    assert all(type(c) is Fraction for c in info.value.residual)


def test_roundtrip_catalog(catalog6):
    # basis changes give mixed-sign, all-negative and fractional statements
    rng = random.Random(5)
    moved = [(name, random_basis_change(L, rng)) for name, L in catalog6]
    for name, algebra in catalog6 + moved:
        text = format_presentation(algebra)
        again = parse_presentation(text)
        assert again.sc == algebra.sc, name
        assert again.dim == algebra.dim
    vectors = [v.values() for _, L in moved for v in L.sc.values()]
    assert any(min(v) < 0 < max(v) for v in vectors)
    assert any(max(v) < 0 for v in vectors)
    assert any(c.denominator > 1 for v in vectors for c in v)
    # "#" would start a comment and whitespace would split the header
    algebra = catalog_get("L5_7")
    for label, kept in (("a#b", "ab"), ("a b", "ab"), ("#", "L")):
        text = format_presentation(algebra, label)
        assert text.startswith(f"algebra {kept} dim 5\n"), label
        again = parse_presentation(text)
        assert again.sc == algebra.sc and again.name == kept, label


def test_format_avoids_leading_signs():
    from schurlab.liealg import LieAlgebra

    L = LieAlgebra(
        5,
        {
            (0, 1): {2: Fraction(-1)},
            (0, 2): {3: Fraction(2), 4: Fraction(-1, 2)},
            (1, 2): {3: Fraction(-1), 4: Fraction(-1)},
        },
        name="mixed signs",
    )
    text = format_presentation(L)
    for line in text.splitlines()[1:]:
        rhs = line.split("=", 1)[1].strip()
        assert not rhs.startswith("-"), line
    again = parse_presentation(text)
    assert again.sc == L.sc
