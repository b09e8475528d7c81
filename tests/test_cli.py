import ast
import hashlib
import importlib.util
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schurlab
from schurlab.catalog import catalog_get
from schurlab.cli import COMMANDS, _parse, main
from schurlab.dsl import format_presentation, parse_combo, parse_presentation
from schurlab.hall import free_nilpotent_algebra
from schurlab.liealg import LieAlgebra, Quotient


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_example(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--name", "L5_8", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound_e1"] == 6
    assert doc["bound_e2"] == 6
    assert doc["attains_e2"] is True
    assert doc["schema_version"] == "1"
    assert doc["name"] == "L5_8"


def test_capable_example(capsys):
    code, out, _ = run_cli(
        capsys, "capable", "--name", "A1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["capable"] is False


def test_multiplier_example(capsys):
    code, out, _ = run_cli(
        capsys, "multiplier", "--name", "L5_7", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_M"] == 3
    assert doc["dim_exterior_square"] == 6
    assert doc["capable"] is True


def test_json_deterministic(capsys):
    _, first, _ = run_cli(
        capsys, "multiplier", "--name", "H(2)", "--format", "json"
    )
    _, second, _ = run_cli(
        capsys, "multiplier", "--name", "H(2)", "--format", "json"
    )
    assert first == second


def test_check_json_golden_digest(capsys):
    # Pins the output across versions: the 2.5 and 2.6 witnesses carry
    # the gamma dims.  A deliberate output change (such as new catalog
    # entries) updates the digest and records the change in CHANGES.md.
    code, out, _ = run_cli(
        capsys, "check", "--theorem", "all", "--max-dim", "6", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5d707524524b5743892b05f25b09943f58ffd1bb7fe53b8d4c4da414a0ac55ce"
    )


def test_check_max_dim_8_json_golden_digest(capsys):
    # Pins the dimension 7 and 8 reports (L6_22(eps)+A(k), L5_7+A(3),
    # ...), which the digest above stops short of.
    code, out, _ = run_cli(
        capsys, "check", "--theorem", "all", "--max-dim", "8", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "60e1050e1c7941f2be761e5b7c5269f22a332c157e46a04bc66045e30896a205"
    )


def test_sweep_json_golden_digest(capsys):
    # Pins the sweep output across versions, like the check digest above.
    code, out, _ = run_cli(
        capsys, "sweep", "--max-dim", "7", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "50783af57952d013682f71e77c79213d5d67f2d7fe21e068a56192ea7b9a2123"
    )


def test_sweep_max_dim_8_json_golden_digest(capsys):
    # The sweep derives the base+A(k) rows by the Kunneth formula; the
    # digest is that of the output with every row computed by the engine.
    code, out, _ = run_cli(
        capsys, "sweep", "--max-dim", "8", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3e706239d64266532b9d29dcb93eb15db7f2fce42507c7708e3d8ad9396b2419"
    )


# H(2)+A(1) in the basis given by the columns of P, the upper-triangular
# all-ones matrix with P[0][3] = 2 and P[1][4] = -3.
H2A1_FIXED_BASIS = """algebra B dim 6
[x1, x2] = 4*x2 + x5 - 3*x1 - x4
[x1, x3] = 4*x2 + x5 - 3*x1 - x4
[x1, x4] = 4*x2 + x5 - 3*x1 - x4
[x1, x5] = 9*x1 + 3*x4 - 12*x2 - 3*x5
[x1, x6] = 4*x2 + x5 - 3*x1 - x4
[x2, x4] = 3*x1 + x4 - 4*x2 - x5
[x2, x5] = 12*x1 + 4*x4 - 16*x2 - 4*x5
[x3, x5] = 9*x1 + 3*x4 - 12*x2 - 3*x5
[x3, x6] = 4*x2 + x5 - 3*x1 - x4
[x4, x5] = 21*x1 + 7*x4 - 28*x2 - 7*x5
[x4, x6] = 4*x2 + x5 - 3*x1 - x4
[x5, x6] = 16*x2 + 4*x5 - 12*x1 - 4*x4
"""


def test_multiplier_file_json_golden_digest(tmp_path, monkeypatch, capsys):
    # The document names the file, so it is read by a fixed relative path.
    p = [[1 if j >= i else 0 for j in range(6)] for i in range(6)]
    p[0][3], p[1][4] = 2, -3
    assert parse_presentation(H2A1_FIXED_BASIS) == catalog_get(
        "H(2)+A(1)"
    ).change_basis(p)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h2a1.alg").write_text(H2A1_FIXED_BASIS)
    code, out, _ = run_cli(
        capsys, "multiplier", "--file", "h2a1.alg", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["exterior_center"]["basis"] == [
        ["1", "-4/3", "0", "1/3", "-1/3", "0"]
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4b8f94ff91910c0b873f9f88c9540b93c34e5bba351e417a63c85d417e6c58f5"
    )


# A direct sum of dimension 40 with x_i renamed x_{perm(i)},
# perm(i) = 17 i + 5 mod 40, so the parts' brackets interleave.  The
# digest pins the info document; L6_22(1/2) brings a denominator.
WIDE_PARTS = ["L6_26", "L6_22(1/2)", "L5_7", "L5_9", "L5_5", "L4_3", "H(2)",
              "H(1)", "A(1)"]


def test_info_file_json_golden_digest(tmp_path, monkeypatch, capsys):
    wide = catalog_get(WIDE_PARTS[0])
    for name in WIDE_PARTS[1:]:
        wide = wide.direct_sum(catalog_get(name))
    n = wide.dim
    perm = [(17 * i + 5) % n for i in range(n)]
    permuted = LieAlgebra(
        n,
        {
            (perm[i], perm[j]): {perm[k]: c for k, c in vec.items()}
            for (i, j), vec in wide.sc.items()
        },
    )
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wide.alg").write_text(format_presentation(permuted, "W"))
    code, out, _ = run_cli(
        capsys, "info", "--file", "wide.alg", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["gamma_dims"], doc["center_dim"]) == (
        40, [40, 17, 6, 1, 0], 13
    )
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d67c1fa82b8591ae3a2f257171445c84d2dd3e19378cfc66316cd480d6afc443"
    )


# H(2) in a basis with rational entries: its exterior center is one row
# with negative entries and denominators above 1, written from integers.
ZHAT_FILE = """algebra Z dim 5
[x1, x2] = 13/12*x1 + x5 - 3/4*x2 - 1/6*x3 - 1/2*x4
[x1, x5] = 13/16*x1 + 3/4*x5 - 9/16*x2 - 1/8*x3 - 3/8*x4
[x2, x3] = 15/8*x2 + 5/12*x3 + 5/4*x4 - 65/24*x1 - 5/2*x5
[x2, x5] = 13/18*x1 + 2/3*x5 - 1/2*x2 - 1/9*x3 - 1/3*x4
[x3, x4] = 13/12*x1 + x5 - 3/4*x2 - 1/6*x3 - 1/2*x4
[x3, x5] = 247/96*x1 + 19/8*x5 - 57/32*x2 - 19/48*x3 - 19/16*x4
[x4, x5] = 1/8*x2 + 1/36*x3 + 1/12*x4 - 13/72*x1 - 1/6*x5
"""


@pytest.mark.parametrize("fmt, digest", [
    ("json", "01fee44a41be86794d31752063de78448723974bc19478021df88a0c52e249e1"),
    ("table", "f28b01cc26df89cf483527f043811b7fbae3babdc8dc8b94e8191efa55176696"),
])
def test_rational_exterior_center_golden_digest(tmp_path, monkeypatch, capsys,
                                                fmt, digest):
    assert parse_presentation(ZHAT_FILE) == catalog_get("H(2)").change_basis(
        [[1, 0, Fraction(5, 2), 0, Fraction(-2, 3)],
         [0, 1, 0, 0, Fraction(3, 4)],
         [0, 0, 1, Fraction(-1, 3), 0],
         [0, 0, 0, 1, Fraction(1, 2)],
         [0, 0, 0, 0, 1]]
    )
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zhat.alg").write_text(ZHAT_FILE)
    code, out, _ = run_cli(capsys, "multiplier", "--file", "zhat.alg",
                           "--format", fmt)
    assert code == 0
    row = "['1', '-9/13', '-2/13', '-6/13', '12/13']"
    if fmt == "json":
        assert json.loads(out)["exterior_center"]["basis"] == [eval(row)]
    else:
        assert f"  basis: [{row}]\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_inline_values_are_named_in_lowest_terms(capsys):
    for written, named in (("2/4", "1/2"), ("-0", "0"), ("007", "7"),
                           ("-3/6", "-1/2")):
        code, out, err = run_cli(capsys, "info", "--name", f"L6_22({written})",
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["name"] == f"L6_22({named})"


json_scalars = st.none() | st.booleans() | st.integers() | st.text()
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(json_documents)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(doc):
    # what the CLI writes in place of json.dumps, which it does not import
    from schurlab.cli import _json_text

    assert _json_text(doc) == json.dumps(doc, separators=(",", ":"))


def test_table_output(capsys):
    code, out, _ = run_cli(capsys, "info", "--name", "L5_9")
    assert code == 0
    assert "n: 5" in out
    assert "c: 3" in out


def test_file_input_with_digest(tmp_path, capsys):
    source = tmp_path / "heis.alg"
    source.write_text("algebra H dim 3\n[x1, x2] = x3\n")
    code, out, _ = run_cli(
        capsys, "multiplier", "--file", str(source), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_M"] == 2
    assert doc["file"] == str(source)
    assert len(doc["sha256"]) == 64


def test_wide_files_split_off_their_abelian_factor(tmp_path, capsys):
    # one bracket in dim n is H(1) + A(n - 3): the multiplier presents
    # only H(1), where the whole algebra would need 20,540 Hall words at
    # n = 40.  H(13) has no abelian factor and still meets the cap.
    def multiplier(text):
        path = tmp_path / "wide.lie"
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "multiplier", "--file", str(path), "--format", "json"
        )
        return code, out, err, time.perf_counter() - start

    code, out, _, _ = multiplier("algebra W dim 40\n[x1, x2] = x3\n")
    assert code == 0
    doc = json.loads(out)
    assert (doc["dim_M"], doc["dim_exterior_square"]) == (742, 743)
    assert doc["capable"] is True
    code, out, _, seconds = multiplier("algebra W dim 200\n[x1, x2] = x3\n")
    assert code == 0 and json.loads(out)["dim_M"] == 19702
    assert seconds < 2, seconds
    h13 = "".join(f"[x{i}, x{i + 13}] = x27\n" for i in range(1, 14))
    code, out, err, _ = multiplier("algebra H13 dim 27\n" + h13)
    assert code == 3 and out == ""
    assert err == (
        "schurlab: free nilpotent algebra on 26 generators of class 3 "
        "needs 6201 basis words (cap 5000)\n"
    )


def test_param_flag(capsys):
    # a catalog parameter is written in the name
    for value, name in (("1/2", "L6_22(1/2)"), ("2/4", "L6_22(1/2)"),
                        ("-1", "L6_22(-1)")):
        code, out, _ = run_cli(
            capsys, "multiplier", "--name", f"L6_22({value})",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["name"] == name


def test_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(capsys, "info", "--name", "NOPE")
    assert code == 2 and "unknown" in err.lower()
    code, _, err = run_cli(capsys, "sweep", "--max-dim", "9")
    assert code == 3
    bad = tmp_path / "bad.alg"
    bad.write_text(
        "algebra B dim 4\n[x1,x2]=x3\n[x1,x3]=x4\n[x2,x4]=x3\n"
    )
    code, _, err = run_cli(capsys, "info", "--file", str(bad))
    assert code == 2 and "Jacobi" in err
    code, _, err = run_cli(capsys, "info", "--file", str(tmp_path / "no.alg"))
    assert code == 2
    zero = tmp_path / "zero.alg"
    zero.write_text("algebra Z dim 3\n[x1, x2] = 1/0*x3\n")
    code, _, err = run_cli(capsys, "info", "--file", str(zero))
    assert code == 2 and err.startswith("schurlab: line 2: ")
    code, out, err = run_cli(capsys, "multiplier", "--name", "L6_22")
    assert code == 2 and out == ""
    assert err == (
        "schurlab: L6_22 needs a value for 'eps', written as L6_22(VALUE)\n"
    )
    code, out, err = run_cli(capsys, "info", "--name", "L5_7(1/2)")
    assert code == 2 and out == ""
    assert err == "schurlab: L5_7 takes no parameter\n"
    code, out, err = run_cli(capsys, "info", "--name", "H(0)")
    assert (code, out, err) == (2, "", "schurlab: H(0): requires m >= 1\n")
    binary = tmp_path / "binary.alg"
    binary.write_bytes(b"\xff\xfe\x00")
    code, _, err = run_cli(capsys, "info", "--file", str(binary))
    assert code == 2 and err.startswith("schurlab: ") and "utf-8" in err
    code, _, err = run_cli(capsys, "sweep", "--max-dim", "0")
    assert code == 2 and err.startswith("schurlab: ") and "max_dim" in err
    code, _, err = run_cli(capsys, "check", "--max-dim", "-1")
    assert code == 2 and err.startswith("schurlab: ") and "max_dim" in err


def test_declared_dimension_above_the_cap_exits_3(tmp_path, capsys):
    # one past the cap of 10**6 is refused before anything linear in the
    # dimension is built, by --file, by a catalog name and by a direct
    # sum of parts under the cap
    huge = tmp_path / "huge.alg"
    huge.write_text("algebra X dim 1000001\n")
    for source in (
        ("--file", str(huge)),
        ("--name", "A(1000001)"),
        ("--name", "H(1)+H(500000)"),
        ("--name", "A(999998)+H(1)"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "info", *source)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err == (
            "schurlab: dimension 1000001 is above the cap of 1000000\n"
        )


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    text = "algebra H dim 3\r\n[x1, x2] = x3\r\n"
    docs = []
    for name, data in (
        ("plain.alg", text.encode()),
        ("bom.alg", b"\xef\xbb\xbf" + text.encode()),
    ):
        source = tmp_path / name
        source.write_bytes(data)
        code, out, _ = run_cli(
            capsys, "info", "--file", str(source), "--format", "json"
        )
        assert code == 0, name
        doc = json.loads(out)
        assert doc.pop("file") == str(source)
        assert doc.pop("sha256") == hashlib.sha256(data).hexdigest()
        docs.append(doc)
    assert docs[0] == docs[1]


# CPython's built-in sha256 module: _sha256 up to 3.11, _sha2 from 3.12.
BUILTIN_SHA256 = any(
    importlib.util.find_spec(module) for module in ("_sha256", "_sha2")
)


@pytest.mark.parametrize("builtin", [True, False])
def test_file_digest_on_every_import_path(tmp_path, monkeypatch, capsys, builtin):
    # --file runs take sha256 from the built-in module and fall back to
    # hashlib (OpenSSL) only when it does not import; both give one digest
    if builtin and not BUILTIN_SHA256:
        pytest.skip("this interpreter has no built-in sha256 module")
    data = b"algebra H dim 3\n[x1, x2] = x3\n"
    source = tmp_path / "heis.alg"
    source.write_bytes(data)
    want = hashlib.sha256(data).hexdigest()
    calls = []

    def openssl_sha256(*args, real=hashlib.sha256):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hashlib, "sha256", openssl_sha256)
    if not builtin:
        for module in ("_sha256", "_sha2"):
            monkeypatch.setitem(sys.modules, module, None)
    for command in ("info", "multiplier"):
        code, out, _ = run_cli(
            capsys, command, "--file", str(source), "--format", "json"
        )
        assert code == 0, command
        assert json.loads(out)["sha256"] == want, command
    assert len(calls) == (0 if builtin else 2)


def test_failed_check_exits_4(monkeypatch, capsys):
    # L4_3 is made to read its bound e2 = 3 (its dim M is 2), which the
    # strict refinement for class >= 3 forbids; every other algebra
    # keeps its value.
    import schurlab.bounds

    real = schurlab.bounds.schur_multiplier_dim
    monkeypatch.setattr(
        schurlab.bounds,
        "schur_multiplier_dim",
        lambda L: 3 if L.name == "L4_3" else real(L),
    )
    code, out, _ = run_cli(
        capsys, "check", "--theorem", "3.7", "--max-dim", "4",
        "--format", "json",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["all_hold"] is False
    assert doc["reports"][0]["witnesses"]["violations"] == ["L4_3"]
    code, out, err = run_cli(capsys, "sweep", "--max-dim", "4")
    assert code == 4 and out == ""
    assert err == "schurlab: L4_3: class 3 >= 3 but dim M = 3 exceeds 3 - 1\n"


def test_blank_param_name_is_refused(capsys):
    # there is no --param: a catalog parameter value is written in the
    # name, so any --param, well formed or not, is refused by the parser
    for param in (" =1", "eps=1"):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--name", "L6_22", "--param", param])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --param {param}" in captured.err


def test_param_with_file_is_refused(tmp_path, capsys):
    # a presentation file has no parameters, and there is no --param
    source = tmp_path / "h.alg"
    source.write_text("algebra H dim 3\n[x1, x2] = x3\n")
    for command in ("info", "multiplier"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--file", str(source), "--param", "eps=1"])
        assert exc.value.code == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert "unrecognized arguments: --param eps=1" in captured.err
        code, out, _ = run_cli(
            capsys, command, "--file", str(source), "--format", "json"
        )
        assert code == 0 and json.loads(out)["n"] == 3, command


# How the command line is read.  Each accepted form runs through main
# and is read back from the emitted document and format; its canonical
# spelling names every field, defaults included.
ACCEPTED_ARGV = [
    ("info --name H(1)", "info --name H(1) --format table"),
    ("info --name=H(1) --format=json", "info --name H(1) --format json"),
    ("info --na H(1) --fo json", "info --name H(1) --format json"),
    ("info --na=H(1) --form=json", "info --name H(1) --format json"),
    ("info --name A(1) --name H(1)", "info --name H(1) --format table"),
    ("info --format json --name H(1) --format table",
     "info --name H(1) --format table"),
    ("multiplier --name H(1) --format json",
     "multiplier --name H(1) --format json"),
    ("info --fi=h.alg", "info --file h.alg --format table"),
    ("multiplier --format=json --file h.alg",
     "multiplier --file h.alg --format json"),
    ("capable --name=A(1)", "capable --name A(1) --format table"),
    ("bounds --nam L5_8 --format json", "bounds --name L5_8 --format json"),
    ("sweep", "sweep --max-dim 6 --format table"),
    ("sweep --max-dim=4 --fo json", "sweep --max-dim 4 --format json"),
    ("sweep --max 4", "sweep --max-dim 4 --format table"),
    ("check --max-dim 4", "check --theorem all --max-dim 4 --format table"),
    ("check --theorem 2.1", "check --theorem 2.1 --max-dim 6 --format table"),
    ("check --t=2.9 --m 5 --format json",
     "check --theorem 2.9 --max-dim 5 --format json"),
]

# Refused forms: a usage error exits 2 with the message on stderr.
REFUSED_ARGV = [
    ("", "the following arguments are required: command"),
    ("bogus --name H(1)", "argument command: invalid choice: 'bogus'"),
    ("info --name H(1) --param eps=1",
     "unrecognized arguments: --param eps=1"),
    ("info --name H(1) extra", "unrecognized arguments: extra"),
    ("info", "one of the arguments --name --file is required"),
    ("info --format json", "one of the arguments --name --file is required"),
    ("info --name H(1) --file h.alg",
     "argument --file: not allowed with argument --name"),
    ("bounds --file=h.alg --na H(1)",
     "argument --name: not allowed with argument --file"),
    ("info --name H(1) --format xml",
     "argument --format: invalid choice: 'xml'"),
    ("info --name H(1) --format", "argument --format: expected one argument"),
    ("info --name -x", "argument --name: expected one argument"),
    ("info --name H(1) --f json", "ambiguous option: --f"),
    ("sweep --max-dim x", "argument --max-dim: invalid int value: 'x'"),
    ("sweep --max-dim 6.0", "argument --max-dim: invalid int value: '6.0'"),
    ("check --theorem 2.10", "argument --theorem: invalid choice: '2.10'"),
    ("sweep --name H(1)", "unrecognized arguments: --name H(1)"),
]


def _parsed(monkeypatch, line):
    """main's reading of one command line: the emitted format and
    document, with main's exit code."""
    emitted = []
    monkeypatch.setattr(
        "schurlab.cli._emit", lambda doc, fmt: emitted.append((fmt, doc))
    )
    code = main(shlex.split(line))
    (seen,) = emitted
    return code, seen


@pytest.mark.parametrize("line, canonical", ACCEPTED_ARGV)
def test_accepted_command_lines(tmp_path, monkeypatch, line, canonical):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.alg").write_text("algebra H dim 3\n[x1, x2] = x3\n")
    got = _parsed(monkeypatch, line)
    assert got == _parsed(monkeypatch, canonical)
    code, (fmt, doc) = got
    assert code == 0
    words = shlex.split(canonical)
    fields = dict(zip(words[1::2], words[2::2]))
    assert fmt == fields.pop("--format")
    for flag, value in fields.items():
        assert str(doc[flag[2:].replace("-", "_")]) == value, flag


@pytest.mark.parametrize("line, message", REFUSED_ARGV)
def test_refused_command_lines(capsys, line, message):
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(line))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: schurlab")
    assert "error: " + message in captured.err


def test_negative_max_dim_is_a_value_the_library_refuses(capsys):
    for line in ("sweep --max-dim -1", "check --max-dim=-1"):
        code, out, err = run_cli(capsys, *shlex.split(line))
        assert (code, out) == (2, "")
        assert err.startswith("schurlab: ") and "max_dim" in err


def test_help_names_every_command_and_flag(capsys):
    for argv in (["-h"], ["--help"], ["--he"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: schurlab")
        for command in SUBCOMMAND_OPTIONS:
            assert command in out, command
    for command, flags in SUBCOMMAND_OPTIONS.items():
        # help is read before the missing --name is noticed
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: schurlab {command}")
        for flag in flags:
            assert flag in out, (command, flag)


def test_readme_command_lines_parse():
    # every command line README shows in a code fence, with any "$ "
    # prompt dropped, is one the parser accepts
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines, fenced = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            line = line.removeprefix("$ ")
            if line.startswith("schurlab "):
                lines.append(line)
    assert len(lines) >= 8, lines
    for line in lines:
        try:
            _parse(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README shows a command the parser refuses: {line}")


def test_sweep_json(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--max-dim", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["attainers"] == ["H(1)", "H(1)+A(1)"]
    names = [entry["name"] for entry in doc["entries"]]
    assert "L4_3" in names


def test_check_all(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--theorem", "all", "--max-dim", "5",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_hold"] is True
    assert any(r["theorem"].startswith("strict") for r in doc["reports"])


def test_check_single_theorem(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--theorem", "2.9", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["witnesses"]["class_two_matches"] == ["L6_26"]


def test_check_each_theorem_adds_up_to_all(capsys):
    from schurlab.bounds import THEOREMS

    def reports(theorem):
        code, out, _ = run_cli(
            capsys, "check", "--theorem", theorem, "--max-dim", "5",
            "--format", "json",
        )
        assert code == 0
        return json.loads(out)["reports"]

    each = [report for theorem in THEOREMS for report in reports(theorem)]
    assert each == reports("all")


def test_theorem_choices_are_the_table_ids():
    # The option table spells the ids out: reading them from
    # bounds.THEOREMS would load the theorem module for every subcommand.
    from schurlab.bounds import THEOREMS

    choices = COMMANDS["check"][2]["--theorem"][0]
    assert choices == (*THEOREMS, "all")


def _child_env(log=None):
    """The environment of a child with schurlab importable and
    SCHURLAB_LOG set to ``log`` (unset when None).  The child finds the
    package where this process imported it from, also when only
    pytest's ``pythonpath`` setting put it on sys.path."""
    src = str(Path(schurlab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    env.pop("SCHURLAB_LOG", None)
    if log is not None:
        env["SCHURLAB_LOG"] = log
    return env


def _child(args, log=None, cwd=None):
    """Run ``python ARGS`` in the environment of ``_child_env(log)``."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=_child_env(log),
        cwd=cwd,
    )


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize(
    "argv",
    [["sweep", "--max-dim", "8"], ["info", "--name", "A(1)"]],
    ids=["sweep", "info"],
)
def test_closed_stdout_exits_1_quietly(unbuffered, argv):
    """A reader that has gone (``schurlab sweep | head -1``) is not an
    input error: exit 1 and print nothing, whether the write or the
    final flush meets the closed pipe."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schurlab", *argv, "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_unreadable_file_still_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing.alg", tmp_path):
        code, out, err = run_cli(capsys, "info", "--file", str(path))
        assert code == 2 and out == "" and err.startswith("schurlab: ")


def test_console_script_entry_point():
    proc = _child(["-m", "schurlab", "bounds", "--name", "H(1)", "--format", "json"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["bound_e1"] == 2 and doc["attains_e2"] is True


# ``python -m schurlab`` runs ``cli.run``, which leaves the process as
# soon as main returns; what a child writes and its exit code must be
# main's in-process ones.  Exit 4 is not among them: no catalog algebra
# fails a theorem check, so only a patched check reaches it
# (test_failed_check_exits_4).
PROCESS_ARGV = [
    ("info --name L5_7", None),
    ("info --name L5_7 --format json", None),
    ("multiplier --name L5_7", None),
    ("multiplier --name L5_7 --format json", None),
    ("info --name nope", None),  # exit 2
    ("multiplier --name H(7)+H(7)", None),  # exit 3, the Hall cap
    ("-h", None),  # SystemExit(0)
    ("--bogus", None),  # SystemExit(2)
    ("info --name L5_7", "DEBUG"),
]


@pytest.mark.parametrize("line, log", PROCESS_ARGV)
def test_process_entry_matches_main(monkeypatch, capsys, line, log):
    import logging

    argv = shlex.split(line)
    child = _child(["-m", "schurlab", *argv], log=log)
    monkeypatch.delenv("SCHURLAB_LOG", raising=False)
    if log is not None:
        monkeypatch.setenv("SCHURLAB_LOG", log)
    # the root logger as a fresh interpreter has it, so that main's
    # basicConfig installs its handler on the captured stderr
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    captured = capsys.readouterr()
    assert (child.returncode, child.stdout, child.stderr) == (
        code, captured.out, captured.err)


ATEXIT_SCRIPT = (
    "import atexit, sys\n"
    "atexit.register(sys.stderr.write, 'atexit hook ran\\n')\n"
    "from schurlab.cli import run\n"
    "run()\n"
)


def test_process_entry_skips_interpreter_teardown(capsys):
    """``cli.run`` exits by ``os._exit`` once the answer is flushed, and
    so skips the teardown that an ordinary exit pays in every process:
    the document is complete and an atexit hook never runs."""
    argv = ["multiplier", "--name", "L5_7", "--format", "json"]
    proc = _child(["-c", ATEXIT_SCRIPT, *argv])
    assert main(argv) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, capsys.readouterr().out, "")
    # the installed script takes the same entry as ``-m schurlab``
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip().splitlines() == ['schurlab = "schurlab.cli:run"']


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_process_entry_where_a_stream_cannot_be_flushed():
    # stdout on a full device: main reports the write error and returns
    # 2, run's flush fails as well, and the interpreter's exit flushes
    # once more and, failing, exits 120, as an ordinary exit does
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "schurlab", "info", "--name", "A(1)"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 120
    assert proc.stderr.startswith("schurlab: [Errno 28] No space left")
    assert proc.stderr.splitlines()[-1].startswith("OSError: [Errno 28]")
    # a process started with stdout closed has no sys.stdout: there is
    # nothing to flush, and the exit code is main's
    script = "import sys\nsys.stdout = None\nfrom schurlab.cli import run\nrun()\n"
    proc = _child(["-c", script, "info", "--name", "nope"])
    assert proc.returncode == 2
    assert proc.stderr == "schurlab: unknown algebra name 'nope'\n"


# Commands whose every computation runs on the integer adjoint table
# and integer echelons; the dense Fraction bracket and the quotient's
# Fraction project and lift are API edges they never reach.
INTEGER_PATH_COMMANDS = [
    ["check", "--theorem", "all", "--max-dim", "6"],
    ["sweep", "--max-dim", "6"],
    ["multiplier", "--name", "L5_7+A(3)"],
]


def test_production_paths_stay_integer(monkeypatch, capsys, empty_memos):
    want = [run_cli(capsys, *argv) for argv in INTEGER_PATH_COMMANDS]
    assert all(code == 0 for code, _, _ in want)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense Fraction route called")

    # nothing from the first run may answer the patched one
    empty_memos.clear()
    presented = []
    monkeypatch.setattr(
        "schurlab.multiplier.free_nilpotent_algebra",
        lambda d, s: presented.append(d) or free_nilpotent_algebra(d, s),
    )
    monkeypatch.setattr(LieAlgebra, "bracket", forbidden)
    monkeypatch.setattr(Quotient, "project", forbidden)
    monkeypatch.setattr(Quotient, "lift", forbidden)
    got = [run_cli(capsys, *argv) for argv in INTEGER_PATH_COMMANDS]
    assert got == want
    assert presented, "present_minimal's body did not run under the patches"


def test_equal_algebras_share_values_not_names(capsys):
    # The memo is per algebra value, so two names of one algebra share
    # every memoised value; none of those values names an algebra, and
    # each answer carries the name it was asked under.
    from schurlab.bounds import check_theorem_2_5, gamma_images
    from schurlab.multiplier import _split, multiplier_report, present_minimal

    first, second = catalog_get("L5_7+A(2)"), catalog_get("L5_7+A(1)+A(1)")
    assert first == second and first.name != second.name
    for fn in (LieAlgebra.series, present_minimal, gamma_images, _split):
        assert fn(first) is fn(second)
    assert _split(first).algebra.name is None
    assert multiplier_report(first) == multiplier_report(second)
    assert check_theorem_2_5(first).instance == "L5_7+A(2)"
    assert check_theorem_2_5(second).instance == "L5_7+A(1)+A(1)"
    for name in (first.name, second.name):
        code, out, _ = run_cli(capsys, "multiplier", "--name", name, "--format", "json")
        assert code == 0 and json.loads(out)["name"] == name


def test_log_env_smoke(tmp_path):
    argv = ["-m", "schurlab", "info", "--name", "H(1)", "--format", "json"]
    logged = _child(argv, log="INFO")
    assert logged.returncode == 0
    assert json.loads(logged.stdout)["n"] == 3
    assert "loaded catalog algebra H(1)" in logged.stderr
    quiet = _child(argv)
    assert quiet.returncode == 0
    assert quiet.stdout == logged.stdout
    assert quiet.stderr == ""
    # an invalid level is an input error, checked before logging is set up
    bad = _child(argv, log="LOUD")
    assert bad.returncode == 2
    assert "unknown SCHURLAB_LOG level 'LOUD'" in bad.stderr
    # a --file run logs the first 12 hex digits of the digest it stamps
    (tmp_path / "h1.alg").write_text("algebra H1 dim 3\n[x1, x2] = x3\n")
    argv = ["-m", "schurlab", "info", "--file", "h1.alg", "--format", "json"]
    logged = _child(argv, log="INFO", cwd=tmp_path)
    assert logged.returncode == 0, logged.stderr
    digest = json.loads(logged.stdout)["sha256"]
    (prefix,) = re.findall(r"^parsed h1\.alg \(sha256 (\w+)\)$", logged.stderr, re.M)
    assert prefix == digest[:12]


def test_log_env_unknown_level_is_an_input_error():
    argv = ["-m", "schurlab", "info", "--name", "A(1)", "--format", "json"]
    for log in ("", "verbose"):
        bad = _child(argv, log=log)
        assert bad.returncode == 2
        assert bad.stdout == ""
        assert bad.stderr.splitlines() == [
            f"schurlab: unknown SCHURLAB_LOG level {log!r}; "
            "use DEBUG, INFO, WARNING, ERROR or CRITICAL"
        ]
    # the level name is matched case-insensitively
    good = _child(argv, log="info")
    assert good.returncode == 0
    assert json.loads(good.stdout)["n"] == 1
    assert "loaded catalog algebra A(1)" in good.stderr


def test_log_env_unknown_level_leaves_logging_unconfigured(capsys, monkeypatch):
    import logging

    handlers = list(logging.getLogger().handlers)
    monkeypatch.setenv("SCHURLAB_LOG", "verbose")
    code, out, err = run_cli(capsys, "info", "--name", "A(1)")
    assert (code, out) == (2, "")
    assert err.startswith("schurlab: unknown SCHURLAB_LOG level 'verbose'")
    assert logging.getLogger().handlers == handlers


# What a fresh process may import.  Start-up dominates a small query,
# so no subcommand loads dataclasses (and with it inspect), logging,
# or argparse with the gettext and locale it brings, or fractions with
# the decimal and numbers it brings, since the constants are integers
# from the parser to the JSON writer; only sweep and
# check load the theorem module; info on a file loads no Hall basis,
# multiplier or catalog code; info on a name of families alone reads
# no data file, so it runs no gate and loads no Hall basis, multiplier
# or parser; only a run that reads the catalog's data file loads json,
# since the CLI writes its documents itself; and no digest loads OpenSSL
# (hashlib's _hashlib) where the interpreter has a built-in sha256.
FOOTPRINT_SCRIPT = (
    "import sys\n"
    "from schurlab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, *sorted(sys.modules))\n"
)
# what each command runs on: the file below, or the catalog
CATALOG_ARGS = {
    "sweep": ["--max-dim", "4"],
    "check": ["--theorem", "all", "--max-dim", "4"],
    "info --name": ["H(2)+A(1)"],
    "multiplier --file": ["sheared.alg"],
}
# T + A(2), T the algebra [x1, x2] = 1/2 x3, [x1, x3] = 5/4 x4, in a
# basis with rational entries: its split quotient L/C has constants
# with denominators 12 and 24
SHEARED_FILE = """algebra S dim 6
[x1, x2] = 1/2*x3
[x1, x3] = 5/8*x2 + 5/4*x4
[x4, x1] = 1/4*x3
[x6, x1] = 1/4*x2 + 1/2*x4
[x5, x2] = 1/6*x3
[x5, x3] = 5/24*x2 + 5/12*x4
[x4, x5] = 1/12*x3
[x6, x5] = 1/12*x2 + 1/6*x4
"""


def test_sheared_file_splits_off_a_non_integral_quotient():
    from schurlab.multiplier import _split

    split = _split(parse_presentation(SHEARED_FILE))
    constants = [c for vec in split.algebra.sc.values() for c in vec.values()]
    assert split.ideal.dim == 2
    assert max(c.denominator for c in constants) == 24


@pytest.mark.parametrize("command, engine, absent", [
    ("info", "schurlab.liealg",
     ["schurlab.hall", "schurlab.multiplier", "schurlab.catalog",
      "schurlab.bounds", "json"]),
    ("multiplier", "schurlab.multiplier",
     ["schurlab.catalog", "schurlab.bounds", "json"]),
    ("capable", "schurlab.multiplier",
     ["schurlab.catalog", "schurlab.bounds", "json"]),
    ("bounds", "schurlab.multiplier",
     ["schurlab.catalog", "schurlab.bounds", "json"]),
    ("sweep", "schurlab.bounds", []),
    ("check", "schurlab.bounds", []),
    ("info --name", "schurlab.catalog",
     ["schurlab.hall", "schurlab.multiplier", "schurlab.dsl",
      "schurlab.bounds", "json"]),
    ("multiplier --file", "schurlab.multiplier",
     ["schurlab.catalog", "schurlab.bounds", "json"]),
])
def test_subcommands_import_only_what_they_run(tmp_path, command, engine, absent):
    argv = [*command.split(), *CATALOG_ARGS.get(command, ["--file", "h1.alg"])]
    (tmp_path / "h1.alg").write_text("algebra H1 dim 3\n[x1, x2] = x3\n")
    (tmp_path / "sheared.alg").write_text(SHEARED_FILE)
    proc = _child(["-c", FOOTPRINT_SCRIPT, *argv, "--format", "json"],
                  cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    if BUILTIN_SHA256:
        absent = [*absent, "hashlib", "_hashlib"]
    for module in ["dataclasses", "inspect", "logging", "argparse", "gettext",
                   "locale", "fractions", "decimal", "numbers", *absent]:
        assert module not in loaded, module
    assert "schurlab.liealg" in loaded and engine in loaded


# The public surface.  Removing or renaming a name or a flag must update
# this pin and be recorded in CHANGES.md.
PUBLIC_NAMES = [
    "DslError",
    "DslSyntaxError",
    "DuplicateInconsistentBracket",
    "FreeNilpotentAlgebra",
    "GammaImages",
    "GaneaReport",
    "HallWord",
    "InvariantMismatch",
    "JacobiViolation",
    "LieAlgebra",
    "MissingParameter",
    "MultiplierReport",
    "NotAnIdeal",
    "NotCentral",
    "NotNilpotent",
    "NotOneDimensional",
    "Presentation",
    "Quotient",
    "ResourceCapExceeded",
    "SchurlabError",
    "SeriesReport",
    "SingularMatrix",
    "SpanBuilder",
    "Subspace",
    "SweepRow",
    "TheoremReport",
    "UnknownGenerator",
    "UnknownName",
    "abelian",
    "attains_e2",
    "bound_e1",
    "bound_e2",
    "catalog_get",
    "check_theorem_2_1",
    "check_theorem_2_2",
    "check_theorem_2_5",
    "check_theorem_2_6",
    "check_theorem_3_7",
    "classification_sweep",
    "direct_sum",
    "enumerate_catalog",
    "exterior_center",
    "exterior_square_dim",
    "format_presentation",
    "free_nilpotent_algebra",
    "gamma_images",
    "ganea_dimension_check",
    "hall_basis",
    "heisenberg",
    "is_capable",
    "kernel_basis",
    "multiplier_report",
    "parse_presentation",
    "present_minimal",
    "run_checks",
    "scan_theorem_2_9",
    "schur_multiplier",
    "schur_multiplier_dim",
    "verify_catalog",
    "witt_dim",
]

# The parameter names of every public callable whose signature
# ``inspect`` can read (the exception classes without their own
# ``__init__`` have none), so that a new knob shows up as a pin change.
PUBLIC_PARAMETERS = {
    "DslError": ["message", "line"],
    "DslSyntaxError": ["message", "line"],
    "DuplicateInconsistentBracket": ["message", "line"],
    "FreeNilpotentAlgebra": ["d", "s"],
    "GammaImages": ["args", "kwargs"],
    "GaneaReport": ["args", "kwargs"],
    "HallWord": ["args", "kwargs"],
    "JacobiViolation": ["triple", "residual"],
    "LieAlgebra": ["dim", "brackets", "name"],
    "MultiplierReport": ["args", "kwargs"],
    "Presentation": ["free", "pi_rows", "r_rows", "fr_builder"],
    "Quotient": ["args", "kwargs"],
    "SeriesReport": ["args", "kwargs"],
    "SpanBuilder": ["ambient"],
    "Subspace": ["vectors", "ambient"],
    "SweepRow": ["args", "kwargs"],
    "TheoremReport": ["args", "kwargs"],
    "UnknownGenerator": ["message", "line"],
    "abelian": ["n"],
    "attains_e2": ["L"],
    "bound_e1": ["n", "m"],
    "bound_e2": ["n", "m", "c"],
    "catalog_get": ["name"],
    "check_theorem_2_1": ["L", "K"],
    "check_theorem_2_2": ["L"],
    "check_theorem_2_5": ["L"],
    "check_theorem_2_6": ["L"],
    "check_theorem_3_7": ["max_dim"],
    "classification_sweep": ["max_dim"],
    "direct_sum": ["a", "b", "name"],
    "enumerate_catalog": ["max_dim"],
    "exterior_center": ["L"],
    "exterior_square_dim": ["L"],
    "format_presentation": ["L", "name"],
    "free_nilpotent_algebra": ["d", "s"],
    "gamma_images": ["L"],
    "ganea_dimension_check": ["L", "line"],
    "hall_basis": ["d", "s"],
    "heisenberg": ["m"],
    "is_capable": ["L"],
    "kernel_basis": ["matrix", "ncols"],
    "multiplier_report": ["L"],
    "parse_presentation": ["text"],
    "present_minimal": ["L"],
    "run_checks": ["entries", "theorem", "source"],
    "scan_theorem_2_9": ["max_dim"],
    "schur_multiplier": ["L"],
    "schur_multiplier_dim": ["L"],
    "verify_catalog": [],
    "witt_dim": ["d", "k"],
}

SOURCE_OPTIONS = ["--file", "--format", "--help", "--name", "-h"]
SUBCOMMAND_OPTIONS = {
    "info": SOURCE_OPTIONS,
    "multiplier": SOURCE_OPTIONS,
    "capable": SOURCE_OPTIONS,
    "bounds": SOURCE_OPTIONS,
    "sweep": ["--format", "--help", "--max-dim", "-h"],
    "check": ["--format", "--help", "--max-dim", "--theorem", "-h"],
}


def test_public_surface_pinned():
    assert schurlab.__all__ == PUBLIC_NAMES
    options = {
        name: sorted(["-h", "--help", *flags])
        for name, (_, _, flags) in COMMANDS.items()
    }
    assert options == SUBCOMMAND_OPTIONS


def test_public_parameters_pinned():
    parameters = {}
    for name in schurlab.__all__:
        try:
            signature = inspect.signature(getattr(schurlab, name))
        except (TypeError, ValueError):
            continue
        parameters[name] = list(signature.parameters)
    assert parameters == PUBLIC_PARAMETERS
    # not exported, but the catalog, parse_presentation and perfbench's
    # tracer call it by name and keyword
    signature = inspect.signature(parse_combo)
    assert list(signature.parameters) == ["text", "dim", "line", "params"]


def test_no_global_statements():
    # A process-wide memo is a functools.cache on the function that
    # fills it: a failure is never cached, so nothing can be marked
    # done before it succeeds, as a flag set through ``global`` can.
    offenders = []
    for path in sorted(Path(schurlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
        ]
    assert offenders == []


def test_no_foreign_attribute_writes():
    # What is derived from an algebra is memoised by liealg.per_algebra,
    # so no module sets an attribute on an object other than its own
    # ``self`` or ``cls``.
    def targets(node):
        if isinstance(node, ast.Assign):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    offenders = []
    for path in sorted(Path(schurlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for target in targets(node):
                offenders += [
                    f"{path.name}:{node.lineno}"
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Attribute)
                    and isinstance(leaf.ctx, ast.Store)
                    and not (
                        isinstance(leaf.value, ast.Name)
                        and leaf.value.id in ("self", "cls")
                    )
                ]
    assert offenders == []


def test_only_linalg_deletes_row_entries():
    # a dict row stores only its nonzero entries, and linalg.axpy is the
    # one loop that combines rows and deletes the entries that cancel:
    # no other module deletes a subscript or calls ``.pop(``
    def deletes(node):
        if isinstance(node, ast.Delete):
            return any(isinstance(t, ast.Subscript) for t in node.targets)
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
        )

    offenders = []
    for path in sorted(Path(schurlab.__file__).parent.rglob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if deletes(node)
        ]
    assert offenders == []


def test_fractions_is_imported_only_inside_linalg_edge_helpers():
    # integers inside: linalg's edge helpers build every Fraction a
    # caller receives and import fractions when first called, so no
    # module loads it at import time
    def imports_fractions(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] in FRACTION_MODULES for a in node.names)
        return (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] in FRACTION_MODULES
        )

    offenders = []
    for path in sorted(Path(schurlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        if path.name == "linalg.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    inside.update(id(n) for n in ast.walk(node))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if imports_fractions(node) and id(node) not in inside
        ]
    assert offenders == []


FRACTION_MODULES = ("fractions", "decimal", "numbers")


def test_adjoint_rows_are_read_only_in_liealg():
    # the adjoint index shares the table's rows and takes the sign from
    # the index order, which is liealg's layout: no other module calls
    # ``._adjoint()``, D is ``._den`` and brackets go through
    # ``_sparse_bracket``
    offenders = []
    for path in sorted(Path(schurlab.__file__).parent.rglob("*.py")):
        if path.name == "liealg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_adjoint"
        ]
    assert offenders == []
