"""The benchmark's workloads: their inputs, made from a seed, and the
checks on every answer.

Each workload is a list of ``Invocation``s of the schurlab command
line.  Inputs are generated before timing starts and schurlab sees only
the command line and the generated ``.lie`` files.  Every answer is
checked against values fixed by the mathematics, computed by
``oracle.py`` without schurlab's linear algebra, so replacing an engine
cannot turn a right answer into a counted failure.
"""

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle

# Why each workload is in the benchmark, one line each (also in BENCHMARK.json).
WHY = {
    "catalog-sweep": "56 catalog algebras in one process sharing hall's cache; "
    "present_minimal and Fraction boxing in linalg dominate, gamma_images never runs",
    "theorem-check": "bounds.gamma_images (matvec, Quotient.project) dominates and "
    "present_minimal is a small share, so bounds gains are told apart from multiplier gains",
    "file-reports": "seeded unimodular basis changes of heavy algebras: one cold dim-829 "
    "free algebra per process, dense constants, working-set size and entry bit growth",
    "wide-info": "seeded permuted direct sums at n=64 and n=100: bracket, series and validate "
    "only; hall, multiplier and bounds do not run, the control for engine changes",
}

# Heavy catalog algebras given to ``multiplier --file`` in a random basis.
FILE_REPORT_NAMES = ["L5_7+A(3)", "L5_5+A(3)", "L5_9+A(3)", "L6_26+A(2)", "H(3)+A(1)", "L4_3+A(4)"]
# Direct-sum parts of the two wide ``info --file`` inputs (n = 64 and n = 100).
_WIDE_64 = ["L6_26", "L6_22(1/2)", "L6_22(-1)", "L5_7", "L5_9", "L5_8", "L5_5",
            "L4_3", "H(3)", "H(2)", "H(1)", "L4_3", "H(1)"]
_WIDE_100 = _WIDE_64 + ["L6_26", "L5_7", "L5_9", "L5_8", "L4_3", "H(3)", "L4_3"]
WIDE_PARTS = [_WIDE_64, _WIDE_100]

# Smaller inputs for the harness's own smoke test.
SMOKE_MAX_DIM = 4
SMOKE_FILE_REPORT_NAMES = ["L4_3+A(1)"]
SMOKE_WIDE_PARTS = [["H(1)", "L4_3", "L5_8"]]

SETUP_ARGV = ["info", "--name", "A(1)", "--format", "json"]


@dataclass
class Invocation:
    argv: list
    check: Callable  # (returncode, stdout) -> None, raises CheckFailed


class CheckFailed(Exception):
    pass


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _doc(returncode, stdout, want_rc=0):
    _expect(returncode == want_rc, f"exit code {returncode}, expected {want_rc}")
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _constants(schurlab, algebra):
    """(n, sc) of a schurlab algebra, read from its public text form."""
    return oracle.parse_presentation_text(schurlab.format_presentation(algebra))


def _catalog_algebra(schurlab, name):
    return _constants(schurlab, schurlab.catalog_get(name))


def setup_invocation():
    def check(rc, out):
        doc = _doc(rc, out)
        got = [doc.get(k) for k in ("n", "m", "c", "gamma_dims", "center_dim")]
        _expect(got == [1, 0, 1, [1, 0], 1], f"info A(1) gave {got}")

    return Invocation(SETUP_ARGV, check)


def _sweep(schurlab, max_dim):
    expected = {}
    for name, algebra in schurlab.enumerate_catalog(max_dim):
        n, sc = _constants(schurlab, algebra)
        expected[name] = (n, oracle.wedge_invariants(n, sc)[0])

    def check(rc, out):
        doc = _doc(rc, out)
        entries = doc["entries"]
        names = [e["name"] for e in entries]
        _expect(names == list(expected), "sweep entries differ from the catalog")
        for e in entries:
            _expect((e["n"], e["dim_M"]) == expected[e["name"]],
                    f"{e['name']}: (n, dim_M) = ({e['n']}, {e['dim_M']}), "
                    f"oracle says {expected[e['name']]}")
        attainers = [e["name"] for e in entries if e["attains_e2"]]
        _expect(doc["attainers"] == attainers, "attainers disagree with the entries")

    return [Invocation(["sweep", "--max-dim", str(max_dim), "--format", "json"], check)]


def _theorems(max_dim):
    def check(rc, out):
        doc = _doc(rc, out)
        _expect(doc["all_hold"] is True, "all_hold is not true")
        _expect(doc["reports"], "no theorem reports")
        for r in doc["reports"]:
            _expect(r["holds"] == (r["lhs"] <= r["rhs"]),
                    f"{r['theorem']} on {r['instance']}: holds={r['holds']} "
                    f"but lhs={r['lhs']}, rhs={r['rhs']}")

    argv = ["check", "--theorem", "all", "--max-dim", str(max_dim), "--format", "json"]
    return [Invocation(argv, check)]


def _unimodular(n, rng):
    """A random integer matrix of determinant 1 and its inverse.

    Unit upper triangular with a random sign at every place above the
    diagonal, so the new constants are dense at every seed and the cost
    of a file hardly depends on the seed (a random product of shears
    varied the file size, and the time, threefold).
    """
    p = [[1 if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(n)]
         for i in range(n)]
    p_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            p_inv[i][j] = -sum(p[i][k] * p_inv[k][j] for k in range(i + 1, j + 1))
    return p, p_inv


def _change_basis(n, sc, p, p_inv):
    """Structure constants in the basis y_a = sum_i p[a][i] x_i."""
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = [0] * n
            for (i, j), vec in sc.items():
                c = p[a][i] * p[b][j] - p[a][j] * p[b][i]
                if c:
                    for k, w in vec.items():
                        v[k] += c * w
            w = {t: sum(v[i] * p_inv[i][t] for i in range(n) if v[i]) for t in range(n)}
            w = {t: x for t, x in w.items() if x}
            if w:
                out[(a, b)] = w
    return out


def _permute(n, sc, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    out = {}
    for (i, j), vec in sc.items():
        a, b, vec = perm[i], perm[j], {perm[k]: c for k, c in vec.items()}
        if a > b:
            a, b, vec = b, a, {k: -c for k, c in vec.items()}
        out[(a, b)] = vec
    return out


def _direct_sum(parts):
    n, sc = 0, {}
    for m, part_sc in parts:
        for (i, j), vec in part_sc.items():
            sc[(i + n, j + n)] = {k + n: c for k, c in vec.items()}
        n += m
    return n, sc


def _term(c, k):
    c = abs(c)
    return f"x{k + 1}" if c == 1 else f"{c}*x{k + 1}"


def format_lie(label, n, sc):
    """The presentation text: leading term positive, as the format asks."""
    lines = [f"algebra {label} dim {n}"]
    for (i, j), vec in sorted(sc.items()):
        terms = sorted(vec.items())
        if all(c < 0 for _, c in terms):
            i, j, terms = j, i, [(k, -c) for k, c in terms]
        terms = [t for t in terms if t[1] > 0] + [t for t in terms if t[1] < 0]
        rhs = _term(terms[0][1], terms[0][0])
        for k, c in terms[1:]:
            rhs += (" + " if c > 0 else " - ") + _term(c, k)
        lines.append(f"[x{i + 1}, x{j + 1}] = {rhs}")
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _file_reports(schurlab, names, rng, workdir):
    invocations = []
    for idx, name in enumerate(names):
        n, sc = _catalog_algebra(schurlab, name)
        want_m, want_wedge, want_zhat = oracle.wedge_invariants(n, sc)
        p, p_inv = _unimodular(n, rng)
        path = os.path.join(workdir, f"file-reports-{idx}.lie")
        _write(path, format_lie(f"B{idx}", n, _change_basis(n, sc, p, p_inv)))
        want = {"n": n, "dim_M": want_m, "dim_exterior_square": want_wedge,
                "capable": want_zhat == 0, "dim_zhat": want_zhat}

        def check(rc, out, want=want, name=name):
            doc = _doc(rc, out)
            got = {k: doc.get(k) for k in want if k != "dim_zhat"}
            got["dim_zhat"] = doc["exterior_center"]["dim"]
            _expect(got == want, f"{name} in a random basis gave {got}, by name {want}")

        invocations.append(Invocation(["multiplier", "--file", path, "--format", "json"], check))
    return invocations


def _wide_info(schurlab, part_lists, rng, workdir):
    invocations = []
    for idx, parts in enumerate(part_lists):
        algebras = [_catalog_algebra(schurlab, name) for name in parts]
        n, sc = _direct_sum(algebras)
        path = os.path.join(workdir, f"wide-info-{idx}.lie")
        _write(path, format_lie(f"W{idx}", n, _permute(n, sc, rng)))
        dims = []
        center = 0
        for m, part_sc in algebras:
            gamma, z = oracle.series_invariants(m, part_sc)
            center += z
            dims += [0] * (len(gamma) - len(dims))
            for k, g in enumerate(gamma):
                dims[k] += g
        want = {"n": n, "m": dims[1], "c": len(dims) - 1, "gamma_dims": dims,
                "center_dim": center}

        def check(rc, out, want=want):
            doc = _doc(rc, out)
            got = {k: doc.get(k) for k in want}
            _expect(got == want, f"wide info gave {got}, the parts sum to {want}")

        invocations.append(Invocation(["info", "--file", path, "--format", "json"], check))
    return invocations


def build(name, seed, workdir, smoke, schurlab):
    """The invocations of one pass of workload ``name``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "catalog-sweep":
        return _sweep(schurlab, SMOKE_MAX_DIM if smoke else 8)
    if name == "theorem-check":
        return _theorems(SMOKE_MAX_DIM if smoke else 7)
    if name == "file-reports":
        names = SMOKE_FILE_REPORT_NAMES if smoke else FILE_REPORT_NAMES
        return _file_reports(schurlab, names, rng, workdir)
    if name == "wide-info":
        parts = SMOKE_WIDE_PARTS if smoke else WIDE_PARTS
        return _wide_info(schurlab, parts, rng, workdir)
    raise ValueError(f"unknown workload {name!r}")
