"""Command-line front end.

    schurlab info        --name L5_7 | --file presentation.alg
    schurlab multiplier  --name "H(1)+A(2)" [--format json]
    schurlab capable     --name A1
    schurlab bounds      --name "L6_22(1/2)"
    schurlab sweep       --max-dim 6
    schurlab check       --theorem all

Exit codes: 0 success, 1 stdout was closed before all output was
written, 2 input error (also an empty or unknown SCHURLAB_LOG level),
3 resource cap exceeded, 4 a theorem-consistency check failed.

JSON output (schema_version "1") is stable-ordered and byte-identical
across repeated invocations.  Every document carries the algebra
identity: the catalog name, or the file path with a sha256 digest of
its bytes.  Dimensions are integers; scalars and basis vectors are
exact rational strings.  Table output is human-oriented and not a
stability surface.  Set SCHURLAB_LOG=INFO (or DEBUG) for progress
logging on stderr.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import InvariantMismatch, ResourceCapExceeded, SchurlabError
from .linalg import Subspace

SCHEMA_VERSION = "1"


def _log_info(message, *args):
    """Log at INFO on the "schurlab" logger, which main configures when
    SCHURLAB_LOG is set; without it this does nothing, so a default run
    never imports ``logging``."""
    if "SCHURLAB_LOG" in os.environ:
        import logging

        logging.getLogger("schurlab").info(message, *args)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, Subspace):
        return {
            "dim": value.dim,
            "basis": [[_jsonable(x) for x in row] for row in value.rows],
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(doc, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(_jsonable(doc), separators=(",", ":")))
        sys.stdout.write("\n")
        return
    _emit_table(doc, indent="")


def _emit_table(doc, indent):
    for key, value in doc.items():
        value = _jsonable(value)
        if isinstance(value, dict):
            sys.stdout.write(f"{indent}{key}:\n")
            _emit_table(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            sys.stdout.write(f"{indent}{key}:\n")
            for item in value:
                _emit_table(item, indent + "  ")
                sys.stdout.write("\n")
        else:
            sys.stdout.write(f"{indent}{key}: {value}\n")


def _load_algebra(args):
    """Resolve --name or --file into (algebra, identity dict)."""
    if args.name is not None:
        from .catalog import catalog_get

        algebra = catalog_get(args.name)
        _log_info("loaded catalog algebra %s", algebra.name)
        return algebra, {"name": algebra.name}
    # the interpreter's built-in sha256 gives hashlib's digest without
    # loading OpenSSL, a few MB and ms per run; random.py takes sha512 so
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            from hashlib import sha256

    from .dsl import parse_presentation

    with open(args.file, "rb") as handle:
        data = handle.read()
    algebra = parse_presentation(data.decode("utf-8"))
    digest = sha256(data).hexdigest()
    _log_info("parsed %s (sha256 %s)", args.file, digest[:12])
    return algebra, {"file": args.file, "sha256": digest}


def _fields(record, names=None):
    """The fields of a record, or the named ones, as a dict in order."""
    return {f: getattr(record, f) for f in names or record._fields}


def cmd_info(args):
    algebra, identity = _load_algebra(args)
    rep = algebra.series()
    return {
        **identity,
        "n": algebra.dim,
        "m": rep.derived_dim,
        "c": rep.nilpotency_class,
        "d": rep.min_generators,
        "gamma_dims": list(rep.gamma_dims),
        "center_dim": rep.center_dim,
    }


def _load_report(args):
    from .multiplier import multiplier_report

    algebra, identity = _load_algebra(args)
    return multiplier_report(algebra), identity


def cmd_multiplier(args):
    report, identity = _load_report(args)
    return {**identity, **_fields(report)}


def cmd_capable(args):
    report, identity = _load_report(args)
    return {
        **identity,
        "capable": report.capable,
        "dim_exterior_center": report.exterior_center.dim,
    }


def cmd_bounds(args):
    report, identity = _load_report(args)
    names = ("n", "m", "c", "dim_M", "bound_e1", "bound_e2", "attains_e2")
    return {**identity, **_fields(report, names)}


def cmd_sweep(args):
    from .bounds import classification_sweep

    rows = classification_sweep(args.max_dim)
    return {
        "max_dim": args.max_dim,
        "entries": [_fields(row) for row in rows],
        "attainers": [row.name for row in rows if row.attains_e2],
    }


def cmd_check(args):
    from .bounds import run_checks
    from .catalog import enumerate_catalog

    reports = run_checks(
        enumerate_catalog(args.max_dim),
        args.theorem,
        f"catalog up to dimension {args.max_dim}",
    )
    return {
        "theorem": args.theorem,
        "max_dim": args.max_dim,
        "reports": [_fields(r) for r in reports],
        "all_hold": all(r.holds for r in reports),
    }


def _add_source_args(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--name", help="catalog name, e.g. L6_22(1/2) or H(1)+A(2)")
    source.add_argument("--file", help="path to a presentation file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schurlab",
        description="Exact multiplier and capability computations "
        "for nilpotent Lie algebras over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, blurb in (
        ("info", cmd_info, "dimension, series and generator data"),
        ("multiplier", cmd_multiplier, "multiplier, exterior square, capability and bounds"),
        ("capable", cmd_capable, "capability test via the exterior center"),
        ("bounds", cmd_bounds, "the two dimension bounds and attainment"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_source_args(p)
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.set_defaults(handler=handler)

    p = sub.add_parser("sweep", help="multiplier data for the whole catalog")
    p.add_argument("--max-dim", type=int, default=6)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("check", help="verify theorem inequalities on the catalog")
    # the ids of bounds.THEOREMS, spelled out so that building the
    # parser does not load the theorem module
    p.add_argument(
        "--theorem",
        choices=("2.1", "2.2", "2.5", "2.6", "2.9", "3.7", "all"),
        default="all",
    )
    p.add_argument("--max-dim", type=int, default=6)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(handler=cmd_check)
    return parser


def main(argv=None):
    level = os.environ.get("SCHURLAB_LOG")
    if level is not None:
        import logging

        # checked first: basicConfig installs its handler before it
        # rejects the level; getLevelName maps a known name to its int
        if not isinstance(logging.getLevelName(level.upper()), int):
            print(
                f"schurlab: unknown SCHURLAB_LOG level {level!r}; "
                "use DEBUG, INFO, WARNING, ERROR or CRITICAL",
                file=sys.stderr,
            )
            return 2
        logging.basicConfig(
            stream=sys.stderr, level=level.upper(), format="%(message)s"
        )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = {"schema_version": SCHEMA_VERSION, **args.handler(args)}
        _emit(doc, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``schurlab sweep | head -1``): point
        # it at devnull so that the interpreter's final flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ResourceCapExceeded as exc:
        print(f"schurlab: {exc}", file=sys.stderr)
        return 3
    except InvariantMismatch as exc:
        print(f"schurlab: {exc}", file=sys.stderr)
        return 4
    except (SchurlabError, OSError, ValueError) as exc:
        # ValueError: a --file that is not UTF-8, or an argument the
        # library rejects as out of range (--max-dim 0, H(0))
        print(f"schurlab: {exc}", file=sys.stderr)
        return 2
    return 4 if doc.get("all_hold") is False else 0


if __name__ == "__main__":
    sys.exit(main())
