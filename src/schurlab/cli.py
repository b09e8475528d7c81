"""Command-line front end.

    schurlab info        --name L5_7 | --file presentation.alg
    schurlab multiplier  --name "H(1)+A(2)" [--format json]
    schurlab capable     --name A1
    schurlab bounds      --name "L6_22(1/2)"
    schurlab sweep       --max-dim 6
    schurlab check       --theorem all

The command line is ``schurlab [-h] COMMAND [OPTION ...]``.  One table,
``COMMANDS``, gives each command its handler, help line and options,
and each option its choices or type and its default; the help text and
the usage errors are written from it.  Words are read as argparse reads
them:

- an option is ``--opt value`` or ``--opt=value``, and a long option
  may be cut to any unique prefix (``--na``, ``--max``);
- a word that starts with "-" is an option, unless it looks like a
  negative number or holds a space: ``--max-dim -1`` is the value -1,
  which the library refuses with exit 2;
- a repeated option keeps its last value; ``info``, ``multiplier``,
  ``capable`` and ``bounds`` take exactly one of ``--name`` and
  ``--file``; the defaults are ``--format table``, ``--max-dim 6`` and
  ``--theorem all``;
- ``-h`` or ``--help`` prints help and exits 0 where it is read; "--"
  ends the options, and a word left over is an error.

A usage error writes ``usage: ...`` and ``schurlab COMMAND: error:
MESSAGE`` to stderr and raises SystemExit(2).

Exit codes: 0 success, 1 stdout was closed before all output was
written, 2 input error (also an empty or unknown SCHURLAB_LOG level),
3 resource cap exceeded, 4 a theorem-consistency check failed.

``run`` is the process entry (``python -m schurlab`` and the
``schurlab`` script): once ``main`` returns and stdout and stderr are
flushed, the process exits at once, without interpreter teardown, so
``atexit`` hooks do not run.  Help, usage errors and uncaught
exceptions end the ordinary way.  A library caller of ``main`` is
unaffected: it returns the exit code and never exits the process.

JSON output (schema_version "1") is stable-ordered and byte-identical
across repeated invocations.  Every document carries the algebra
identity: the catalog name, or the file path with a sha256 digest of
its bytes.  Dimensions are integers; scalars and basis vectors are
exact rational strings.  Table output is human-oriented and not a
stability surface.  Set SCHURLAB_LOG=INFO (or DEBUG) for progress
logging on stderr.
"""

import os
import re
import sys
from types import SimpleNamespace

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote

from .errors import InvariantMismatch, ResourceCapExceeded, SchurlabError
from .linalg import Subspace, basis_text

SCHEMA_VERSION = "1"


def _log_info(message, *args):
    """Log at INFO on the "schurlab" logger, which main configures when
    SCHURLAB_LOG is set; without it this does nothing, so a default run
    never imports ``logging``."""
    if "SCHURLAB_LOG" in os.environ:
        import logging

        logging.getLogger("schurlab").info(message, *args)


def _jsonable(value):
    if isinstance(value, Subspace):
        # exact rational strings, written from the integer echelon
        return {"dim": value.dim, "basis": basis_text(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _json_text(value):
    """``json.dumps(value, separators=(",", ":"))`` for what ``_jsonable``
    returns: dicts with str keys, lists, str, int, bool and None.  The
    strings are quoted by json's own function, and the json package,
    which a run would import only for this, stays out of start-up."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        items = (f"{_quote(k)}:{_json_text(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(_json_text, value)) + "]"
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    return int.__repr__(value)


def _emit(doc, fmt):
    if fmt == "json":
        sys.stdout.write(_json_text(_jsonable(doc)))
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


_SOURCE = {
    "--name": (str, None, "catalog name, e.g. L6_22(1/2) or H(1)+A(2)"),
    "--file": (str, None, "path to a presentation file"),
}
_FORMAT = {"--format": (("json", "table"), "table", "output format")}
_MAX_DIM = {"--max-dim": (int, 6, "largest catalog dimension")}

# command -> (handler, help line, {option: (type or choices, default,
# help)}); the source commands take exactly one of --name and --file
COMMANDS = {
    "info": (cmd_info, "dimension, series and generator data",
             {**_SOURCE, **_FORMAT}),
    "multiplier": (cmd_multiplier,
                   "multiplier, exterior square, capability and bounds",
                   {**_SOURCE, **_FORMAT}),
    "capable": (cmd_capable, "capability test via the exterior center",
                {**_SOURCE, **_FORMAT}),
    "bounds": (cmd_bounds, "the two dimension bounds and attainment",
               {**_SOURCE, **_FORMAT}),
    "sweep": (cmd_sweep, "multiplier data for the whole catalog",
              {**_MAX_DIM, **_FORMAT}),
    "check": (cmd_check, "verify theorem inequalities on the catalog", {
        # the ids of bounds.THEOREMS, spelled out so that reading the
        # command line does not load the theorem module
        "--theorem": (("2.1", "2.2", "2.5", "2.6", "2.9", "3.7", "all"),
                      "all", "theorem id, or all"),
        **_MAX_DIM,
        **_FORMAT,
    }),
}

_HELP = ("-h", "--help")


def _metavar(flag, kind):
    if isinstance(kind, tuple):
        return "{" + ",".join(kind) + "}"
    return flag[2:].replace("-", "_").upper()


def _usage(command):
    if command is None:
        return f"usage: schurlab [-h] {{{','.join(COMMANDS)}}} ..."
    words = ["usage: schurlab", command, "[-h]"]
    options = COMMANDS[command][2]
    if "--name" in options:
        words.append("(--name NAME | --file FILE)")
    words += [
        f"[{flag} {_metavar(flag, kind)}]"
        for flag, (kind, _, _) in options.items()
        if flag not in _SOURCE
    ]
    return " ".join(words)


def _refuse(command, message):
    """A usage error, written and raised as argparse does."""
    prog = "schurlab" if command is None else f"schurlab {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(command, inline):
    if inline is not None:
        _refuse(command, "argument -h/--help: ignored explicit argument "
                         f"{inline!r}")
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        title = ("Exact multiplier and capability computations for nilpotent "
                 "Lie algebras over the rationals.")
        commands = [(name, blurb) for name, (_, blurb, _) in COMMANDS.items()]
        sections = {"commands:": commands, "options:": options}
    else:
        _, title, table = COMMANDS[command]
        options += [
            (f"{flag} {_metavar(flag, kind)}",
             text if default is None else f"{text} (default: {default})")
            for flag, (kind, default, text) in table.items()
        ]
        sections = {"options:": options}
    width = max(len(left) for rows in sections.values() for left, _ in rows) + 2
    lines = [_usage(command), "", title]
    for heading, rows in sections.items():
        lines += ["", heading, *(f"  {left:<{width}}{right}" for left, right in rows)]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _option(command, word, flags):
    """How argparse reads one word: None for a value, else
    ``(flag, inline)``.  ``flag`` is the one of ``flags`` the word names
    in full or by a unique prefix, or None for an unknown option;
    ``inline`` is the text after "=", or None without one."""
    if not word.startswith("-") or word in ("-", "--"):
        return None
    key, eq, inline = word.partition("=")
    inline = inline if eq else None
    if word in flags:
        return word, None
    if key in flags:
        return key, inline
    if word.startswith("--"):
        hits = [flag for flag in flags if flag.startswith(key)]
        if len(hits) > 1:
            _refuse(command, f"ambiguous option: {word} could match "
                             f"{', '.join(hits)}")
        if hits:
            return hits[0], inline
    elif word[:2] in flags:
        return word[:2], word[2:]
    # a word that looks like a negative number is a value, not an option
    if re.match(r"-\d+$|-\d*\.\d+$", word) or " " in word:
        return None
    return None, None


def _parse(argv):
    """Read the command line by ``COMMANDS``, as the module docstring
    states; return the fields the handlers read, or raise SystemExit:
    0 after help, 2 after a usage error."""
    words = sys.argv[1:] if argv is None else list(argv)
    extras = []
    for at, word in enumerate(words):
        hit = _option(None, word, _HELP)
        if hit is None:
            break
        if hit[0] is None:
            extras.append(word)
        else:
            _help(None, hit[1])
    else:
        _refuse(None, "the following arguments are required: command")
    command = words[at]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _refuse(None, f"argument command: invalid choice: {command!r} "
                      f"(choose from {choices})")
    handler, _, options = COMMANDS[command]
    rest = words[at + 1:]
    # "--" ends the options; every word from it on is left over
    tail = rest[rest.index("--"):] if "--" in rest else []
    rest = rest[:len(rest) - len(tail)]
    flags = (*_HELP, *options)
    read = [_option(command, word, flags) for word in rest]
    values = {flag: default for flag, (_, default, _) in options.items()}
    source = None
    at = 0
    while at < len(rest):
        word, hit = rest[at], read[at]
        at += 1
        if hit is None or hit[0] is None:
            extras.append(word)
            continue
        flag, value = hit
        if flag in _HELP:
            _help(command, value)
        if value is None:
            if at == len(rest) or read[at] is not None:
                _refuse(command, f"argument {flag}: expected one argument")
            value = rest[at]
            at += 1
        kind = options[flag][0]
        if isinstance(kind, tuple):
            if value not in kind:
                choices = ", ".join(map(repr, kind))
                _refuse(command, f"argument {flag}: invalid choice: "
                                 f"{value!r} (choose from {choices})")
        else:
            try:
                value = kind(value)
            except ValueError:
                _refuse(command, f"argument {flag}: invalid "
                                 f"{kind.__name__} value: {value!r}")
        if flag in _SOURCE:
            if source not in (None, flag):
                _refuse(command, f"argument {flag}: not allowed with "
                                 f"argument {source}")
            source = flag
        values[flag] = value
    if "--name" in options and source is None:
        _refuse(command, "one of the arguments --name --file is required")
    extras += tail
    if extras:
        _refuse(command, "unrecognized arguments: " + " ".join(extras))
    fields = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=command, handler=handler, **fields)


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
    args = _parse(argv)
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


def run():
    """Run ``main`` as a process and exit with its code.  Once the
    answer is flushed nothing is left to do, so ``os._exit`` skips the
    interpreter's teardown (full garbage collections and module
    clean-up): nothing in the package registers an ``atexit`` hook or
    keeps a write handle open, and the logging handler flushes each
    record.  If a flush fails, ``sys.exit`` leaves the last flush and
    the exit status to the interpreter."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the fd was closed at start
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)
