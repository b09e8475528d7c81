"""Exception types and the result-record base shared across schurlab.

Everything raised on bad mathematical input derives from SchurlabError so
callers (in particular the CLI) can distinguish "your algebra is wrong"
from genuine bugs.  Index data carried by these exceptions uses the
presentation convention x1..xn, i.e. generator numbers are 1-based, even
though the library indexes coordinates from 0.

Record is the base of the immutable result classes (SeriesReport,
MultiplierReport, ...).  It lives here because every module imports
this one anyway.  It replaces ``dataclasses``, whose import and
per-class code generation cost each process more than a small
computation takes.
"""


class Record:
    """An immutable value record whose fields are the class annotations,
    in order.

    Instances are built positionally or by keyword, print as
    ``Name(field=value, ...)``, compare equal only to instances of the
    same class with equal values, hash as the tuple of their values, and
    raise AttributeError on assignment or deletion.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        name = type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(
                f"{name} takes {len(fields)} fields but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name} got an unexpected field {key!r}")
            if key in values:
                raise TypeError(f"{name} got multiple values for field {key!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            missing = ", ".join(f for f in fields if f not in values)
            raise TypeError(f"{name} is missing the fields {missing}")
        self.__dict__.update(values)

    def _values(self):
        return tuple(self.__dict__[f] for f in self._fields)

    def __repr__(self):
        items = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SchurlabError(Exception):
    """Base class for all schurlab domain errors."""


class SingularMatrix(SchurlabError):
    """A matrix that had to be invertible is not."""


class JacobiViolation(SchurlabError):
    """Structure constants fail the Jacobi identity.

    Attributes:
        triple:   (i, j, k) with 1 <= i < j < k, the offending generators
        residual: coordinates of [[xi,xj],xk] + [[xj,xk],xi] + [[xk,xi],xj]
    """

    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = tuple(residual)
        i, j, k = triple
        terms = ", ".join(
            f"{c}*x{t + 1}" for t, c in enumerate(self.residual) if c
        )
        super().__init__(
            f"Jacobi identity fails on (x{i}, x{j}, x{k}); residual {terms}"
        )


class NotNilpotent(SchurlabError):
    """The lower central series stabilises at a nonzero subalgebra."""


class NotAnIdeal(SchurlabError):
    """A subspace passed as an ideal is not bracket-closed under L."""


class NotCentral(SchurlabError):
    """A subspace required to be central has nonzero bracket with L."""


class NotOneDimensional(SchurlabError):
    """A subspace required to be a line has dimension != 1."""


class ResourceCapExceeded(SchurlabError):
    """A construction would exceed a size cap: the Hall basis words, the
    catalog enumeration dimension or a declared dimension."""


class InvariantMismatch(SchurlabError):
    """A catalog entry failed its recorded (n, m, c) or multiplier check."""


class UnknownName(SchurlabError):
    """No catalog entry with the requested name."""


class MissingParameter(SchurlabError):
    """A parameterized catalog entry was requested without its parameter."""


class DslError(SchurlabError):
    """Base class for presentation-text errors; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DslSyntaxError(DslError):
    """Presentation text does not match the grammar."""


class UnknownGenerator(DslError):
    """A generator token x<i> is outside 1..dim."""


class DuplicateInconsistentBracket(DslError):
    """The same bracket is defined twice with conflicting values."""
