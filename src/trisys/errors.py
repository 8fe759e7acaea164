"""Exception types shared across the package.

Index-range violations raise the builtin IndexError and a zero denominator
raises the builtin ZeroDivisionError; everything else derives from
TriSysError so callers can catch package errors in one clause.
"""


class TriSysError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(TriSysError):
    """A vector or subspace does not match the ambient dimension."""


class DuplicateEntry(TriSysError):
    """The same structure-table key was given twice."""


class ZeroCoefficient(TriSysError):
    """A structure-table entry carries coefficient zero (omit it instead)."""


class CapExceeded(TriSysError):
    """The dimension exceeds the configured cap for an exhaustive check."""


class NotLeibniz(TriSysError):
    """A bilinear bracket fails the Leibniz identity."""

    def __init__(self, witness):
        super().__init__(f"bracket fails the Leibniz identity at basis triple {witness}")
        self.witness = witness


class NotMultiplicative(TriSysError):
    """A product of basis vectors is not a scalar multiple of one basis vector."""

    def __init__(self, witness, value=None):
        super().__init__(f"product at basis triple {witness} is not a scaled basis vector")
        self.witness = witness
        self.value = value


class NotAdapted(TriSysError):
    """The ideal is not spanned by basis vectors, so no adapted split exists."""

    def __init__(self, row):
        pretty = " ".join(str(c) for c in row)
        super().__init__(f"ideal has a reduced row with several nonzero coordinates: {pretty}")
        self.row = row


class NotAdmissible(TriSysError):
    """A declared ideal fails the ideal or annihilation requirements."""


class InconsistentSplit(TriSysError):
    """A split's iset is not strictly ascending within 1..dim."""


class NotReversible(TriSysError):
    """A connection witness uses pair elements outside the reversible domain."""


class TheoremViolation(TriSysError):
    """A literal-mode decomposition guarantee failed; indicates a bug."""


class InternalError(TriSysError):
    """An internal invariant failed; indicates a bug."""


class ParseError(TriSysError):
    """A system file does not conform to the grammar."""

    def __init__(self, message, line, column=None):
        loc = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.column = column
