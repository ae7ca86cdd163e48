"""Exception hierarchy shared across the toolkit.

Domain errors describe mathematically meaningful failure modes and map to
exit code 2 in the CLI; usage errors (bad expressions, bad flags) map to 1.
"""


class DomainError(Exception):
    """Base class for mathematically meaningful failures."""


class BadPrime(DomainError):
    """Reduction mod p impossible: some coefficient has negative Gauss valuation."""

    def __init__(self, prime, detail=""):
        self.prime = prime
        super().__init__(f"cannot reduce modulo {prime}" + (f": {detail}" if detail else ""))


class IrregularPoint(DomainError):
    """The requested local data only exists at regular singular points."""


class NoSolution(DomainError):
    """The homogeneous linear system has only the trivial solution."""


class InsufficientTruncation(DomainError):
    """The series is not known to enough terms for the requested computation."""


class InvalidParameters(DomainError):
    """Hypergeometric parameters outside the allowed range."""


class UsageError(Exception):
    """Base class for command-line and expression-syntax failures."""


class ParseError(UsageError):
    def __init__(self, message, line=1, column=0):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class MixedBasisError(UsageError):
    """An expression mixes the D and theta derivation symbols."""
