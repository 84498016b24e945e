"""Shared exception types.

Every mathematically meaningful failure in the library raises one of these,
so callers (and the CLI exit-code mapping) can tell contract violations
apart from plain bugs.
"""

__all__ = [
    "IgkError",
    "SpaceMismatchError",
    "DominationError",
    "ZeroMassError",
    "ExponentError",
    "EmptyFiberError",
    "DomainError",
    "NegativeDensityError",
    "ContractError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "UnsupportedError",
]


class IgkError(Exception):
    """Base class for all library errors."""


class SpaceMismatchError(IgkError):
    """Two values that must share a sample space do not."""


class DominationError(IgkError):
    """A measure carries mass (or a derivative is nonzero) on a null atom
    of its required dominator."""


class ZeroMassError(IgkError):
    """An operation that divides by total mass met a zero-mass measure."""


class ExponentError(IgkError):
    """A power-measure exponent left the representable range (0, 1]."""


class EmptyFiberError(IgkError):
    """A statistic has a target atom with an empty preimage where a fiber
    measure is required."""


class DomainError(IgkError):
    """A parameter point lies outside its declared domain, or an expression
    was evaluated outside the domain of one of its operations (log of a
    nonpositive number, division by zero)."""


class NegativeDensityError(IgkError):
    """A model density evaluated to a negative number."""


class ContractError(IgkError):
    """A declared model invariant failed (e.g. a statistical model whose
    total mass is not 1)."""


class ExprSyntaxError(IgkError):
    """Expression text failed to parse.

    Attributes
    ----------
    offset : int
        Byte offset of the offending token in the source text.
    expected : tuple of str
        What the parser would have accepted at that point.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(expected)


class UnknownIdentifierError(IgkError):
    """An identifier in an expression is not a known variable or function."""


class UnsupportedError(IgkError):
    """Symbolic differentiation hit a non-smooth node on a path that
    depends on the differentiation variable."""
