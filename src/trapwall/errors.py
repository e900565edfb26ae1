"""Exception types shared across the package; each refusal type carries the CLI's exit code."""


class TrapwallError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TrapwallError, ValueError):
    """Input text does not match the sexagesimal or rational grammar."""

    exit_code = 2


class DomainError(TrapwallError, ValueError):
    """An argument violates an operation's precondition."""

    exit_code = 4


class NonTerminatingError(TrapwallError):
    """The value has no finite base-60 expansion (denominator not regular)."""

    exit_code = 3


class PlacesExceededError(TrapwallError):
    """The value terminates in base 60 but needs more fractional places than allowed."""

    exit_code = 3


class DigitLimitError(TrapwallError):
    """The value's numerator or denominator has more digits than int() writes out."""

    exit_code = 3
