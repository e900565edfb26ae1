"""Exception types shared across the package; the CLI maps each one to an exit code."""


class TrapwallError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TrapwallError, ValueError):
    """Input text does not match the sexagesimal or rational grammar."""


class DomainError(TrapwallError, ValueError):
    """An argument violates an operation's precondition."""


class NonTerminatingError(TrapwallError):
    """The value has no finite base-60 expansion (denominator not regular)."""


class PlacesExceededError(TrapwallError):
    """The value terminates in base 60 but needs more fractional places than allowed."""


class DigitLimitError(TrapwallError):
    """The value's numerator or denominator has more digits than int() writes out."""
