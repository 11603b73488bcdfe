"""Exception hierarchy shared by all modules."""


class MicrodiffError(Exception):
    """Base class for all library errors."""


class InvalidParameter(MicrodiffError):
    """Bad user input: a p that is not prime, a level below 0, a count or
    order out of range, or a config file that cannot be read."""


class LevelMismatch(MicrodiffError):
    """Operands live at different levels / primes / dimensions."""


class IntegralityViolation(MicrodiffError):
    """An exactly computed constant that must be a p-adic integer is not.

    This signals an implementation bug, never bad user input.
    """


class NotHomogeneous(MicrodiffError):
    """A symbol that must be homogeneous is not."""


class NotIntegral(MicrodiffError):
    """Reduction mod p^i requested for a non p-integral object."""


class ZeroOperator(MicrodiffError):
    """Operation undefined on the zero operator."""


class SearchBoundExceeded(MicrodiffError):
    """A bounded search ran out of budget without a decision."""


class IncompatibleLocalizer(MicrodiffError):
    """Micro-operators presented over different localizers."""


class NotInvertibleAtSymbol(MicrodiffError):
    """The principal symbol is not a unit on the requested chart."""


class SymbolMismatch(MicrodiffError):
    """The principal symbol is not supported by this localizer."""


class BoundsExhausted(MicrodiffError):
    """Standard-basis completion hit its bounds."""


class ExprSyntaxError(MicrodiffError):
    """Expression parse error, carrying a source span."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span
