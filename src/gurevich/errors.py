"""Exception types shared across the toolkit.

Structural problems (validation violations, implements-relation failures)
are returned as data by the operations that find them; exceptions are
reserved for conditions that make the requested computation impossible.
"""


class GurevichError(Exception):
    """Base class for all toolkit errors."""


class NotConverged(GurevichError):
    """The Perron solver used up its iterations (power sweeps plus Noda
    steps) before the Collatz-Wielandt interval met the tolerance.

    The message names the solver method, the residual and the component's
    size; ``result`` carries the partial SpectralResult.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NotStronglyConnected(GurevichError):
    """A single-component operation received a non-strongly-connected input."""


class NotDeterministic(GurevichError):
    """A DFA-only operation received a nondeterministic automaton."""


class Overflow(GurevichError):
    """A partition sum left the double range; ``n`` names the first bad length."""

    def __init__(self, message, n=None):
        super().__init__(message)
        self.n = n


class Underflow(GurevichError):
    """A component's certified Perron radius is not a positive double: its
    weights left the double range even after the shift by its largest cost,
    so its energy cannot be formed.  The message names the component's size
    and cost range."""


class StateCapExceeded(GurevichError):
    """A state-set construction (determinization, block translation) passed its cap."""


class BlockAlphabetTooLarge(GurevichError):
    """A block tuple alphabet would exceed the configured cap; ``count`` is the offender."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class UnknownSymbol(GurevichError):
    """A word or cost table referenced a symbol outside the declared alphabet."""


class DocumentError(GurevichError):
    """An input file failed to parse or failed validation."""
