"""Exception types shared across the toolkit.

Structural problems (validation violations, implements-relation failures)
are returned as data by the operations that find them; exceptions are
reserved for conditions that make the requested computation impossible.
"""

__all__ = [
    "GurevichError",
    "NotConverged",
    "NotStronglyConnected",
    "NotDeterministic",
    "Overflow",
    "Underflow",
    "StateCapExceeded",
    "BlockAlphabetTooLarge",
    "UnknownSymbol",
    "DocumentError",
]


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
    weights left the double range even after ``free_energy``'s shift by its
    largest cost (taken when that cost lies above +700, or is negative while
    the smallest lies below -700), or its largest cost is -inf, so its
    energy cannot be formed.  The message names the component's size and
    its costs."""


class StateCapExceeded(GurevichError):
    """A construction or enumeration passed its cap: determinization's
    state cap (``--state-cap``, default 2^20), the block translation's
    200,000 states, the product's 2^20 pair states or 7,000,000
    transitions, the implement construction's and the word partition
    sums' 7,000,000 transitions, or the linlen word oracle's 1,000,000
    prefixes.  A block alphabet past its 20,000 tuples raises
    BlockAlphabetTooLarge, which also exits 4."""


class BlockAlphabetTooLarge(GurevichError):
    """A block tuple alphabet would exceed the configured cap; ``count`` is the offender."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class UnknownSymbol(GurevichError):
    """A word or cost table referenced a symbol outside the declared alphabet."""


class DocumentError(GurevichError):
    """An input file failed to parse or failed validation."""
