"""Free energy of cost-weighted finite automata and regular languages.

The library computes the exponential growth rate (free energy) of cost-
weighted partition sums over the runs of an automaton or the words of a
regular language, plus the quantities built on top of it: nondeterminism
estimates, a free-energy similarity of automata pairs, pair-cost language
compilation, and linear-length-language translation.  Brute-force
partition-sum oracles back every spectral result.
"""

from . import automata, documents, energy, errors, langcost, linlen, nondet, oracle, similarity, spectral

# the modules themselves, before ``from .similarity import *`` rebinds
# ``similarity`` to the function
_MODULES = (automata, documents, energy, errors, langcost, linlen, nondet, oracle, similarity, spectral)

from .automata import *
from .documents import *
from .energy import *
from .errors import *
from .langcost import *
from .linlen import *
from .nondet import *
from .oracle import *
from .similarity import *
from .spectral import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
