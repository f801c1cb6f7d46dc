"""toughgraph: nonhamiltonian graphs of prescribed rational toughness.

For every rational t with 0 < t < 9/4, synthesize() produces a graph
whose toughness is exactly t and which has no Hamilton cycle, along
with a certificate that check_certificate() can confirm independently.
Exact oracles for toughness, Hamiltonicity, and independence number
back everything at small sizes; structural arguments take over beyond
the enumeration limits.

Each module's __all__ is its public surface; the package re-exports
them all, so a public name is listed once, in its module.
"""

from .blocks import *
from .graphs import *
from .oracles import *
from .synth import *
from .verify import *

__version__ = "0.1.0"

# each star import also binds its submodule's name here, as in asyncio's __init__
__all__ = [
    *blocks.__all__,
    *graphs.__all__,
    *oracles.__all__,
    *synth.__all__,
    *verify.__all__,
    "__version__",
]
