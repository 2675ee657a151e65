"""Exact toolkit for local constraints on colorings, point sets, and
integer sets: verifiers, generators, small-scale exact solvers, and
dyadic energy analysis.  Everything is pure-function and integer-exact;
all values are immutable and safe to share across threads.
"""

__version__ = "0.1.0"

from .coloring import *
from .constructions import *
from .energy import *
from .forbidden import *
from .numbersets import *
from .solver import *
