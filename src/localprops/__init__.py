"""Exact toolkit for local constraints on colorings, point sets, and
integer sets: verifiers, generators, small-scale exact solvers, and
dyadic energy analysis.  Everything is pure-function and integer-exact;
all values are immutable and safe to share across threads.
"""

__version__ = "0.1.0"

from .coloring import (
    ColoredCompleteGraph,
    LocalSpec,
    PropertyVerdict,
    cauchy_schwarz_floor,
    color_energy,
    color_histogram,
    edge_count,
    edge_index,
    monochromatic,
    permute_vertices,
    rainbow,
    verify_local_property,
)
from .constructions import (
    RandomColoringConfig,
    behrend_set,
    collinear_point_set,
    color_budget,
    estimate_property_probability,
    random_coloring,
    verify_isosceles_free,
    verify_no_3ap,
)
from .energy import (
    BoundRow,
    DyadicProfile,
    bound_report,
    crossover_index,
    dyadic_bins,
    dyadic_profile,
    energy_decomposition,
)
from .forbidden import (
    BudgetExceededError,
    DetectorParams,
    PopularHit,
    SetSystem,
    counting_lemma_find,
    lemma_hypothesis_holds,
    max_mono_degree,
    mono_degree_violations,
    popular_intersection_search,
)
from .numbersets import (
    DiffSetSearchResult,
    additive_energy,
    difference_color_graph,
    difference_set,
    distance_color_graph,
    integer_set,
    min_difference_set,
    point_set,
    verify_diff_local_property,
    verify_distance_local_property,
)
from .solver import FeasibleOutcome, SolveBudget, SolveResult, feasible, min_colors
