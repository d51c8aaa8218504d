"""tvgkit: time-varying graph analytics.

Builds on a presence-interval TVG model: journeys and the three temporal
distances (shortest / foremost / fastest), footprints and temporal
subgraphs, and both atemporal and temporal social-network indicators
evaluated per window by ``evolve`` / ``evolve_many``.
"""

from .core import (
    Edge,
    Footprint,
    Lifetime,
    PresenceSet,
    TimeVaryingGraph,
    active_nodes,
    build_tvg,
    footprint,
    presence,
    temporal_subgraph,
)
from .journeys import (
    count_minimal_journeys,
    distance_map,
    is_journey,
    temporal_view,
    witness_journey,
)
from .static_metrics import (
    average_clustering,
    average_modularity,
    clustering_coefficient,
    cut_conductance,
    density,
    graph_conductance,
    pair_modularity,
    powerlaw_exponent,
)
from .temporal_metrics import (
    diameter,
    eccentricity,
    temporal_betweenness,
    temporal_betweenness_all,
    temporal_closeness,
)
from .trace_io import parse_trace, write_trace
from .synth import generate_trace
from .windows import (
    IndicatorSeries,
    WindowSpec,
    evolve,
    evolve_many,
    footprint_sequence,
    windows_of,
)

__version__ = "0.1.0"
