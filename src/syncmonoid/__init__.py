"""Synchronizing transformation monoids and their graphs.

Core objects: endofunctions of a finite set, finitely generated
transformation monoids, and the graph machinery (separation graphs, hulls,
derived graphs, endomorphism monoids) used to decide and certify
synchronization.  Exact counting for the permutation-transitivity baseline
and seeded Monte Carlo experiments sit on top.
"""

from .dixon import (
    TransitivePairCounts,
    intransitive_union_bound,
    is_transitive,
    monte_carlo_transitive,
    orbits,
    single_permutation_transitive_probability,
    transitive_pair_counts,
    transitive_pair_probability,
)
from .errors import CapExceeded, VerificationError
from .experiments import (
    EdgeGraphReport,
    ExactResult,
    ExperimentConfig,
    edge_graph_experiment,
    estimate_sync_probability,
    exact_sync_probability,
    explore_maximal_nonsync,
    sweep,
)
from .graphs import (
    MaximalityConditions,
    SimpleGraph,
    adjacency_bits,
    canonical_form,
    check_maximality_conditions,
    chromatic_number,
    clique_number,
    color_graph,
    derived_graph,
    endomorphism_count,
    endomorphism_search,
    enumerate_endomorphisms,
    enumerate_graphs,
    hull,
    is_endomorphism,
    is_hull,
    is_maximal_nonsynchronizing,
    max_cliques,
)
from .rng import Stream, derive_seed, substream
from .stats import EstimateWithCI, make_estimate, wilson_interval
from .sync import (
    CollapsibilityTable,
    GeneratorSet,
    Word,
    collapsible_pairs,
    is_synchronizing,
    merging_word,
    min_rank_witness,
    monoid_closure,
    separation_graph,
    separation_graph_of_elements,
    shortest_synchronizing_word,
)
from .transform import (
    Endofunction,
    KernelPartition,
    PeriodicitySummary,
    compose,
    constant,
    has_unique_periodic_point,
    identity,
    image_set,
    is_permutation,
    kernel,
    periodicity,
    random_endofunction,
    random_permutation,
    rank,
)

__version__ = "0.1.0"
