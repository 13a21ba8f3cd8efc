"""Exact loop-measure calculus and seed-deterministic samplers on finite
weighted graphs: Green operators, Poisson loop ensembles, Gaussian free
fields, random spanning trees, Ihara zeta functions, and a verification
harness tying the samplers to closed-form determinant identities.
"""

from .exact import (
    GreenBundle,
    TransferMatrix,
    capacity,
    green,
    green_chi,
    hitting_kernel,
    partition_ratio,
    recurrent_green,
    transfer_matrix,
    twisted_green,
)
from .fixtures import FIXTURES, fixture, write_fixtures
from .graph import (
    EnergyForm,
    GraphError,
    build_wreath,
    load_energy_form,
    recurrent_extension,
    restrict,
    trace_on,
)
from .loops import (
    DiscreteLoop,
    PointedLoop,
    alpha_permanent,
    cross_hitting_series,
    edge_count_moments,
    enumerate_loops,
    enumeration_tail_bound,
    mu_discrete,
    mu_hit_avoid,
    mu_nontrivial_total,
    mu_visit_count,
    occupation_laplace,
    occupation_moments,
    renormalized_power,
    renormalized_power_moment,
    spectral_radius,
    wreath_identity_sum,
)
from .rng import RngStream, as_generator
from .samplers import (
    BridgePath,
    FieldSample,
    LoopEnsemble,
    PointedLoopSampler,
    SpanningTree,
    loop_erase,
    sample_bridge,
    sample_gff,
    sample_loop_soup,
    sample_pointed_loop,
    wick_power,
    wilson_sample,
)
from .verify import (
    VerificationReport,
    default_involution,
    verify_dynkin,
    verify_energy_variation,
    verify_loop_erasure,
    verify_occupation_marginals,
    verify_reflection_positivity,
    verify_transfer_current,
    verify_zeta,
)
from .zeta import ZetaReport, non_backtracking_counts, zeta_ihara

__version__ = "0.1.0"
