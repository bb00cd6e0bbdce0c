"""Mobius function on the permutation pattern poset: evaluation, zero
certificates, census sweeps and structural verification."""

from .permcore import (
    BudgetError,
    Perm,
    PermError,
    SYMMETRY_LABELS,
    adjacencies,
    apply_symmetry,
    canonical_symmetry_form,
    contains,
    direct_sum,
    down_set,
    find_sum_split_interval,
    fmt,
    has_opposing_adjacencies,
    inflate_at,
    intervals,
    is_simple,
    parse,
    pattern_of,
    perm,
    symmetric_images,
    symmetry_orbit,
)
from .mobius import (
    FinitePosetView,
    MobiusCache,
    interval_as_poset,
    interval_mobius,
    mobius,
    mobius_poset,
    principal_mobius,
)
from .zerorules import (
    ANNIHILATOR_PAIRS,
    BASE_ANNIHILATORS,
    CONJECTURED_PAIRS,
    AnnihilatorPair,
    BaseAnnihilator,
    OpposingAdjacencies,
    SumAnnihilator,
    ZeroCertificate,
    certificate_line,
    certify_zero,
    describe_certificate,
    sigma_sum_rule,
    verify_certificate,
)
from .census import (
    CensusRow,
    adjacency_counts,
    density_bound_report,
    emit_table,
    render_density,
    sweep,
    zero_density,
)
from .verify import (
    CoreInvariantError,
    PreconditionError,
    Report,
    TippedCore,
    run_theorem_suites,
)

__version__ = "0.1.0"
