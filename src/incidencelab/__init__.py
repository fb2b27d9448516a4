"""Incidence counting over Z_q with spectral error bounds, plus the
character-sum and bounded-quotient machinery the counts feed into.

The package is organized bottom-up: `modring` (arithmetic of Z_q,
characters, 2x2 matrices), `setops` (point sets), `incidence`
(counts, main terms, bounds), `spectra` (matrices, eigensolver, group
invariance), `charsums` (Kloosterman and twisted sums, energies),
`zaremba` (continued fractions, subgroup search, interval unions), and
`harness`/`cli` (seeded sweeps with CSV/JSON emission).
"""

from .errors import (
    Error,
    InvalidArgumentError,
    InvalidFractionError,
    InvalidLambdaError,
    InvalidModulusError,
    InvalidParamsError,
    MappingError,
    StructureError,
    TooLargeError,
)
from .modring import (
    Character,
    Modulus,
    coprime_tuples,
    dlog_table,
    factorize,
    inv_mod,
    is_prime,
    jordan_totient,
    make_character,
    mobius,
    primitive_root,
    units,
)
from .setops import PointSet, point_set
from .incidence import (
    IncidenceInstance,
    SlackReport,
    check_inequality,
    count_crossratio,
    count_det,
    count_dot,
    crossratio_bound_rhs,
    crossratio_main_term,
    det_bound_rhs,
    det_main_term,
    dot_bound_rhs,
    dot_main_term,
    second_eigenvalue_bound,
    theta,
)
from .spectra import (
    IncidenceMatrix,
    SpectrumReport,
    build_matrix,
    check_invariance,
    cluster_multiplicities,
    eig_symmetric,
    rectangular_norm,
    singular_values,
    spectrum_report,
)
from .charsums import (
    MatrixFamily,
    bilinear_form,
    bilinear_form_direct,
    energy_t2k,
    enumerate_gl2,
    gl2_order,
    group_twisted_sum,
    hyperbola_group,
    hyperbola_sum,
    intersection_char_sum,
    kloosterman,
    matrix_family,
    projective_lift_check,
    twisted_bound_rhs,
    unrank_gl2,
)
from .zaremba import (
    ContinuedFraction,
    SubgroupSpec,
    cf_expand,
    cf_value,
    energy_bound_report,
    find_in_subgroup,
    interval_union,
    minimal_feasible_bound,
    mult_energy,
    subgroup,
    zaremba_set,
)
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    RunResult,
    make_config,
    random_instance,
    run,
)

__version__ = "0.1.0"
