"""Numerical laboratory for self-approximation of Dirichlet L-functions.

The package evaluates L(s, chi) inside the strip 1/2 < sigma < 1, builds the
simultaneous Diophantine approximation sets behind the positive-density
shift arguments, estimates sublevel-set densities of the pairwise
sup-difference functional g(tau) by seeded Monte Carlo, and checks the
supporting mean-value identities at desk scale.
"""

__version__ = "0.1.0"

from .characters import DirichletCharacter, character_from_id, enumerate_characters
from .density import (
    DensityEstimate,
    EmpiricalDistribution,
    ShiftFamily,
    convergence_diagnostic,
    empirical_distribution,
    estimate_density,
    g_value,
    g_values,
    sample_g,
)
from .diophantine import (
    KroneckerTarget,
    LinearRelation,
    check_log_prime_independence,
    find_rational_relations,
    find_tau_in_set,
    in_kronecker_set,
    measure_kronecker_density,
)
from .errors import DomainError, PoleError, RangeError
from .lfunc import (
    DEFAULT_CONFIG,
    StripRegion,
    l_partial_sum,
    l_truncated,
    l_value,
)
from .meanvalue import (
    CarlsonResult,
    b2_ladder,
    carlson_mean_value,
    coprime_tail_sum,
)
