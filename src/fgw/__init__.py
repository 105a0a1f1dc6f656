"""Exact-arithmetic toolkit for radial convolution operators on free groups.

Words and spheres, the exact radial convolution algebra, discrete
Lorentz norms, set-search norm estimators and truncated column sups,
and composite verifiers that certify the weak-type operator norm bounds
at desk scale.  fgw.oracle holds the brute-force ground truth they are
tested against.
"""

from .errors import BudgetExceededError
from .lorentz import (
    LorentzIndex,
    Rearrangement,
    lorentz_norm,
    radial_weighted_sum,
    rearrange,
    rearrange_radial,
    weak_norm,
)
from .operators import (
    ElementSet,
    SetFamily,
    candidate_sets,
    column_l1_sup,
    default_radius,
    explicit_set,
    q_alpha_sweep,
    restricted_weak_estimate,
    weak_estimate_21_to_2,
)
from .oracle import (
    FunctionOnGroup,
    best_F_ratio,
    left_convolve,
    oracle_convolve,
    pairing,
    truncated_column,
)
from .radial import (
    RadialFunction,
    a_functional,
    a_functional_parts,
    chi,
    conjecture_functional,
    convolve_radial,
    format_radial_literal,
    paper_display_coefficient,
    parse_radial_literal,
    sphere_product,
    structure_constant,
)
from .theorems import (
    VerificationReport,
    build_thm1_suite,
    conjecture_scan,
    sample_radial,
    thm3_equivalence_report,
    thm4_lower_chain,
    thm5_exponent_fit,
    verify_display_majorization,
    verify_lemma1,
    verify_p_columns,
    verify_q_columns,
    verify_r22,
    verify_thm1,
)
from .words import (
    FAMILY_PAIR_BUDGET,
    PAIR_BUDGET,
    SPHERE_CAP,
    FreeGroupCtx,
    ReducedWord,
    ball_size,
    ball_stream,
    identity,
    inverse,
    mul,
    normalize,
    sphere_size,
    sphere_stream,
    word_from_str,
    word_to_str,
)

__version__ = "0.1.0"
