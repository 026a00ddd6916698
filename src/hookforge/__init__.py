"""Exact-arithmetic verification of hook expansion identities.

The package machine-checks, with zero floating-point error, the identities
tying together hook lengths of partitions, standard Young tableaux, and
involutions: the hook-weight expansion of exp(t + z t^2/2), its involution
reformulation in q, the extend-retract corner identity, the corner-content
relations, and the supporting symmetric rational-function identities.
"""

from .exact import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    poly_gcd,
)
from .identity import (
    hook_weight_sum,
    phi_n,
    rho,
    sample_distinct_rationals,
    verify_corner_hooks,
    verify_lemma1,
    verify_phi_recursion,
    verify_prop2,
    verify_prop2_for_shape,
    verify_prop3,
    verify_prop3_alternating,
    verify_prop3_residues,
    verify_theorem1,
    verify_theorem1prime,
    verify_weight_substitution,
    weight_lambda,
    weight_w,
)
from .involutions import (
    Involution,
    enumerate_involutions,
    g_poly,
    g_poly_oracle,
    involution_count,
    psi_n,
    verify_egf_kronecker,
    verify_involution_egf,
)
from .partitions import (
    Cell,
    CornerProfile,
    Partition,
    add_cell,
    addable_cells,
    content,
    corner_profile,
    f_lambda,
    hook_length,
    hooks,
    partitions_of,
    removable_cells,
    remove_cell,
)
from .tableaux import (
    StandardTableau,
    enumerate_syt,
    enumerate_syt_of_size,
    forward_row_insert,
    reverse_row_insert,
    verify_bijection,
)

__version__ = "0.1.0"
