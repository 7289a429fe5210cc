"""Toolkit for multiplicative partial isometries on finite tensor products.

Given a candidate W on C^n (x) C^n (and optionally a positive Q), the
package checks the multiplicativity axioms, builds the slice algebras
and comultiplications, the base algebras with their distinguished
weights and anti-isomorphisms, the manageability companion Wtilde, and
the antipode with its polar decomposition -- reporting a numeric
residual for every identity that is checkable at this scale.
"""

__version__ = "0.1.0"

from .tensor import (  # noqa: F401
    H,
    HBAR,
    LegMismatchError,
    LegSpec,
    TensorSpace,
    Operator,
    OperatorSubspace,
    space,
    identity,
    kron,
    flip,
    swap_legs,
    transpose_op,
    embed,
    pos_power,
    span,
    lsq_solve,
)
from .context import Fixture, what  # noqa: F401
from .axioms import (  # noqa: F401
    MpiVerdict,
    FullnessVerdict,
    check_mpi_axioms,
    assess_fullness,
)
from .coalgebra import (  # noqa: F401
    CoalgebraReport,
    TensorSquare,
    leg_algebra,
    coassociativity_residual,
    check_canonical_idempotent,
    check_delta_range_and_density,
)
from .base_algebra import (  # noqa: F401
    WeightData,
    BaseAntiIso,
    base_spans,
    find_distinguished_weight,
    modular_conjugate,
    gamma_and_rtilde,
    check_separability_triple,
    c_star_bases,
)
from .manageability import (  # noqa: F401
    ManageabilityCertificate,
    build_wtilde,
    check_manageability,
    check_hash_identities,
    dual_manageability,
    suggest_q,
)
from .antipode import (  # noqa: F401
    tau,
    antipode_map,
    check_antipode,
    check_duality,
    check_base_restrictions,
)
from .corpus import (  # noqa: F401
    GroupoidSpec,
    matrix_unit_example,
    group_mpu,
    groupoid_mpi,
    conjugate_fixture,
)
from .runner import run_suite, corpus_suite, builtin_corpus  # noqa: F401
from .report import CheckReport  # noqa: F401
