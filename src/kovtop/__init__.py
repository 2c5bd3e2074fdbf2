"""kovtop: Kovalevskaya and Euler-top flows, their birational discretizations,
and a numerical certification harness.

The package covers the three-dimensional Kovalevskaya system and Euler top,
their N-dimensional generalizations, bilinear (Hirota-Kimura / Kahan type)
and alternative birational discretizations, the full catalog of conserved
quantities and invariant volume densities, and the machinery that certifies
every claimed conservation law, conjugacy, and algebraic identity in double
precision.
"""
from .core import (MapStepScale, QuadraticField, TrajectoryRecord, as_state,
                   elementary_symmetric, evaluate_field, painleve_condition)
from .errors import (BlowupError, ConfigError, DimensionError, DomainError,
                     KovtopError, ParameterError, SingularStepError)
from .flows import (FlowSpec, euler_field, euler_top3, generalized_euler,
                    generalized_kovalevskaya, integrate_reference,
                    kovalevskaya3, kovalevskaya_field,
                    verify_hyperelliptic_relation)
from .hk_engine import (BilinearStepSystem, build_A_generalized_kov,
                        hk_inverse_step, hk_step, polarize)
from .invariants import (DriftReport, Invariant, cross_ratio, defect_order,
                         drift_batch, drift_report, independence_rank,
                         random_starts, registry, verify_phi_functional_equation,
                         verify_poly_identity_N4, verify_relation_qq,
                         volume_check)
from .changevar import (ChangeOfVariables, conjugacy_check, gen_cv,
                        jacobian_gen_cv, linear_cv, nonlinear_cv3)
from .maps import (DiscreteMap, alt_map, cosine_law, d_polynomial, euler_hk,
                   gen_hk, get_map, kov_pullback, kov_sqrt, r_factor,
                   r_reciprocity_residual, s_relation_residuals)

__version__ = "0.1.0"
