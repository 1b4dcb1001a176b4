"""Variable-exponent function-space norms on finite metric measure spaces,
with solvers for pointwise-gradient quasi-norms and a verification harness
for Sobolev, exponential-integrability, and regularity-scale embeddings."""

from .exponents import (ExponentField, conjugate, field_from_spec, holder_exponent,
                        log_holder_constant, log_regularity, log_comparison_bounds,
                        restricted_bounds, sobolev_conjugate, strictly_dominates)
from .gradients import (GradientConstraintSystem, GradientSolution, active_levels,
                        gradient_zero_implies_constant, geometric_iteration_check,
                        level_of, lipschitz_cutoff_gradient, minimal_scalar_gradient,
                        minimal_vector_gradient, norm_convention_equivalence,
                        oracle_scalar_gradient)
from .norms import (NormValue, SequenceSample, holder_inequality_check, holder_seminorm,
                    interpolation_splitting_check, lebesgue_embedding_constant,
                    luxemburg, median, median_bound_check, mixed_modular_closed_form,
                    mixed_modular_lq_lp, mixed_norm_lp_lq, mixed_norm_lq_lp, modular,
                    monotonicity_check, pointwise_lq, rel_sandwich_check)
from .regularity import (RegularityProfile, best_lower_constant, best_upper_constant,
                         estimate_Q, rescale_threshold)
from .space import (Ball, MetricMeasureSpace, SpaceValidationError, ball, ball_masses,
                    critical_radii, estimate_doubling, overlap_bound_check,
                    perfectness_resolution, phi, phi_iterates, product_cover_check,
                    separated_net, uniform_perfectness)
from .verify import (Hypothesis, VerificationReport, check_global, check_morrey_local,
                     check_moser_trudinger_local, check_sobolev_local,
                     counterexample_run, local_embedding_check, necessity_run)

__version__ = "0.1.0"
