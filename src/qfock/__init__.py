"""q-deformed full Fock spaces at finite truncation.

Exact verification (in Q[q]) of Wick products, partition expansions,
stochastic measures, multiple-integral isometries, Kailath-Segall formulas,
grid Itô calculus, and the compound-Poisson construction over a weighted
point set.
"""

from .errors import (CutoffExceededError, DegeneracyError, DepthExceededError,
                     ModeMismatchError, QFockError, ResourceBudgetError,
                     UsageError)
from .fock import (FockOperator, FockVector, Gauge, DenseGauge,
                   OneParticleSpace, SparseVector, adjoint, apply, apply_Pn,
                   field_operator, gamma_q, inner0, innerq,
                   operator_norm_estimate, project, sparse_vector)
from .kspoly import (NCPolynomial, ks_poly, ks_row_formula, monic_op_poly,
                     q_charlier, q_hermite)
from .model import (WeightedPointAlgebra, Letter, MomentSequence, ProcessModel,
                    TimeGrid, letter_pair, monic_op_coefficients,
                    parse_model_config, process_operators, yhat, yhat_letter)
from .partitions import (Classification, ExtendedPartition, SetPartition,
                         bell_number, classify, crossing_pairs,
                         enumerate_partitions, index_tuples, inner_outer,
                         rc, rc_alternative, rc_at, rc_plain, restrict)
from .qscalar import (EXACT, QScalar, ScalarRing, inversions, q_fact,
                      q_fact_ratio, q_int, sym_group)
from .stochastic import (AdaptedProcess, BiProcess, ConvergenceTable,
                         ProcessFamily, StepFunction, biprocess_inner,
                         biprocess_integral, chaos_component_vector,
                         chaos_decompose, conditional_expectation,
                         delta_process, ito_integral, ito_isometry_rhs,
                         l2q_inner, multiple_integral, past_projection,
                         power_decomposition, psi_closed, psi_discrete,
                         st_pi_closed, st_pi_convergence,
                         st_pi_corollary_form, st_pi_discrete,
                         st_pi_free_form, st_pi_gaussian_form,
                         traciality_witness, two_sided_closed,
                         two_sided_defect_vector, two_sided_discrete,
                         x_process, y_process, yhat_process)
from .wick import (WickElement, expansion_ledger, expansion_operator,
                   product_expansion, right_operator, vacuum_expectation,
                   vacuum_moment, vacuum_vector, wick_operator, word_vector)

__version__ = "0.1.0"
