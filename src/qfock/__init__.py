"""q-deformed full Fock spaces at finite truncation.

Exact verification (in Q[q]) of Wick products, partition expansions,
stochastic measures, multiple-integral isometries, Kailath-Segall formulas,
grid Itô calculus, and the compound-Poisson construction over a weighted
point set.
"""

from .errors import (CutoffExceededError, DegeneracyError, DepthExceededError,
                     QFockError, ResourceBudgetError, UsageError)
from .fock import (FockOperator, FockVector, Gauge, OneParticleSpace,
                   SparseVector, adjoint, apply, apply_Pn, field_operator,
                   inner0, innerq, operator_norm_estimate, sparse_vector)
from .kspoly import NCPolynomial, ks_poly, ks_row_formula, q_charlier, q_hermite
from .model import (WeightedPointAlgebra, Letter, MomentSequence, ProcessModel,
                    TimeGrid, letter_pair)
from .partitions import SetPartition, enumerate_partitions, index_tuples, rc
from .qscalar import (EXACT, ONE, ZERO, QScalar, ScalarRing, const, q_fact,
                      q_fact_ratio, q_int, q_pow)
from .stochastic import (AdaptedProcess, BiProcess, ConvergenceTable,
                         ProcessFamily, biprocess_inner, biprocess_integral,
                         chaos_decompose, conditional_expectation,
                         delta_process, l2q_inner, multiple_integral,
                         power_decomposition, psi_closed, st_pi_closed,
                         st_pi_convergence, st_pi_corollary_form,
                         st_pi_discrete, step_rectangle, traciality_witness,
                         two_sided_closed, two_sided_defect_vector,
                         two_sided_discrete, x_process, yhat_process)
from .wick import (WickElement, product_expansion, suffix_moments,
                   vacuum_expectation, vacuum_moment, vacuum_vector,
                   wick_operator)

__version__ = "0.1.0"
