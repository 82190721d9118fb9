"""Explicit prime-counting bounds in arithmetic progressions.

Layers: quadrature and special functions -> zero tables and exact zero
sums -> certified zero-sum estimators -> the constants pipeline -> exact
sieve arithmetic -> verification suites -> CLI.
"""

from .arith import (APCounts, DirichletCharacter, ap_counts, character_table,
                    psi1_plain, short_interval_psi_delta)
from .constants import (APConstants, KappaParams, LOG_X0_GRID,
                        REFERENCE_KAPPA, ShortIntervalConstants, SozConstants,
                        TwistedPsiConstants, ap_constants, ap_constants_small,
                        chain, evaluate_bounds, g2, gm_baseline_pi_bound,
                        kappa_for, optimize_kappa, short_interval_constants,
                        soz_constants, soz_constants_small,
                        twisted_psi_constants, twisted_psi_constants_small)
from .errors import (ConvergenceError, CoverageError, DomainError, ParseError,
                     PntapError, ValidationError)
from .quadrature import QuadResult, exp_integral_ei, integrate, log_integral_li
from .verify import (BoundReport, compare_gm_baseline, verify_ap_bounds,
                     verify_bpt, verify_lehman, verify_psi1_explicit,
                     verify_short_interval, verify_zero_count)
from .zeros import (CharacterLabel, ZeroTable, dump_zero_table,
                    exact_weighted_sum, load_zero_table, omega_low_sum)
from .zerosum import (SumEstimate, WeightSpec, bpt_sum, count_remainder_R,
                      dirichlet_count_bound, lehman_sum_upper,
                      tail_inverse_square, weight_inverse,
                      weight_inverse_square, weight_quarter_sqrt)

__version__ = "0.1.0"
