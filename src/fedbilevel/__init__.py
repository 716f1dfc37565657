"""Simulator and library for communication-efficient federated bilevel optimization.

The fused hypergradient estimator interleaves the federated lower-level loop
with the Hessian-inverse-vector chain so each outer iteration needs 2N+3
communication rounds in a single loop, against 2N+T+3 in two loops for the
AID-style baseline. Synthetic strongly convex quadratics provide closed-form
ground truth for every estimator and solver in the package.
"""

from .drivers import (MetricsRecord, RunConfig, RunReport, default_N,
                      default_stepsizes, one_round_upper, run,
                      run_fbo_aggitd, run_fednest_baseline)
from .errors import (ConfigError, ContractViolation, DivergenceError,
                     FedBilevelError, ParameterError, ProtocolError,
                     UnsupportedProblemError)
from .hypergrad import (AggITDConfig, AidConfig, EstimatorTrace, aggitd,
                        aid_fhe, dense_hessiv, expected_aggitd_indirect,
                        expected_aid_fhe, expected_aid_hessiv,
                        expected_local_fhe, local_fhe)
from .hyperrep import (HyperRepProblem, HyperRepSpec, hypergradient_numeric,
                       make_hyperrep, partition, solve_head_exact)
from .lower import LowerStepConfig, lower_gap, one_round_lower
from .oracle import (McMoments, TestRegion, estimator_bias_mc,
                     fd_hypergradient, measure_constants)
from .problems import BilevelProblem, Point, ProblemConstants
from .quadratic import (QuadraticInstance, QuadraticProblem, QuadraticSpec,
                        make_problem, make_quadratic)
from .reporting import export_csv, render_svg
from .rng import RngStream
from .runtime import (CommLedger, Participation, aggregate_mean,
                      select_participants)

__version__ = "0.1.0"
