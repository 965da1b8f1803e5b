"""Market equilibria for multi-operator MaaS platforms.

Pipeline: solve the capacitated matching between traveler groups and
operator-owned links, with its capacity duals and a canonical path-flow
decomposition, generate the feasibility and stability constraint system over
surpluses and prices, and solve buyer-optimal, seller-optimal, or custom
policy vertices of the stable outcome space.
"""

from .closedform import (CoopCompeteInstance, SmallVsLargeInstance,
                         lemma1_lower_bound, lemma2_upper_bound)
from .errors import (InfeasibleMatchingError, MaasMarketError,
                     ResourceLimitExceeded, ScenarioError, ValidationError)
from .fixtures import build_sioux_falls, fig5
from .matching import (MatchingSolution, Path, PathFlowSolution,
                       decompose_flows, extract_duals, solve_matching)
from .network import (DemandEntry, DemandTable, Link, Network, dump_demand,
                      dump_network, load_demand, load_network)
from .outcomes import (ObjectivePolicy, OutcomeOptions, StableOutcome,
                       build_outcome_lp, report, solve_outcome)
from .scenario import PolicyAnnotations, Scenario, apply_scenario, load_scenario
from .solve import (LinearProgram, MixedIntegerProgram, SolveResult, solve_lp,
                    solve_milp)
from .stability import (ConstraintSystem, OptimalPathSet, StabilityRow,
                        generate_constraints_algorithm1,
                        generate_constraints_enumeration, omega,
                        optimal_path_sets, subcoalitions)

__version__ = "0.1.0"
