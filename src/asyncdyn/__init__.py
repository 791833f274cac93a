"""Asynchronous interaction dynamics: simulation under fair and r-fair
schedules, exact convergence analysis with replayable oscillation witnesses,
game-dynamics conversions, uncoupled self-stabilization protocols, and builders
for the circuit / social-network / BGP / Turing-machine / snake gadgets."""

from .analyze import (
    Convergent,
    NonConvergent,
    TransitionGraph,
    committed_map,
    decide_convergence,
    decide_convergence_many,
    decide_r_convergence,
    spectrum,
    stable_states,
    transition_graph,
)
from .core import (
    ActionSpace,
    ExplicitList,
    HistorylessSystem,
    KRecallSystem,
    LiftedSystem,
    Periodic,
    RoundRobin,
    Schedule,
    SeededRFair,
    SeededRandom,
    Synchronous,
    check_r_fair,
    check_self_independent,
    is_stable,
    lift_k_recall,
    schedule_prefix,
    step,
    step_history,
)
from .games import Game, best_response_table, best_responses, br_system, enumerate_pne, induced_game
from .simulate import (
    BudgetExhausted,
    Converged,
    Cycling,
    Trajectory,
    Witness,
    replay_witness,
    run,
    trace_lines,
)
from .uncoupled import (
    Fails,
    NoPNE,
    SelfStabilizing,
    check_self_stabilization,
    check_self_stabilization_many,
    check_self_stabilization_randomized,
    fixture_game_2x2x2,
)
from .reductions import (
    BgpInstance,
    CircuitDescription,
    GateSpec,
    Snake,
    SocialGraph,
    TMDescription,
    build_bgp,
    build_circuit,
    build_disjointness,
    build_majority,
    build_snake_system,
    build_tm,
    fixture,
    longest_snake,
    tm_family_rows,
)

__version__ = "0.1.0"
