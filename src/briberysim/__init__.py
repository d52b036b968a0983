"""briberysim: simulator and verifier for out-of-band bribery collusion attacks.

Exact-rational game analysis (strict Nash checks, weak dominance, deviation
cascades, deposit bounds), an executable bribery-contract state machine,
and seeded double-spend chain simulations, driven by JSON scenarios.
"""

__version__ = "0.1.0"

from .games import (  # noqa: E402
    AssumptionViolation,
    GameParams,
    NodeId,
    PowerDistribution,
    Strategy,
    StrategyProfile,
    Variant,
    all_commit,
    all_honest,
    params_from_json_dict,
    params_to_json_dict,
    payoff_vector,
    utility,
    validate_params,
)
from .equilibrium import (  # noqa: E402
    CascadeTrace,
    DominanceReport,
    NashReport,
    VerificationReport,
    check_weak_dominance_game1,
    deposit_bound,
    find_deviation_cascade,
    is_strict_nash,
    random_game_params,
    verify_deposit_bound,
    verify_deposit_theorem,
    verify_theorem,
)
from .contract import (  # noqa: E402
    ContractConfig,
    ContractError,
    ContractState,
    OracleReport,
    Phase,
    Protocol,
    SettlementOutcome,
    advance_clock,
    contract_commit,
    contract_distribute,
    contract_init,
    replay_events,
    settlement_summary,
)
from .chainsim import (  # noqa: E402
    AttackResult,
    Consensus,
    SimConfig,
    catch_up_probability,
    run_attack,
    run_attack_detailed,
)
from .scenario import (  # noqa: E402
    RunReport,
    Scenario,
    ScenarioError,
    load_scenario,
    run_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
