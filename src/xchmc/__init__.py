"""Extra-chance generalized hybrid Monte Carlo.

A delayed-rejection flavor of (generalized) hybrid Monte Carlo: when the first
proposed integration leg is rejected, the transition offers up to K further
legs to the same acceptance draw before conceding a momentum flip.  The
package bundles the sampler, analytic test targets, exact-identity verifiers,
ESS diagnostics, and a benchmark harness with a CLI.
"""

from xchmc.diagnostics import (AverageEstimate, Observable, SlotStats, ZeroVarianceError,
                               check_main_identity, coordinate, ess_initial_monotone,
                               estimate_average, interval_indicator, make_observable,
                               series_average, slot_stats, squared_radius)
from xchmc.harness import (ExperimentSpec, SpecError, SummaryReport, load_spec, parse_spec,
                           run_experiment, write_chain_csv)
from xchmc.integrator import (DivergedLeg, LegSpec, check_reversibility,
                              check_volume_preservation, verlet_leg)
from xchmc.phase import MassMatrix, PhaseState, TargetModel, builtin_target, flip, log_rho
from xchmc.rng import ScriptedRng, chain_rng
from xchmc.sampler import (Budget, ChainRecord, SamplerConfig, SlotDistribution,
                           TransitionOutcome, extra_chance_step, lahmc_from_log_ratios,
                           lahmc_probabilities, refresh_momentum, run_chain, sigma_sequence,
                           slot_distribution)
from xchmc.verification import (CheckOutcome, VerificationReport, couple_noise,
                                palindromic_refresh_angle, verify)

__version__ = "0.1.0"

__all__ = [
    "AverageEstimate", "Budget", "ChainRecord", "CheckOutcome", "DivergedLeg",
    "ExperimentSpec", "LegSpec", "MassMatrix", "Observable", "PhaseState",
    "SamplerConfig", "ScriptedRng", "SlotDistribution", "SlotStats", "SpecError",
    "SummaryReport", "TargetModel", "TransitionOutcome", "VerificationReport",
    "ZeroVarianceError", "builtin_target", "chain_rng", "check_main_identity",
    "check_reversibility", "check_volume_preservation", "coordinate", "couple_noise",
    "ess_initial_monotone", "estimate_average", "extra_chance_step", "flip",
    "interval_indicator", "lahmc_from_log_ratios", "lahmc_probabilities", "load_spec",
    "log_rho", "make_observable", "palindromic_refresh_angle", "parse_spec",
    "refresh_momentum", "run_chain", "run_experiment",
    "series_average", "sigma_sequence", "slot_distribution", "slot_stats", "squared_radius",
    "verify", "verlet_leg", "write_chain_csv",
]
