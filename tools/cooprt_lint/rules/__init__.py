"""Rule registry. Import order is the report order."""

from rules.nondeterministic_iteration import NondeterministicIteration
from rules.unseeded_randomness import UnseededRandomness
from rules.float_accumulation_order import FloatAccumulationOrder
from rules.audit_coverage import AuditCoverage
from rules.check_purity import CheckPurity
from rules.registry_authority import RegistryAuthority
from rules.stats_registered import StatsRegistered

ALL_RULES = [
    NondeterministicIteration(),
    UnseededRandomness(),
    FloatAccumulationOrder(),
    AuditCoverage(),
    CheckPurity(),
    RegistryAuthority(),
    StatsRegistered(),
]

RULE_IDS = [r.id for r in ALL_RULES]
