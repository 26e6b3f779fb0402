"""Statistical Fault Injection — the paper's primary contribution.

Campaign orchestration over the emulated full-system model, latch-bit
sampling strategies, outcome classification, repeated-sample statistics
and hardening what-ifs.
"""

from repro.sfi.campaign import (
    CampaignConfig,
    InjectionPlan,
    SfiExperiment,
    plan_injections,
)
from repro.sfi.chip_campaign import (
    ChipCampaignResult,
    ChipExperiment,
    ChipInjectionRecord,
)
from repro.sfi.storage import (
    RECORD_ROW_FIELDS,
    CampaignJournal,
    CampaignStorageError,
    FencedAppendError,
    JournalCursor,
    JournalDelta,
    JournalVerifyReport,
    record_from_dict,
    record_to_row,
    scan_journal,
    verify_journal,
)
from repro.sfi.supervisor import (
    CampaignExecutionError,
    CampaignProgress,
    CampaignSupervisor,
)
from repro.sfi.classify import ClassifyOptions, classify
from repro.sfi.experiments import SampleSizePoint, sample_size_experiment
from repro.sfi.hardening import HardeningReport, harden, harden_rings
from repro.sfi.outcomes import OUTCOME_ORDER, Outcome
from repro.sfi.results import CampaignResult, InjectionRecord
from repro.sfi.sampling import (
    EmptyPopulationError,
    kind_sample,
    prior_weighted_sample,
    random_sample,
    ring_fraction_sample,
    static_prior_allocation,
    stratified_sample,
    unit_sample,
)
from repro.sfi.targeted import (
    macro_campaign,
    per_kind_campaigns,
    per_ring_campaigns,
    per_unit_campaigns,
)

__all__ = [
    "CampaignConfig",
    "CampaignExecutionError",
    "CampaignJournal",
    "CampaignProgress",
    "CampaignStorageError",
    "CampaignSupervisor",
    "ChipCampaignResult",
    "ChipExperiment",
    "ChipInjectionRecord",
    "EmptyPopulationError",
    "FencedAppendError",
    "InjectionPlan",
    "JournalCursor",
    "JournalDelta",
    "JournalVerifyReport",
    "RECORD_ROW_FIELDS",
    "record_from_dict",
    "record_to_row",
    "scan_journal",
    "verify_journal",
    "plan_injections",
    "macro_campaign",
    "CampaignResult",
    "ClassifyOptions",
    "HardeningReport",
    "InjectionRecord",
    "OUTCOME_ORDER",
    "Outcome",
    "SampleSizePoint",
    "SfiExperiment",
    "classify",
    "harden",
    "harden_rings",
    "kind_sample",
    "per_kind_campaigns",
    "per_ring_campaigns",
    "per_unit_campaigns",
    "prior_weighted_sample",
    "random_sample",
    "ring_fraction_sample",
    "sample_size_experiment",
    "static_prior_allocation",
    "stratified_sample",
    "unit_sample",
]
