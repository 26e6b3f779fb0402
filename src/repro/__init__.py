"""Statistical Fault Injection (SFI) — reproduction of the DSN 2008 paper.

A full-system reproduction: a latch-accurate POWER6-class core model with
hardware checkers and checkpoint-retry recovery, an Awan-style emulation
substrate, a pseudo-random self-checking AVP workload, the SFI campaign
framework itself, a proton-beam calibration simulator, and the statistics
and analysis layers that regenerate every table and figure in the paper.

Quickstart::

    from repro import SfiExperiment, CampaignConfig

    experiment = SfiExperiment(CampaignConfig(suite_size=4))
    result = experiment.run_random_campaign(1000, seed=1)
    print(result.summary())
"""

from repro.avp import AvpGenerator, AvpTestcase, MixWeights, make_suite
from repro.beam import BeamExperiment, FluxModel
from repro.cpu import Checker, CoreParams, Power6Core, UNIT_NAMES
from repro.emulator import AwanEmulator, CommHost, LatchMap, SoftwareSimulator
from repro.rtl import FaultSite, InjectionMode, Latch, LatchKind
from repro.sfi import (
    CampaignConfig,
    CampaignResult,
    CampaignSupervisor,
    ClassifyOptions,
    Outcome,
    SfiExperiment,
    per_kind_campaigns,
    per_ring_campaigns,
    per_unit_campaigns,
    sample_size_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "AvpGenerator",
    "AvpTestcase",
    "AwanEmulator",
    "BeamExperiment",
    "CampaignConfig",
    "CampaignResult",
    "CampaignSupervisor",
    "Checker",
    "ClassifyOptions",
    "CommHost",
    "CoreParams",
    "FaultSite",
    "FluxModel",
    "InjectionMode",
    "Latch",
    "LatchKind",
    "LatchMap",
    "MixWeights",
    "Outcome",
    "Power6Core",
    "SfiExperiment",
    "SoftwareSimulator",
    "UNIT_NAMES",
    "__version__",
    "make_suite",
    "per_kind_campaigns",
    "per_ring_campaigns",
    "per_unit_campaigns",
    "sample_size_experiment",
]
