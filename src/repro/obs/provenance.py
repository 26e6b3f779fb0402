"""Fault-provenance data model: per-injection payloads, campaign reports.

The taint tracker (``repro.cpu.tainttrace``) shadows one injected latch
bit as it propagates and emits, per injection, a plain-dict *provenance
payload*: a propagation DAG (nodes are latches / array words / memory
words, edges are value flows tagged with cycle and count), the
infection-footprint time series, the detection event and latency, and a
masking-attribution ledger.  This module owns the shared vocabulary for
those payloads (the masking taxonomy and node kinds) and the campaign
side: :class:`ProvenanceReport` folds payloads into per-unit-pair edge
matrices and latency/footprint statistics, one payload at a time and
commutatively, so a report absorbed from any sharding of a campaign —
any worker count, any arrival order — is identical.

Layering: this module is dependency-free (no ``repro.cpu`` / ``repro.sfi``
imports); the simulator and campaign layers import *it*.
"""

from __future__ import annotations

import enum
import math
from collections import Counter

__all__ = [
    "MaskingEvent",
    "ProvenanceReport",
    "TaintNodeKind",
]


class MaskingEvent(enum.Enum):
    """Why a tainted bit stopped mattering (the masking taxonomy).

    * ``OVERWRITTEN`` — functional logic wrote clean data over the taint
      before anything consumed it (the paper's dominant vanish cause).
    * ``PARITY_SCRUBBED`` — a checker fired and the recovery/refill path
      replaced the tainted state from a clean source.
    * ``ECC_CORRECTED`` — an ECC read or background scrub corrected the
      word in place (RUT checkpoint words).
    * ``ARCHITECTURALLY_DEAD`` — taint survived to the end of the drain
      but the outcome was benign: the infected state was never consumed.
    """

    OVERWRITTEN = "overwritten"
    PARITY_SCRUBBED = "parity-scrubbed"
    ECC_CORRECTED = "ecc-corrected"
    ARCHITECTURALLY_DEAD = "architecturally-dead"


class TaintNodeKind(enum.Enum):
    """What kind of storage a propagation-DAG node shadows."""

    LATCH = "latch"
    ARRAY = "array"
    MEMORY = "memory"


class ProvenanceReport:
    """Campaign-level aggregate of per-injection provenance payloads.

    Every field is a sum, count, min/max or counter, so :meth:`absorb`
    is commutative: the campaign supervisor absorbs each payload once,
    in whatever order the shards deliver them, and its report still
    matches a serial run's bit for bit.
    """

    def __init__(self) -> None:
        self.injections = 0
        self.outcomes: Counter[str] = Counter()
        #: (src_unit, dst_unit) -> summed edge traversal count.
        self.unit_edges: Counter[tuple[str, str]] = Counter()
        self.edges_dropped = 0
        self.detections = 0
        self.detection_latency_sum = 0
        self.detection_latency_min: int | None = None
        self.detection_latency_max: int | None = None
        self.detected_by: Counter[str] = Counter()
        self.masking: Counter[str] = Counter()
        self.peak_bits_sum = 0
        self.peak_bits_max = 0
        self.residual_bits_sum = 0
        self.cross_core_edges = 0

    # ------------------------------------------------------------------
    # Folding.

    def absorb(self, payload: dict) -> None:
        """Fold one per-injection payload into the aggregate."""
        self.injections += 1
        self.outcomes[payload.get("outcome", "?")] += 1
        nodes = payload.get("nodes", [])
        for src, dst, _cycle, count in payload.get("edges", []):
            pair = (nodes[src]["unit"], nodes[dst]["unit"])
            self.unit_edges[pair] += count
        self.edges_dropped += payload.get("edges_dropped", 0)
        detection = payload.get("detection")
        if detection is not None:
            latency = detection["latency"]
            self.detections += 1
            self.detection_latency_sum += latency
            self.detection_latency_min = (
                latency if self.detection_latency_min is None
                else min(self.detection_latency_min, latency))
            self.detection_latency_max = (
                latency if self.detection_latency_max is None
                else max(self.detection_latency_max, latency))
            self.detected_by[detection["detector"]] += 1
        for cause, count in payload.get("masking_counts", {}).items():
            self.masking[cause] += count
        peak = payload.get("peak_bits", 0)
        self.peak_bits_sum += peak
        self.peak_bits_max = max(self.peak_bits_max, peak)
        self.residual_bits_sum += payload.get("residual_tainted", 0)
        self.cross_core_edges += payload.get("cross_core_edges", 0)

    # ------------------------------------------------------------------
    # Derived views.

    @property
    def mean_detection_latency(self) -> float:
        return (self.detection_latency_sum / self.detections
                if self.detections else math.nan)

    @property
    def mean_peak_bits(self) -> float:
        return (self.peak_bits_sum / self.injections
                if self.injections else math.nan)

    def units(self) -> list[str]:
        """Every unit appearing in the edge matrix, sorted."""
        seen = {unit for pair in self.unit_edges for unit in pair}
        return sorted(seen)

    # ------------------------------------------------------------------
    # Serialisation (``repro-sfi propagation --json`` and equality).

    def to_dict(self) -> dict:
        return {
            "injections": self.injections,
            "outcomes": dict(sorted(self.outcomes.items())),
            "unit_edges": [[src, dst, count] for (src, dst), count
                           in sorted(self.unit_edges.items())],
            "edges_dropped": self.edges_dropped,
            "detections": self.detections,
            "detection_latency_sum": self.detection_latency_sum,
            "detection_latency_min": self.detection_latency_min,
            "detection_latency_max": self.detection_latency_max,
            "detected_by": dict(sorted(self.detected_by.items())),
            "masking": dict(sorted(self.masking.items())),
            "peak_bits_sum": self.peak_bits_sum,
            "peak_bits_max": self.peak_bits_max,
            "residual_bits_sum": self.residual_bits_sum,
            "cross_core_edges": self.cross_core_edges,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvenanceReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()
