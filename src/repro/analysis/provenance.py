"""Fault-provenance rendering: propagation stories and campaign reports.

The taint tracker (``repro.cpu.tainttrace``) emits one provenance payload
per injection — a propagation DAG plus detection and masking ledgers
(see ``repro.obs.provenance``).  This module turns them into the
designer-facing artefacts: a per-injection *propagation story* (the
chain of storage the flip infected, ending where it was caught, masked,
or architecturally visible), the campaign-level per-unit propagation
matrix, and a JSONL sidecar format for offline analysis.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from repro.obs.provenance import ProvenanceReport
from repro.sfi.storage import (
    CampaignStorageError,
    JournalCursor,
    scan_journal,
)

_PROVENANCE_FORMAT = 1
_PROVENANCE_KIND = "sfi-provenance"


class ProvenanceFormatError(ValueError):
    """A provenance sidecar file is malformed or from an unknown format."""


# ----------------------------------------------------------------------
# Per-injection story.

def propagation_chain(payload: dict) -> list[tuple[int, int, int]]:
    """Shortest propagation chain from the injected node, as
    ``(src, dst, cycle)`` node-index hops.

    Prefers the shortest chain reaching architected state (an ``arch``
    node other than the root); with no architected sink it returns the
    deepest chain the taint reached; with no edges at all, ``[]``.
    """
    nodes = payload.get("nodes", [])
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for src, dst, cycle, _count in payload.get("edges", []):
        adjacency.setdefault(src, []).append((dst, cycle))
    hop_to: dict[int, tuple[int, int, int]] = {}  # dst -> (src, dst, cycle)
    queue = deque([0])
    seen = {0}
    target = None
    last = 0
    while queue and target is None:
        node = queue.popleft()
        for dst, cycle in adjacency.get(node, ()):
            if dst in seen:
                continue
            seen.add(dst)
            hop_to[dst] = (node, dst, cycle)
            last = dst  # BFS order: the latest discovery is a deepest node
            if dst != 0 and nodes[dst].get("arch"):
                target = dst
                break
            queue.append(dst)
    end = target if target is not None else last
    chain: list[tuple[int, int, int]] = []
    while end in hop_to:
        hop = hop_to[end]
        chain.append(hop)
        end = hop[0]
    chain.reverse()
    return chain


def render_propagation_story(payload: dict) -> str:
    """Human-readable provenance narrative for one injection."""
    nodes = payload.get("nodes", [])

    def describe(index: int) -> str:
        node = nodes[index]
        marker = ", architected" if node.get("arch") else ""
        return f"{node['name']} ({node['unit']}{marker})"

    site = payload.get("site") or (nodes[0]["name"] if nodes else "?")
    unit = payload.get("unit") or (nodes[0]["unit"] if nodes else "?")
    lines = [f"Injection into {site} ({unit}) "
             f"at cycle {payload.get('inject_cycle', '?')}"
             + (f" [testcase seed {payload['testcase_seed']}]"
                if "testcase_seed" in payload else "")]
    chain = propagation_chain(payload)
    edge_total = sum(count for *_ignored, count in payload.get("edges", []))
    if chain:
        lines.append(f"  propagation ({len(payload.get('edges', []))} distinct "
                     f"edges, {edge_total} traversals"
                     + (f", {payload['edges_dropped']} dropped"
                        if payload.get("edges_dropped") else "") + "):")
        for src, dst, cycle in chain:
            lines.append(f"    cycle {cycle}: {describe(src)} "
                         f"-> {describe(dst)}")
        last = nodes[chain[-1][1]]
        if last.get("arch"):
            lines.append("    => reached architected state")
    else:
        lines.append("  no propagation: the taint never left the "
                     "injected node")
    detection = payload.get("detection")
    if detection is not None:
        lines.append(f"  detected by {detection['detector']} at cycle "
                     f"{detection['cycle']} "
                     f"(latency {detection['latency']} cycles)")
    else:
        lines.append("  never detected by a checker")
    footprint = payload.get("footprint", [])
    peak = payload.get("peak_bits", 0)
    residual = payload.get("residual_tainted", 0)
    lines.append(f"  infection footprint: peak {peak} bits"
                 f"{' (truncated series)' if payload.get('footprint_truncated') else ''}"
                 f" over {len(footprint)} change points, "
                 f"{residual} bits still tainted at quiesce")
    masking = payload.get("masking_counts", {})
    if masking:
        lines.append("  masking attribution:")
        for cause, count in sorted(masking.items()):
            lines.append(f"    {cause:<22} {count} bits")
    if "outcome" in payload:
        lines.append(f"  => outcome: {payload['outcome']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Campaign-level report.

def render_provenance_report(report: ProvenanceReport) -> str:
    """Campaign-level provenance summary with the per-unit edge matrix."""
    lines = [f"Fault-provenance report ({report.injections} injections)"]
    if report.outcomes:
        outcomes = ", ".join(f"{name}: {count}" for name, count
                             in sorted(report.outcomes.items()))
        lines.append(f"  outcomes: {outcomes}")
    if report.detections:
        lines.append(
            f"  detections: {report.detections} "
            f"(latency mean {report.mean_detection_latency:.0f}, "
            f"min {report.detection_latency_min}, "
            f"max {report.detection_latency_max} cycles)")
        for detector, count in report.detected_by.most_common():
            lines.append(f"    {detector:<24} {count}")
    else:
        lines.append("  detections: none")
    lines.append(f"  infection: mean peak {report.mean_peak_bits:.1f} bits, "
                 f"max {report.peak_bits_max}; "
                 f"{report.residual_bits_sum} residual bits total")
    if report.masking:
        lines.append("  masking attribution (bits):")
        for cause, count in sorted(report.masking.items()):
            lines.append(f"    {cause:<22} {count}")
    if report.cross_core_edges:
        lines.append(f"  cross-core edge traversals: "
                     f"{report.cross_core_edges}")
    units = report.units()
    if units:
        width = max(6, max(len(unit) for unit in units) + 1)
        lines.append(f"  propagation matrix (edge traversals, row=src, "
                     f"col=dst"
                     + (f"; {report.edges_dropped} edges dropped"
                        if report.edges_dropped else "") + "):")
        header = " " * (width + 4) + "".join(f"{unit:>{width}}"
                                             for unit in units)
        lines.append(header)
        for src in units:
            cells = "".join(
                f"{report.unit_edges.get((src, dst), 0) or '.':>{width}}"
                for dst in units)
            lines.append(f"    {src:<{width}}{cells}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# JSONL sidecars.

def write_provenance_jsonl(payloads: dict[int, dict],
                           path: str | Path) -> None:
    """Write per-injection payloads as a JSONL sidecar (header line +
    one ``{"pos", "payload"}`` line per injection, in position order)."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write(json.dumps({"format": _PROVENANCE_FORMAT,
                                 "kind": _PROVENANCE_KIND,
                                 "payloads": len(payloads)}) + "\n")
        for position in sorted(payloads):
            handle.write(json.dumps({"pos": position,
                                     "payload": payloads[position]}) + "\n")


def read_provenance_jsonl(path: str | Path) -> dict[int, dict]:
    """Read a sidecar written by :func:`write_provenance_jsonl`.

    The torn tail is skipped; any other damage raises
    :class:`ProvenanceFormatError`.  The first line of a position wins.
    """
    cursor = JournalCursor()
    try:
        delta = scan_journal(path, cursor, kind=_PROVENANCE_KIND)
    except CampaignStorageError as exc:
        raise ProvenanceFormatError(str(exc)) from exc
    if cursor.header is None:
        raise ProvenanceFormatError(f"{path}: empty provenance file")
    if delta.skipped:
        raise ProvenanceFormatError(
            f"{path}:{delta.skipped[0]}: malformed sidecar line")
    payloads: dict[int, dict] = {}
    for number, entry in delta.entries:
        if not isinstance(entry, dict) or "payload" not in entry \
                or not isinstance(entry.get("pos"), int):
            raise ProvenanceFormatError(
                f"{path}:{number}: sidecar line without int pos/payload")
        payloads.setdefault(entry["pos"], entry["payload"])
    return payloads
