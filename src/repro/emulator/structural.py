"""Structural latch-graph extraction from the compiled model.

The SFI campaigns *measure* derating; this module lets the repo *prove*
part of it.  A :class:`_StructuralTracker` (a
:class:`repro.cpu.tainttrace.TaintTracker` subclass, so a recorder on the
latch access layer :mod:`repro.cpu.access`) treats **every**
storage node as a permanent taint source simultaneously and replays the
fault-free golden run of each AVP testcase once.  Because taint tracking
is purely observational — callbacks never change machine state — a
single traced run captures the union of all read→write dataflow pairs
the model exercises: the cycle-accurate latch→latch dependency graph,
at the cost of one golden run per testcase instead of one probe run per
latch (a ~1000x reduction for the full core).

Two artefacts come out of a traced run:

* **edges** — every (source, destination) storage pair where a value
  read of the source sat in the consume-on-write pending window of a
  write to the destination.  The union over the suite is the structural
  graph; per-latch cones of influence are its BFS closures.
* **read sets** — per testcase, the latches whose *value* (and,
  separately, whose *parity shadow*) the machine consulted at any point
  of the fault-free run.  A latch never read during testcase T's golden
  run provably cannot influence T's outcome: by induction over cycles,
  the faulty and fault-free runs stay bit-identical everywhere except
  the flipped latch until some cycle reads it — and no cycle does.
  This is the sound core of the static masking bound
  (:mod:`repro.analysis.static_bounds`).

Extraction runs the golden program to quiescence polling every cycle
(a strict superset of the campaign supervisor's poll-interval reads)
and then keeps tracing for ``settle_cycles`` extra cycles so post-halt
readers (watchdog, scrub, hang detection) land in the read sets too.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.avp.generator import AvpGenerator
from repro.avp.suite import make_suite
from repro.cpu.access import trace
from repro.cpu.core import Power6Core
from repro.cpu.tainttrace import _MEMORY_WIDTH, TaintTracker
from repro.obs.provenance import TaintNodeKind

__all__ = [
    "LatchGraph",
    "MEMORY_NODE",
    "SIDECAR_FORMAT",
    "SIDECAR_VERSION",
    "extract_graph",
    "latch_name_of_site",
    "load_graph",
    "probe_cone",
]

#: Sidecar envelope identity: bump ``SIDECAR_VERSION`` whenever the
#: payload layout changes so the warehouse can refuse mixed eras.
SIDECAR_FORMAT = "repro-structural-graph"
SIDECAR_VERSION = 1

#: Canonical node name for the sparse backing memory (all words).
MEMORY_NODE = "MEM"

#: Post-quiescence cycles traced so the read sets cover the drain
#: window the campaign supervisor runs after an injection quiesces
#: (watchdog ticks, scrub sweeps, hang detection all keep reading).
DEFAULT_SETTLE_CYCLES = 2000

_PAR_SUFFIX = "p"


def latch_name_of_site(site_name: str) -> tuple[str, bool]:
    """Split a flat site name into (latch name, is_parity_bit).

    Site names are ``<latch>.<bit>`` with ``p`` as the parity suffix
    (:class:`repro.rtl.fault.FaultSite`), e.g. ``fxu.gpr[3].17`` →
    (``fxu.gpr[3]``, False) and ``lsu.stq_data[0].p`` → (…, True).
    """
    latch_name, _, suffix = site_name.rpartition(".")
    if not latch_name:
        raise ValueError(f"malformed site name {site_name!r}")
    return latch_name, suffix == _PAR_SUFFIX


class _StructuralTracker(TaintTracker):
    """All-sources observational tracer for one golden run.

    Every storage node is treated as already tainted: each value read
    joins the pending window *and* is recorded in the per-run read set,
    and every write with a non-empty window records edges.  Nothing is
    ever cleansed — the graph wants the union of dataflow, not the fate
    of one injection.  So every latch read is watched.
    """

    def __init__(self, core) -> None:
        # The seed latch is irrelevant (everything is a source) but the
        # base class wants one; edge capacity is effectively unbounded
        # because the structural graph must not silently truncate.
        super().__init__([core], core.pervasive.hang,
                         max_edges=2_000_000, max_footprint=1,
                         max_masking=0)
        self.read_keys: set = set()
        self.par_read_keys: set = set()

    # -- every read is a (recorded) tainted read -----------------------

    def watched_reads(self) -> None:
        return None

    def read_value(self, latch) -> None:
        key = id(latch)  # repro-lint: allow[REPRO-D03]
        self.read_keys.add(key)
        self._pending.add(key)

    def read_par(self, latch) -> None:
        key = id(latch)  # repro-lint: allow[REPRO-D03]
        self.par_read_keys.add(key)
        self.read_value(latch)

    def read_array(self, array, index: int, result) -> None:
        key = ("a", id(array), index)
        self.read_keys.add(key)
        self._pending.add(key)

    def read_word(self, memory, addr: int) -> None:
        key = ("m", id(memory), addr >> 2)  # repro-lint: allow[REPRO-D03]
        self.read_keys.add(key)
        self._pending.add(key)

    # -- every write with a window propagates; nothing cleanses --------

    def write_value(self, latch, new: int) -> None:
        if self._pending:
            self._infect(id(latch),  # repro-lint: allow[REPRO-D03]
                         latch.width)

    def _on_word_write(self, key) -> None:
        if self._pending:
            self._infect(key, _MEMORY_WIDTH)

    def _clear_taint(self, key, cause: str, latch=None) -> None:
        # Structural mode: sources are permanent, masking is not the
        # question being asked.
        pass

    # -- canonical-name resolution -------------------------------------

    def canonical_name(self, node: dict) -> str:
        """Stable storage-level name for one tracker node.

        Array words collapse onto their array (``lsu.dcache.data[12]``
        → ``lsu.dcache.data``) and memory words onto :data:`MEMORY_NODE`
        so the graph stays data-independent across testcases.
        """
        if node["kind"] == TaintNodeKind.LATCH.value:
            return node["name"]
        if node["kind"] == TaintNodeKind.ARRAY.value:
            return node["name"].rsplit("[", 1)[0]
        return MEMORY_NODE

    def canonical_key_name(self, key) -> str:
        if isinstance(key, int):
            return self._latch_name[key]
        tag, oid, _index = key
        if tag == "a":
            return self._array_name[oid]
        return MEMORY_NODE

    def harvest(self) -> tuple[dict, set[str], set[str]]:
        """(edges by canonical name pair, value-read names, par-read names)."""
        edges: dict[tuple[str, str], list[int]] = {}
        for (src, dst), (cycle, count) in self.edges.items():
            src_name = self.canonical_name(self.nodes[src])
            dst_name = self.canonical_name(self.nodes[dst])
            if src_name == dst_name:
                continue
            record = edges.get((src_name, dst_name))
            if record is None:
                edges[(src_name, dst_name)] = [cycle, count]
            else:
                record[0] = min(record[0], cycle)
                record[1] += count
        reads = {self.canonical_key_name(key) for key in self.read_keys}
        par_reads = {self.canonical_key_name(key)
                     for key in self.par_read_keys}
        return edges, reads, par_reads


@dataclass
class LatchGraph:
    """The extracted structural graph plus per-testcase read evidence.

    ``nodes`` maps every storage node's canonical name to its
    description; ``edges`` maps (src, dst) name pairs to
    ``[first_cycle, count]``; ``reads``/``par_reads`` map each traced
    testcase seed to the set of node names whose value / parity shadow
    was consulted during that testcase's fault-free run.
    """

    nodes: dict[str, dict]
    edges: dict[tuple[str, str], list[int]]
    reads: dict[int, set[str]] = field(default_factory=dict)
    par_reads: dict[int, set[str]] = field(default_factory=dict)
    model_digest: str = ""
    suite_seed: int = 0
    suite_size: int = 0
    settle_cycles: int = DEFAULT_SETTLE_CYCLES

    # -- graph queries -------------------------------------------------

    def out_adjacency(self) -> dict[str, list[str]]:
        adjacency: dict[str, list[str]] = {}
        for src, dst in self.edges:
            adjacency.setdefault(src, []).append(dst)
        for targets in adjacency.values():
            targets.sort()
        return adjacency

    def cone(self, name: str,
             adjacency: dict[str, list[str]] | None = None) -> set[str]:
        """Cone of influence: every node reachable from ``name``."""
        if adjacency is None:
            adjacency = self.out_adjacency()
        seen: set[str] = set()
        frontier = list(adjacency.get(name, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(adjacency.get(node, ()))
        return seen

    def sink_names(self) -> set[str]:
        """Architected state, the detection network, arrays and memory."""
        return {name for name, node in self.nodes.items()
                if node["arch"] or node["detect"]
                or node["kind"] in (TaintNodeKind.ARRAY.value,
                                    TaintNodeKind.MEMORY.value)}

    def latch_names(self) -> list[str]:
        return [name for name, node in self.nodes.items()
                if node["kind"] == TaintNodeKind.LATCH.value]

    def read_union(self) -> set[str]:
        union: set[str] = set()
        for names in self.reads.values():
            union |= names
        return union

    def par_read_union(self) -> set[str]:
        union: set[str] = set()
        for names in self.par_reads.values():
            union |= names
        return union

    # -- sidecar serialisation -----------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": SIDECAR_FORMAT,
            "version": SIDECAR_VERSION,
            "model_digest": self.model_digest,
            "suite_seed": self.suite_seed,
            "suite_size": self.suite_size,
            "settle_cycles": self.settle_cycles,
            "nodes": {name: self.nodes[name]
                      for name in sorted(self.nodes)},
            "edges": sorted([src, dst, cycle, count]
                            for (src, dst), (cycle, count)
                            in self.edges.items()),
            "reads": {str(seed): sorted(names)
                      for seed, names in sorted(self.reads.items())},
            "par_reads": {str(seed): sorted(names)
                          for seed, names in sorted(self.par_reads.items())},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LatchGraph":
        if payload.get("format") != SIDECAR_FORMAT:
            raise ValueError(
                f"not a structural sidecar: format={payload.get('format')!r}")
        if payload.get("version") != SIDECAR_VERSION:
            raise ValueError(
                f"structural sidecar version {payload.get('version')!r} "
                f"unsupported (this build reads {SIDECAR_VERSION})")
        return cls(
            nodes=dict(payload["nodes"]),
            edges={(src, dst): [cycle, count]
                   for src, dst, cycle, count in payload["edges"]},
            reads={int(seed): set(names)
                   for seed, names in payload["reads"].items()},
            par_reads={int(seed): set(names)
                       for seed, names in payload["par_reads"].items()},
            model_digest=payload["model_digest"],
            suite_seed=payload["suite_seed"],
            suite_size=payload["suite_size"],
            settle_cycles=payload["settle_cycles"],
        )

    def save(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_payload(), indent=1,
                                   sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


def load_graph(path: str | os.PathLike) -> LatchGraph:
    """Load a sidecar written by :meth:`LatchGraph.save`."""
    return LatchGraph.from_payload(
        json.loads(Path(path).read_text(encoding="utf-8")))


def model_digest(core) -> str:
    """Stable fingerprint of the compiled model's storage inventory.

    Campaign journals and sidecars both carry (or can recompute) this,
    so the reconciliation gate can refuse to compare artefacts from
    different model builds.
    """
    hasher = hashlib.sha256()
    for latch in core.all_latches():
        hasher.update(f"{latch.name}|{latch.width}|{latch.kind.value}|"
                      f"{latch.ring}|{int(latch.protected)}\n".encode())
    for array in core.arrays():
        hasher.update(f"array:{array.name}\n".encode())
    return "sha256:" + hasher.hexdigest()[:16]


def _node_table(core) -> dict[str, dict]:
    detect_ids = {id(latch)  # repro-lint: allow[REPRO-D03]
                  for latch in core.pervasive.detection_latches()}
    arch_ids = {id(latch)  # repro-lint: allow[REPRO-D03]
                for latch in (core.idu.cr, core.idu.lr, core.idu.ctr,
                              core.ifu.ifar)}
    nodes: dict[str, dict] = {}
    for latch in core.all_latches():
        key = id(latch)  # repro-lint: allow[REPRO-D03]
        nodes[latch.name] = {
            "unit": core.unit_of(latch),
            "kind": TaintNodeKind.LATCH.value,
            "latch_kind": latch.kind.value,
            "ring": latch.ring,
            "width": latch.width,
            "bits": latch.width + (1 if latch.protected else 0),
            "protected": latch.protected,
            "arch": latch.kind.name == "REGFILE" or key in arch_ids,
            "detect": key in detect_ids,
        }
    for array, unit in ((core.ifu.icache.array, "IFU"),
                        (core.lsu.dcache.array, "LSU"),
                        (core.rut.ckpt, "RUT")):
        nodes[array.name] = {
            "unit": unit, "kind": TaintNodeKind.ARRAY.value,
            "latch_kind": "", "ring": "", "width": 0, "bits": 0,
            "protected": False, "arch": False, "detect": False,
        }
    nodes[MEMORY_NODE] = {
        "unit": "MEM", "kind": TaintNodeKind.MEMORY.value,
        "latch_kind": "", "ring": "", "width": 0, "bits": 0,
        "protected": False, "arch": True, "detect": False,
    }
    return nodes


def _trace_testcase(core, testcase, settle_cycles: int):
    """One traced golden run; returns (edges, reads, par_reads)."""
    core.load_program(testcase.program)
    tracker = _StructuralTracker(core)
    budget = core.cycles + 50 * testcase.instructions_retired + 10_000
    with trace([core], tracker):
        # Poll quiescence every cycle: a strict superset of the reads
        # the campaign supervisor's poll-interval loop performs, which
        # the read-silence soundness argument depends on.
        while not core.quiesced and core.cycles < budget:
            core.cycle()
        for _ in range(settle_cycles):
            core.cycle()
    if not core.halted:
        raise RuntimeError(
            f"golden run of testcase seed {testcase.seed} did not halt "
            f"within {budget} cycles; structural trace would be partial")
    return tracker.harvest()


def _merge_run(graph: LatchGraph, seed: int, edges, reads, par_reads) -> None:
    for pair, (cycle, count) in edges.items():
        record = graph.edges.get(pair)
        if record is None:
            graph.edges[pair] = [cycle, count]
        else:
            record[0] = min(record[0], cycle)
            record[1] += count
    graph.reads[seed] = reads
    graph.par_reads[seed] = par_reads


def extract_graph(core=None, *, suite_size: int = 6, suite_seed: int = 2008,
                  settle_cycles: int = DEFAULT_SETTLE_CYCLES,
                  extra_seeds=()) -> LatchGraph:
    """Extract the structural graph by tracing the AVP suite's golden runs.

    ``suite_size``/``suite_seed`` regenerate the same deterministic suite
    the campaign engine uses (:func:`repro.avp.suite.make_suite` with
    default instruction-mix weights); ``extra_seeds`` traces additional
    raw generator seeds (e.g. testcase seeds found in a journal that the
    suite parameters do not cover).
    """
    core = core if core is not None else Power6Core()
    graph = LatchGraph(nodes=_node_table(core), edges={},
                       model_digest=model_digest(core),
                       suite_seed=suite_seed, suite_size=suite_size,
                       settle_cycles=settle_cycles)
    for testcase in make_suite(suite_size, suite_seed):
        _merge_run(graph, testcase.seed,
                   *_trace_testcase(core, testcase, settle_cycles))
    ensure_seeds(graph, extra_seeds, core=core)
    return graph


def ensure_seeds(graph: LatchGraph, seeds, core=None) -> list[int]:
    """Trace any raw testcase seeds missing from ``graph.reads``.

    Returns the seeds that were newly traced.  Regeneration assumes the
    default AVP instruction-mix weights (the campaign default); a
    campaign run with custom weights needs its own extraction.
    """
    missing = [seed for seed in seeds if seed not in graph.reads]
    if not missing:
        return []
    core = core if core is not None else Power6Core()
    generator = AvpGenerator()
    for seed in missing:
        testcase = generator.generate(seed)
        _merge_run(graph, seed,
                   *_trace_testcase(core, testcase, graph.settle_cycles))
    return missing


def probe_cone(core, testcase, latch_name: str,
               settle_cycles: int = DEFAULT_SETTLE_CYCLES) -> set[str]:
    """Classic single-seed dynamic probe, for cross-validating the graph.

    Seeds one latch with a live :class:`TaintTracker` and replays the
    golden run; returns the canonical names of every node the taint ever
    touched.  Every such node must lie inside the structural graph's
    cone of the same latch (the structural pending windows are supersets
    of the dynamic ones), which the test suite asserts.
    """
    core.load_program(testcase.program)
    by_name = {latch.name: latch for latch in core.all_latches()}
    tracker = TaintTracker([core], by_name[latch_name],
                           max_edges=500_000, max_footprint=2)
    budget = core.cycles + 50 * testcase.instructions_retired + 10_000
    with trace([core], tracker):
        while not core.quiesced and core.cycles < budget:
            core.cycle()
        for _ in range(settle_cycles):
            core.cycle()
    helper = _StructuralTracker(core)
    touched = {helper.canonical_name(node) for node in tracker.nodes}
    touched.discard(latch_name)
    return touched
