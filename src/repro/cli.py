"""Command-line interface for the SFI reproduction.

Installed as ``repro-sfi`` (see ``pyproject.toml``), also runnable as
``python -m repro.cli``.  Subcommands map onto the paper's experiment
modes::

    repro-sfi info                         # model inventory
    repro-sfi campaign --flips 1000        # whole-core random SFI
    repro-sfi units --flips-per-unit 400   # Figures 3 & 4
    repro-sfi kinds --flips-per-kind 400   # Figure 5
    repro-sfi beam --events 1000           # Table 2's beam side
    repro-sfi workload                     # Table 1
    repro-sfi trace --flips 300 --show 5   # cause-and-effect narratives
    repro-sfi trace --journal camp.jsonl   # same, from a saved journal
    repro-sfi explain 17 --journal camp.jsonl  # taint provenance of one flip
    repro-sfi propagation --flips 200      # per-unit propagation matrix
    repro-sfi monitor --journal camp.jsonl # tail a running campaign
    repro-sfi stats --metrics out.prom     # render a metrics snapshot
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.analysis import (
    contribution_table,
    render_cause_effect,
    render_fig3,
    render_fig4,
    render_kind_results,
    render_table1,
    render_trace_summary,
    summarize_traces,
)
from repro.rtl import InjectionMode
from repro.sfi import (
    CampaignConfig,
    CampaignSupervisor,
    ClassifyOptions,
    SfiExperiment,
    per_kind_campaigns,
    campaign_sites,
    per_unit_campaigns,
)
from repro.sfi.outcomes import OUTCOME_ORDER, Outcome
from repro.stats import wilson_interval


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--suite-size", type=int, default=4,
                        help="AVP testcases in the workload pool")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")


def _config(args, **overrides) -> CampaignConfig:
    kwargs = dict(suite_size=args.suite_size)
    if getattr(args, "raw", False):
        kwargs["checker_mask"] = 0
        kwargs["classify_options"] = ClassifyOptions(latent_as_vanished=True)
    if getattr(args, "sticky", False):
        kwargs["injection_mode"] = InjectionMode.STICKY
    if getattr(args, "no_fastpath", False):
        kwargs["fastpath"] = False
    ckpt_stride = getattr(args, "ckpt_stride", None)
    if ckpt_stride is not None:
        kwargs["ckpt_stride"] = ckpt_stride or None
    backend = getattr(args, "backend", None)
    if backend is not None:
        kwargs["backend"] = backend
    wave_lanes = getattr(args, "wave_lanes", None)
    if wave_lanes is not None:
        kwargs["wave_lanes"] = wave_lanes
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


def _result_payload(result) -> dict:
    counts = result.counts()
    payload = {"total": result.total, "outcomes": {}}
    for outcome in OUTCOME_ORDER:
        low, high = wilson_interval(counts[outcome], max(1, result.total))
        payload["outcomes"][outcome.value] = {
            "count": counts[outcome],
            "fraction": counts[outcome] / max(1, result.total),
            "ci95": [low, high],
        }
    return payload


def _print_result(result, as_json: bool) -> None:
    if as_json:
        json.dump(_result_payload(result), sys.stdout, indent=2)
        print()
        return
    counts = result.counts()
    print(f"{'Outcome':<16}{'count':>8}{'fraction':>10}   95% CI")
    for outcome in OUTCOME_ORDER:
        low, high = wilson_interval(counts[outcome], max(1, result.total))
        print(f"{outcome.value:<16}{counts[outcome]:>8}"
              f"{counts[outcome] / max(1, result.total):>10.2%}"
              f"   [{low:.2%}, {high:.2%}]")


# ----------------------------------------------------------------------
# Subcommands.

def cmd_info(args) -> int:
    experiment = SfiExperiment(_config(args))
    latch_map = experiment.latch_map
    if args.json:
        json.dump({
            "latch_bits": len(latch_map),
            "units": latch_map.unit_bit_counts(),
            "rings": {ring: len(latch_map.indices_for_ring(ring))
                      for ring in latch_map.rings()},
            "references": [{"seed": r.testcase.seed, "cycles": r.cycles,
                            "instructions": r.committed, "cpi": r.cpi}
                           for r in experiment.references],
        }, sys.stdout, indent=2)
        print()
        return 0
    print(f"Injectable latch bits: {len(latch_map):,}")
    print("Per unit:")
    for unit, bits in sorted(latch_map.unit_bit_counts().items()):
        print(f"  {unit:5s} {bits:7,}")
    print("Per scan ring:")
    for ring in latch_map.rings():
        print(f"  {ring:8s} {len(latch_map.indices_for_ring(ring)):7,}")
    print("Workload references:")
    for reference in experiment.references:
        print(f"  seed {reference.testcase.seed}: "
              f"{reference.committed} instructions, "
              f"{reference.cycles} cycles (CPI {reference.cpi:.2f})")
    return 0


def cmd_campaign(args) -> int:
    if args.resume and not args.journal:
        print("--resume requires --journal", file=sys.stderr)
        return 2
    config = _config(args)
    start = time.perf_counter()
    registry = None
    trace_writer = None
    if args.metrics or args.metrics_jsonl:
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
    if args.trace_log:
        from repro.obs import TraceWriter
        trace_writer = TraceWriter(args.trace_log)
    try:
        probe = SfiExperiment(config)
        sites = campaign_sites(probe.latch_map, args.flips, args.seed)
        telemetry_on = getattr(args, "telemetry", 0.0) > 0
        trace = None
        if telemetry_on:
            from repro.obs.fleet import SpanRecorder
            trace = SpanRecorder()
        transport = None
        if args.listen is not None:
            from repro.sfi.service.coordinator import SocketTransport
            convergence = None
            if telemetry_on:
                from repro.obs.convergence import ConvergenceTracker
                convergence = ConvergenceTracker()
            host, port = _parse_endpoint(args.listen, default_host="0.0.0.0")
            transport = SocketTransport(
                host=host, port=port,
                lease_items=args.lease_items,
                worker_wait=args.worker_wait,
                min_workers=args.min_workers,
                metrics=registry,
                telemetry_interval=args.telemetry,
                campaign=args.journal or "",
                convergence=convergence)
            if not args.json:
                print(f"[coordinator] listening for workers on "
                      f"{host}:{transport.port}")
        supervisor = CampaignSupervisor(
            config, workers=args.workers,
            population_bits=len(probe.latch_map),
            journal=args.journal,
            resume=args.resume,
            shard_timeout=args.shard_timeout,
            max_retries=args.max_retries,
            metrics=registry,
            reference_cycles=[r.cycles for r in probe.references],
            transport=transport,
            trace=trace,
            progress=None if args.json else (
                lambda event, detail: print(f"[supervisor] {detail}")))
        result = supervisor.run(
            sites, seed=args.seed,
            record_hook=trace_writer.write if trace_writer else None)
        # This run's own work, read before any fleet snapshot is merged
        # in: journal-recovered records cost no wall-clock here.
        executed = sum(supervisor.metrics.get("sfi_injections_total")
                       .series().values())
        recovered = round(supervisor.metrics.get(
            "sfi_injections_recovered_total").value())
        if trace is not None and args.journal:
            from repro.obs.fleet import write_span_log
            spans = list(trace.drain())
            if transport is not None:
                spans.extend(transport.worker_spans)
            span_path = args.journal + ".spans"
            write_span_log(span_path, spans, campaign=args.journal)
            if not args.json:
                print(f"{len(spans)} fleet spans -> {span_path}")
        if registry is not None and transport is not None \
                and transport.fleet is not None:
            # Fold the worker-streamed cumulatives into the exported
            # snapshot (same merge semantics as shard results).
            registry.merge(transport.fleet.fleet)
    finally:
        if trace_writer is not None:
            trace_writer.close()
    if registry is not None:
        from repro.obs import write_jsonl, write_prometheus
        if args.metrics:
            write_prometheus(registry, args.metrics)
        if args.metrics_jsonl:
            write_jsonl(registry, args.metrics_jsonl)
    elapsed = time.perf_counter() - start
    if not args.json:
        print(f"{result.total} injections in {elapsed:.1f}s "
              f"({1000 * elapsed / max(1, executed):.0f} ms each"
              + (f"; {recovered} recovered from journal" if recovered
                 else "") + ")")
        if trace_writer is not None:
            print(f"{trace_writer.written} span chains -> {args.trace_log} "
                  f"({trace_writer.filtered} vanished filtered)")
    _print_result(result, args.json)
    return 0


def cmd_units(args) -> int:
    experiment = SfiExperiment(_config(args))
    results = per_unit_campaigns(experiment, args.flips_per_unit,
                                 seed=args.seed)
    if args.json:
        json.dump({unit: _result_payload(result)
                   for unit, result in results.items()}, sys.stdout, indent=2)
        print()
        return 0
    print(render_fig3(results))
    print()
    print(render_fig4(contribution_table(
        results, experiment.latch_map.unit_bit_counts())))
    return 0


def cmd_kinds(args) -> int:
    experiment = SfiExperiment(_config(args))
    results = per_kind_campaigns(experiment, args.flips_per_kind,
                                 seed=args.seed)
    if args.json:
        json.dump({kind.value: _result_payload(result)
                   for kind, result in results.items()}, sys.stdout, indent=2)
        print()
        return 0
    print(render_kind_results(results))
    return 0


def cmd_beam(args) -> int:
    from repro.beam import BeamExperiment, FluxModel
    beam = BeamExperiment(_config(args),
                          flux=FluxModel(sram_cross_section=args.sram_sigma))
    result = beam.run_events(args.events, seed=args.seed)
    if not args.json:
        print(f"{result.total} beam events over "
              f"{beam.latch_bits:,} latch + {beam.array_bits:,} array bits")
    _print_result(result, args.json)
    return 0


def cmd_workload(args) -> int:
    from repro.avp import AvpGenerator
    from repro.workload import (
        SPEC_COMPONENTS,
        measure_cpi,
        measure_opcode_mix,
        top90_class_mix,
    )
    avp_programs = [AvpGenerator().generate(seed).program
                    for seed in range(args.seed, args.seed + args.programs)]
    avp_mix = top90_class_mix(measure_opcode_mix(avp_programs))
    avp_cpi = measure_cpi(avp_programs[:2])
    spec_mixes = {}
    spec_cpis = {}
    for component in SPEC_COMPONENTS:
        programs = component.programs(count=args.programs)
        spec_mixes[component.name] = top90_class_mix(
            measure_opcode_mix(programs))
        spec_cpis[component.name] = measure_cpi(programs[:1])
    if args.json:
        json.dump({
            "avp": {cls.value: share for cls, share in avp_mix.items()},
            "avp_cpi": avp_cpi,
            "spec": {name: {cls.value: share for cls, share in mix.items()}
                     for name, mix in spec_mixes.items()},
            "spec_cpi": spec_cpis,
        }, sys.stdout, indent=2)
        print()
        return 0
    print(render_table1(avp_mix, avp_cpi, spec_mixes, spec_cpis))
    return 0


def cmd_trace(args) -> int:
    if args.journal:
        # Render from a saved journal — read-only, no re-simulation, and
        # safe on a journal another process is still appending to.
        from repro.sfi.results import CampaignResult
        from repro.sfi.storage import CampaignStorageError, read_journal
        try:
            header, covered = read_journal(args.journal)
        except CampaignStorageError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        result = CampaignResult(
            population_bits=header.get("population_bits", 0))
        positions = sorted(covered)
        for position in positions:
            result.add(covered[position])
        if args.trace_log:
            from repro.obs import TraceWriter
            with TraceWriter(args.trace_log) as writer:
                for position in positions:
                    writer.write(position, covered[position])
            print(f"{writer.written} span chains -> {args.trace_log} "
                  f"({writer.filtered} vanished filtered)")
    else:
        experiment = SfiExperiment(_config(args))
        result = experiment.run_random_campaign(args.flips, seed=args.seed)
        if args.trace_log:
            from repro.obs import TraceWriter
            with TraceWriter(args.trace_log) as writer:
                for position, record in enumerate(result.records):
                    writer.write(position, record)
            print(f"{writer.written} span chains -> {args.trace_log} "
                  f"({writer.filtered} vanished filtered)")
    visible = [record for record in result.records
               if record.outcome is not Outcome.VANISHED]
    for record in visible[:args.show]:
        print(render_cause_effect(record))
        print()
    print(render_trace_summary(summarize_traces(result)))
    return 0


def cmd_explain(args) -> int:
    """Re-run one campaign injection with taint tracking and render its
    propagation story.

    Plans and injection cycles are pure functions of ``(seed, flips,
    suite_size)`` (the REPRO-D01 determinism contract), so the trial is
    regenerated exactly — from a journal header, or from the same
    ``--flips``/``--seed`` the campaign ran with.  The re-run record is
    checked field for field (event trace included) against the
    journaled one when available.
    """
    from dataclasses import fields

    from repro.analysis import render_propagation_story
    from repro.sfi.campaign import injection_rng, plan_injections
    from repro.sfi.storage import CampaignStorageError, read_journal

    seed, flips, suite_size = args.seed, args.flips, args.suite_size
    journaled = None
    if args.journal:
        try:
            header, covered = read_journal(args.journal)
        except CampaignStorageError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        seed = header.get("seed", seed)
        flips = header.get("total_sites", flips)
        suite_size = header.get("meta", {}).get("suite_size", suite_size)
        journaled = covered.get(args.position)
    if flips is None:
        print("explain needs --journal or --flips to regenerate the "
              "campaign plan", file=sys.stderr)
        return 2
    if not 0 <= args.position < flips:
        print(f"position {args.position} outside campaign "
              f"(0..{flips - 1})", file=sys.stderr)
        return 2
    experiment = SfiExperiment(_config(args, suite_size=suite_size))
    sites = campaign_sites(experiment.latch_map, flips, seed)
    plan = plan_injections(sites, len(experiment.suite))
    item = plan[args.position]
    inject_cycle = injection_rng(seed, item.site_index, item.occurrence) \
        .randrange(0, experiment.references[item.testcase_index].cycles)
    record = experiment.run_one(item.site_index, item.testcase_index,
                                inject_cycle, provenance=True)
    if journaled is not None and journaled != record:
        differs = [field.name for field in fields(record)
                   if getattr(journaled, field.name)
                   != getattr(record, field.name)]
        print(f"journal mismatch: the replay of position {args.position} "
              f"differs from its journal record in {', '.join(differs)} "
              f"(journaled {journaled.outcome.value!r}, replayed "
              f"{record.outcome.value!r}) — campaign flags (--raw/--sticky/"
              f"--suite-size) probably differ, or the journal was altered",
              file=sys.stderr)
        return 2
    payload = experiment.last_provenance
    if args.json:
        json.dump({"pos": args.position, "payload": payload},
                  sys.stdout, indent=2)
        print()
        return 0
    print(render_propagation_story(payload))
    return 0


def cmd_propagation(args) -> int:
    """Taint-track a campaign and render the per-unit propagation matrix,
    detection-latency statistics, and masking attribution."""
    from repro.analysis import render_provenance_report, write_provenance_jsonl

    config = _config(args, provenance=True)
    probe = SfiExperiment(config)
    sites = campaign_sites(probe.latch_map, args.flips, args.seed)
    supervisor = CampaignSupervisor(config, workers=args.workers,
                                    population_bits=len(probe.latch_map))
    supervisor.run(sites, seed=args.seed)
    report = supervisor.provenance_report
    payloads = supervisor.provenance_payloads
    if args.jsonl:
        write_provenance_jsonl(payloads, args.jsonl)
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
        return 0
    print(render_provenance_report(report))
    if args.jsonl:
        print(f"{len(payloads)} per-injection payloads -> {args.jsonl}")
    return 0


def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.lint import (
        render_jsonl,
        render_text,
        run_lint,
        write_baseline,
        write_jsonl,
    )
    from repro.lint.policy import render_policy

    if args.show_policy:
        print(render_policy())
        return 0
    root = Path(args.root) if args.root else None
    try:
        report = run_lint(
            root=root,
            include_audit=not args.no_audit,
            include_structural=args.structural,
            baseline_path=args.baseline,
            design_path=args.design)
    except (OSError, ValueError) as exc:
        print(f"lint failed: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        from repro.lint.engine import BASELINE_FILENAME, find_repo_file
        target = args.baseline or find_repo_file(
            root or Path(), BASELINE_FILENAME) or BASELINE_FILENAME
        write_baseline(report.findings + report.suppressed, str(target))
        print(f"{len(report.findings) + len(report.suppressed)} finding(s) "
              f"accepted into {target}")
        return 0
    if args.jsonl:
        write_jsonl(report.findings, args.jsonl)
    if args.format == "jsonl":
        sys.stdout.write(render_jsonl(report.findings))
    else:
        if report.findings:
            print(render_text(report.findings))
        summary = (f"lint: {report.files_scanned} files, "
                   f"{len(report.findings)} finding(s), "
                   f"{len(report.suppressed)} suppressed"
                   f"{', audit ok' if report.audit_ran else ''}"
                   f"{', structural ok' if report.structural_ran else ''}")
        if report.budget_source:
            summary += f" (budgets: {report.budget_source})"
        print(summary)
        for key in sorted(report.stale_baseline):
            print(f"stale baseline entry (violation is gone — remove it): "
                  f"{key[0]} {key[1]}: {key[2]}")
    exit_code = report.exit_code(strict=args.strict)
    if args.strict:
        # Strict mode is the ratchet gate: it is only meaningful against
        # a real baseline.  A missing or empty baseline means the gate
        # would silently pass on a tree it has never ratcheted.
        from repro.lint import load_baseline
        from repro.lint.engine import (
            BASELINE_FILENAME,
            default_root,
            find_repo_file,
        )
        baseline_file = args.baseline or find_repo_file(
            root if root is not None else default_root(), BASELINE_FILENAME)
        if (baseline_file is None or not Path(baseline_file).is_file()
                or not load_baseline(str(baseline_file))):
            print("lint --strict: baseline missing or empty (expected a "
                  f"non-empty {BASELINE_FILENAME}; run `repro-sfi lint "
                  "--write-baseline` to ratchet the current findings)",
                  file=sys.stderr)
            return 1
    return exit_code


def cmd_bounds(args) -> int:
    """Static masking bounds + the static-vs-SFI reconciliation gate."""
    from repro.analysis.static_bounds import (
        compute_bounds,
        load_sidecar,
        reconcile,
        render_bounds,
        render_cone_browser,
        write_sidecar,
    )
    from repro.emulator.structural import extract_graph

    if args.load:
        graph, bounds = load_sidecar(args.load)
        print(f"loaded sidecar {args.load} (model {graph.model_digest})")
    else:
        graph = extract_graph(suite_size=args.suite_size,
                              suite_seed=args.suite_seed,
                              settle_cycles=args.settle_cycles)
        bounds = compute_bounds(graph)

    reconcile_report = None
    if args.journal:
        from repro.sfi.storage import read_journal
        records = []
        for path in args.journal:
            _header, covered = read_journal(path)
            records.extend(covered[pos] for pos in sorted(covered))
        reconcile_report = reconcile(graph, bounds, records)
        # Reconciliation may have traced extra seeds into the graph;
        # recompute so the persisted bounds reflect the final read sets.
        bounds = compute_bounds(graph)

    if args.out:
        write_sidecar(args.out, graph, bounds)
    if args.html:
        from pathlib import Path
        Path(args.html).write_text(render_cone_browser(graph, bounds),
                                   encoding="utf-8")
    if args.db:
        from repro.warehouse import Warehouse
        with Warehouse(args.db) as warehouse:
            warehouse.ingest_structural(graph, bounds)
        print(f"sidecar ingested into {args.db}")

    if args.json:
        payload = bounds.to_payload()
        if reconcile_report is not None:
            payload["reconcile"] = reconcile_report.to_payload()
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(render_bounds(bounds))
        if args.out:
            print(f"sidecar -> {args.out}")
        if args.html:
            print(f"cone browser -> {args.html}")
        if reconcile_report is not None:
            checked = reconcile_report.records_checked
            gated = reconcile_report.records_gated
            print(f"reconcile: {checked} journaled record(s), {gated} "
                  f"covered by a static masking proof"
                  + (f", {len(reconcile_report.seeds_traced)} extra "
                     f"testcase seed(s) traced"
                     if reconcile_report.seeds_traced else ""))
            for check in reconcile_report.unit_checks:
                verdict = "ok" if check["ok"] else "VIOLATION"
                print(f"  {check['unit']:<6} bound {check['bound']:.3f} "
                      f"<= measured {check['measured_derating']:.3f} "
                      f"({check['trials']} trials): {verdict}")
            for violation in reconcile_report.violations:
                print(f"  VIOLATION [{violation['kind']}] "
                      f"{violation['site']} seed {violation['seed']}: "
                      f"{violation['detail']}")
    if reconcile_report is not None and not reconcile_report.ok:
        print(f"reconciliation gate FAILED: "
              f"{len(reconcile_report.violations)} record-level "
              f"violation(s), "
              f"{sum(not c['ok'] for c in reconcile_report.unit_checks)} "
              f"unit bound violation(s) — statically-proven-masked "
              f"latches produced non-VANISHED outcomes (model or "
              f"analyzer bug)", file=sys.stderr)
        return 1
    return 0


def _parse_endpoint(value: str, default_host: str = "127.0.0.1") -> tuple:
    """``host:port`` or bare ``port`` -> (host, port)."""
    host, _, port = value.rpartition(":")
    return (host or default_host, int(port))


def cmd_worker(args) -> int:
    """Join a lease coordinator as a remote shard worker."""
    from repro.sfi.service.worker import WorkerError, run_worker
    host, port = _parse_endpoint(args.connect)

    def narrate(event, detail):
        if not args.quiet:
            print(f"[worker] {event}: {detail}")

    try:
        executed = run_worker(
            host, port, name=args.name,
            max_connect_attempts=args.connect_attempts,
            max_campaigns=args.campaigns or None,
            progress=narrate)
    except WorkerError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    if not args.quiet:
        print(f"[worker] done: {executed} lease(s) executed")
    return 0


def cmd_serve(args) -> int:
    """Run the campaign queue service (control plane + worker port)."""
    from repro.sfi.service.queue import ServerConfig, ServiceServer
    registry = None
    if args.metrics:
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
    warehouse = None
    if not args.no_warehouse:
        from pathlib import Path
        warehouse = args.warehouse or str(Path(args.spool)
                                          / "warehouse.sqlite")
    server = ServiceServer(
        args.spool,
        ServerConfig(host=args.host,
                     control_port=args.control_port,
                     worker_port=args.worker_port,
                     workers_local=args.local_workers,
                     lease_items=args.lease_items,
                     worker_wait=args.worker_wait,
                     min_workers=args.min_workers,
                     warehouse=warehouse),
        metrics=registry)
    print(f"[serve] control {args.host}:{server.control_port}, "
          f"workers {args.host}:{server.worker_port}, "
          f"spool {args.spool}")
    for campaign_id in server.recovered:
        print(f"[serve] re-queued {campaign_id} (was running; will "
              f"resume from its journal)")
    try:
        server.run_forever()
    except KeyboardInterrupt:
        server.shutdown()
    finally:
        if registry is not None and args.metrics:
            from repro.obs import write_prometheus
            write_prometheus(registry, args.metrics)
    return 0


def _control(args, request: dict) -> dict | None:
    from repro.sfi.service.queue import control_request
    host, port = _parse_endpoint(args.server)
    try:
        return control_request(host, port, request)
    except (OSError, ConnectionError) as exc:
        print(f"cannot reach server {host}:{port}: {exc}",
              file=sys.stderr)
        return None


def cmd_submit(args) -> int:
    reply = _control(args, {
        "op": "submit", "flips": args.flips, "seed": args.seed,
        "config": _service_config_payload(args)})
    if reply is None:
        return 2
    if not reply.get("ok"):
        print(f"submit rejected: {reply.get('error')}", file=sys.stderr)
        return 2
    print(reply["id"])
    return 0


def _service_config_payload(args) -> dict:
    from repro.sfi.service.messages import config_to_dict
    return config_to_dict(_config(args))


def cmd_status(args) -> int:
    if args.journal:
        return _status_journal(args)
    reply = _control(args, {"op": "status", "id": args.id})
    if reply is None:
        return 2
    if args.json:
        json.dump(reply, sys.stdout, indent=2)
        print()
        return 0
    print(f"worker port: {reply.get('worker_port')}   "
          f"running: {reply.get('running') or '-'}")
    campaigns = reply.get("campaigns", [])
    if not campaigns:
        print("no campaigns")
        return 0
    print(f"{'id':<12}{'state':<11}{'sites':>7}{'records':>9}  detail")
    for spec in campaigns:
        print(f"{spec['id']:<12}{spec['state']:<11}{spec['sites']:>7}"
              f"{spec['records']:>9}  {spec['detail']}")
    return 0


def _status_journal(args) -> int:
    """Offline campaign status: journal progress plus statistical
    convergence (the live coordinator folds the same counts, so the two
    views agree exactly on a finished journal)."""
    from repro.obs import read_journal_progress
    from repro.obs.convergence import ConvergenceTracker, render_convergence
    progress = read_journal_progress(args.journal)
    if not progress.done and progress.total == 0:
        print(f"{args.journal}: no readable journal records yet",
              file=sys.stderr)
        return 2
    tracker = ConvergenceTracker.from_counts(
        progress.unit_outcomes, target_width=args.target_width)
    if args.json:
        json.dump({"journal": str(args.journal), "done": progress.done,
                   "total": progress.total,
                   "complete": progress.complete,
                   "convergence": tracker.snapshot()},
                  sys.stdout, indent=2)
        print()
        return 0
    state = "complete" if progress.complete else "in progress"
    print(f"{args.journal}: {progress.done}/{progress.total or '?'} "
          f"injections ({state})")
    print(render_convergence(tracker))
    return 0


def cmd_cancel(args) -> int:
    reply = _control(args, {"op": "cancel", "id": args.id})
    if reply is None:
        return 2
    if not reply.get("ok"):
        print(f"cancel failed: {reply.get('error')}", file=sys.stderr)
        return 2
    print(f"{args.id}: {reply['state']}")
    return 0


def cmd_journal(args) -> int:
    """Offline journal tooling (currently: `journal verify`)."""
    from repro.sfi.storage import verify_journal
    report = verify_journal(args.path)
    if args.json:
        json.dump({"path": report.path, "ok": report.ok,
                   "records": report.records,
                   "torn_tail": report.torn_tail,
                   "lease_events": report.lease_events,
                   "issues": report.issues}, sys.stdout, indent=2)
        print()
    else:
        for issue in report.issues:
            print(issue)
        if report.torn_tail:
            print(f"{report.path}: torn trailing line (crash mid-append; "
                  f"recovery will drop it)")
        status = "OK" if report.ok else "CORRUPT"
        print(f"{report.path}: {status} — {report.records} record(s), "
              f"{report.lease_events} lease event(s), "
              f"{len(report.issues)} issue(s)")
    return 0 if report.ok else 1


def cmd_monitor(args) -> int:
    if args.connect:
        return _monitor_fleet(args)
    if not args.journal:
        print("monitor needs --journal (tail a journal) or --connect "
              "(live fleet view from a coordinator)", file=sys.stderr)
        return 2
    from repro.obs import monitor_campaign
    return monitor_campaign(
        args.journal,
        metrics_path=args.metrics,
        interval=args.interval,
        follow=not args.once,
        max_updates=args.max_updates,
        target_width=args.target_width,
        convergence=not args.no_convergence)


def _monitor_fleet(args) -> int:
    """Live fleet view: join a telemetry-enabled coordinator as a
    read-only monitor and render the snapshots it pushes."""
    import socket

    from repro.obs.convergence import render_convergence
    from repro.obs.fleet import unpack_payload, render_fleet
    from repro.sfi.service.messages import (
        FleetSnapshotMessage,
        MonitorHelloMessage,
    )
    from repro.sfi.service.wire import FrameError, recv_message, send_message

    host, port = _parse_endpoint(args.connect)
    try:
        sock = socket.create_connection((host, port), timeout=10.0)
    except OSError as exc:
        print(f"cannot reach coordinator {host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    frames = 0
    last: dict = {}          # worker -> (monotonic stamp, injections)
    try:
        sock.settimeout(max(args.interval * 10, 30.0))
        send_message(sock, MonitorHelloMessage().to_wire())
        while True:
            try:
                payload = recv_message(sock)
            except (FrameError, OSError) as exc:
                print(f"[monitor] connection lost: {exc}", file=sys.stderr)
                return 0 if frames else 2
            if payload is None:
                # Orderly close: the campaign finished.
                return 0
            if payload.get("type") != FleetSnapshotMessage.TYPE:
                continue
            try:
                snapshot = unpack_payload(payload.get("snapshot") or "")
            except ValueError:
                continue
            frames += 1
            now = time.monotonic()
            rates = _fleet_rates(snapshot, last, now)
            print(render_fleet(snapshot, rates=rates))
            if snapshot.get("convergence"):
                print(render_convergence(snapshot["convergence"], limit=4))
            sys.stdout.flush()
            if args.once or (args.max_updates is not None
                             and frames >= args.max_updates):
                return 0
    except KeyboardInterrupt:
        return 130
    finally:
        sock.close()


def _fleet_rates(snapshot: dict, last: dict, now: float) -> dict:
    """Per-worker injections/s from consecutive fleet snapshots."""
    from repro.obs.fleet import _counter_total
    rates = {}
    for name, info in snapshot.get("workers", {}).items():
        injections = _counter_total(info.get("snapshot", []),
                                    "sfi_injections_total")
        stamp, previous = last.get(name, (None, None))
        if stamp is not None and now > stamp and injections >= previous:
            rates[name] = (injections - previous) / (now - stamp)
        last[name] = (now, injections)
    return rates


def cmd_stats(args) -> int:
    from repro.obs import load_metrics_file, render_stats
    registry = load_metrics_file(args.metrics)
    if registry is None:
        print(f"{args.metrics}: unreadable or empty metrics snapshot",
              file=sys.stderr)
        return 2
    if args.json:
        json.dump(registry.snapshot(), sys.stdout, indent=2)
        print()
        return 0
    print(render_stats(registry))
    return 0


def cmd_ingest(args) -> int:
    """Load campaign journals into the result warehouse."""
    from repro.sfi.storage import CampaignStorageError
    from repro.warehouse import JournalTailer, Warehouse, WarehouseError
    registry = None
    if args.metrics:
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
    if args.name and len(args.journal) > 1:
        print("--name only applies to a single journal", file=sys.stderr)
        return 2
    failures = 0
    results = []
    try:
        with Warehouse(args.db, metrics=registry) as warehouse:
            for journal in args.journal:
                try:
                    if args.follow:
                        tailer = JournalTailer(warehouse, journal,
                                               name=args.name,
                                               provenance=args.provenance,
                                               leases=not args.no_leases)
                        stats = tailer.follow(interval=args.interval,
                                              max_polls=args.max_polls)
                    else:
                        stats = warehouse.ingest_journal(
                            journal, name=args.name,
                            provenance=args.provenance,
                            leases=not args.no_leases)
                except CampaignStorageError as exc:
                    print(f"{journal}: {exc}", file=sys.stderr)
                    failures += 1
                    continue
                if stats is None:
                    print(f"{journal}: journal never appeared",
                          file=sys.stderr)
                    failures += 1
                    continue
                results.append(stats)
                if not args.json:
                    state = "complete" if stats.complete else \
                        f"{stats.records}/{stats.total_sites or '?'}"
                    print(f"[ingest] {stats.name}: +{stats.added} "
                          f"record(s) ({state}), "
                          f"{stats.lease_events} lease event(s), "
                          f"{stats.provenance_rows} provenance row(s)"
                          + (f", {stats.span_rows} span(s)"
                             if stats.span_rows else "")
                          + (f", {stats.skipped} line(s) skipped"
                             if stats.skipped else ""))
    except WarehouseError as exc:
        print(f"{args.db}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump([vars(stats) for stats in results], sys.stdout, indent=2)
        print()
    if registry is not None and args.metrics:
        from repro.obs import write_prometheus
        write_prometheus(registry, args.metrics)
    return 1 if failures else 0


def cmd_query(args) -> int:
    """Answer aggregate questions from the warehouse."""
    from repro.warehouse import Warehouse, WarehouseError
    from repro.warehouse import queries
    try:
        with Warehouse(args.db) as warehouse:
            campaign = getattr(args, "campaign", None)
            if args.what == "campaigns":
                value: object = [dict(row) for row in warehouse.campaigns()]
                text = queries.render_campaigns(warehouse)
            elif args.what == "units":
                value = queries.unit_outcomes(warehouse, campaign)
                text = queries.render_unit_outcomes(value)
            elif args.what == "ser":
                value = queries.ser_trend(warehouse)
                text = queries.render_ser_trend(value)
            elif args.what == "latency":
                value = queries.detection_latency_percentiles(
                    warehouse, campaign)
                value["percentiles"] = {str(k): v for k, v
                                        in value["percentiles"].items()}
                text = queries.render_latency(
                    {"detected": value["detected"],
                     "percentiles": {float(k): v for k, v
                                     in value["percentiles"].items()}})
            elif args.what == "fastpath":
                value = queries.fastpath_stats(warehouse)
                text = queries.render_fastpath(value)
            elif args.what == "leases":
                value = queries.lease_health(warehouse)
                text = queries.render_leases(value)
            elif args.what == "structural":
                value = queries.bounds_vs_measured(warehouse, campaign)
                text = queries.render_bounds_vs_measured(value)
            elif args.what == "convergence":
                from repro.obs.convergence import render_convergence
                tracker = queries.convergence(
                    warehouse, campaign,
                    target_width=args.target_width)
                value = tracker.snapshot()
                text = render_convergence(tracker)
            elif args.what == "spans":
                if campaign is not None:
                    value = queries.campaign_critical_path(warehouse,
                                                           campaign)
                    text = queries.render_critical_path(value)
                else:
                    value = queries.span_phases(warehouse)
                    text = queries.render_span_phases(value)
            else:  # plans
                value = queries.query_plans(warehouse)
                text = "\n".join(
                    f"{'ok ' if plan['ok'] else 'BAD'} {plan['name']}: "
                    f"{plan['plan']}" for plan in value)
                if not all(plan["ok"] for plan in value):
                    print(text, file=sys.stderr)
                    return 1
            print(queries.to_json(value) if args.json else text)
    except WarehouseError as exc:
        print(f"{exc}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    """Render the warehouse as a self-contained HTML dashboard."""
    from pathlib import Path

    from repro.warehouse import Warehouse, WarehouseError, render_dashboard
    try:
        with Warehouse(args.db) as warehouse:
            html = render_dashboard(warehouse, title=args.title)
    except WarehouseError as exc:
        print(f"{args.db}: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.write_text(html)
    print(f"[report] wrote {out} ({len(html):,} bytes, self-contained)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sfi",
        description="Statistical Fault Injection (DSN 2008) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="model inventory and references")
    _add_common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("campaign", help="whole-core random SFI campaign")
    _add_common(p)
    p.add_argument("--flips", type=int, default=500)
    p.add_argument("--raw", action="store_true",
                   help="mask every hardware checker (Table 3's Raw mode)")
    p.add_argument("--sticky", action="store_true",
                   help="sticky injection mode instead of toggle")
    p.add_argument("--ckpt-stride", type=int, default=None, metavar="K",
                   help="checkpoint-ladder rung every K reference cycles; "
                        "a draining trial exits early at the first rung "
                        "it equals (0 disables rungs: only the frozen "
                        "exit is left and every other trial drains to "
                        "quiesce; default 64)")
    p.add_argument("--no-fastpath", action="store_true",
                   help="disable the fast path (checkpoint ladder + "
                        "early exits); records are "
                        "bit-identical either way")
    p.add_argument("--backend", choices=("scalar", "bitplane"),
                   default="scalar",
                   help="trial execution backend: 'bitplane' packs up to "
                        "63 trials per machine word and resolves them "
                        "against the compiled golden schedule, and runs "
                        "the trials it cannot resolve on the scalar "
                        "path; records are byte-identical to the scalar "
                        "backend")
    p.add_argument("--wave-lanes", type=int, default=None, metavar="N",
                   help="bitplane backend: trials per wave (1-63, "
                        "default 63)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes running trials, this one included: "
                        "parallel simulation copies (paper §2.2)")
    p.add_argument("--journal", metavar="PATH",
                   help="journal completed injections to this JSONL file "
                        "(crash-consistent; enables --resume)")
    p.add_argument("--resume", action="store_true",
                   help="resume a killed campaign from its --journal, "
                        "skipping already-covered injections")
    p.add_argument("--shard-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="kill and retry a worker shard that exceeds this")
    p.add_argument("--max-retries", type=int, default=2,
                   help="per-shard retries before the shard is split "
                        "and requeued (default 2)")
    p.add_argument("--metrics", metavar="PATH",
                   help="write a Prometheus textfile metrics snapshot "
                        "(campaign/shard timings, per-outcome counters)")
    p.add_argument("--metrics-jsonl", metavar="PATH",
                   help="write the metrics snapshot as JSONL")
    p.add_argument("--trace-log", metavar="PATH",
                   help="stream one JSONL span chain per non-vanished "
                        "injection (see repro.obs.trace)")
    p.add_argument("--listen", metavar="[HOST:]PORT", default=None,
                   help="run as a distributed-campaign coordinator: "
                        "listen for `repro-sfi worker` processes and "
                        "lease shards to them (records are byte-"
                        "identical to a single-process run)")
    p.add_argument("--lease-items", type=int, default=8,
                   help="plan items per lease when distributing "
                        "(default 8)")
    p.add_argument("--worker-wait", type=float, default=10.0,
                   metavar="SECONDS",
                   help="with work outstanding and no workers "
                        "connected, degrade to in-process execution "
                        "after this long (default 10)")
    p.add_argument("--min-workers", type=int, default=0,
                   help="wait for this many workers before granting "
                        "the first lease")
    p.add_argument("--telemetry", type=float, default=0.0,
                   metavar="SECONDS",
                   help="fleet telemetry: workers stream metrics and "
                        "spans back roughly every SECONDS, the "
                        "coordinator tracks live convergence and serves "
                        "`repro-sfi monitor --connect`, and the merged "
                        "span tree lands in <journal>.spans (0 "
                        "disables; journals are byte-identical either "
                        "way)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("units", help="per-unit campaigns (Figures 3 & 4)")
    _add_common(p)
    p.add_argument("--flips-per-unit", type=int, default=300)
    p.set_defaults(func=cmd_units)

    p = sub.add_parser("kinds", help="per-latch-type campaigns (Figure 5)")
    _add_common(p)
    p.add_argument("--flips-per-kind", type=int, default=300)
    p.set_defaults(func=cmd_kinds)

    p = sub.add_parser("beam", help="proton-beam simulation (Table 2)")
    _add_common(p)
    p.add_argument("--events", type=int, default=500)
    p.add_argument("--sram-sigma", type=float, default=1.3,
                   help="SRAM:latch cross-section ratio")
    p.set_defaults(func=cmd_beam)

    p = sub.add_parser("workload", help="AVP vs SPECInt mixes (Table 1)")
    _add_common(p)
    p.add_argument("--programs", type=int, default=3)
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser("trace", help="cause-and-effect traces")
    _add_common(p)
    p.add_argument("--flips", type=int, default=300)
    p.add_argument("--show", type=int, default=5)
    p.add_argument("--journal", metavar="PATH",
                   help="render traces from a saved campaign journal "
                        "instead of running new injections")
    p.add_argument("--trace-log", metavar="PATH",
                   help="also write machine-readable JSONL span chains")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("explain",
                       help="taint-provenance story for one campaign "
                            "injection (re-run with tracking)")
    _add_common(p)
    p.add_argument("position", type=int,
                   help="campaign position of the injection to explain")
    p.add_argument("--journal", metavar="PATH",
                   help="derive seed/flips/suite-size from this campaign "
                        "journal and cross-check the replayed outcome")
    p.add_argument("--flips", type=int, default=None,
                   help="campaign size, when no --journal is given "
                        "(must match the original campaign)")
    p.add_argument("--raw", action="store_true",
                   help="match a campaign run with --raw")
    p.add_argument("--sticky", action="store_true",
                   help="match a campaign run with --sticky")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("propagation",
                       help="taint-tracked campaign: per-unit propagation "
                            "matrix, detection latency, masking")
    _add_common(p)
    p.add_argument("--flips", type=int, default=200)
    p.add_argument("--raw", action="store_true",
                   help="mask every hardware checker (Table 3's Raw mode)")
    p.add_argument("--sticky", action="store_true",
                   help="sticky injection mode instead of toggle")
    p.add_argument("--workers", type=int, default=1,
                   help="processes running trials, this one included "
                        "(the merged report is identical for any "
                        "worker count)")
    p.add_argument("--jsonl", metavar="PATH",
                   help="write per-injection provenance payloads to this "
                        "JSONL sidecar")
    p.set_defaults(func=cmd_propagation)

    p = sub.add_parser(
        "lint",
        help="domain-aware static analysis: determinism lint + "
             "fault-space audit")
    p.add_argument("--strict", action="store_true",
                   help="also fail on warnings and on stale baseline "
                        "entries (the CI gate)")
    p.add_argument("--format", choices=("text", "jsonl"), default="text",
                   help="report format on stdout (default text)")
    p.add_argument("--jsonl", metavar="PATH",
                   help="additionally write findings JSONL to this file "
                        "(written even when empty, for CI artifacts)")
    p.add_argument("--baseline", metavar="PATH",
                   help="suppression baseline (default: lint-baseline.jsonl "
                        "found next to the repo's DESIGN.md)")
    p.add_argument("--write-baseline", action="store_true",
                   help="accept the current findings into the baseline "
                        "instead of failing on them")
    p.add_argument("--root", metavar="PATH",
                   help="source tree to lint (default: the installed "
                        "repro package)")
    p.add_argument("--design", metavar="PATH",
                   help="DESIGN.md to reconcile latch budgets against "
                        "(default: auto-discovered)")
    p.add_argument("--no-audit", action="store_true",
                   help="skip the fault-space audit (AST passes only)")
    p.add_argument("--structural", action="store_true",
                   help="also extract the structural latch graph from the "
                        "live model and evaluate the REPRO-G rules "
                        "(seconds of traced golden runs)")
    p.add_argument("--show-policy", action="store_true",
                   help="print the per-path rule policy table and exit")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "bounds",
        help="static masking bounds from the structural latch graph, "
             "plus the static-vs-SFI reconciliation gate over journaled "
             "campaigns")
    p.add_argument("--suite-size", type=int, default=6,
                   help="AVP testcases to trace (default 6, the campaign "
                        "default)")
    p.add_argument("--suite-seed", type=int, default=2008,
                   help="suite seed to trace (default 2008)")
    p.add_argument("--settle-cycles", type=int, default=2000,
                   help="post-quiescence cycles to keep tracing "
                        "(default 2000, covering the drain window)")
    p.add_argument("--load", metavar="PATH",
                   help="reuse a previously written sidecar instead of "
                        "re-extracting the graph")
    p.add_argument("--journal", metavar="PATH", action="append",
                   default=[],
                   help="reconcile this campaign journal against the "
                        "static analysis (repeatable; exit 1 on any "
                        "gate violation)")
    p.add_argument("--out", metavar="PATH",
                   help="write the graph+bounds sidecar JSON here")
    p.add_argument("--html", metavar="PATH",
                   help="write the self-contained HTML cone browser here")
    p.add_argument("--db", metavar="PATH",
                   help="also ingest the sidecar into this warehouse")
    p.add_argument("--json", action="store_true",
                   help="emit bounds (and reconcile verdict) as JSON")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("worker",
                       help="join a distributed campaign as a remote "
                            "shard worker")
    p.add_argument("--connect", metavar="HOST:PORT", required=True,
                   help="the coordinator's --listen (or serve worker-"
                        "port) endpoint")
    p.add_argument("--name", default="",
                   help="worker name in coordinator logs (default: "
                        "hostname-pid)")
    p.add_argument("--campaigns", type=int, default=1,
                   help="serve this many campaigns then exit; 0 keeps "
                        "reconnecting forever (default 1)")
    p.add_argument("--connect-attempts", type=int, default=10,
                   help="connect retries (capped exponential backoff) "
                        "before giving up; 0 retries forever")
    p.add_argument("--quiet", action="store_true",
                   help="suppress narration")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("serve",
                       help="run the campaign queue service "
                            "(submit/status/cancel + worker port)")
    p.add_argument("--spool", metavar="DIR", required=True,
                   help="spool directory for campaign specs and "
                        "journals (created if missing)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--control-port", type=int, default=2008,
                   help="port for submit/status/cancel clients "
                        "(default 2008; 0 picks a free port)")
    p.add_argument("--worker-port", type=int, default=0,
                   help="port shard workers join (default: pick a free "
                        "port and print it)")
    p.add_argument("--local-workers", type=int, default=0,
                   help="in-process pool size for work no remote "
                        "worker picks up (default 0 = serial)")
    p.add_argument("--lease-items", type=int, default=8)
    p.add_argument("--worker-wait", type=float, default=5.0,
                   help="seconds without remote workers before a "
                        "campaign falls back in-process (default 5)")
    p.add_argument("--min-workers", type=int, default=0)
    p.add_argument("--metrics", metavar="PATH",
                   help="write a Prometheus metrics snapshot on exit")
    p.add_argument("--warehouse", metavar="PATH", default=None,
                   help="warehouse database completed campaigns are "
                        "auto-ingested into (default: warehouse.sqlite "
                        "inside the spool)")
    p.add_argument("--no-warehouse", action="store_true",
                   help="disable auto-ingest of completed campaigns")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit",
                       help="queue a campaign on a running serve "
                            "instance")
    _add_common(p)
    p.add_argument("--server", metavar="HOST:PORT", default="127.0.0.1:2008")
    p.add_argument("--flips", type=int, default=500)
    p.add_argument("--raw", action="store_true")
    p.add_argument("--sticky", action="store_true")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status",
                       help="list a serve instance's campaigns, or "
                            "(--journal) one campaign's progress and "
                            "statistical convergence")
    p.add_argument("--server", metavar="HOST:PORT", default="127.0.0.1:2008")
    p.add_argument("--id", default=None, help="show one campaign only")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="offline mode: report this journal's progress "
                        "and per-unit Wilson-interval convergence "
                        "instead of asking a server")
    p.add_argument("--target-width", type=float, default=0.02,
                   help="full CI width every estimate should reach "
                        "(default 0.02 = ±1%%)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("cancel", help="cancel a queued or running campaign")
    p.add_argument("id", help="campaign id (see `repro-sfi status`)")
    p.add_argument("--server", metavar="HOST:PORT", default="127.0.0.1:2008")
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser("journal", help="offline journal tooling")
    journal_sub = p.add_subparsers(dest="journal_command", required=True)
    p = journal_sub.add_parser(
        "verify",
        help="integrity-check a campaign journal: torn tail, duplicate "
             "records, fencing-token regressions (exit 1 on corruption)")
    p.add_argument("path", help="journal file to verify")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_journal)

    p = sub.add_parser("monitor",
                       help="live view of a running campaign: tail its "
                            "journal, or --connect to a telemetry-"
                            "enabled coordinator for the fleet view")
    p.add_argument("--journal", metavar="PATH",
                   help="the campaign's --journal file to tail")
    p.add_argument("--connect", metavar="HOST:PORT", default=None,
                   help="join a coordinator started with --telemetry as "
                        "a read-only monitor (streamed worker metrics, "
                        "fleet totals, live convergence)")
    p.add_argument("--metrics", metavar="PATH",
                   help="also show headline series from this metrics "
                        "snapshot (Prometheus textfile or JSONL)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between updates (default 2)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit instead of following")
    p.add_argument("--max-updates", type=int, default=None,
                   help="stop after this many frames (default: until "
                        "the campaign completes)")
    p.add_argument("--target-width", type=float, default=0.02,
                   help="convergence target: full CI width every "
                        "estimate should reach (default 0.02 = ±1%%)")
    p.add_argument("--no-convergence", action="store_true",
                   help="skip the per-unit convergence table")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("stats",
                       help="render a finished run's metrics snapshot")
    p.add_argument("--metrics", metavar="PATH", required=True,
                   help="metrics snapshot (Prometheus textfile or JSONL)")
    p.add_argument("--json", action="store_true",
                   help="emit the raw snapshot as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("ingest",
                       help="load campaign journals into the result "
                            "warehouse (idempotent; --follow tails a "
                            "live campaign)")
    p.add_argument("journal", nargs="+",
                   help="campaign journal file(s) to ingest")
    p.add_argument("--db", metavar="PATH", default="warehouse.sqlite",
                   help="warehouse SQLite file (default warehouse.sqlite; "
                        "created if missing)")
    p.add_argument("--name", default=None,
                   help="warehouse identity for the campaign (default: "
                        "the journal's resolved path; single journal only)")
    p.add_argument("--provenance", metavar="PATH", default=None,
                   help="provenance JSONL sidecar to join (default: "
                        "<journal>.provenance when present)")
    p.add_argument("--no-leases", action="store_true",
                   help="skip the .leases sidecar")
    p.add_argument("--follow", action="store_true",
                   help="stream: poll the journal by byte offset until "
                        "the campaign completes")
    p.add_argument("--interval", type=float, default=1.0,
                   help="--follow poll interval in seconds (default 1)")
    p.add_argument("--max-polls", type=int, default=None,
                   help="stop --follow after this many polls")
    p.add_argument("--metrics", metavar="PATH",
                   help="write ingest metrics (sfi_ingest_*) snapshot")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("query",
                       help="aggregate questions over the warehouse "
                            "(per-unit outcomes, SER trend, latency "
                            "percentiles, fast-path, lease health)")
    p.add_argument("what", choices=("campaigns", "units", "ser", "latency",
                                    "fastpath", "leases", "structural",
                                    "convergence", "spans", "plans"),
                   help="which question to answer ('convergence': Wilson "
                        "CI widths and trials-to-target; 'spans': phase "
                        "totals, or the critical path with --campaign)")
    p.add_argument("--db", metavar="PATH", default="warehouse.sqlite")
    p.add_argument("--campaign", default=None,
                   help="restrict units/latency/convergence/spans to "
                        "one campaign (warehouse name)")
    p.add_argument("--target-width", type=float, default=0.02,
                   help="convergence target: full CI width every "
                        "estimate should reach (default 0.02 = ±1%%)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("report",
                       help="render the warehouse as a self-contained "
                            "static HTML dashboard (no external fetches)")
    p.add_argument("--db", metavar="PATH", default="warehouse.sqlite")
    p.add_argument("--out", metavar="PATH", default="sfi-report.html",
                   help="output HTML file (default sfi-report.html)")
    p.add_argument("--title", default="SFI result warehouse")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; exit
        # quietly with the conventional SIGPIPE status instead of a
        # traceback.  Detach stdout so interpreter shutdown does not
        # raise again while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":
    sys.exit(main())
