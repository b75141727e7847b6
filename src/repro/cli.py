"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

* ``list``                              -- workloads and configurations
* ``run WORKLOAD CONFIG``               -- one simulation, full stats
* ``sweep WORKLOAD``                    -- all configs for one workload
* ``table 1|2``                         -- regenerate a paper table
* ``figure 5|7|8|9|10|11``              -- regenerate a paper figure
* ``report``                            -- the full paper-vs-measured report
* ``store ls|clear``                    -- inspect the persistent store
* ``overhead``                          -- §7.5 hardware overhead
* ``chaos``                             -- fault-rate degradation sweep
* ``lint [PATHS...]``                   -- static determinism/protocol analyzer
* ``explore WORKLOAD``                  -- design-space search over
  SystemConfig knobs (seeded agents, JSONL trajectories, ``--resume``,
  ``--plot`` best-so-far curves; see docs/design-space.md)
* ``serve``                             -- simulation-as-a-service HTTP
  daemon (request coalescing, shard workers, rate limits; see
  docs/serving.md)
* ``loadtest``                          -- seeded traffic harness
  against a running ``serve`` daemon

Common flags: ``--scale ci|bench|paper``, ``--workloads A,B,...``,
``--store DIR`` / ``--no-store`` (persistent result cache, default from
``$REPRO_STORE``), ``--parallel N`` (process-pool sweeps), ``--sms N``,
``--nsu-mhz F``, ``--ro-cache BYTES``,
``--target-policy first|optimal|coda``, ``--backend hmc|cxl`` (memory
substrate, see docs/backends.md).
``run`` additionally accepts ``--stats``, ``--trace``,
``--metrics OUT.jsonl`` (see docs/observability.md) and
``--faults SCENARIO --fault-rate R --fault-seed S`` (deterministic fault
injection, see docs/fault-injection.md); ``chaos`` sweeps a scenario over
fault rates x configurations and prints a degradation table.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import api
from repro.analysis import figures as F
from repro.analysis import tables as T
from repro.analysis.plots import bar_chart, line_plot
from repro.config import BACKEND_NAMES, TARGET_POLICIES, paper_config
from repro.energy import compute_energy
from repro.sim.runner import config_variants, make_config
from repro.workloads import workload_names

# The commands below are thin adapters over the repro.api facade: they
# parse flags, build RunRequest/make_runner arguments, and print.  All
# resolution logic (config overrides, store selection, fault plans,
# recovery policies) lives in repro/api.py.


def _config_kwargs(args) -> dict:
    """The base-config override flags, as api.base_config keywords."""
    return {"sms": args.sms, "nsu_mhz": args.nsu_mhz,
            "ro_cache": args.ro_cache, "target_policy": args.target_policy,
            "backend": args.backend}


def _base_config(args):
    return api.base_config(**_config_kwargs(args))


def _recovery_override(args):
    """A RecoveryPolicy built from the --ack-timeout/--mshr-timeout/
    --max-retries/--adaptive-recovery flags (None when untouched)."""
    if not (getattr(args, "ack_timeout", None)
            or getattr(args, "mshr_timeout", None)
            or getattr(args, "max_retries", None) is not None
            or getattr(args, "adaptive_recovery", False)):
        return None
    from repro.faults import RecoveryPolicy
    policy = RecoveryPolicy(
        ack_timeout=args.ack_timeout or 3000,
        max_retries=(args.max_retries if args.max_retries is not None
                     else 3),
        adaptive=bool(args.adaptive_recovery))
    if args.mshr_timeout:
        policy = policy.with_site_timeout("mshr", args.mshr_timeout)
    return policy


def _print_store_stats(runner: F.ExperimentRunner) -> None:
    """The cache-hit accounting line printed after every sweep command."""
    s = runner.stats
    where = f" ({runner.store.root})" if runner.store is not None else ""
    print(f"[store] simulations: {s.sim_runs}, store hits: {s.store_hits}, "
          f"memory hits: {s.memory_hits}{where}")


def _runner(args, **overrides) -> F.ExperimentRunner:
    workloads = (args.workloads.split(",") if args.workloads
                 else workload_names())
    kwargs = dict(scale=args.scale, workloads=workloads, verbose=True,
                  parallel=args.parallel or 1, store=args.store,
                  use_store=not args.no_store, **_config_kwargs(args))
    kwargs.update(overrides)
    return api.make_runner(**kwargs)


def cmd_list(args) -> int:
    print("workloads:     ", ", ".join(workload_names()))
    print("configurations:", ", ".join(sorted(
        config_variants(paper_config()))))
    print("scales:         ci, bench, paper")
    return 0


def cmd_run(args) -> int:
    registry = None
    if args.metrics:
        from repro.sim.metrics import MetricsRegistry

        # Fail before the simulation, not after it.
        try:
            open(args.metrics, "w").close()
        except OSError as e:
            print(f"cannot write metrics to {args.metrics}: {e}",
                  file=sys.stderr)
            return 2
        registry = MetricsRegistry()
    try:
        req = api.RunRequest(
            workload=args.workload, config=args.config, scale=args.scale,
            faults=args.faults or None, fault_rate=args.fault_rate,
            fault_seed=args.fault_seed, recovery=_recovery_override(args),
            store=args.store,
            # --stats needs a live system; force a fresh simulation.
            use_store=not (args.no_store or args.stats),
            metrics=registry, trace=args.trace, audit=args.audit,
            **_config_kwargs(args))
        out = api.run(req)
    except (KeyError, ValueError, OSError) as e:
        print(str(e.args[0]) if e.args else str(e), file=sys.stderr)
        return 2
    plan = req.resolved_plan()
    if out.outcome == "audit-fail":
        print("AUDIT FAILED:", file=sys.stderr)
        for msg in out.audit_failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    if out.outcome == "fatal":
        print(f"FATAL: {out.error}", file=sys.stderr)
        if plan is not None:
            inj = out.system.fault_injector
            print(f"  plan {plan.name} seed {plan.seed}: "
                  f"{inj.total_fired} faults fired {inj.fired}",
                  file=sys.stderr)
        return 1
    r = out.result
    if out.from_store:
        print(f"[store] hit {out.store_key[:12]}... ({out.store_root})")
    else:
        if args.stats:
            from repro.analysis.statsdump import dump_stats

            print(dump_stats(out.system, r))
        trace = out.trace
        if trace is not None and trace.instances():
            print(trace.timeline(trace.instances()[0]))
            print("\nmessage summary:", trace.summary())
            if trace.truncated:
                print(f"(trace truncated: {trace.dropped} events dropped "
                      f"past the {trace.max_events}-event bound)")
        if registry is not None:
            n = registry.export_jsonl(args.metrics)
            print(f"wrote {n} metrics records to {args.metrics}")
    print(f"{args.workload} / {args.config} @ {args.scale}")
    print(f"  cycles            {r.cycles:>12,d}")
    print(f"  instructions      {r.instructions:>12,d}   (IPC {r.ipc:.2f})")
    print(f"  NSU instructions  {r.nsu_instructions:>12,d}")
    print(f"  warps completed   {r.warps_completed:>12,d}")
    print(f"  offloads          {r.offloads_issued:>12,d} "
          f"of {r.blocks_total:,d} block instances "
          f"({r.offloads_suppressed} suppressed)")
    for k, v in r.stalls.as_dict().items():
        print(f"  stall {k:<14s} {v:>12,d}")
    for k, v in r.traffic.as_dict().items():
        print(f"  bytes {k:<14s} {v:>12,d}")
    print(f"  DRAM activations  {r.dram_activations:>12,d}")
    if plan is not None:
        fx = r.extra.get("faults", {})
        print(f"  faults fired      {fx.get('total_fired', 0):>12,d}   "
              f"(plan {plan.name}, seed {plan.seed})")
        rec = {k: v for k, v in r.extra.get("recovery", {}).items() if v}
        if rec:
            print("  recovery          " + "  ".join(
                f"{k}={v}" for k, v in sorted(rec.items())))
    e = compute_energy(r, make_config(args.config, req.resolved_config()))
    for k, v in e.as_dict().items():
        print(f"  energy {k:<16s} {v / 1e6:>12.3f} mJ")
    return 0


def cmd_sweep(args) -> int:
    runner = _runner(args, audit=args.audit)
    out = api.sweep(args.workload, runner=runner)
    print(bar_chart(out.speedups,
                    title=f"{args.workload}: speedup over Baseline",
                    baseline=1.0))
    _print_store_stats(runner)
    if out.audit_failures:
        for config, msgs in sorted(out.audit_failures.items()):
            print(f"AUDIT FAILED for {config}: {'; '.join(msgs)}",
                  file=sys.stderr)
        return 1
    return 0


def cmd_store(args) -> int:
    store = api.resolve_store(args.store, use_store=not args.no_store)
    if store is None:
        print("no store configured: pass --store DIR or set $REPRO_STORE",
              file=sys.stderr)
        return 2
    if args.action == "ls":
        entries = store.ls()
        for e in entries:
            if e.get("corrupt"):
                print(f"{e['key'][:16]}  <corrupt entry>")
                continue
            print(f"{e['key'][:16]}  {e.get('workload', '?'):<8s} "
                  f"{e.get('config', '?'):<18s} scale={e.get('scale', '?'):<6} "
                  f"{e['size_bytes']:>8,d} B")
        print(f"{len(entries)} entries in {store.root}")
    elif args.action == "clear":
        n = store.clear()
        print(f"removed {n} entries from {store.root}")
    return 0


def cmd_table(args) -> int:
    if args.number == 1:
        print(T.format_table(T.table1(), "Table 1: Evaluated workloads"))
    elif args.number == 2:
        print(T.format_table(T.table2(_base_config(args)),
                             "Table 2: System configuration"))
    else:
        print("tables: 1, 2", file=sys.stderr)
        return 2
    return 0


def cmd_overhead(args) -> int:
    hw = T.hardware_overhead(_base_config(args))
    print(f"per-SM NDP buffer storage: {hw['per_sm_kb']:.2f} KB")
    print(f"share of on-chip storage : {hw['overhead_fraction']:.1%}")
    return 0


def cmd_figure(args) -> int:
    n = args.number
    if n == 5:
        d = F.figure5()
        xs = d["n_accesses"].tolist()
        print(line_plot(xs, {
            "first-HMC": d["first_policy"].tolist(),
            "optimal": d["optimal"].tolist(),
        }, title="Figure 5: normalized traffic vs #accesses"))
        print(f"max first/optimal ratio: {d['ratio'].max():.3f}")
        return 0

    runner = _runner(args)
    if n == 7:
        d = F.figure7(runner)
        for w, row in d.items():
            print(bar_chart(row, title=w, baseline=1.0, width=30))
    elif n == 8:
        d = F.figure8(runner)
        for w, configs in d.items():
            print(f"{w}:")
            for c, b in configs.items():
                total = sum(b.values())
                print(f"  {c:<18s} total {total:5.2f}  " + "  ".join(
                    f"{k}={v:.2f}" for k, v in b.items()))
    elif n == 9:
        d = F.figure9(runner)
        for w, row in d.items():
            print(bar_chart(row, title=w, baseline=1.0, width=30))
    elif n == 10:
        d = F.figure10(runner)
        for w, configs in d.items():
            print(f"{w}:")
            for c, comp in configs.items():
                print(f"  {c:<18s} " + "  ".join(
                    f"{k}={v:.3f}" for k, v in comp.items()))
    elif n == 11:
        d = F.figure11(runner)
        print(bar_chart({w: v["icache_utilization"] for w, v in d.items()},
                        title="NSU I-cache utilization", fmt="{:.1%}"))
        print(bar_chart({w: v["warp_occupancy"] for w, v in d.items()},
                        title="NSU warp occupancy", fmt="{:.1%}"))
    else:
        print("figures: 5, 7, 8, 9, 10, 11", file=sys.stderr)
        return 2
    _print_store_stats(runner)
    return 0


def cmd_chaos(args) -> int:
    """Sweep a fault scenario's rate over a workload/config grid and print
    a degradation table (outcome + slowdown per cell)."""
    try:
        rates = [float(x) for x in args.rates.split(",")]
    except ValueError:
        print(f"bad --rates {args.rates!r}: expected comma-separated floats",
              file=sys.stderr)
        return 2
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    workloads = (args.workloads.split(",") if args.workloads else ["VADD"])
    # Chaos grids are embarrassingly parallel; default to the hardened
    # pool unless --parallel pins a width explicitly.
    parallel = args.parallel or min(8, max(1, (os.cpu_count() or 2) - 1))
    runner = _runner(args, verbose=False, parallel=parallel,
                     max_cycles=args.max_cycles, workloads=workloads,
                     audit=args.audit)
    try:
        report = api.chaos(scenario=args.scenario, rates=rates,
                           configs=configs, workloads=workloads,
                           fault_seed=args.fault_seed,
                           recovery=_recovery_override(args), runner=runner)
    except KeyError as e:
        print(str(e.args[0]) if e.args else str(e), file=sys.stderr)
        return 2

    # Cell labels run up to "recovered x9.99 e9.99" (21 chars + outcome).
    width = max(max(len(c) for c in configs), 22) + 2
    for w in workloads:
        print(f"\n{w} / {args.scenario} (seed {args.fault_seed}, "
              f"scale {args.scale})")
        print("  rate      " + "".join(f"{c:>{width}s}" for c in configs))
        for rate in rates:
            cells = [report.cells[(w, c, rate)].label() for c in configs]
            print(f"  {rate:<8g}  " + "".join(
                f"{cell:>{width}s}" for cell in cells))
    s = report.stats
    print(f"\n[chaos] simulations: {s.sim_runs}, store hits: {s.store_hits}"
          + (f" ({report.store_root})" if report.store_root else ""))
    if report.ref_audit_failures:
        for cell, msgs in sorted(report.ref_audit_failures.items()):
            print(f"AUDIT FAILED for reference {cell}: {'; '.join(msgs)}",
                  file=sys.stderr)
        return 1
    return 0


def cmd_lint(args) -> int:
    """Run the repro.lint static analyzer (docs/static-analysis.md)."""
    from repro.lint import render_json, render_pretty

    rules = ([r.strip() for r in args.rules.split(",") if r.strip()]
             if args.rules is not None else None)
    try:
        report = api.lint(args.paths or ("src/repro",), rules=rules)
    except ValueError as e:  # a bad path or an unknown rule id
        print(e, file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report.findings, report.files))
    else:
        print(render_pretty(report.findings, report.files))
    return report.exit_code


def cmd_explore(args) -> int:
    """Search the NDP design space (docs/design-space.md)."""
    from repro.explore.report import format_best, format_generations

    registry = None
    if args.metrics:
        from repro.sim.metrics import MetricsRegistry

        try:
            open(args.metrics, "w").close()
        except OSError as e:
            print(f"cannot write metrics to {args.metrics}: {e}",
                  file=sys.stderr)
            return 2
        registry = MetricsRegistry()
    try:
        out = api.explore(
            workload=args.workload, space=args.space, agent=args.agent,
            generations=args.generations, population=args.population,
            seed=args.seed, fitness=args.fitness, top_k=args.top_k,
            out=args.out, resume=args.resume, base=_base_config(args),
            scale=args.scale, store=args.store,
            use_store=not args.no_store, parallel=args.parallel or 1,
            max_cycles=args.max_cycles, metrics=registry, progress=print)
    except (KeyError, ValueError, OSError) as e:
        print(str(e.args[0]) if e.args else str(e), file=sys.stderr)
        return 2
    print()
    print(format_generations(out))
    print()
    print(format_best(out))
    if args.plot:
        from repro.analysis.plots import best_so_far_plot
        from repro.sim.metrics import read_jsonl

        if not out.trajectory_path:
            print("--plot needs a trajectory: pass --out DIR",
                  file=sys.stderr)
            return 2
        print()
        print(best_so_far_plot(read_jsonl(out.trajectory_path)))
    if out.best_path:
        print(f"wrote {out.best_path}")
    if out.trajectory_path:
        print(f"wrote {out.trajectory_path}")
    if registry is not None:
        n = registry.export_jsonl(args.metrics)
        print(f"wrote {n} metrics records to {args.metrics}")
    s = out.stats
    where = f" ({out.store_root})" if out.store_root else ""
    print(f"[explore] evaluated: {s.evaluated}, "
          f"store hits: {s.cache_hits} ({s.hit_pct:.0f}%), "
          f"fresh: {s.fresh}, replayed: {s.replayed}, "
          f"rejected: {s.rejected}, revisits: {s.revisits}{where}")
    if out.fatal_points:
        print(f"note: {len(out.fatal_points)} candidate(s) deadlocked and "
              "were excluded from best_configs", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """Run the simulation service daemon (docs/serving.md)."""
    try:
        api.serve(host=args.host, port=args.port, shards=args.shards,
                  job_timeout=args.job_timeout,
                  request_timeout=args.request_timeout,
                  queue_depth=args.queue_depth, rate=args.rate,
                  burst=args.burst, hot_set=args.hot_set,
                  store=args.store, use_store=not args.no_store,
                  metrics_out=args.metrics_out, sanitize=args.sanitize,
                  progress=print)
    except OSError as e:
        print(str(e.args[0]) if e.args else str(e), file=sys.stderr)
        return 2
    return 0


def cmd_loadtest(args) -> int:
    """Hammer a running serve daemon and print the traffic report."""
    try:
        report = api.loadtest(
            url=args.url, clients=args.clients, requests=args.requests,
            duplicates=args.duplicates, seed=args.seed,
            workload=args.workload, config=args.config, scale=args.scale,
            max_cycles=args.max_cycles, mix=args.mix, out=args.out,
            sanitize=args.sanitize, progress=print)
    except ValueError as e:
        print(f"loadtest: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"loadtest failed against {args.url}: "
              f"{e.args[0] if e.args else e}", file=sys.stderr)
        return 2
    lat = report["latency_ms"]
    print(f"requests : {report['completed']}/{report['total_requests']} ok"
          + (f", rejected {report['rejected']}" if report["rejected"]
             else ""))
    print(f"coalesce : {report['coalesce_hits']} hits "
          f"(expected duplicates {report['expected_duplicates']})")
    print(f"cells    : {report['simulated_cells']} simulated across "
          f"{report['distinct_cells']} distinct run cells")
    print(f"sources  : " + ", ".join(
        f"{k}={v}" for k, v in sorted(report["sources"].items())))
    print(f"latency  : p50 {lat['p50']:.0f} ms, p90 {lat['p90']:.0f} ms, "
          f"p99 {lat['p99']:.0f} ms (mean {lat['mean']:.0f}) served")
    print(f"rate     : {report['throughput_rps']:.1f} req/s over "
          f"{report['wall_seconds']:.1f} s")
    if args.out:
        print(f"wrote {args.out}")
    if report["completed"] != report["total_requests"] and not args.expect_rejections:
        print("FAIL: not every request completed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    runner = _runner(args)
    text = generate_report(runner)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    _print_store_stats(runner)
    return 0


def _add_recovery_flags(sub) -> None:
    """Recovery-policy overrides shared by ``run`` and ``chaos`` (see
    docs/fault-injection.md -- they only matter with faults armed)."""
    sub.add_argument("--ack-timeout", type=int, metavar="CYCLES",
                     help="offload ACK watchdog timeout (default 3000)")
    sub.add_argument("--mshr-timeout", type=int, metavar="CYCLES",
                     help="baseline fill watchdog timeout "
                          "(default: the ACK timeout)")
    sub.add_argument("--max-retries", type=int, metavar="N",
                     help="offload replays before inline fallback "
                          "(default 3)")
    sub.add_argument("--adaptive-recovery", action="store_true",
                     help="derive watchdog deadlines from an EWMA of "
                          "observed latencies instead of static timeouts")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Toward Standardized Near-Data "
                    "Processing with Unrestricted Data Placement for GPUs' "
                    "(SC'17)")
    p.add_argument("--scale", default="bench",
                   choices=["ci", "bench", "paper"])
    p.add_argument("--workloads", help="comma-separated subset")
    p.add_argument("--store", metavar="DIR",
                   help="persistent result store directory "
                        "(default: $REPRO_STORE)")
    p.add_argument("--no-store", action="store_true",
                   help="ignore $REPRO_STORE and always simulate")
    p.add_argument("--parallel", type=int, metavar="N",
                   help="worker processes for sweep/figure/report grids")
    p.add_argument("--sms", type=int, help="override SM count")
    p.add_argument("--nsu-mhz", type=float, help="override NSU clock")
    p.add_argument("--ro-cache", type=int,
                   help="NSU read-only cache bytes (extension)")
    p.add_argument("--target-policy", choices=TARGET_POLICIES)
    p.add_argument("--backend", choices=BACKEND_NAMES,
                   help="memory substrate (default hmc -- the paper's "
                        "stacks; 'cxl' models memory expanders, see "
                        "docs/backends.md)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list").set_defaults(fn=cmd_list)

    pr = sub.add_parser("run")
    pr.add_argument("workload")
    pr.add_argument("config")
    pr.add_argument("--stats", action="store_true",
                    help="dump hierarchical component statistics")
    pr.add_argument("--trace", action="store_true",
                    help="print a Figure 6-style message timeline")
    pr.add_argument("--metrics", metavar="OUT.jsonl",
                    help="export a JSONL metrics stream (heartbeats, "
                         "stall attribution, packet-kind counters)")
    pr.add_argument("--faults", metavar="SCENARIO",
                    help="arm a named fault scenario (see docs/"
                         "fault-injection.md); skips the result store")
    pr.add_argument("--fault-rate", type=float, default=0.01,
                    help="per-event fault probability (default 0.01)")
    pr.add_argument("--fault-seed", type=int, default=0,
                    help="fault plan seed (deterministic per seed)")
    pr.add_argument("--audit", action="store_true",
                    help="run invariant audits after the simulation and "
                         "fail on any violation")
    _add_recovery_flags(pr)
    pr.set_defaults(fn=cmd_run)

    ps = sub.add_parser("sweep")
    ps.add_argument("workload")
    ps.add_argument("--audit", action="store_true",
                    help="audit every swept cell; fail on any violation")
    ps.set_defaults(fn=cmd_sweep)

    pt = sub.add_parser("table")
    pt.add_argument("number", type=int)
    pt.set_defaults(fn=cmd_table)

    pf = sub.add_parser("figure")
    pf.add_argument("number", type=int)
    pf.set_defaults(fn=cmd_figure)

    pst = sub.add_parser("store")
    pst.add_argument("action", choices=["ls", "clear"])
    pst.set_defaults(fn=cmd_store)

    sub.add_parser("overhead").set_defaults(fn=cmd_overhead)

    pc = sub.add_parser("chaos")
    pc.add_argument("--scenario", default="rdf-drop",
                    help="named fault scenario (default rdf-drop)")
    pc.add_argument("--rates", default="0,0.01,0.05",
                    help="comma-separated fault rates (default 0,0.01,0.05)")
    pc.add_argument("--configs", default="NDP(Dyn),NDP(Dyn)_Cache",
                    help="comma-separated configuration names")
    pc.add_argument("--fault-seed", type=int, default=0,
                    help="fault plan seed (deterministic per seed)")
    pc.add_argument("--max-cycles", type=int, default=20_000_000)
    pc.add_argument("--audit", action="store_true",
                    help="audit the unarmed reference cells; fail on any "
                         "violation")
    _add_recovery_flags(pc)
    pc.set_defaults(fn=cmd_chaos)

    pl = sub.add_parser("lint")
    pl.add_argument("paths", nargs="*",
                    help="files or directories (default: src/repro)")
    pl.add_argument("--format", choices=["pretty", "json"],
                    default="pretty")
    pl.add_argument("--rules", metavar="IDS",
                    help="comma-separated rule ids to run (default: all)")
    pl.set_defaults(fn=cmd_lint)

    px = sub.add_parser("explore")
    px.add_argument("workload")
    px.add_argument("--space", default="default",
                    help="search space: 'default' (8 knobs, 5832 points), "
                         "'backends' (substrate x placement comparison) "
                         "or 'tiny' (CI smoke)")
    px.add_argument("--agent", default="hillclimb",
                    choices=["random", "hillclimb", "genetic"],
                    help="search agent (default hillclimb -- the paper's "
                         "Algorithm 1, generalized)")
    px.add_argument("--generations", type=int, default=5,
                    help="propose/evaluate rounds (default 5)")
    px.add_argument("--population", type=int, default=8,
                    help="candidates proposed per generation (default 8)")
    px.add_argument("--seed", type=int, default=0,
                    help="agent RNG seed; a fixed seed reproduces the "
                         "exact trajectory and best_configs.json")
    px.add_argument("--fitness", default="cycles",
                    choices=["cycles", "energy", "edp"],
                    help="candidate merit, lower is better (default cycles)")
    px.add_argument("--top-k", type=int, default=5,
                    help="entries kept in best_configs.json (default 5)")
    px.add_argument("--out", default="explore-out", metavar="DIR",
                    help="directory for trajectory.jsonl and "
                         "best_configs.json (default explore-out)")
    px.add_argument("--resume", metavar="TRAJECTORY",
                    help="replay a prior trajectory.jsonl (truncation "
                         "tolerated) and continue it bit-identically")
    px.add_argument("--max-cycles", type=int, default=20_000_000)
    px.add_argument("--metrics", metavar="OUT.jsonl",
                    help="export explore.* counters as a JSONL metrics "
                         "stream")
    px.add_argument("--plot", action="store_true",
                    help="render the best-so-far fitness curve from the "
                         "written trajectory.jsonl")
    px.set_defaults(fn=cmd_explore)

    pv = sub.add_parser("serve")
    pv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    pv.add_argument("--port", type=int, default=8787,
                    help="bind port; 0 picks an ephemeral one "
                         "(default 8787)")
    pv.add_argument("--shards", type=int, default=2,
                    help="shard workers; each pulls its next job from "
                         "the fair queue when free (default 2)")
    pv.add_argument("--job-timeout", type=float, default=900.0,
                    help="per-job worker deadline in seconds "
                         "(default 900)")
    pv.add_argument("--request-timeout", type=float, default=900.0,
                    help="per-request wait on the shared job future "
                         "(default 900)")
    pv.add_argument("--queue-depth", type=int, default=256,
                    help="bound on jobs waiting for a free shard; excess "
                         "requests get a 503 (default 256)")
    pv.add_argument("--rate", type=float, default=0.0,
                    help="per-client token-bucket refill, requests/sec "
                         "(default 0 = unlimited)")
    pv.add_argument("--burst", type=float, default=16.0,
                    help="token-bucket depth per client (default 16)")
    pv.add_argument("--hot-set", type=int, default=64,
                    help="in-memory LRU of recent run responses; 0 "
                         "disables (default 64)")
    pv.add_argument("--metrics-out", metavar="OUT.jsonl",
                    help="export serve.* counters as a JSONL metrics "
                         "stream on shutdown")
    pv.add_argument("--sanitize", action="store_true",
                    help="arm the runtime lock sanitizer (same as "
                         "REPRO_SANITIZE=1): guarded-by assertions, "
                         "lock-order checks, sanitize.* metrics")
    pv.set_defaults(fn=cmd_serve)

    plt = sub.add_parser("loadtest")
    plt.add_argument("--url", default="http://127.0.0.1:8787",
                     help="daemon base URL (default http://127.0.0.1:8787)")
    plt.add_argument("--clients", type=int, default=8,
                     help="concurrent clients (default 8)")
    plt.add_argument("--requests", type=int, default=4,
                     help="requests per client (default 4)")
    plt.add_argument("--duplicates", type=float, default=0.5,
                     help="fraction of each client's requests aimed at "
                          "the shared duplicate cells (default 0.5)")
    plt.add_argument("--seed", type=int, default=0,
                     help="schedule seed; also shifts the cell "
                          "identities (default 0)")
    plt.add_argument("--workload", default="VADD",
                     help="run-cell workload (default VADD)")
    plt.add_argument("--config", default="Baseline",
                     help="run-cell configuration (default Baseline)")
    plt.add_argument("--max-cycles", type=int, default=2_000_000,
                     help="base max_cycles; cells are distinguished by "
                          "small offsets to it (default 2000000)")
    plt.add_argument("--mix", default="run",
                     help="comma-separated job kinds to mix in "
                          "(run,sweep,chaos,explore; default run)")
    plt.add_argument("--out", metavar="REPORT.json",
                     help="write the full traffic report as JSON")
    plt.add_argument("--expect-rejections", action="store_true",
                     help="exit 0 even when some requests were rejected "
                          "(rate-limit probing)")
    plt.add_argument("--sanitize", action="store_true",
                     help="arm the runtime lock sanitizer in this process "
                          "(checks an in-process daemon; same as "
                          "REPRO_SANITIZE=1)")
    plt.set_defaults(fn=cmd_loadtest)

    pre = sub.add_parser("report")
    pre.add_argument("-o", "--output", help="write markdown to a file")
    pre.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
