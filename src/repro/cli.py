"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — print the machine model (Tables I & II).
* ``detect`` — run a detection mechanism on an NPB kernel, print the
  communication heatmap and the derived mapping.
* ``reproduce`` — run the paper's full protocol on chosen benchmarks and
  print (or write) the reproduction report.
* ``record`` / ``replay`` — save a workload's trace to .npz / run a saved
  trace through the simulator.
* ``ablate`` — run one of the design-choice sweeps (sampling, HM period,
  TLB geometry, page size, L2 TLB, mapper comparison) and print the table.
* ``run-spec`` — execute a declarative experiment spec
  (``benchmarks/specs/*.toml``) through the memoizing grid runner and
  print or write its rendered artifacts (see
  :mod:`repro.experiments.specs`).
* ``lint`` — run the RPL static-analysis rules (determinism, engine
  parity; see :mod:`repro.analysis`).
* ``serve`` — run the mapping-as-a-service HTTP front end
  (``POST /map``, ``GET /healthz``, ``GET /metrics``; see
  :mod:`repro.service`).
* ``route`` — run a sharded cluster: a consistent-hash router
  supervising N ``serve`` shard subprocesses, with cross-shard cache
  replication and per-tenant quotas (see :mod:`repro.cluster`).
* ``trace`` — record a deterministic Chrome-trace JSON (Perfetto /
  ``chrome://tracing`` loadable) of one traced pipeline run; see
  :mod:`repro.obs`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.cli import add_lint_arguments
from repro.analysis.cli import run as run_lint_command
from repro.core.detection import DetectorConfig
from repro.core.hm_detector import HardwareManagedDetector
from repro.core.oracle import OracleDetector, oracle_matrix
from repro.core.sm_detector import SoftwareManagedDetector
from repro.experiments.config import PAPER_BENCHMARKS, ExperimentConfig
from repro.experiments.report import generate_report
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import table1, table2
from repro.machine.simulator import Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown
from repro.mapping.hierarchical import hierarchical_mapping
from repro.tlb.mmu import TLBManagement
from repro.workloads.npb import make_npb_workload
from repro.workloads.trace import TraceWorkload, save_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TLB-based communication detection and thread mapping "
                    "(Cruz/Diener/Navaux, IPDPS 2012 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the machine model (Tables I & II)")

    p = sub.add_parser("detect", help="detect one benchmark's pattern")
    p.add_argument("benchmark", choices=sorted(PAPER_BENCHMARKS))
    p.add_argument("--mechanism", choices=("sm", "hm", "oracle"), default="sm")
    p.add_argument("--scale", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--sample-threshold", type=int, default=6,
                   help="SM: search 1 of every N TLB misses")
    p.add_argument("--scan-period", type=int, default=80_000,
                   help="HM: cycles between TLB scans")

    p = sub.add_parser("reproduce", help="run the paper's protocol")
    p.add_argument("benchmarks", nargs="*", default=[],
                   metavar="BENCH", help="subset (default: all nine)")
    p.add_argument("--scale", type=float, default=0.4)
    p.add_argument("--os-runs", type=int, default=4)
    p.add_argument("--mapped-runs", type=int, default=2)
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--output", type=str, default=None,
                   help="write the Markdown report here instead of stdout")

    p = sub.add_parser("record", help="save a benchmark's trace to .npz")
    p.add_argument("benchmark", choices=sorted(PAPER_BENCHMARKS))
    p.add_argument("path")
    p.add_argument("--scale", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--threads", type=int, default=8)

    p = sub.add_parser("replay", help="simulate a saved trace")
    p.add_argument("path")
    p.add_argument("--mapping", type=str, default=None,
                   help="comma-separated thread->core list (default identity)")

    p = sub.add_parser(
        "lint",
        help="run the RPL static-analysis rules (determinism, engine parity)",
    )
    add_lint_arguments(p)

    p = sub.add_parser(
        "serve",
        help="run the mapping service (POST /map, GET /healthz, GET /metrics)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="listen port (0 = ephemeral; the chosen port is printed)")
    p.add_argument("--workers", type=int, default=max(1, (os.cpu_count() or 2) // 2),
                   help="solver process-pool size (0 = in-process worker thread)")
    p.add_argument("--cache-entries", type=int, default=4096,
                   help="LRU capacity of the result caches")
    p.add_argument("--cache-ttl", type=float, default=300.0,
                   help="seconds a cached result stays valid (<=0 disables expiry)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="max solves dispatched per executor call")
    p.add_argument("--max-pending", type=int, default=256,
                   help="in-flight solve bound before requests get 429")
    p.add_argument("--solve-deadline", type=float, default=30.0,
                   help="per-batch solve deadline in seconds (0 disables)")
    p.add_argument("--trace-sample-every", type=int, default=1,
                   help="keep 1-in-N request spans (deterministic sampling; "
                        "1 records everything)")
    p.add_argument("--trace-step-clock", action="store_true",
                   help="trace on the deterministic step clock instead of "
                        "the monotonic clock (byte-identical GET /trace "
                        "exports; timestamps stop being seconds)")
    p.add_argument("--fault-plan", type=str, default=None, metavar="PLAN.json",
                   help="activate a serialized fault-injection plan "
                        "(chaos smoke testing; see repro.faults)")

    p = sub.add_parser(
        "route",
        help="run a sharded cluster (consistent-hash router over N shards)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8797,
                   help="router listen port (0 = ephemeral; printed at boot)")
    p.add_argument("--shards", type=int, default=2,
                   help="shard subprocesses to spawn (each a `repro serve`)")
    p.add_argument("--vnodes", type=int, default=64,
                   help="virtual nodes per shard on the hash ring")
    p.add_argument("--workers-per-shard", type=int, default=1,
                   help="solver pool size per shard (0 = in-process thread)")
    p.add_argument("--cache-entries", type=int, default=4096,
                   help="LRU capacity of each shard's result caches")
    p.add_argument("--cache-ttl", type=float, default=300.0,
                   help="seconds a cached result stays valid (<=0 disables expiry)")
    p.add_argument("--quota-rate", type=float, default=0.0,
                   help="per-tenant admission rate in req/s (<=0 disables quotas)")
    p.add_argument("--quota-burst", type=float, default=0.0,
                   help="token-bucket depth (0 = one second's worth of tokens)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed anchoring the replication fan-out order")
    p.add_argument("--no-restart", action="store_true",
                   help="do not restart shards that die (chaos experiments)")
    p.add_argument("--trace-sample-every", type=int, default=1,
                   help="keep 1-in-N spans on the router and every shard "
                        "(deterministic sampling; 1 records everything)")
    p.add_argument("--trace-step-clock", action="store_true",
                   help="router and shards trace on the deterministic step "
                        "clock (byte-identical stitched GET /trace exports)")
    p.add_argument("--fault-plan", type=str, default=None, metavar="PLAN.json",
                   help="activate a serialized fault-injection plan "
                        "(router-side sites; see repro.faults)")

    p = sub.add_parser(
        "trace",
        help="record a deterministic Chrome trace of one pipeline run",
    )
    p.add_argument(
        "target",
        choices=sorted(PAPER_BENCHMARKS)
        + sorted(_TRACE_ALIASES)
        + ["serve-request"],
        help="NPB kernel, bench_* alias, or 'serve-request'",
    )
    p.add_argument("--output", type=str, default=None,
                   help="trace file path (default: <target>.trace.json)")
    p.add_argument("--mechanism", choices=("sm", "hm"), default="sm")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--threads", type=int, default=8)

    p = sub.add_parser(
        "run-spec",
        help="execute a declarative experiment spec (benchmarks/specs/)",
    )
    p.add_argument("spec",
                   help="spec TOML path, or a bare spec name resolved "
                        "against benchmarks/specs/")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size for grid cells (default 1)")
    p.add_argument("--cache", type=str, default=None, metavar="DIR",
                   help="result-cache directory (memoizes cells)")
    p.add_argument("--cache-bytes", type=int, default=None, metavar="N",
                   help="LRU byte budget for the cache (default unbounded)")
    p.add_argument("--out", type=str, default=None, metavar="DIR",
                   help="write rendered artifacts here instead of stdout")
    p.add_argument("--set", action="append", default=[], dest="params",
                   metavar="KEY=VALUE",
                   help="runtime param layered over the spec's overrides "
                        "(repeatable), e.g. --set scale=0.1")

    p = sub.add_parser("ablate", help="run one ablation sweep")
    p.add_argument("sweep", choices=("sm-sampling", "hm-period",
                                     "tlb-geometry", "page-size", "l2-tlb",
                                     "mappers"))
    p.add_argument("--benchmark", default=None,
                   help="NPB kernel (default: each sweep's canonical one)")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=2012)

    p = sub.add_parser(
        "obs",
        help="observability tooling: latency attribution, perf ledger",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "attribution",
        help="decompose per-request latency into stage time from a trace",
    )
    q.add_argument("trace",
                   help="Chrome-trace JSON path (a GET /trace export or "
                        "`repro trace` output)")
    q.add_argument("--json", action="store_true",
                   help="emit the attribution document as JSON")

    q = obs_sub.add_parser(
        "append",
        help="append bench result documents to the performance ledger",
    )
    q.add_argument("docs", nargs="+", metavar="BENCH.json",
                   help="bench documents to append, in order")
    q.add_argument("--history", default="BENCH_HISTORY.jsonl",
                   help="ledger path (default: BENCH_HISTORY.jsonl)")

    q = obs_sub.add_parser(
        "regress",
        help="flag candidate bench docs that regressed vs ledger history",
    )
    q.add_argument("--history", default="BENCH_HISTORY.jsonl",
                   help="ledger path (default: BENCH_HISTORY.jsonl)")
    q.add_argument("--candidate", action="append", required=True,
                   dest="candidates", metavar="BENCH.json",
                   help="candidate bench document (repeatable)")
    q.add_argument("--window", type=int, default=5,
                   help="ledger entries of the same kind in the baseline")
    q.add_argument("--tolerance", type=float, default=0.5,
                   help="relative tolerance band (0.5 = +-50%%)")
    q.add_argument("--json", action="store_true",
                   help="emit the regression reports as JSON")
    return parser


def _cmd_info() -> int:
    topo = harpertown()
    print("Machine (paper Figure 3):")
    print(topo.describe())
    print("\nTable I — detection mechanisms:")
    print(table1(num_cores=topo.num_cores))
    print("\nTable II — cache configuration:")
    print(table2(topo))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    topo = harpertown()
    wl = make_npb_workload(args.benchmark, num_threads=args.threads,
                           scale=args.scale, seed=args.seed)
    cfg = DetectorConfig(sm_sample_threshold=args.sample_threshold,
                         hm_period_cycles=args.scan_period)
    if args.mechanism == "oracle":
        det = OracleDetector(wl, num_threads=args.threads)
    elif args.mechanism == "sm":
        det = SoftwareManagedDetector(args.threads, cfg)
        system = System(topo, SystemConfig(tlb_management=TLBManagement.SOFTWARE))
        Simulator(system).run(wl, detectors=[det])
    else:
        det = HardwareManagedDetector(args.threads, cfg)
        Simulator(System(topo)).run(wl, detectors=[det])
    print(det.matrix.heatmap(
        f"{args.benchmark.upper()} — {args.mechanism.upper()} detection"
    ))
    for key, value in det.summary().items():
        print(f"  {key}: {value}")
    mapping = hierarchical_mapping(det.matrix, topo)
    print(f"\nDerived thread -> core mapping: {mapping}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    benchmarks = tuple(b.lower() for b in args.benchmarks) or PAPER_BENCHMARKS
    config = ExperimentConfig(
        benchmarks=benchmarks,
        scale=args.scale,
        os_runs=args.os_runs,
        mapped_runs=args.mapped_runs,
        seed=args.seed,
        sm_sample_threshold=6,
        hm_period_cycles=80_000,
    )
    results = ExperimentRunner(config).run_suite(verbose=True)
    report = generate_report(results)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    wl = make_npb_workload(args.benchmark, num_threads=args.threads,
                           scale=args.scale, seed=args.seed)
    n = save_trace(wl, args.path)
    print(f"saved {n} phases ({wl.total_accesses()} accesses) to {args.path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    wl = TraceWorkload(args.path)
    mapping = None
    if args.mapping:
        mapping = [int(x) for x in args.mapping.split(",")]
    res = Simulator(System(harpertown())).run(wl, mapping=mapping)
    print(f"replayed {wl.name}: {res.accesses} accesses")
    print(f"  execution cycles:   {res.execution_cycles:,}")
    print(f"  TLB miss rate:      {res.tlb_miss_rate:.3%}")
    print(f"  invalidations:      {res.invalidations:,}")
    print(f"  snoop transactions: {res.snoop_transactions:,}")
    print(f"  L2 misses:          {res.l2_misses:,}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.app import ServiceConfig
    from repro.service.http import serve

    if args.fault_plan:
        from repro.faults.injector import PLAN_ENV_VAR, activate
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.load(args.fault_plan)
        activate(plan)
        # Pool workers (fork or spawn) find the plan through the
        # environment on their first instrumented call.
        os.environ[PLAN_ENV_VAR] = args.fault_plan
        print(f"fault plan active: {len(plan.events)} event(s) "
              f"(seed {plan.seed}) from {args.fault_plan}", flush=True)

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        solve_deadline=args.solve_deadline,
        trace_sample_every=args.trace_sample_every,
        trace_step_clock=args.trace_step_clock,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        pass  # Ctrl-C before the signal handler was installed
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster.router import RouterConfig, route_serve

    if args.fault_plan:
        from repro.faults.injector import PLAN_ENV_VAR, activate
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.load(args.fault_plan)
        activate(plan)
        # The router keeps the plan out of the shard environment: the
        # cluster chaos contract injects at router sites (e.g. kill the
        # forward target) while the shards themselves run clean.
        os.environ.pop(PLAN_ENV_VAR, None)
        print(f"fault plan active: {len(plan.events)} event(s) "
              f"(seed {plan.seed}) from {args.fault_plan}", flush=True)

    config = RouterConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        vnodes=args.vnodes,
        workers_per_shard=args.workers_per_shard,
        cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        seed=args.seed,
        restart_dead_shards=not args.no_restart,
        trace_sample_every=args.trace_sample_every,
        trace_step_clock=args.trace_step_clock,
    )
    try:
        asyncio.run(route_serve(config))
    except KeyboardInterrupt:
        pass  # Ctrl-C before the signal handler was installed
    return 0


#: Representative NPB kernels behind the ``bench_*`` trace aliases: the
#: same workload each benchmark script exercises most heavily, so its
#: trace shows the span structure that bench's numbers come from.
_TRACE_ALIASES = {
    "bench_engine_speedup": "bt",
    "bench_fig4_sm_patterns": "cg",
    "bench_fig5_hm_patterns": "cg",
    "bench_fig6_exec_time": "sp",
    "bench_fig7_invalidations": "sp",
    "bench_fig8_snoops": "sp",
    "bench_fig9_l2_misses": "sp",
}


def _trace_benchmark(kernel: str, args: argparse.Namespace) -> None:
    """Run one detection + mapping pass with tracing active."""
    topo = harpertown()
    wl = make_npb_workload(kernel, num_threads=args.threads,
                           scale=args.scale, seed=args.seed)
    cfg = DetectorConfig()
    if args.mechanism == "sm":
        det = SoftwareManagedDetector(args.threads, cfg)
        system = System(topo, SystemConfig(tlb_management=TLBManagement.SOFTWARE))
    else:
        det = HardwareManagedDetector(args.threads, cfg)
        system = System(topo)
    Simulator(system).run(wl, detectors=[det])
    hierarchical_mapping(det.matrix, topo)


def _trace_serve_request() -> None:
    """Drive one in-process ``POST /map`` through a traced service."""
    import asyncio
    import json

    from repro.service.app import MappingService, ServiceConfig

    n = 8
    matrix = [[0.0] * n for _ in range(n)]
    for t in range(0, n, 2):  # neighbor-pair pattern: a known-good solve
        matrix[t][t + 1] = matrix[t + 1][t] = 100.0
    body = json.dumps({"matrix": matrix}, sort_keys=True).encode("utf-8")

    async def run() -> None:
        # In-process worker thread (workers=0): the whole request —
        # batcher, dispatch, worker solve — lands in one trace.
        service = MappingService(ServiceConfig(workers=0))
        await service.start()
        try:
            status, _headers, _payload = await service.handle_map(body)
            if status != 200:
                raise RuntimeError(f"serve-request trace got HTTP {status}")
        finally:
            await service.aclose()

    asyncio.run(run())


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        chrome_trace,
        render_chrome_json,
        validate_chrome_trace,
    )
    from repro.obs.trace import Tracer, tracing

    target = args.target
    # No injected wall clock: the tracer's deterministic step counter
    # makes the export byte-identical across runs (the trace-smoke gate).
    tracer = Tracer(trace_id=target)
    with tracing(tracer):
        if target == "serve-request":
            clock = "wall"
            _trace_serve_request()
        else:
            clock = "cycles"
            _trace_benchmark(_TRACE_ALIASES.get(target, target), args)
    doc = chrome_trace(tracer.snapshot(), trace_id=target, clock=clock)
    events = validate_chrome_trace(doc)
    text = render_chrome_json(doc)
    out_path = args.output or f"{target}.trace.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{events} trace event(s) ({clock} clock) written to {out_path}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    if args.obs_command == "attribution":
        from repro.obs.attribution import attribute_trace, render_attribution
        from repro.obs.export import validate_chrome_trace

        with open(args.trace, encoding="utf-8") as fh:
            doc = json.load(fh)
        validate_chrome_trace(doc)
        result = attribute_trace(doc)
        if args.json:
            print(json.dumps(result, sort_keys=True, separators=(",", ":")))
        else:
            print(render_attribution(result))
        return 0

    if args.obs_command == "append":
        from repro.obs.ledger import append_entry

        for path in args.docs:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            entry = append_entry(args.history, doc)
            print(f"appended {path} as {entry['kind']} seq {entry['seq']} "
                  f"({len(entry['metrics'])} metrics) to {args.history}")
        return 0

    if args.obs_command == "regress":
        from repro.obs.ledger import (
            read_history,
            regress,
            render_regress_report,
        )

        history = read_history(args.history)
        reports = []
        for path in args.candidates:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            reports.append(
                regress(history, doc, window=args.window,
                        tolerance=args.tolerance)
            )
        if args.json:
            print(json.dumps(reports, sort_keys=True, separators=(",", ":")))
        else:
            for report in reports:
                print(render_regress_report(report))
        return 0 if all(r["ok"] for r in reports) else 1

    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.experiments import ablations
    from repro.util.render import format_table

    sweeps = {
        "sm-sampling": (ablations.sm_sampling_sweep, "sp"),
        "hm-period": (ablations.hm_period_sweep, "sp"),
        "tlb-geometry": (ablations.tlb_geometry_sweep, "bt"),
        "page-size": (ablations.page_size_sweep, "bt"),
        "l2-tlb": (ablations.l2_tlb_sweep, "sp"),
    }
    if args.sweep == "mappers":
        costs = ablations.mapper_comparison(
            args.benchmark or "sp", scale=args.scale, seed=args.seed
        )
        rows = [[name, f"{cost:.0f}"] for name, cost in
                sorted(costs.items(), key=lambda kv: kv[1])]
        print(format_table(rows, header=["mapper", "cost (lower is better)"]))
        return 0
    fn, default_bench = sweeps[args.sweep]
    records = fn(args.benchmark or default_bench, scale=args.scale,
                 seed=args.seed)
    header = list(records[0])
    rows = [[f"{rec[k]:.4g}" if isinstance(rec[k], float) else str(rec[k])
             for k in header] for rec in records]
    print(format_table(rows, header=header))
    return 0


def _parse_spec_param(text: str) -> tuple:
    """``KEY=VALUE`` with int/float coercion (strings pass through)."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise SystemExit(f"--set expects KEY=VALUE, got {text!r}")
    for cast in (int, float):
        try:
            return key, cast(value)
        except ValueError:
            continue
    return key, value


def _cmd_run_spec(args: argparse.Namespace) -> int:
    import pathlib

    from repro.experiments.specs import load_spec, run_spec
    from repro.util.validation import ValidationError

    path = pathlib.Path(args.spec)
    if not path.exists() and path.suffix != ".toml":
        path = pathlib.Path("benchmarks") / "specs" / f"{args.spec}.toml"
    if not path.exists():
        print(f"repro run-spec: no such spec: {args.spec}", file=sys.stderr)
        return 2
    params = dict(_parse_spec_param(item) for item in args.params)
    try:
        run = run_spec(
            load_spec(path), params=params, workers=args.workers,
            cache_dir=args.cache, cache_bytes=args.cache_bytes,
            out_dir=args.out,
        )
    except ValidationError as exc:
        print(f"repro run-spec: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        for name in sorted(run.artifacts):
            if name.endswith(".txt"):
                print(run.artifacts[name])
                print()
    else:
        for name in sorted(run.artifacts):
            print(f"wrote {pathlib.Path(args.out) / name}")
    print(f"{run.spec.name}: {len(run.rows)} cells, "
          f"{run.cache_hits} cached, {run.cache_misses} simulated")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early: not an error worth
        # a traceback.  Detach stdout so interpreter shutdown doesn't retry
        # the flush, and report the conventional 128+SIGPIPE code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


def _dispatch(args: argparse.Namespace) -> int:
    """Route a parsed command line to its subcommand handler."""
    if args.command == "info":
        return _cmd_info()
    if args.command == "detect":
        return _cmd_detect(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    if args.command == "record":
        return _cmd_record(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "ablate":
        return _cmd_ablate(args)
    if args.command == "run-spec":
        return _cmd_run_spec(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "route":
        return _cmd_route(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "lint":
        return run_lint_command(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
