"""Command-line interface: regenerate the paper's artifacts from a shell.

Usage (after ``pip install -e .``, as ``repro`` or ``python -m repro``)::

    repro figure2           # Fig. 2 worked example (exact)
    repro figure7           # Fig. 7 utilization example (exact)
    repro gap               # Theorem 5.3 inapproximability gap
    repro gadget 1,2 2      # Theorem 5.1 SUBSETSUM decoding
    repro demo              # quick consortium comparison
    repro table1 [--duration D --repeats R --workers N]
    repro table2 [...]
    repro figure10 [--orgs 2,3,4,5]
    repro scenarios         # list the scenario registry
    repro policies          # list the policy registry (capability table)
    repro run NAME [--workers N --cache-dir DIR ...]   # any scenario
    repro replay NAME [--policy P --snapshot-every N]  # online service proof
    repro serve --orgs 2,1 [--policy P]                # one-shard row daemon

``run`` executes any registered scenario (``repro scenarios`` lists them)
through the experiment pipeline: instances fan out over ``--workers``
processes, checkpoint to ``--cache-dir``, and a re-run resumes instead of
recomputing.  ``replay`` streams one scenario instance through the online
:class:`~repro.service.ClusterService` as timed events, optionally
kill/restoring from snapshots along the way, and verifies the result is
bit-identical to the batch scheduler (exit code 1 if not).  ``serve``
runs one service as a gateway worker's shard 0 on stdin/stdout: one
request row per line (``[1, 0, "submit", org, size, null]``, ``[2, 0,
"advance", t]``, ``[3, 0, "status"]``, ``[4, "shutdown"]``; the grammar
of :mod:`repro.gateway.wire`).  Every command prints the paper-layout
output used in EXPERIMENTS.md.

Every ``--policy`` flag accepts a registered policy name or a
parameterized ``name:key=value[,key=value...]`` string (e.g.
``rand:n_orderings=30``); names, help text and the ``policies`` table
all derive from :data:`repro.policies.POLICY_REGISTRY`, so the CLI can
never drift from the registry.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> "tuple[int, ...]":
    """argparse ``type=`` for a comma-separated int list such as ``2,1``."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers", type=int, default=1,
        help="instance fan-out over worker processes (results identical)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="JSONL instance checkpoint directory (enables resume)",
    )
    p.add_argument(
        "--no-resume", action="store_true",
        help="recompute even when the checkpoint already has instances",
    )
    p.add_argument(
        "--no-batch", action="store_true",
        help="disable the cross-instance batched kernel (per-instance "
        "simulation; results are bit-identical, only slower)",
    )
    p.add_argument(
        "--store-dir", default=None,
        help="content-addressed result store directory shared across "
        "specs: dedupes identical (workload, policy, seed) rows",
    )


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--heartbeat-timeout", type=float, default=None,
        dest="heartbeat_timeout", metavar="SECONDS",
        help="supervisor response deadline: a worker whose oldest pending "
             "command is older than this is declared failed and respawned "
             "(default 60)",
    )
    p.add_argument(
        "--max-restarts", type=int, default=None,
        dest="max_restarts", metavar="N",
        help="per-worker crash budget before quarantine (default 3; the "
             "budget refills after sustained healthy operation)",
    )
    p.add_argument(
        "--chaos", default=None, metavar="PLAN",
        help="deterministic fault injection: 'seed=S,rate=R[,stall=SEC,"
             "max_incarnations=N,tear_wal_rate=F,"
             "script=W.INC.KIND.AT_OP+...]' -- the same plan always "
             "injects the same faults (see repro.gateway.faults)",
    )


def _pipeline_kwargs(args: argparse.Namespace) -> "dict":
    """``run_pipeline`` keywords from the :func:`_add_pipeline_flags`
    flags."""
    return {
        "workers": args.workers,
        "cache_dir": args.cache_dir,
        "resume": not args.no_resume,
        "batch": not args.no_batch,
        "store_dir": args.store_dir,
    }


def _resilience_kwargs(args: argparse.Namespace) -> "dict":
    """``supervisor=`` / ``fault_plan=`` Gateway kwargs from CLI flags."""
    from .gateway import FaultPlan, SupervisorPolicy

    overrides: dict = {}
    if args.heartbeat_timeout is not None:
        overrides["heartbeat_timeout_s"] = args.heartbeat_timeout
        # keep idle pings comfortably inside the deadline
        overrides["ping_interval_s"] = min(5.0, args.heartbeat_timeout / 4)
    if args.max_restarts is not None:
        overrides["max_restarts"] = args.max_restarts
    return {
        "supervisor": SupervisorPolicy(**overrides) if overrides else None,
        "fault_plan": FaultPlan.parse(args.chaos) if args.chaos else None,
    }


def _policy_flag_help(intro: str) -> str:
    """Registry-derived ``--policy`` help (cannot drift from the table)."""
    from .policies import policy_names

    return (
        f"{intro}: {', '.join(policy_names('step'))}; parameters via "
        f"NAME:key=value,... (see `repro policies`)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Non-monetary fair scheduling (SPAA'13) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figure2", help="Fig. 2 worked utility example")
    sub.add_parser("figure7", help="Fig. 7 greedy utilization example")

    gap = sub.add_parser("gap", help="Theorem 5.3 order/reverse gap")
    gap.add_argument("--max-orgs", type=int, default=256)
    gap.add_argument(
        "--policy", default=None, metavar="NAME[:k=v,...]",
        help="also *run* this registered policy on the gadget at each m "
        "(sampled policies go past the exact max_orgs=10 ceiling; "
        "exact ones are refused there)",
    )
    gap.add_argument("--job-size", type=int, default=3)
    gap.add_argument("--seed", type=int, default=0)

    gadget = sub.add_parser("gadget", help="Theorem 5.1 SUBSETSUM gadget")
    gadget.add_argument("values", type=_int_list,
                        help="comma-separated positive ints, e.g. 1,2")
    gadget.add_argument("x", type=int, help="target sum")

    demo = sub.add_parser("demo", help="consortium comparison on a trace window")
    demo.add_argument("--trace", default="LPC-EGEE")
    demo.add_argument("--duration", type=int, default=3000)
    demo.add_argument("--orgs", type=int, default=5)
    demo.add_argument("--seed", type=int, default=7)

    # defaults (None) are the same-named scenario's: `repro scenarios`
    for name in ("table1", "table2"):
        t = sub.add_parser(name, help=f"regenerate {name} (scaled)")
        t.add_argument("--duration", type=int, default=None)
        t.add_argument("--repeats", type=int, default=None)
        t.add_argument("--seed", type=int, default=None)
        _add_pipeline_flags(t)

    f10 = sub.add_parser("figure10", help="unfairness vs #organizations")
    f10.add_argument("--orgs", type=_int_list, default=None)
    f10.add_argument("--duration", type=int, default=None)
    f10.add_argument("--repeats", type=int, default=None)
    _add_pipeline_flags(f10)

    sub.add_parser("scenarios", help="list the scenario registry")

    pol = sub.add_parser(
        "policies",
        help="list the policy registry (name, params, capabilities, paper §)",
    )
    pol.add_argument(
        "--capability", default=None,
        help="only policies with this truthy capability (e.g. step, batch)",
    )

    run = sub.add_parser(
        "run", help="run any registered scenario through the pipeline"
    )
    run.add_argument("scenario", help="a name from `repro scenarios`")
    run.add_argument("--traces", default=None,
                     help="comma-separated trace list override")
    run.add_argument("--orgs", type=int, default=None, dest="n_orgs",
                     help="fixed organization count (clears any org-count "
                          "sweep axis the scenario declares)")
    run.add_argument("--org-counts", type=_int_list, default=None,
                     dest="org_counts",
                     help="comma-separated org-count sweep axis, e.g. 2,4,8")
    run.add_argument("--duration", type=int, default=None)
    run.add_argument("--repeats", type=int, default=None, dest="n_repeats")
    run.add_argument("--scale", type=float, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--machine-dist", default=None,
                     choices=("zipf", "uniform"), dest="machine_dist")
    run.add_argument("--portfolio", default=None,
                     help="algorithm portfolio name (default from scenario)")
    run.add_argument("--metrics", default=None,
                     help="comma-separated metric names")
    run.add_argument("--swf", default=None, dest="swf_path",
                     help="SWF file path (swf-family scenarios)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-instance progress lines")
    _add_pipeline_flags(run)

    rp = sub.add_parser(
        "replay",
        help="stream a scenario instance through the online service and "
             "verify bit-identical equivalence with the batch scheduler",
    )
    rp.add_argument("scenario", help="a name from `repro scenarios`")
    rp.add_argument("--policy", default="directcontr",
                    help=_policy_flag_help("service policy"))
    rp.add_argument("--instance", type=int, default=0,
                    help="which enumerated instance of the scenario to replay")
    rp.add_argument("--snapshot-every", type=int, default=None,
                    dest="snapshot_every", metavar="N",
                    help="kill the service and restore it from a snapshot "
                         "after every N release groups")
    rp.add_argument("--metrics", default=None,
                    help="comma-separated metric names to score against the "
                         "exact REF reference")
    rp.add_argument("--no-verify", action="store_true",
                    help="skip the batch-equivalence check (pure throughput)")
    rp.add_argument("--duration", type=int, default=None)
    rp.add_argument("--orgs", type=int, default=None, dest="n_orgs")
    rp.add_argument("--repeats", type=int, default=None, dest="n_repeats")
    rp.add_argument("--scale", type=float, default=None)
    rp.add_argument("--seed", type=int, default=None)
    rp.add_argument("--swf", default=None, dest="swf_path",
                    help="SWF file path (swf-family scenarios)")

    srv = sub.add_parser(
        "serve", help="run the online scheduler as a one-shard worker: "
                      "request rows on stdin, replies on stdout"
    )
    srv.add_argument("--orgs", type=_int_list, default="2,1",
                     help="genesis machine counts per organization, e.g. 3,2,2")
    srv.add_argument("--policy", default="directcontr",
                     help=_policy_flag_help("service policy"))
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--horizon", type=int, default=None)
    srv.add_argument("--restore", default=None, metavar="SNAPSHOT",
                     help="resume from a snapshot file instead of genesis "
                          "(--orgs/--policy/--seed are then taken from it)")
    srv.add_argument("--snapshot-to", default=None, dest="snapshot_to",
                     metavar="FILE",
                     help="write a final snapshot when the loop ends")

    gwp = sub.add_parser(
        "gateway",
        help="run the sharded multi-tenant gateway: one JSONL daemon "
             "fronting a fleet of ClusterService shards across worker "
             "processes",
    )
    gwp.add_argument("--workers", type=int, default=2,
                     help="worker processes (process-per-core; default 2)")
    gwp.add_argument("--shards", type=int, default=4,
                     help="shard count (>= workers; default 4)")
    gwp.add_argument("--tenants", type=int, default=8,
                     help="uniform tenant roster size t0..tN-1 (default 8)")
    gwp.add_argument("--machines", type=int, default=1,
                     help="machines contributed per tenant (default 1)")
    gwp.add_argument("--policy", default="fifo",
                     help=_policy_flag_help("per-shard policy"))
    gwp.add_argument("--seed", type=int, default=0,
                     help="base seed (shard s runs seed+s)")
    gwp.add_argument("--horizon", type=int, default=None)
    gwp.add_argument("--rate", type=float, default=None,
                     help="per-tenant token-bucket rate (jobs per time unit "
                          "of the gateway clock; default: unlimited)")
    gwp.add_argument("--burst", type=float, default=None,
                     help="token-bucket capacity (default: max(rate, 1))")
    gwp.add_argument("--credits", type=int, default=None,
                     help="per-tenant work budget in size units "
                          "(default: unlimited)")
    gwp.add_argument("--snapshot-dir", default=None, dest="snapshot_dir",
                     metavar="DIR",
                     help="fleet checkpoint directory (enables the snapshot "
                          "op, crash recovery, and shutdown checkpoints)")
    gwp.add_argument("--stats-every", type=float, default=None,
                     dest="stats_every", metavar="SECONDS",
                     help="emit a periodic fleet stats line to stderr")
    _add_resilience_flags(gwp)

    lg = sub.add_parser(
        "loadgen",
        help="drive a deterministic multi-tenant event storm through a "
             "gateway fleet and verify fleet == batch per shard",
    )
    lg.add_argument("--events", type=int, default=100_000,
                    help="submit events to offer (default 100000)")
    lg.add_argument("--tenants", type=int, default=64,
                    help="tenant roster size (default 64)")
    lg.add_argument("--releases", type=int, default=250,
                    help="distinct release times (default 250)")
    lg.add_argument("--max-size", type=int, default=6, dest="max_size",
                    help="job sizes drawn uniformly from 1..N (default 6)")
    lg.add_argument("--workers", type=int, default=2)
    lg.add_argument("--shards", type=int, default=8)
    lg.add_argument("--machines", type=int, default=1)
    lg.add_argument("--policy", default="fifo",
                    help=_policy_flag_help("per-shard policy"))
    lg.add_argument("--seed", type=int, default=0,
                    help="stream and policy seed")
    lg.add_argument("--horizon", type=int, default=None)
    lg.add_argument("--rate", type=float, default=None,
                    help="per-tenant admission rate limit")
    lg.add_argument("--burst", type=float, default=None)
    lg.add_argument("--credits", type=int, default=None,
                    help="per-tenant work budget")
    lg.add_argument("--snapshot-at", type=int, default=None,
                    dest="snapshot_at", metavar="RELEASE",
                    help="checkpoint the fleet mid-stream at this release "
                         "(records the snapshot-under-load cost)")
    lg.add_argument("--kill-at", type=int, default=None, dest="kill_at",
                    metavar="RELEASE",
                    help="SIGKILL worker 0 mid-stream at this release and "
                         "restore it (requires --snapshot-at earlier, or "
                         "recovery replays the whole WAL)")
    lg.add_argument("--no-verify", action="store_true",
                    help="skip the per-shard batch-equivalence check")
    lg.add_argument("--progress", action="store_true",
                    help="print a stats line per release group to stderr")
    _add_resilience_flags(lg)
    lg.add_argument("--require-recoveries", type=int, default=None,
                    dest="require_recoveries", metavar="N",
                    help="exit 1 unless the run auto-recovered at least N "
                         "worker crashes (CI chaos gate)")
    lg.add_argument("--require-quarantines", type=int, default=None,
                    dest="require_quarantines", metavar="N",
                    help="exit 1 unless at least N workers were quarantined "
                         "(CI chaos gate)")
    return parser


def _cmd_figure2() -> None:
    from .experiments.figures import figure2_numbers, figure2_schedule
    from .viz import gantt

    n = figure2_numbers()
    print("Figure 2 -- worked psi_sp example (paper values in parens)")
    print(f"  psi_sp(O1, t=13) = {n.psi_o1_t13}  (262)")
    print(f"  psi_sp(O1, t=14) = {n.psi_o1_t14}  (297)")
    print(f"  flow time (O1)   = {n.flow_time_o1}  (70)")
    print(f"  without J(2)1    : {n.gain_without_j2:+d}  (+4)")
    print(f"  J6 one unit late : {n.loss_j6_late:+d}  (-6)")
    print(f"  J9 dropped       : {n.loss_drop_j9:+d}  (-10)")
    print()
    print(gantt(figure2_schedule(), 3, 14))


def _cmd_figure7() -> None:
    from .analysis.utilization import figure7_ratios

    best, worst = figure7_ratios()
    print("Figure 7 -- greedy utilization at T=6 (paper: 100% / 75%)")
    print(f"  O(2)-first greedy: {best:.0%}")
    print(f"  O(1)-first greedy: {worst:.0%}")


def _cmd_gap(
    max_orgs: int,
    policy: "str | None" = None,
    job_size: int = 3,
    seed: int = 0,
) -> None:
    from .analysis.inapprox import order_reverse_gap, policy_order_gap
    from .policies import CapabilityError

    print("Theorem 5.3 -- relative distance between sigma_ord and sigma_rev")
    m = 2
    while m <= max_orgs:
        g = order_reverse_gap(m, job_size)
        line = f"  m={m:>5}: {g.ratio:.4f}"
        if policy:
            try:
                r = policy_order_gap(policy, m, job_size, seed=seed)
                line += (
                    f"   {policy}: d(ord)={r['ratio_ord']:.4f}"
                    f" d(rev)={r['ratio_rev']:.4f}"
                )
            except CapabilityError as exc:
                line += f"   {policy}: refused ({exc})"
        print(line)
        m *= 2
    print("  -> tends to 1: no (1/2 - eps)-approximation can separate them")


def _cmd_gadget(values: "list[int]", x: int) -> None:
    from .algorithms.ref import RefScheduler
    from .analysis.hardness import (
        ORG_A,
        count_orderings_below,
        decode_contribution,
        gadget_eval_time,
        gadget_workload,
    )

    a = ORG_A(values)

    def decoded(target: int) -> int:
        wl = gadget_workload(values, target)
        phi = RefScheduler().contributions_at(wl, gadget_eval_time(values, target))
        return decode_contribution(phi[a], values)

    d_x, d_x1 = decoded(x), decoded(x + 1)
    print(f"Theorem 5.1 gadget for S={values}, x={x}")
    print(f"  decoded n_<{x}(S)   = {d_x}  (oracle {count_orderings_below(values, x)})")
    print(f"  decoded n_<{x+1}(S) = {d_x1}  (oracle {count_orderings_below(values, x + 1)})")
    print(f"  subset summing to exactly {x} exists: {d_x1 > d_x}")


def _cmd_demo(trace: str, duration: int, orgs: int, seed: int) -> None:
    from .experiments.harness import sample_instance
    from .experiments.registry import PORTFOLIO_SPECS
    from .sim.runner import compare_algorithms
    from .viz import fairness_report

    rng = np.random.default_rng(seed)
    workload = sample_instance(trace, duration, orgs, rng)
    print(f"{trace} window: {workload.stats()}")
    comparison = compare_algorithms(
        PORTFOLIO_SPECS["paper"], "ref", workload, duration, seed=seed
    )
    print(fairness_report(comparison))


def _cmd_table(args: argparse.Namespace) -> None:
    from .experiments.reporting import render_pipeline
    from .experiments.tables import table1, table2

    fn = table1 if args.command == "table1" else table2
    result = fn(
        duration=args.duration,
        n_repeats=args.repeats,
        seed=args.seed,
        **_pipeline_kwargs(args),
    )
    print(
        render_pipeline(result, title=f"{args.command} (scaled reproduction)")
    )


def _cmd_figure10(args: argparse.Namespace) -> None:
    from .experiments.figures import figure10
    from .experiments.reporting import render_series
    from .viz import sparkline

    xs, series = figure10(
        args.orgs,
        duration=args.duration,
        n_repeats=args.repeats,
        **_pipeline_kwargs(args),
    )
    print(render_series(xs, series, "organizations", "Figure 10 (scaled)"))
    print()
    for name, ys in series.items():
        print(f"  {name:<16} {sparkline(ys)}")


def _cmd_scenarios() -> None:
    from .experiments.registry import list_scenarios

    print("registered scenarios (repro run NAME):")
    for sc in list_scenarios():
        spec = sc.spec
        print(f"  {sc.name:<12} {sc.description}")
        print(
            f"  {'':<12}   family={spec.family} traces={','.join(spec.traces)}"
            f" duration={spec.duration} repeats={spec.n_repeats}"
            f" portfolio={spec.portfolio}"
        )


def _cmd_policies(capability: "str | None") -> None:
    from .policies import ENTRY_POINT_GROUP, PolicyCapabilities, list_policies

    if capability is not None and capability not in vars(
        PolicyCapabilities()
    ):
        fields = ", ".join(vars(PolicyCapabilities()))
        raise SystemExit(
            f"unknown capability {capability!r}; one of: {fields}"
        )
    entries = [
        e
        for e in list_policies()
        if capability is None or getattr(e.capabilities, capability)
    ]
    print("registered policies (--policy NAME[:param=value,...]):")
    header = f"  {'name':<14} {'capabilities':<42} {'paper':<14} params"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for e in entries:
        params = (
            "; ".join(
                f"{p.name}:{p.type.__name__}={p.default}" for p in e.params
            )
            or "-"
        )
        print(
            f"  {e.name:<14} {e.capabilities.summary():<42} "
            f"{e.paper_section:<14} {params}"
        )
        print(f"  {'':<14} {e.summary}")
    print(
        f"\nthird-party policies register through the "
        f"{ENTRY_POINT_GROUP!r} entry-point group (see DESIGN.md §7)"
    )


def _cmd_run(args: argparse.Namespace) -> None:
    from .experiments.pipeline import run_scenario
    from .experiments.reporting import render_pipeline

    traces = (
        tuple(args.traces.split(",")) if args.traces is not None else None
    )
    metrics = (
        tuple(args.metrics.split(",")) if args.metrics is not None else None
    )
    org_counts = (
        args.org_counts
        if args.org_counts is not None
        # --orgs means "exactly N": clear a scenario's sweep axis, which
        # would otherwise override n_orgs per variant
        else (() if args.n_orgs is not None else None)
    )
    result = run_scenario(
        args.scenario,
        traces=traces,
        n_orgs=args.n_orgs,
        org_counts=org_counts,
        duration=args.duration,
        n_repeats=args.n_repeats,
        scale=args.scale,
        seed=args.seed,
        machine_dist=args.machine_dist,
        portfolio=args.portfolio,
        metrics=metrics,
        swf_path=args.swf_path,
        progress=None if args.quiet else lambda line: print(line, flush=True),
        **_pipeline_kwargs(args),
    )
    print(
        render_pipeline(
            result, title=f"{args.scenario} ({result.spec.family})"
        )
    )
    print(
        f"\n{result.computed} computed + {result.cached} cached instances "
        f"in {result.wall_time_s:.1f}s"
        + (f"; checkpoint: {result.cache_path}" if result.cache_path else "")
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    from .service import replay_scenario

    overrides = {
        k: getattr(args, k)
        for k in ("duration", "n_orgs", "n_repeats", "scale", "seed", "swf_path")
        if getattr(args, k) is not None
    }
    metrics = (
        tuple(args.metrics.split(",")) if args.metrics is not None else None
    )
    report = replay_scenario(
        args.scenario,
        instance_index=args.instance,
        policy=args.policy,
        snapshot_every=args.snapshot_every,
        check_batch=not args.no_verify,
        metrics=metrics,
        **overrides,
    )
    print(f"replay: {args.scenario}[{args.instance}] through the online service")
    print(report.summary())
    return 0 if report.equivalent in (True, None) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .gateway.worker import build_shard, serve_rows
    from .service.daemon import (
        ShutdownRequested,
        install_shutdown_handlers,
        timed_lines,
    )
    from .service.snapshot import save_snapshot

    spec = dict(machine_counts=args.orgs, policy=args.policy,
                seed=args.seed, horizon=args.horizon)
    try:
        service = build_shard(spec, args.restore)
    except (ValueError, OSError) as exc:
        if args.restore is None:
            raise
        print(f"--restore {args.restore}: {exc}", file=sys.stderr)
        return 2
    status = service.status()
    print(
        f"serving policy={status['policy']} members={status['members']} "
        f"clock={status['clock']} as shard 0 (one request row per line, "
        'e.g. [1, 0, "status"]; [id, "shutdown"] or EOF ends)',
        file=sys.stderr,
        flush=True,
    )
    install_shutdown_handlers()
    try:
        serve_rows(
            {0: service},
            timed_lines(sys.stdin, None, sys.stdout.flush),
            sys.stdout,
        )
    except ShutdownRequested as sd:
        print(f"graceful shutdown ({sd})", file=sys.stderr, flush=True)
    finally:
        # EOF, shutdown row or supervisor kill: leave a restorable
        # checkpoint behind
        if args.snapshot_to is not None:
            save_snapshot(service.snapshot(), args.snapshot_to)
    return 0


def _gateway_config(args: argparse.Namespace) -> "object":
    from .gateway import GatewayConfig

    return GatewayConfig.uniform(
        args.tenants,
        machines=args.machines,
        rate=args.rate,
        burst=args.burst,
        credits=args.credits,
        n_workers=args.workers,
        n_shards=args.shards,
        policy=args.policy,
        seed=args.seed,
        horizon=args.horizon,
    )


def _cmd_gateway(args: argparse.Namespace) -> int:
    from .gateway import Gateway, gateway_serve_loop
    from .service.daemon import install_shutdown_handlers

    if args.shards < args.workers:
        print("--shards must be >= --workers", file=sys.stderr)
        return 2
    config = _gateway_config(args)
    install_shutdown_handlers()
    with Gateway(
        config, snapshot_dir=args.snapshot_dir, **_resilience_kwargs(args)
    ) as gw:
        print(
            f"gateway {config.content_hash()}: "
            f"{gw.pool.n_live_workers} workers / "
            f"{len(config.shard_ids())} shards / "
            f"{len(config.tenants)} tenants, policy={config.policy} "
            '(one JSON command per line; {"op": "stop"} or EOF ends)',
            file=sys.stderr,
            flush=True,
        )
        gateway_serve_loop(
            gw,
            sys.stdin,
            sys.stdout,
            stats_every_s=args.stats_every,
            stats_out=sys.stderr,
        )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .gateway import Gateway, LoadSpec, run_loadgen

    if args.shards < args.workers:
        print("--shards must be >= --workers", file=sys.stderr)
        return 2
    config = _gateway_config(args)
    spec = LoadSpec(
        n_events=args.events,
        n_releases=args.releases,
        max_size=args.max_size,
        seed=args.seed,
    )
    progress = (
        (lambda line: print(line, file=sys.stderr, flush=True))
        if args.progress
        else None
    )
    scratch = contextlib.nullcontext()
    if (
        args.snapshot_at is not None
        or args.kill_at is not None
        or args.chaos is not None
    ):
        import tempfile

        # chaos runs get a durable WAL + checkpoint dir so recovery
        # exercises the full restore path, not just in-memory replay
        scratch = tempfile.TemporaryDirectory(prefix="repro-gateway-")
    with scratch as snapshot_dir, Gateway(
        config, snapshot_dir=snapshot_dir, **_resilience_kwargs(args)
    ) as gw:
        report = run_loadgen(
            gw,
            spec,
            snapshot_at_release=args.snapshot_at,
            kill_worker_at_release=args.kill_at,
            verify=not args.no_verify,
            progress=progress,
        )
    print(report.summary())
    failures = []
    chaos = report.chaos or {}
    if args.require_recoveries is not None:
        got = chaos.get("auto_recoveries", 0)
        if got < args.require_recoveries:
            failures.append(
                f"required >= {args.require_recoveries} auto recoveries, "
                f"got {got}"
            )
    if args.require_quarantines is not None:
        got = chaos.get("quarantines", 0)
        if got < args.require_quarantines:
            failures.append(
                f"required >= {args.require_quarantines} quarantines, "
                f"got {got}"
            )
    if report.verified not in (True, None):
        failures.append("fleet != batch (digest divergence)")
    for reason in failures:
        print(f"loadgen gate: {reason}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figure2":
        _cmd_figure2()
    elif args.command == "figure7":
        _cmd_figure7()
    elif args.command == "gap":
        _cmd_gap(args.max_orgs, args.policy, args.job_size, args.seed)
    elif args.command == "gadget":
        _cmd_gadget(list(args.values), args.x)
    elif args.command == "demo":
        _cmd_demo(args.trace, args.duration, args.orgs, args.seed)
    elif args.command in ("table1", "table2"):
        _cmd_table(args)
    elif args.command == "figure10":
        _cmd_figure10(args)
    elif args.command == "scenarios":
        _cmd_scenarios()
    elif args.command == "policies":
        _cmd_policies(args.capability)
    elif args.command == "run":
        _cmd_run(args)
    elif args.command == "replay":
        return _cmd_replay(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "gateway":
        return _cmd_gateway(args)
    elif args.command == "loadgen":
        return _cmd_loadgen(args)
    else:  # pragma: no cover - argparse enforces the choices
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
