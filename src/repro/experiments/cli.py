"""Command-line entry point: regenerate any paper table or figure.

Examples::

    repro-experiments table1
    repro-experiments fig7a --runs 3 --duration 100 --processes 8
    repro-experiments fig7a --save --results-dir results --processes 8
    repro-experiments campaign all --processes 8 --timeout 900
    repro-experiments campaign fig7 fig9 fig14a --status-port 8642
    repro-experiments status all
    repro-experiments explain inter-area --runs 2 --duration 100
    repro-experiments faults --runs 2 --duration 100 --processes 8

Every target runs the same way: its runs are planned, executed by the
lease service with ``--processes N`` independent worker processes that
heartbeat their jobs and survive SIGKILL at any point, and the artefact
is assembled from the result store.  ``campaign`` (and ``--save`` on a
single target) uses ``<results-dir>/results.sqlite``: every run lands
there as it finishes, so a re-issued campaign executes only the runs that
are missing or failed.  A plain target uses a throwaway store in a
temporary directory instead, so it neither reads nor keeps stored
results.  ``status`` / ``--status-port`` expose live progress counters.

``explain`` runs seed-paired A/B simulations with the packet-lifecycle
ledger enabled and reports where every application packet died — the
terminal-outcome breakdown behind the figures' aggregate drop rates.

``faults``, ``urban`` and ``detect`` are the store-backed sweeps:
``faults <flags>`` is exactly ``campaign faults <flags>``.  ``faults``
sweeps the inter-area attack over a frame-loss × node-churn impairment
grid and reports how attack success and delivery ratio hold up off the
ideal channel; ``urban`` sweeps both attacks over {highway, urban
Manhattan grid} × {DCC off, on} × {CBF, S-FoT+}; ``detect`` scores the
online misbehavior detector over attacker variants × impairments ×
scenarios.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro.experiments.campaign import (
    CAMPAIGN_TARGETS,
    TARGET_ALIASES,
    TEXT_TARGETS,
    CampaignError,
    resolve_targets,
)
from repro.experiments.store import DEFAULT_RESULTS_DIR

#: Store-backed sweeps: ``faults <flags>`` is exactly ``campaign faults
#: <flags>``, so a re-issued sweep only costs the missing runs.
_SWEEP_COMMANDS = ("faults", "urban", "detect")

#: (flag, namespace attribute, default) of every flag that only changes
#: how *many parallel runs* execute — meaningless for a single
#: deterministic run.  The lease flags (``--lease-ttl``, ``--heartbeat``)
#: are warned about exactly like ``--runs``/``--processes``.
_FANOUT_FLAGS = (
    ("--runs", "runs", 3),
    ("--processes", "processes", 1),
    ("--lease-ttl", "lease_ttl", 60.0),
    ("--heartbeat", "heartbeat", None),
)


def _emit(text: str) -> None:
    print(text)
    print()


def _ignores_duration(target: str, args: argparse.Namespace) -> bool:
    """Whether a whole-run target's params, and so its run, are the same
    at ``--duration`` as at the default (e.g. a table, or fig13's fixed
    curve scenario)."""
    build_params, _render = TEXT_TARGETS[target]
    return build_params(args.runs, args.duration, args.seed) == build_params(
        args.runs, 200.0, args.seed
    )


def _warn_ignored_flags(targets: List[str], args: argparse.Namespace) -> None:
    """Flag combinations that look meaningful but are not, because every
    one of the (resolved) ``targets`` is a single whole run
    (:data:`~repro.experiments.campaign.TEXT_TARGETS`)."""
    if any(name not in TEXT_TARGETS for name in targets):
        return
    ignored = []
    for flag, attr, default in _FANOUT_FLAGS:
        value = getattr(args, attr, default)
        if value != default:
            ignored.append(f"{flag} {value}")
    if args.duration != 200.0 and all(
        _ignores_duration(name, args) for name in targets
    ):
        ignored.append(f"--duration {args.duration}")
    if ignored:
        verb = "has" if len(ignored) == 1 else "have"
        print(
            f"warning: single deterministic runs only ({', '.join(targets)}); "
            f"{' and '.join(ignored)} {verb} no effect",
            file=sys.stderr,
        )


def _campaign_store(args: argparse.Namespace):
    from repro.experiments.sqlite_store import DB_NAME, SqliteResultStore

    try:
        return SqliteResultStore(Path(args.results_dir) / DB_NAME)
    except Exception as exc:
        raise SystemExit(f"cannot open result store: {exc}")


def _worker_settings(args: argparse.Namespace):
    """The service's WorkerSettings from the command line's flags; exits
    with the reason when a flag is out of range."""
    from repro.experiments.service.scheduler import WorkerSettings

    port = getattr(args, "status_port", None)
    if port is not None and not 0 <= port <= 65535:
        raise SystemExit("--status-port must be in [0, 65535]")
    try:
        return WorkerSettings(
            lease_ttl=getattr(args, "lease_ttl", 60.0),
            heartbeat_interval=getattr(args, "heartbeat", None),
            timeout=getattr(args, "timeout", None),
            max_attempts=getattr(args, "retries", 1) + 1,
            checkpoint_interval=getattr(args, "checkpoint_interval", None),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _run_saved(targets: List[str], args: argparse.Namespace) -> int:
    """Run targets through the lease service on ``--results-dir``'s store.

    ``--processes N`` independent worker processes execute the runs that
    are not stored yet, each surviving SIGKILL at any point, and the
    artefacts are assembled from the store.  Exit status is non-zero
    when any run stayed failed or any artefact could not be assembled.
    """
    from repro.experiments.service.scheduler import run_service_campaign

    settings = _worker_settings(args)
    try:
        _warn_ignored_flags(resolve_targets(targets), args)
    except CampaignError as exc:
        raise SystemExit(str(exc))
    store = _campaign_store(args)
    try:
        report = run_service_campaign(
            targets,
            store=store,
            workers=args.processes,
            runs=args.runs,
            duration=args.duration,
            seed=args.seed,
            settings=settings,
            status_port=getattr(args, "status_port", None),
            partial=getattr(args, "partial", False),
            log_stream=sys.stderr,
        )
    except (CampaignError, ValueError) as exc:
        raise SystemExit(str(exc))
    for name, text in report.outputs.items():
        _emit(text)
    for name, note in report.partial_targets.items():
        print(f"note: {name}: {note}", file=sys.stderr)
    for name, error in report.errors.items():
        print(f"error: {name}: {error}", file=sys.stderr)
    return 0 if report.ok else 1


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs", type=int, default=3, help="A/B runs per setting")
    parser.add_argument(
        "--duration", type=float, default=200.0, help="simulated seconds per run"
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="lease service worker processes that execute the runs",
    )
    parser.add_argument("--seed", type=int, default=1, help="base random seed")
    parser.add_argument(
        "--results-dir",
        default=DEFAULT_RESULTS_DIR,
        help="directory of the result store, results.sqlite "
        "(default: %(default)s)",
    )


def _build_explain_parser() -> argparse.ArgumentParser:
    from repro.experiments.explain import EXPLAIN_TARGETS

    parser = argparse.ArgumentParser(
        prog="repro-experiments explain",
        description="Account every application packet's terminal outcome "
        "in seed-paired A/B runs (packet-lifecycle ledger).",
    )
    parser.add_argument(
        "target",
        choices=list(EXPLAIN_TARGETS),
        help="which attack scenario to explain",
    )
    parser.add_argument(
        "--runs", type=int, default=1, help="A/B seed pairs to simulate"
    )
    parser.add_argument(
        "--duration", type=float, default=200.0, help="simulated seconds per run"
    )
    parser.add_argument("--seed", type=int, default=1, help="base random seed")
    parser.add_argument(
        "--journeys",
        type=int,
        default=0,
        metavar="N",
        help="additionally print per-hop journeys of up to N undelivered "
        "attacked packets (records journey events; default: off)",
    )
    return parser


def _run_explain(args: argparse.Namespace) -> int:
    from repro.experiments.explain import explain

    started = time.time()
    result = explain(
        args.target,
        runs=args.runs,
        duration=args.duration,
        seed=args.seed,
        journeys=args.journeys,
    )
    _emit(result.format(journeys=args.journeys))
    print(
        f"[explain {args.target} done in {time.time() - started:.1f}s]",
        file=sys.stderr,
    )
    return 0


def _build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments campaign",
        description="Run many targets fault-tolerantly on top of the "
        "persistent result store.",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        metavar="target",
        help="targets to regenerate; aliases: "
        + ", ".join(sorted(TARGET_ALIASES)),
    )
    _add_common_args(parser)
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-run timeout in seconds (default: none)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries per run before recording a failure (default: %(default)s)",
    )
    _add_scheduler_args(parser)
    return parser


def _add_scheduler_args(parser: argparse.ArgumentParser) -> None:
    """The lease-service flags of the campaign subcommand."""
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        metavar="S",
        help="seconds a worker's job lease lives without a heartbeat "
        "before another worker may take the job over (default: %(default)s)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="S",
        help="lease heartbeat interval (default: lease-ttl / 3)",
    )
    parser.add_argument(
        "--status-port",
        type=int,
        default=None,
        metavar="P",
        help="serve read-only JSON progress counters on "
        "http://127.0.0.1:P/status while the campaign runs (0 = any port)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="S",
        help="checkpoint each worker's run every S seconds of simulation "
        "time so a killed worker's successor resumes mid-run instead of "
        "from t=0 (default: off; checkpoints are deleted when the run "
        "commits)",
    )
    parser.add_argument(
        "--partial",
        action="store_true",
        help="assemble targets from whatever runs are stored (with a "
        "coverage note) instead of erroring on missing runs",
    )


def _build_status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments status",
        description="Report campaign progress counters from the result "
        "store (optionally serving them over read-only HTTP).",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        metavar="target",
        help="targets whose progress to report; aliases: "
        + ", ".join(sorted(TARGET_ALIASES)),
    )
    _add_common_args(parser)
    parser.add_argument(
        "--serve",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the counters on http://127.0.0.1:PORT/status until "
        "interrupted instead of printing them once (0 = any port)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        metavar="S",
        help="the running campaign's lease TTL — used to turn lease "
        "deadlines into last-heartbeat ages (default: %(default)s, the "
        "scheduler default)",
    )
    return parser


def _run_status(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.campaign import plan_campaign
    from repro.experiments.service.leases import LeaseQueue
    from repro.experiments.service.status import StatusServer, progress_snapshot

    store = _campaign_store(args)
    try:
        specs = plan_campaign(
            args.targets, runs=args.runs, duration=args.duration, seed=args.seed
        )
    except CampaignError as exc:
        raise SystemExit(str(exc))
    # Read-only peek at the lease queue so the report includes live
    # workers, per-job checkpoint progress and last-heartbeat ages
    # alongside the store counters.
    queue = LeaseQueue(store)
    lease_ttl = getattr(args, "lease_ttl", 60.0)
    if args.serve is None:
        print(
            json.dumps(
                progress_snapshot(
                    store, specs, queue=queue, lease_ttl=lease_ttl
                ),
                indent=2,
            )
        )
        return 0
    server = StatusServer(
        lambda: progress_snapshot(
            store, specs, queue=queue, lease_ttl=lease_ttl
        ),
        port=args.serve,
    )
    server.start()
    print(
        f"serving campaign status on http://127.0.0.1:{server.port}/status "
        "(Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        import time as _time

        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    finally:
        server.stop()


def _build_target_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate tables/figures of the DSN'23 GeoNetworking "
        "attack paper.  Use the 'campaign' subcommand for fault-tolerant, "
        "resumable multi-target runs.",
    )
    parser.add_argument(
        "target",
        choices=CAMPAIGN_TARGETS
        + list(TARGET_ALIASES)
        + ["campaign", "explain", "status"],
        help="which artefact to regenerate ('all' runs every one)",
    )
    _add_common_args(parser)
    parser.add_argument(
        "--save",
        action="store_true",
        help="keep the runs in --results-dir's store: reuse stored runs, "
        "store new ones (default: a throwaway store, deleted on exit)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SWEEP_COMMANDS:
        argv = ["campaign"] + argv
    if argv and argv[0] == "campaign":
        args = _build_campaign_parser().parse_args(argv[1:])
        return _run_saved(args.targets, args)
    if argv and argv[0] == "explain":
        return _run_explain(_build_explain_parser().parse_args(argv[1:]))
    if argv and argv[0] == "status":
        return _run_status(_build_status_parser().parse_args(argv[1:]))
    args = _build_target_parser().parse_args(argv)
    if args.target == "campaign":
        raise SystemExit("usage: repro-experiments campaign <targets...>")
    if args.target == "explain":
        raise SystemExit(
            "usage: repro-experiments explain <inter-area|intra-area>"
        )
    if args.target == "status":
        raise SystemExit("usage: repro-experiments status <targets...>")
    if args.save:
        return _run_saved([args.target], args)
    # A plain run reads and keeps no stored results: the same service runs
    # on a fresh store that is deleted with its directory on exit.
    with tempfile.TemporaryDirectory(prefix="repro-experiments-") as scratch:
        args.results_dir = scratch
        return _run_saved([args.target], args)


if __name__ == "__main__":
    raise SystemExit(main())
