"""Span recorder for the traced benchmark run.

The recorder times calls into each layer's public functions from outside the
program: :func:`install` swaps class and module attributes of ``repro`` for
timing wrappers, and its returned callable puts the originals back.  A
per-thread span stack gives every span its *self* time, i.e. its duration
minus the time covered by spans nested inside it.  Spans stay in memory; a
campaign worker writes its own out as JSON when ``worker_loop`` returns, and
the parent merges them with :meth:`Recorder.merge_dir`.

:data:`SPANS` and :data:`SPECIAL_SPANS` name the timed functions;
:data:`LAYER_TARGETS` maps each layer to the end-to-end metric, and the
workload, that a change to the layer should move.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Modules that import ``sign``/``verify`` by name (patched at each site).
SIGNING_SITES = (
    "repro.geonet.router",
    "repro.geonet.node",
    "repro.geonet.guc",
    "repro.geonet.shb",
    "repro.experiments.world",
    "repro.core.detection",
)

#: Modules that import ``summarize_world`` by name.
SUMMARIZE_SITES = ("repro.experiments.runner", "repro.experiments.checkpointing")

#: (metric prefix, module, owner class or None, attribute) of every plain span.
#: An owner class is patched together with each of its subclasses that
#: defines the attribute itself.
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("traffic.TrafficSimulation.step", "repro.traffic.simulation", "TrafficSimulation", "step"),
    ("traffic.GridTrafficSimulation.step", "repro.traffic.grid", "GridTrafficSimulation", "step"),
    ("radio.channel.transmit", "repro.radio.channel", "BroadcastChannel", "transmit"),
    ("radio.channel.RadioInterface.deliver", "repro.radio.channel", "RadioInterface", "deliver"),
    ("radio.channel.neighbors_within", "repro.radio.channel", "BroadcastChannel", "neighbors_within"),
    ("radio.channel.update_fleet_positions", "repro.radio.channel", "BroadcastChannel", "update_fleet_positions"),
    ("radio.channel.invalidate_positions", "repro.radio.channel", "BroadcastChannel", "invalidate_positions"),
    ("geonet.fleet.neighbor_pairs", "repro.geonet.fleet", "FleetState", "neighbor_pairs"),
    ("geonet.fleet.push_positions_to_channel", "repro.geonet.fleet", "FleetState", "push_positions_to_channel"),
    ("geonet.router.handle_frame", "repro.geonet.router", "GeoRouter", "handle_frame"),
    ("geonet.router.receive_beacons_bulk", "repro.geonet.router", "GeoRouter", "receive_beacons_bulk"),
    ("geonet.router.originate", "repro.geonet.router", "GeoRouter", "originate"),
    ("geonet.loct.update", "repro.geonet.loct", "LocationTable", "update"),
    ("geonet.loct.update_many", "repro.geonet.loct", "LocationTable", "update_many"),
    ("geonet.gf.select_next_hop", "repro.geonet.gf", "GreedyForwarder", "select_next_hop"),
    ("geonet.cbf.handle_broadcast", "repro.geonet.cbf", "CbfForwarder", "handle_broadcast"),
    ("geonet.cbf.originate", "repro.geonet.cbf", "CbfForwarder", "originate"),
    ("core.attacks.react", "repro.core.attacks.base", "RoadsideAttacker", "react"),
    ("observability.ledger.originated", "repro.observability.ledger", "PacketLedger", "originated"),
    ("observability.ledger.hop", "repro.observability.ledger", "PacketLedger", "hop"),
    ("observability.ledger.delivered", "repro.observability.ledger", "PacketLedger", "delivered"),
    ("observability.ledger.dropped", "repro.observability.ledger", "PacketLedger", "dropped"),
    ("experiments.world.World.__init__", "repro.experiments.world", "World", "__init__"),
    ("experiments.checkpointing.save_checkpoint", "repro.experiments.checkpointing", None, "save_checkpoint"),
    ("experiments.checkpointing.load_checkpoint", "repro.experiments.checkpointing", None, "load_checkpoint"),
    ("experiments.store.put_run", "repro.experiments.store", "ResultStoreBase", "put_run"),
    ("experiments.store.has", "repro.experiments.store", "ResultStoreBase", "has"),
    ("experiments.store.put_checkpoint", "repro.experiments.store", "ResultStoreBase", "put_checkpoint"),
    ("experiments.store.delete_checkpoint", "repro.experiments.store", "ResultStoreBase", "delete_checkpoint"),
    ("experiments.service.heartbeat", "repro.experiments.service.leases", "LeaseQueue", "heartbeat"),
    ("experiments.service.complete", "repro.experiments.service.leases", "LeaseQueue", "complete"),
)

#: Spans with extra bookkeeping (see :func:`install`); listed for the tables.
SPECIAL_SPANS = (
    "sim.engine.run_until",
    "radio.shadowing.blocks_many",
    "security.signing.sign",
    "security.signing.verify",
    "experiments.runner.summarize_world",
    "experiments.store.batch",
    "experiments.service.lease",
)

#: Spans that only structure the trace: the time of event callbacks outside
#: every named span, and the campaign worker's loop and per-job execution.
EVENT_SPAN = "sim.engine.event"
WORKER_SPAN = "experiments.service.worker_loop"
EXECUTE_SPAN = "experiments.campaign.execute_spec"
STRUCTURAL_SPANS = (EVENT_SPAN, WORKER_SPAN, EXECUTE_SPAN)

#: Per-layer metric prefix -> the end-to-end metric it should move, and where.
LAYER_TARGETS: Dict[str, str] = {
    "sim.engine": "wall_s on cbf-flood and highway-ab",
    "traffic": "wall_s on urban-grid, a smaller share on highway-ab",
    "radio.channel": "wall_s on highway-ab, runs_per_hour on campaign",
    "radio.shadowing": "wall_s on urban-grid (zero calls elsewhere)",
    "geonet.fleet": "wall_s on urban-grid and cbf-flood (zero on highway-ab)",
    "geonet.router": "wall_s on highway-ab",
    "geonet.loct": "wall_s on highway-ab",
    "geonet.gf": "wall_s on highway-ab and urban-grid",
    "geonet.cbf": "wall_s on cbf-flood",
    "security.signing": "wall_s on cbf-flood and highway-ab",
    "core.attacks": "wall_s on the attacked runs",
    "observability.ledger": "wall_s on cbf-flood only",
    "experiments.world": "setup_s everywhere",
    "experiments.runner": "setup_s everywhere",
    "experiments.checkpointing": "runs_per_hour on campaign (zero elsewhere)",
    "experiments.store": "runs_per_hour on campaign (zero elsewhere)",
    "experiments.service": "runs_per_hour on campaign (zero elsewhere)",
}


def span_names() -> List[str]:
    """Every emitted span prefix, in table order."""
    return list(SPECIAL_SPANS) + [name for name, *_ in SPANS]


class Recorder:
    """Per-process span and counter totals.

    Spans accumulate ``calls``, ``self_s`` (duration minus nested spans) and
    ``total_s`` (inclusive duration) per name; :meth:`count` accumulates
    plain counters.  The span stack is per thread, so a campaign worker's
    heartbeat thread nests its own spans only.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.dump_dir: Path | None = None

    def reset(self) -> None:
        for table in self._tables().values():
            table.clear()
        self._local.stack = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, frame: list, elapsed: float) -> None:
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[0]
        self.total_s[name] = self.total_s.get(name, 0.0) + elapsed

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        perf = time.perf_counter
        stack_of = self._stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack_of().append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame, perf() - start)

        return wrapper

    def span_cm(self, name: str, fn: Callable) -> Callable:
        """``fn`` returns a context manager; the span covers its ``with`` body."""
        recorder = self

        class _SpanCM:
            def __init__(self, inner):
                self._inner = inner

            def __enter__(self):
                self._frame = [0.0]
                recorder._stack().append(self._frame)
                self._start = time.perf_counter()
                try:
                    return self._inner.__enter__()
                except BaseException:
                    self._close()
                    raise

            def __exit__(self, *exc):
                try:
                    return self._inner.__exit__(*exc)
                finally:
                    self._close()

            def _close(self):
                recorder._close(name, self._frame, time.perf_counter() - self._start)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _SpanCM(fn(*args, **kwargs))

        return wrapper

    # -- cross-process ---------------------------------------------------
    def _tables(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counts": self.counts,
        }

    def dump(self, label: str) -> None:
        """Write this process's totals into ``dump_dir``."""
        path = self.dump_dir / f"{label}-{os.getpid()}.json"
        path.write_text(json.dumps(self._tables()))

    def merge_dir(self, directory: Path) -> None:
        """Add the totals of every file :meth:`dump` wrote in ``directory``."""
        for path in sorted(directory.glob("*.json")):
            data = json.loads(path.read_text())
            for key, table in self._tables().items():
                for name, value in data[key].items():
                    table[name] = table.get(name, 0) + value


def _import(name: str):
    """The module, or None once a refactor has removed it."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _owners(module, owner: str | None, attr: str) -> list:
    """The objects whose ``attr`` to patch: the module itself, or the owner
    class plus every subclass that defines ``attr`` itself."""
    if owner is None:
        return [module] if hasattr(module, attr) else []
    base = getattr(module, owner, None)
    if base is None:
        return []
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in vars(cls) and cls not in found:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(recorder: Recorder) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every traced function; returns the undo callable and the names
    of targets that no longer exist (skipped, so their metrics read zero).

    Install before a campaign forks its workers so they inherit the
    wrappers.
    """
    undo: List[Tuple[object, str, object]] = []
    missing: List[str] = []

    def patch(target, attr: str, wrapper) -> None:
        # Classes come from _owners, so the attribute is always their own.
        undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, wrapper)

    def wrap_all(name, module_name, owner, attr, make) -> None:
        targets = _owners(_import(module_name), owner, attr)
        if not targets:
            missing.append(name)
        for target in targets:
            patch(target, attr, make(vars(target)[attr]))

    span = recorder.span
    for name, module_name, owner, attr in SPANS:
        wrap_all(name, module_name, owner, attr,
                 functools.partial(span, name))

    # -- engine: dispatch overhead, events fired, entries scheduled --------
    def run_until(fn):
        timed = span("sim.engine.run_until", fn)

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            fired = sim.events_fired
            try:
                return timed(sim, *args, **kwargs)
            finally:
                recorder.count("sim.engine.events_fired", sim.events_fired - fired)

        return wrapper

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            recorder.count("sim.engine.scheduled")
            return fn(sim, *args, **kwargs)

        return wrapper

    def counted_many(fn):
        @functools.wraps(fn)
        def wrapper(sim, entries, *args, **kwargs):
            entries = list(entries)
            recorder.count("sim.engine.scheduled", len(entries))
            return fn(sim, entries, *args, **kwargs)

        return wrapper

    wrap_all("sim.engine.run_until", "repro.sim.engine", "Simulator",
             "run_until", run_until)
    for attr in ("schedule_at", "schedule_fire"):
        wrap_all(f"sim.engine.{attr}", "repro.sim.engine", "Simulator", attr,
                 counted)
    wrap_all("sim.engine.schedule_many", "repro.sim.engine", "Simulator",
             "schedule_many", counted_many)
    for cls_name in ("Event", "FireOnce"):
        wrap_all(EVENT_SPAN, "repro.sim.events", cls_name, "fire",
                 functools.partial(span, EVENT_SPAN))

    # -- shadowing: elements evaluated and blocked -------------------------
    def blocks_many(fn):
        timed = span("radio.shadowing.blocks_many", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            blocked = timed(*args, **kwargs)
            recorder.count("radio.shadowing.pairs", blocked.size)
            recorder.count("radio.shadowing.blocked", int(blocked.sum()))
            return blocked

        return wrapper

    wrap_all("radio.shadowing.blocks_many", "repro.radio.shadowing",
             "ManhattanShadowing", "blocks_many", blocks_many)

    # -- signing, patched where it is imported by name ---------------------
    from repro.security import signing

    for fn_name in ("sign", "verify"):
        original = getattr(signing, fn_name)
        wrapper = span(f"security.signing.{fn_name}", original)
        for module_name in SIGNING_SITES:
            module = _import(module_name)
            if getattr(module, fn_name, None) is original:
                patch(module, fn_name, wrapper)

    # -- runner --------------------------------------------------------------
    from repro.experiments import runner

    original = runner.summarize_world
    summarize = span("experiments.runner.summarize_world", original)
    for module_name in SUMMARIZE_SITES:
        module = _import(module_name)
        if getattr(module, "summarize_world", None) is original:
            patch(module, "summarize_world", summarize)

    # -- store and lease service -------------------------------------------
    wrap_all("experiments.store.batch", "repro.experiments.store",
             "ResultStoreBase", "batch",
             functools.partial(recorder.span_cm, "experiments.store.batch"))

    def lease(fn):
        timed = span("experiments.service.lease", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            granted = timed(*args, **kwargs)
            if granted is None:
                recorder.count("experiments.service.empty_leases")
            return granted

        return wrapper

    wrap_all("experiments.service.lease", "repro.experiments.service.leases",
             "LeaseQueue", "lease", lease)
    wrap_all(EXECUTE_SPAN, "repro.experiments.campaign", None, "execute_spec",
             functools.partial(span, EXECUTE_SPAN))

    def worker_loop(fn):
        timed = span(WORKER_SPAN, fn)

        @functools.wraps(fn)
        def wrapper(worker_id, *args, **kwargs):
            # A forked worker starts from a copy of the parent's totals.
            recorder.reset()
            try:
                return timed(worker_id, *args, **kwargs)
            finally:
                recorder.dump(str(worker_id))

        return wrapper

    wrap_all(WORKER_SPAN, "repro.experiments.service.scheduler", None,
             "worker_loop", worker_loop)

    def uninstall() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
        undo.clear()

    return uninstall, missing
