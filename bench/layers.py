"""Per-layer wall-time attribution, applied from outside the simulator.

A :class:`LayerTracer` wraps the public entry points of each layer (see
:data:`LAYERS`) and every event callback the simulator schedules.  The
wrappers keep one stack of open layers: time is always charged to the
layer on top of the stack, so each layer's *self time* excludes the
layers it calls, and the self times of all layers — the benchmark's own
``bench`` root included — add up to the traced wall time.

Event callbacks are wrapped where they are scheduled
(``Simulator.schedule_at`` / ``Simulator.every``) and charged to an
``events.<package>`` layer named after the package that defines them, so
entity stepping, protocol timers, IDS sampling and attack steps each get
a line of their own.  Callbacks defined by the engine itself (periodic
re-arming) are dispatch and go to ``sim.engine``.

Nothing under ``src/`` knows about this module.  ``install`` patches
class attributes and module globals in place and ``uninstall`` puts the
original objects back.  Tracing never changes what the simulation does:
the wrappers only read a clock, so traced and untraced runs produce the
same output digests (``bench/tests/test_layers.py`` checks this).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Tuple

#: the benchmark's own code and anything not behind a named entry point
ROOT = "bench"

#: layer -> public entry points, as "module:Class.method" or "module:function".
#: "module:Class.*" means every public function defined on the class.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("repro.sim.engine:Simulator.run_until",),
    "sim.world": (
        "repro.sim.world:World.canopy_blockage",
        "repro.sim.world:World.trunk_blocks",
        "repro.sim.world:World.terrain_blocks",
    ),
    "sim.terrain": ("repro.sim.terrain:Terrain.blocks_line_of_sight",),
    "sensors": (
        "repro.sensors.detection:PeopleDetector.process_frame",
        "repro.sensors.camera:Camera.image_quality",
        "repro.sensors.occlusion:OcclusionModel.sight_line",
        "repro.sensors.fusion:TrackFusion.update",
    ),
    # the batch paths (WirelessMedium.interference_at_many, CommNode.send_many,
    # SecureChannel.seal_batch/open_batch) have no callers in the simulator,
    # so no workload could ever enter them
    "comms.medium": (
        "repro.comms.medium:WirelessMedium.transmit",
        "repro.comms.medium:WirelessMedium.interference_at",
    ),
    "comms.link": (
        "repro.comms.link:LinkEndpoint.send",
        "repro.comms.link:LinkEndpoint.receive_raw",
    ),
    "comms.network": (
        "repro.comms.network:CommNode.send",
    ),
    "comms.crypto": (
        "repro.comms.crypto.secure_channel:SecureChannel.seal",
        "repro.comms.crypto.secure_channel:SecureChannel.open",
    ),
    "scenarios": (
        "repro.scenarios.factory:compose_run",
        "repro.scenarios.worksite:build_worksite",
    ),
    # the tracer dispatches span handlers itself (SpanEmitter.on_record is
    # never called), so span work is charged to the Tracer method emitting
    # the record that caused it
    "telemetry": (
        "repro.telemetry.tracer:Tracer.*",
        "repro.telemetry.writer:TraceWriter.write",
        "repro.telemetry.writer:read_trace",
    ),
    "invariants": (
        "repro.invariants.engine:InvariantEngine.observe",
        "repro.invariants.engine:InvariantEngine.check",
        "repro.invariants.engine:InvariantEngine.finish",
        "repro.invariants.oracle:diff_records",
        "repro.invariants.oracle:check_trace",
    ),
    "runner": ("repro.runner.engine:SweepRunner.run",),
    "runner.store": (
        "repro.runner.campaign:CampaignStore.ensure_campaign",
        "repro.runner.campaign:CampaignBinding.append",
        "repro.runner.campaign:CampaignBinding.mark_running",
        "repro.runner.campaign:CampaignBinding.record_attempt",
    ),
    # the coordinator blocked on pool workers; the workers' own time is
    # not traced (a forked worker runs the wrappers disarmed)
    "runner.pool_wait": ("repro.runner.dispatch:LocalPoolDispatcher.poll",),
    "fuzz": (
        "repro.fuzz.search:FuzzSession.start",
        "repro.fuzz.search:FuzzSession.run",
        "repro.fuzz.generator:ScenarioGenerator.sample",
        "repro.fuzz.generator:ScenarioGenerator.mutate",
        "repro.fuzz.coverage:CoverageMap.observe",
        "repro.fuzz.corpus:Corpus.save",
        "repro.fuzz.corpus:Corpus.add_entry",
        "repro.fuzz.corpus:Corpus.write_report",
        "repro.fuzz.corpus:Corpus.record_cell",
    ),
}

#: packages that schedule simulator callbacks; anything else is events.other
EVENT_PACKAGES = (
    "attacks", "comms", "core", "defense", "faults", "groundstation",
    "safety", "scenarios", "sim",
)

#: every layer a trace can report, in report order
ALL_LAYERS: Tuple[str, ...] = (
    tuple(LAYERS)
    + tuple(f"events.{package}" for package in EVENT_PACKAGES)
    + ("events.other", ROOT)
)

#: layers every workload runs; their self time is also reported in seconds
#: (a layer a workload never enters would read a constant 0 s there)
TIMED: Tuple[str, ...] = (
    "sim.engine", "sim.world", "sim.terrain", "sensors", "comms.medium",
    "comms.link", "comms.network", "comms.crypto", "scenarios",
    "events.comms", "events.defense", "events.safety", "events.scenarios",
    "events.sim",
)

#: which end-to-end metric, on which workload, each layer should move
#: when it gets faster (README "Layers" explains the choices); the root
#: is the benchmark itself and moves nothing
TARGETS: Dict[str, Tuple[str, str]] = {
    "sim.engine": ("runs_per_s", "fig1_30min"),
    "sim.world": ("run_ms", "fig1_30min"),
    "sim.terrain": ("run_ms", "fig1_30min"),
    "sensors": ("run_ms", "fig1_30min"),
    "comms.medium": ("run_ms", "attack_grid"),
    "comms.link": ("run_ms", "attack_grid"),
    "comms.network": ("run_ms", "attack_grid"),
    "comms.crypto": ("run_ms", "attack_grid"),
    "scenarios": ("runs_per_s", "short_cells"),
    "telemetry": ("runs_per_s", "assurance"),
    "invariants": ("runs_per_s", "assurance"),
    "runner": ("runs_per_s", "attack_grid"),
    "runner.store": ("runs_per_s", "short_cells"),
    "runner.pool_wait": ("runs_per_s", "attack_grid"),
    "fuzz": ("runs_per_s", "assurance"),
    "events.attacks": ("run_ms", "attack_grid"),
    "events.comms": ("run_ms", "attack_grid"),
    "events.core": ("run_ms", "fig1_30min"),
    "events.defense": ("run_ms", "fig1_30min"),
    "events.faults": ("runs_per_s", "assurance"),
    "events.groundstation": ("runs_per_s", "assurance"),
    "events.safety": ("run_ms", "fig1_30min"),
    "events.scenarios": ("run_ms", "fig1_30min"),
    "events.sim": ("run_ms", "fig1_30min"),
    "events.other": ("run_ms", "fig1_30min"),
}


def resolve(entry: str) -> List[Tuple[object, str, object]]:
    """``(owner, attribute, original)`` for one entry point.

    Raises ``LookupError`` when the module, class or function is gone, so
    a rename in the simulator fails loudly instead of zeroing a layer.
    """
    module_name, _, path = entry.partition(":")
    module = importlib.import_module(module_name)
    *owner_path, name = path.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{entry}: {part!r} not found")
    if name == "*":
        found = [
            (owner, attr, value) for attr, value in vars(owner).items()
            if not attr.startswith("_") and callable(value)
        ]
    else:
        value = vars(owner).get(name) if isinstance(owner, type) \
            else getattr(owner, name, None)
        if not callable(value):
            raise LookupError(f"{entry}: {name!r} not found")
        found = [(owner, name, value)]
    if not found:
        raise LookupError(f"{entry}: no public functions")
    return found


def callback_module(callback: Callable) -> str:
    """The module that defines an event callback."""
    func = callback.func if isinstance(callback, functools.partial) else callback
    func = getattr(func, "__func__", func)
    return getattr(func, "__module__", None) or ""


@functools.lru_cache(maxsize=None)
def module_layer(module: str) -> str:
    """The layer a callback defined in ``module`` is charged to."""
    if module == "repro.sim.engine":
        return "sim.engine"
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in EVENT_PACKAGES:
        return f"events.{parts[1]}"
    return "events.other"


#: entry_calls keys counting fired events, and periodic callbacks run
#: inside the engine's re-arming event (which is the one that counts)
EVENT, TICK = "<event>", "<tick>"


class LayerTracer:
    """Self time and call counts per layer, for one process.

    Usage::

        tracer = LayerTracer()
        tracer.install()          # patch entry points (disarmed)
        tracer.start()            # arm; time now goes to the root layer
        ...                       # the traced work
        tracer.stop()             # disarm; the report is final
        tracer.uninstall()        # restore the original objects
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(ALL_LAYERS, 0.0)
        #: calls per entry point ("module:Class.method"), for rename checks
        self.entry_calls: Dict[str, int] = {EVENT: 0, TICK: 0}
        #: the entry points of each layer, as entry_calls keys
        self.entries: Dict[str, List[str]] = {layer: [] for layer in LAYERS}
        self.wall_s = 0.0
        self.active = False
        self._stack: List[str] = []
        self._mark = 0.0
        self._started = 0.0
        self._patches: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disarm)

    # -- the clock ------------------------------------------------------------
    def start(self) -> None:
        self._stack[:] = [ROOT]
        self._started = self._mark = time.perf_counter()
        self.active = True

    def stop(self) -> None:
        now = time.perf_counter()
        while self._stack:
            self.self_s[self._stack.pop()] += now - self._mark
            self._mark = now
        self.wall_s += now - self._started
        self.active = False

    def _disarm(self) -> None:
        # a forked pool worker inherits the wrappers but not the report
        self.active = False

    # -- wrappers -------------------------------------------------------------
    def _wrap(self, func: Callable, layer: str, entry: str) -> Callable:
        """``func`` charging its self time to ``layer`` while armed.

        The hot path is inlined (no helper calls): it runs once per entry
        point call and once per simulator event.
        """
        tracer, stack, self_s = self, self._stack, self.self_s
        calls, clock = self.entry_calls, time.perf_counter
        calls.setdefault(entry, 0)

        def timed(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            now = clock()
            self_s[stack[-1]] += now - tracer._mark
            stack.append(layer)
            tracer._mark = now
            calls[entry] += 1
            try:
                return func(*args, **kwargs)
            finally:
                now = clock()
                self_s[stack.pop()] += now - tracer._mark
                tracer._mark = now

        return timed

    def _callback(self, callback: Callable, entry: str) -> Callable:
        return self._wrap(callback, module_layer(callback_module(callback)),
                          entry)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` and the scheduler."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        from repro.sim.engine import Simulator

        for layer, entries in LAYERS.items():
            for entry in entries:
                for owner, name, func in resolve(entry):
                    label = entry.replace("*", name)
                    self.entries[layer].append(label)
                    wrapped = functools.wraps(func)(
                        self._wrap(func, layer, label)
                    )
                    if isinstance(owner, type):
                        self._patch(owner, name, wrapped)
                    else:
                        # a module function: replace every module-level
                        # reference (``from x import f`` copies the object)
                        for module in list(sys.modules.values()):
                            if (getattr(module, "__name__", "").startswith("repro")
                                    and vars(module).get(name) is func):
                                self._patch(module, name, wrapped)

        schedule_at, every = Simulator.schedule_at, Simulator.every
        tracer = self

        def traced_schedule_at(sim, at, callback, *, priority=0):
            return schedule_at(sim, at, tracer._callback(callback, EVENT),
                               priority=priority)

        def traced_every(sim, interval, callback, *, start_at=None, priority=0):
            return every(sim, interval, tracer._callback(callback, TICK),
                         start_at=start_at, priority=priority)

        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(Simulator, "every", traced_every)

    def uninstall(self) -> None:
        """Put every patched attribute back to its original object."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- report ---------------------------------------------------------------
    def report(self) -> dict:
        """Self time and calls per layer plus the totals they must match."""
        calls = self.entry_calls
        return {
            "wall_s": self.wall_s,
            "self_s": dict(self.self_s),
            "calls": {layer: sum(calls[e] for e in entries)
                      for layer, entries in self.entries.items()},
            "entry_calls": {e: n for e, n in calls.items()
                            if e not in (EVENT, TICK)},
            "events": calls[EVENT],
        }
