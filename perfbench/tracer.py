"""Outside-in layer tracer: per-layer self time, call counts and counters.

The tracer instruments the program from the benchmark's own files — no
line under ``src/`` knows about it.  :meth:`Tracer.install` wraps every
public function and every public method of a public class defined in one
of the :data:`LAYERS` packages, plus the lane-protocol methods of every
:class:`repro.engine.Lane` subclass, and rebinds every module attribute
that referenced an original function (so ``from x import f`` callers see
the wrapper too).  :meth:`Tracer.uninstall` puts every original back.

Accounting:

* a wrapped call's *self time* is its duration minus the durations of
  the wrapped calls nested inside it; it is charged to the layer (the
  ``repro.<layer>`` package) that defines the function;
* lane-protocol methods (:data:`PROTOCOL`) are charged to the package
  that defines the lane class, even when the lane inherits the engine's
  default, so ``engine`` keeps only ``LockstepScheduler.run``'s own cost;
* numpy and other library time lands in the layer that called it;
* :data:`SPANS` are inclusive times of named layer-boundary calls, and
  the hooks in :data:`HOOKS` / :data:`PROTOCOL_HOOKS` count work units.

Functions that take a callback and run it (:data:`CALLBACK_RUNNERS`) are
left unwrapped, so the callback's time stays with the layer that called
the runner.  Generator functions and properties are never wrapped.
Functions referenced from containers built at import time (default
arguments, dispatch tables) are not rebound; their time lands in the
caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter

#: The ``repro`` packages a trace charges time to.
LAYERS = (
    "phy", "channel", "core", "net", "routing", "lasthop",
    "traffic", "analysis", "hardware", "engine", "experiments",
)

#: Lane-protocol methods, charged to the package that defines the lane.
PROTOCOL = ("prime_lanes", "prime", "setup", "advance", "advance_lanes", "result", "draw")

#: Sharding helpers that run a caller-supplied function; not wrapped.
CALLBACK_RUNNERS = frozenset({
    "repro.engine.scheduler.run_chunks",
    "repro.engine.scheduler.run_seed_chunks",
    "repro.engine.scheduler.run_trials",
})

#: Layer-boundary spans: metric name -> functions it times (inclusive).
SPANS = {
    "phy.viterbi_s": ("repro.phy.coding.convolutional.ConvolutionalCode.decode_batch",),
    "phy.detect_s": ("repro.phy.detection.detect_packet_autocorrelation_batch",),
    "phy.encode_s": ("repro.phy.transmitter.encode_payloads_to_symbols",),
    "channel.propagate_s": (
        "repro.channel.composite.propagate_rows",
        "repro.channel.composite.combine_ensemble_at_receiver",
    ),
    "channel.awgn_s": ("repro.channel.awgn.awgn",),
    "channel.evolve_s": ("repro.channel.dynamics.GilbertElliott.evolve_states",),
    "channel.cube_s": ("repro.channel.dynamics.trajectory_from_states",),
    "core.probe_s": ("repro.core.ensemble.measure_delays_batch",),
    "core.header_s": ("repro.core.ensemble.run_header_exchanges_batch",),
    "core.tracking_s": ("repro.core.ensemble.converge_tracking_batch",),
    "core.receive_s": (
        "repro.core.receiver.JointReceiver.receive_many",
        "repro.core.receiver.JointReceiver.measure_header_batch",
    ),
    "net.delivery_s": (
        "repro.net.topology.Testbed.delivery_prob_matrix",
        "repro.net.topology.Testbed.joint_delivery_prob_row",
        "repro.net.topology.Testbed.prime_delivery_cache",
    ),
    "net.etx_s": ("repro.net.etx.etx_graph", "repro.net.etx.forwarder_order"),
    "analysis.eesm_s": (
        "repro.analysis.error_models.delivery_probabilities_rates",
        "repro.analysis.error_models.combined_subcarrier_snr_batch",
    ),
    "routing.prime_s": ("repro.routing.ensemble.prime_testbeds_lockstep",),
    "routing.exor_s": ("repro.routing.ensemble.simulate_exor_ensemble",),
    "routing.downlink_s": ("repro.routing.ensemble.simulate_downlink_ensemble",),
    "routing.single_path_s": ("repro.routing.ensemble.simulate_single_path_ensemble",),
    "routing.link_local_s": ("repro.routing.ensemble.simulate_link_local_ensemble",),
    "traffic.serve_s": ("repro.traffic.service.simulate_flow_services",),
}

#: Experiments whose ``ExperimentSpec.run`` time is reported on its own.
HOST_SPAN_EXPERIMENTS = (
    "fig12", "fig13", "fig17", "fig18", "fig19_traffic_load", "fig20_link_dynamics",
)

_SPEC_RUN = "repro.experiments.registry.ExperimentSpec.run"

#: Work counters, all reported (0 where a workload never reaches them).
COUNTERS = (
    "channel.trajectories", "channel.trajectory_reads", "channel.trajectory_wraps",
    "engine.lanes", "engine.chain_activations", "engine.stacked_waves", "engine.lane_advances",
    "traffic.flows",
)


def _slot_read(tracer, trajectory, slot, *rest, **kwargs):
    """One multiplier-block read at ``slot``; it wraps past the horizon."""
    tracer.counts["channel.trajectory_reads"] += 1
    tracer.counts["channel.trajectory_wraps"] += slot >= trajectory.horizon_slots


def _rows_read(tracer, trajectory, start_slot, n_slots, *rest, **kwargs):
    """``n_slots`` consecutive slot reads from ``start_slot``."""
    tracer.counts["channel.trajectory_reads"] += n_slots
    in_range = min(n_slots, max(0, trajectory.horizon_slots - start_slot))
    tracer.counts["channel.trajectory_wraps"] += n_slots - in_range


def _scheduler_run(tracer, scheduler, lanes, *rest, **kwargs):
    tracer.counts["engine.lanes"] += len(lanes)


def _serve_flows(tracer, workload, *rest, **kwargs):
    tracer.counts["traffic.flows"] += len(workload.flows)


def _prime(tracer, lane, *rest, **kwargs):
    """Chained lanes prime at activation; roots prime through prime_lanes."""
    tracer.counts["engine.chain_activations"] += lane.after is not None


def _advance_lanes(tracer, cls, lanes, *rest, **kwargs):
    if cls.stacked:
        tracer.counts["engine.stacked_waves"] += 1
        tracer.counts["engine.lane_advances"] += len(lanes)


def _advance(tracer, lane, *rest, **kwargs):
    if not type(lane).stacked:
        tracer.counts["engine.lane_advances"] += 1


#: Counting hooks by qualified function name, called with the call's args.
HOOKS = {
    "repro.channel.dynamics.LinkStateTrajectory.pair_multiplier": _slot_read,
    "repro.channel.dynamics.LinkStateTrajectory.receiver_multipliers": _slot_read,
    "repro.channel.dynamics.LinkStateTrajectory.rows": _rows_read,
    "repro.engine.scheduler.LockstepScheduler.run": _scheduler_run,
    "repro.traffic.service.simulate_flow_services": _serve_flows,
}

#: Counting hooks on the lane protocol, by method name.
PROTOCOL_HOOKS = {"prime": _prime, "advance_lanes": _advance_lanes, "advance": _advance}


def _qualname(fn) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def _span_and_hook(qualname: str):
    """The span metric (name, or callable of the args) and hook of a function."""
    if qualname == _SPEC_RUN:
        hosted = set(HOST_SPAN_EXPERIMENTS)
        return (lambda args: f"experiments.{args[0].name}.host_s" if args[0].name in hosted else None), None
    span = next((metric for metric, names in SPANS.items() if qualname in names), None)
    return span, HOOKS.get(qualname)


def _import_layers() -> None:
    """Import every module of every layer so none is imported after install."""
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        for info in pkgutil.walk_packages(package.__path__, prefix=f"repro.{layer}."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)


def _subclasses(cls: type) -> list[type]:
    found, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        found.append(sub)
        todo.extend(sub.__subclasses__())
    return found


class Tracer:
    """Accumulates per-layer self time, calls, spans and counters."""

    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.missing: list[str] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.spans = dict.fromkeys(
            [*SPANS, *(f"experiments.{name}.host_s" for name in HOST_SPAN_EXPERIMENTS)], 0.0
        )
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.multiplier_bytes = 0
        self._depth = dict.fromkeys(self.spans, 0)

    def reset(self) -> None:
        """Zero every accumulator in place (between traced passes)."""
        for table in (self.self_s, self.calls, self.spans, self.counts, self._depth):
            for key in table:
                table[key] = 0
        self.multiplier_bytes = 0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn, layer: str, span=None, hook=None):
        """A timing wrapper around ``fn`` charged to ``layer``.

        ``span`` is a metric name, or a callable mapping the call's args to
        one (or None); ``hook(tracer, *args, **kwargs)`` runs before the call.
        """
        stack, self_s, calls, spans, depth = self._stack, self.self_s, self.calls, self.spans, self._depth
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, *args, **kwargs)
            name = span(args) if callable(span) else span
            if name is not None:
                depth[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                if name is not None:
                    depth[name] -= 1
                    if depth[name] == 0:
                        spans[name] += elapsed

        functools.update_wrapper(wrapper, fn)  # also keeps pickling by reference working
        wrapper._perfbench = True
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, attr: str, raw, layer: str, hook=None) -> None:
        """Wrap one raw class attribute (function/static/classmethod) in place."""
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        while getattr(fn, "_perfbench", False):
            fn = fn.__wrapped__
        if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
            return
        qualname = _qualname(fn)
        span, default_hook = _span_and_hook(qualname)
        wrapper = self._wrap(fn, layer, span, hook or default_hook)
        self._wrapped.add(qualname)
        self._set(cls, attr, kind(wrapper) if kind else wrapper)

    def install(self) -> None:
        """Wrap every layer's public surface and the lane protocol."""
        _import_layers()
        from repro.channel.dynamics import LinkStateTrajectory
        from repro.engine.lane import Lane

        self._wrapped: set[str] = set()
        modules = {
            name: module for name, module in sorted(sys.modules.items())
            if module is not None and name.startswith("repro.")
        }
        functions: dict[int, tuple[object, object]] = {}
        lane_classes = {Lane, *_subclasses(Lane)}
        for name, module in modules.items():
            layer = _layer_of(name)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != name:
                    continue
                if inspect.isfunction(value):
                    qualname = _qualname(value)
                    if qualname in CALLBACK_RUNNERS or inspect.isgeneratorfunction(value):
                        continue
                    span, hook = _span_and_hook(qualname)
                    functions[id(value)] = (value, self._wrap(value, layer, span, hook))
                    self._wrapped.add(qualname)
                elif inspect.isclass(value) and value is not Lane:
                    for method, raw in list(vars(value).items()):
                        if method.startswith("_") or (value in lane_classes and method in PROTOCOL):
                            continue
                        self._wrap_method(value, method, raw, layer)
        for cls in _subclasses(Lane):
            layer = _layer_of(cls.__module__)
            if layer is None:
                continue
            for method in PROTOCOL:
                self._wrap_method(
                    cls, method, inspect.getattr_static(cls, method), layer, PROTOCOL_HOOKS.get(method)
                )
        # Rebind every module-level reference, wherever it was imported to.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in functions:
                    original, wrapper = functions[id(value)]
                    if value is original:
                        self._set(module, attr, wrapper)
        self._count_trajectories(LinkStateTrajectory)
        wanted = {name for names in SPANS.values() for name in names} | set(HOOKS) | {_SPEC_RUN}
        self.missing = sorted(wanted - self._wrapped)
        if self.missing:
            print(f"perfbench: trace targets not found: {self.missing}", file=sys.stderr)

    def _count_trajectories(self, cls: type) -> None:
        """Count trajectory constructions and their multiplier bytes."""
        init = cls.__init__
        tracer = self

        def counted_init(trajectory, *args, **kwargs):
            init(trajectory, *args, **kwargs)
            tracer.counts["channel.trajectories"] += 1
            tracer.multiplier_bytes += trajectory.multipliers.nbytes

        self._set(cls, "__init__", counted_init)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took ``wall_s``."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.share"] = self.self_s[layer] / wall_s
        out["other.self_s"] = wall_s - sum(self.self_s.values())
        out.update(self.spans)
        out.update(self.counts)
        out["channel.multiplier_mb"] = self.multiplier_bytes / 2**20
        return out


_ABSENT = object()
