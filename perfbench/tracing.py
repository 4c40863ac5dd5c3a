"""Spans around calls into the layers of ``lqgmfg``, recorded from outside.

Nothing inside ``src/`` is instrumented.  A ``Tracer`` replaces each wrapped
public function by a timing wrapper at the name its caller looks it up under
(``lqgmfg.meanfield.rk4_linear_tabulated`` is where the consistency solver
finds the RK4 kernel, for example) and puts the originals back on
``uninstall``.  Spans (name, start, end, parent) stay in memory until
``write``; a span's self time is its duration minus the time its child spans
cover.  Single-threaded callers only: the parent is the innermost open span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One wrapped function: ``module.attr``, recorded as span ``span``;
    ``count(args, kwargs, result)`` gives work counters for the call."""

    module: str
    attr: str
    span: str
    count: Callable[[tuple, dict, object], dict] | None = None


def _one(name):
    return lambda args, kwargs, result: {name: 1}


def _rk4_nodes(args, kwargs, result):
    return {"numerics.rk4_nodes": result.grid.steps}


def _noise_values(args, kwargs, result):
    return {"simulator.noise_values":
            result.x0_z.size + result.action_z.size + result.dW.size}


def _agent_steps(args, kwargs, result):
    return {"simulator.agent_steps": result.N * result.grid.steps}


def _cost_agent_nodes(args, kwargs, result):
    batch = args[0]
    return {"simulator.cost_agent_nodes":
            result.per_agent.size * (batch.grid.steps + 1)}


def _trader_steps(args, kwargs, result):
    return {"trading.trader_steps": result.q.shape[0] * result.grid.steps}


# Every entry is installed at the module its caller reads it from; a function
# reached from two modules is wrapped at both.
HOOKS = (
    Hook("lqgmfg.cli", "cmd_solve", "cli.solve_cmd"),
    Hook("lqgmfg.meanfield", "solve_discounted_are", "riccati.are",
         _one("riccati.are_calls")),
    Hook("lqgmfg.trading", "solve_differential_riccati", "riccati.dre"),
    Hook("lqgmfg.meanfield", "rk4_linear_tabulated", "numerics.rk4", _rk4_nodes),
    Hook("lqgmfg.trading", "rk4_linear_time_varying", "numerics.rk4", _rk4_nodes),
    Hook("lqgmfg.cli", "solve_consistency", "meanfield.solve",
         lambda a, k, r: {"meanfield.sweeps": r.iterations}),
    Hook("lqgmfg.meanfield", "solve_consistency", "meanfield.solve",
         lambda a, k, r: {"meanfield.sweeps": r.iterations}),
    Hook("lqgmfg.cli", "consistency_residual", "meanfield.residual"),
    Hook("lqgmfg.simulator", "draw_noise", "simulator.draw_noise", _noise_values),
    Hook("lqgmfg.simulator", "simulate_population", "simulator.simulate",
         _agent_steps),
    Hook("lqgmfg.simulator", "simulate_representative", "simulator.simulate",
         _agent_steps),
    Hook("lqgmfg.simulator", "empirical_cost", "simulator.cost",
         _cost_agent_nodes),
    Hook("lqgmfg.simulator", "coe_experiment", "simulator.coe"),
    Hook("lqgmfg.simulator", "coupling_gap_experiment", "simulator.experiment"),
    Hook("lqgmfg.simulator", "cost_gap_experiment", "simulator.experiment"),
    Hook("lqgmfg.simulator", "nash_deviation_experiment", "simulator.experiment"),
    Hook("lqgmfg.trading", "solve_finite_horizon", "trading.fh_solve",
         lambda a, k, r: {"trading.fh_sweeps": r.iterations}),
    Hook("lqgmfg.trading", "simulate_market", "trading.market", _trader_steps),
    Hook("lqgmfg.trading", "estimate_params", "trading.estimate"),
    Hook("lqgmfg.trading", "rl_loop", "trading.loop"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    missing: set = field(default_factory=set)     # span names with a hook gone
    broken: set = field(default_factory=set)      # counters that could not be read
    _stack: list[int] = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def install(self) -> None:
        for hook in HOOKS:
            try:
                mod = importlib.import_module(hook.module)
            except ImportError:
                mod = None
            fn = getattr(mod, hook.attr, None)
            if fn is None:
                self.missing.add(hook.span)
                continue
            self._saved.append((mod, hook.attr, fn))
            setattr(mod, hook.attr, self._wrap(fn, hook))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def count(self, name: str, value) -> None:
        if self.active:
            self.counts[name] += value

    def _wrap(self, fn, hook: Hook):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(hook.span, time.perf_counter(), parent=parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook.count is not None:
                try:
                    for name, value in hook.count(args, kwargs, result).items():
                        self.counts[name] += value
                except (AttributeError, IndexError, TypeError):
                    self.broken.add(hook.span)
            return result

        return wrapper

    def totals(self) -> tuple[dict, dict]:
        """Summed duration and summed self time per span name."""
        total, child = defaultdict(float), defaultdict(float)
        for span in self.spans:
            d = span.end - span.start
            total[span.name] += d
            if span.parent >= 0:
                child[span.parent] += d
        own = defaultdict(float)
        for i, span in enumerate(self.spans):
            own[span.name] += (span.end - span.start) - child[i]
        return total, own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [[s.name, s.start, s.end, s.parent]
                                 for s in self.spans],
                       "counts": dict(self.counts)}, fh)
            fh.write("\n")


def _ratio(num, den, scale=1e9):
    return scale * num / den if den else 0.0


# name, unit, span names the metric is read from, value(total, own, counts)
LAYER_METRICS = (
    ("cli.solve_cmd_s", "s", ("cli.solve_cmd",), lambda t, o, c: t["cli.solve_cmd"]),
    ("cli.self_s", "s", ("cli.solve_cmd",), lambda t, o, c: o["cli.solve_cmd"]),
    ("cli.bytes_written", "bytes", ("cli.solve_cmd",),
     lambda t, o, c: c["cli.bytes_written"]),
    ("riccati.are_s", "s", ("riccati.are",), lambda t, o, c: t["riccati.are"]),
    ("riccati.are_calls", "count", ("riccati.are",),
     lambda t, o, c: c["riccati.are_calls"]),
    ("riccati.dre_s", "s", ("riccati.dre",), lambda t, o, c: t["riccati.dre"]),
    ("numerics.rk4_s", "s", ("numerics.rk4",), lambda t, o, c: t["numerics.rk4"]),
    ("numerics.rk4_nodes", "count", ("numerics.rk4",),
     lambda t, o, c: c["numerics.rk4_nodes"]),
    ("numerics.rk4_ns_per_node", "ns", ("numerics.rk4",),
     lambda t, o, c: _ratio(t["numerics.rk4"], c["numerics.rk4_nodes"])),
    ("meanfield.solve_s", "s", ("meanfield.solve",),
     lambda t, o, c: t["meanfield.solve"]),
    ("meanfield.sweeps", "count", ("meanfield.solve",),
     lambda t, o, c: c["meanfield.sweeps"]),
    ("meanfield.self_s", "s", ("meanfield.solve",),
     lambda t, o, c: o["meanfield.solve"]),
    ("meanfield.residual_s", "s", ("meanfield.residual",),
     lambda t, o, c: t["meanfield.residual"]),
    ("simulator.draw_noise_s", "s", ("simulator.draw_noise",),
     lambda t, o, c: t["simulator.draw_noise"]),
    ("simulator.noise_ns_per_value", "ns", ("simulator.draw_noise",),
     lambda t, o, c: _ratio(t["simulator.draw_noise"], c["simulator.noise_values"])),
    ("simulator.simulate_s", "s", ("simulator.simulate",),
     lambda t, o, c: t["simulator.simulate"]),
    ("simulator.agent_steps", "count", ("simulator.simulate",),
     lambda t, o, c: c["simulator.agent_steps"]),
    ("simulator.ns_per_agent_step", "ns", ("simulator.simulate",),
     lambda t, o, c: _ratio(o["simulator.simulate"], c["simulator.agent_steps"])),
    ("simulator.cost_s", "s", ("simulator.cost",), lambda t, o, c: t["simulator.cost"]),
    ("simulator.cost_ns_per_agent_node", "ns", ("simulator.cost",),
     lambda t, o, c: _ratio(t["simulator.cost"], c["simulator.cost_agent_nodes"])),
    ("simulator.coe_s", "s", ("simulator.coe",), lambda t, o, c: t["simulator.coe"]),
    ("simulator.experiment_self_s", "s", ("simulator.experiment",),
     lambda t, o, c: o["simulator.experiment"]),
    ("trading.fh_solve_s", "s", ("trading.fh_solve",),
     lambda t, o, c: t["trading.fh_solve"]),
    ("trading.fh_sweeps", "count", ("trading.fh_solve",),
     lambda t, o, c: c["trading.fh_sweeps"]),
    ("trading.market_s", "s", ("trading.market",), lambda t, o, c: t["trading.market"]),
    ("trading.market_ns_per_trader_step", "ns", ("trading.market",),
     lambda t, o, c: _ratio(t["trading.market"], c["trading.trader_steps"])),
    ("trading.estimate_s", "s", ("trading.estimate",),
     lambda t, o, c: t["trading.estimate"]),
    ("trading.loop_self_s", "s", ("trading.loop",), lambda t, o, c: o["trading.loop"]),
)


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the recorded spans and counters; a metric whose
    wrapped function is gone, or whose counter could not be read, is absent."""
    total, own = tracer.totals()
    gone = tracer.missing | tracer.broken
    metrics, absent = {}, []
    for name, unit, spans, value in LAYER_METRICS:
        if gone.intersection(spans):
            absent.append(name)
            continue
        metrics[name] = {"value": value(total, own, tracer.counts), "unit": unit}
    return metrics, absent
