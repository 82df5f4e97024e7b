"""Spans around the calls ``idsched.cli`` makes into the layers below it.

``Tracer(cli)`` replaces cli's references to the ``asymptotic``, ``exact``,
``heuristics`` and ``sim`` modules with proxies.  A proxy hands out every
attribute of its module unchanged, except the functions named in ``ROLES``,
which it wraps so that each call records a span.  Only cli's calls are
seen: calls inside a layer go to the real module.  Spans are named by role,
so a name stays when the function behind it changes; a function that the
program no longer has is listed in ``absent`` and its role reads zero.

Spans are kept in memory.  With ``memory=True`` calls into ``exact`` and
``heuristics`` run under ``tracemalloc``, which gives their peak
Python-visible allocation (numpy reports its buffers); the simulation engines
are never traced that way, so their slot loops keep their speed.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

# module -> function -> role; a role of None is decided per call
ROLES = {
    "asymptotic": {"sn_policy": "asymptotic.policy", "mlg_stationary_policy": "asymptotic.policy"},
    "exact": {
        "growth_rate_optimal": "exact.optimum",
        "exhaustive_optimal": "exact.optimum",
        "average_cost": "exact.eval",
    },
    "heuristics": {
        "prr_average_cost": "heuristics.prr_eval",
        "periodic_schedule_average_cost": "heuristics.ps_eval",
        "build_periodic_schedule": "heuristics.ps_search",
    },
    "sim": {"estimate_cost": None},
}
MEMORY_MODULES = ("exact", "heuristics")
PER_SLOT_POLICIES = ("prr", "ps")  # simulated by the per-slot reference engine
TIMED_ROLES = (
    "asymptotic.policy",
    "exact.optimum",
    "exact.eval",
    "heuristics.prr_eval",
    "heuristics.ps_eval",
    "heuristics.ps_search",
    "sim.wdd",
    "sim.batch",
    "sim.per_slot",
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)


def _sim_role(args) -> str:
    name = getattr(args[1] if len(args) > 1 else None, "name", "")
    if name == "wdd":
        return "sim.wdd"
    return "sim.per_slot" if name in PER_SLOT_POLICIES else "sim.batch"


def _iterations(result) -> int:
    """Iteration count of a solver result, or of the report in a ``(policy, report)`` pair."""
    for item in (result, *(result if isinstance(result, tuple) else ())):
        if isinstance(getattr(item, "iterations", None), int):
            return item.iterations
    return 0


class _Proxy:
    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, cli, memory: bool = False):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._cli = cli
        self._originals = {}
        for module_name, functions in ROLES.items():
            module = getattr(cli, module_name)
            wrapped = {}
            for fn_name, role in functions.items():
                fn = getattr(module, fn_name, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{fn_name}")
                    continue
                wrapped[fn_name] = self._wrap(fn, role, memory and module_name in MEMORY_MODULES)
            self._originals[module_name] = module
            setattr(cli, module_name, _Proxy(module, wrapped))

    def uninstall(self) -> None:
        for module_name, module in self._originals.items():
            setattr(self._cli, module_name, module)

    @contextmanager
    def span(self, name: str, memory: bool = False):
        span = Span(name, 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        outermost_memory = memory and not tracemalloc.is_tracing()
        if outermost_memory:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if outermost_memory:
                span.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def _wrap(self, fn, role, memory):
        def traced(*args, **kwargs):
            name = role or _sim_role(args)
            with self.span(name, memory) as span:
                result = fn(*args, **kwargs)
            if name.startswith("sim."):
                cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                span.counts["trial_slots"] = cfg.trials * (cfg.warmup + cfg.horizon)
                if result.j_hat > 0:
                    span.counts["rel_stderr"] = result.stderr_j / result.j_hat
                span.counts["tail_coverage"] = result.tail_coverage
            else:
                span.counts["iterations"] = _iterations(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self, sweep_s: float) -> dict[str, float]:
        """Per-layer figures of this traced round; every value is a number."""
        own = self.self_seconds()
        metrics = {f"{role}_s": 0.0 for role in TIMED_ROLES}
        slots = {role: 0 for role in TIMED_ROLES}
        iters = {"exact.optimum": 0, "exact.eval": 0}
        peaks = {"exact.eval": 0, "heuristics.prr_eval": 0, "heuristics.ps_eval": 0}
        rel_stderr, coverage = [], []
        for span, seconds in zip(self.spans, own):
            if span.name not in slots:
                continue
            metrics[f"{span.name}_s"] += seconds
            slots[span.name] += span.counts.get("trial_slots", 0)
            if span.name in iters:
                iters[span.name] += span.counts["iterations"]
            if span.name in peaks:
                peaks[span.name] = max(peaks[span.name], span.peak_bytes)
            if "rel_stderr" in span.counts:
                rel_stderr.append(span.counts["rel_stderr"])
            if "tail_coverage" in span.counts:
                coverage.append(span.counts["tail_coverage"])
        metrics["cli.self_s"] = sweep_s - sum(metrics[f"{role}_s"] for role in TIMED_ROLES)
        for role in ("sim.wdd", "sim.batch", "sim.per_slot"):
            metrics[f"{role}_ns_per_trial_slot"] = 1e9 * metrics[f"{role}_s"] / slots[role] if slots[role] else 0.0
        metrics["sim.trial_slots"] = sum(slots.values())
        metrics["exact.optimum_iters"] = iters["exact.optimum"]
        metrics["exact.eval_iters"] = iters["exact.eval"]
        for role, peak in peaks.items():
            metrics[f"{role}_peak_mb"] = peak / 2**20
        metrics["sim.rel_stderr_median"] = statistics.median(rel_stderr) if rel_stderr else 0.0
        metrics["sim.tail_coverage_min"] = min(coverage) if coverage else 0.0
        metrics["trace.sweep_s"] = sweep_s
        return metrics
