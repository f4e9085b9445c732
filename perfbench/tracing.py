"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

The program under test is never edited.  Each layer's public entry
points are wrapped at run time in every ``repro`` module that holds a
reference to them (``repro.analysis.campaign.run`` as well as
``repro.runtime.sync.executor.run``); device and spec methods are
wrapped on their classes.  Spans are aggregated in memory per name —
calls, inclusive time and self time (a span's time minus the part its
child spans cover) — and read out when the run ends.

The program's own ``repro.obs`` telemetry stays off in both runs.
"""

from __future__ import annotations

import inspect
import sys
from collections.abc import Callable
from time import perf_counter
from typing import Any


class Span:
    """Aggregate of every call recorded under one span name."""

    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0  # outermost calls only: recursion is not counted twice
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps callables in spans; a passthrough while ``active`` is off.

    The benchmark switches ``active`` on only around timed operations,
    so its own output checks never land in a layer's numbers.
    """

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counters: dict[str, int] = {}
        self.active = False
        self._stack: list[list[float]] = []  # child time of each open span
        self._undo: list[tuple[Any, str, Any]] = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Callable[..., None] | None = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``.  ``on_call(result, *args,
        **kwargs)`` runs inside the span after each traced call, for
        counts that need the call's arguments or result."""
        span = self.span(name)
        stack = self._stack
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            span.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(result, *args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_s += elapsed - frame[0]
                if span.depth == 0:
                    span.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def patch_function(
        self, name: str, module: str, attr: str, on_call=None
    ) -> bool:
        """Wrap ``module.attr`` wherever a ``repro`` module holds it.

        Returns False when the target does not exist, so a layer that a
        later version of the program renamed is reported, not fatal.
        """
        owner = sys.modules.get(module)
        original = getattr(owner, attr, None) if owner is not None else None
        if not inspect.isfunction(original):
            return False
        wrapper = self.wrap(name, original, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapper)
        return True

    def patch_method(self, name: str, cls: type, attr: str, on_call=None) -> bool:
        """Wrap a method defined on ``cls`` itself (not inherited)."""
        original = cls.__dict__.get(attr)
        if not inspect.isfunction(original):
            return False
        self.replace(cls, attr, self.wrap(name, original, on_call))
        return True

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr``, remembering the old value for :meth:`uninstall`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _classes_in(package: str) -> list[type]:
    """Classes defined in the already imported modules of ``package``."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not mod_name.startswith(package + "."):
            continue
        for value in vars(mod).values():
            if inspect.isclass(value) and value.__module__ == mod_name:
                found.append(value)
    return found


COVERING_BUILDERS = (
    "hexagon_cover_of_triangle",
    "ring_cover_of_triangle",
    "double_cover",
    "cyclic_cover",
    "connectivity_cyclic_cover",
    "node_bound_double_cover",
    "connectivity_double_cover",
)

CONNECTIVITY_QUERIES = (
    "node_connectivity",
    "local_connectivity",
    "min_vertex_cut",
    "global_min_cut",
    "vertex_disjoint_paths",
)


def install_layers(tracer: Tracer) -> list[str]:
    """Wrap every layer boundary the per-layer metrics read.

    Returns the targets that could not be found, so the run can say
    which layers went unmeasured.
    """
    import repro.analysis.campaign  # noqa: F401 - loads the campaign stack
    import repro.analysis.parallel as parallel
    import repro.analysis.runstore as runstore
    import repro.core as core
    import repro.problems  # noqa: F401 - loads every spec module
    import repro.protocols  # noqa: F401 - loads every device module
    import repro.runtime.faults as faults
    from repro.runtime.sync.device import SyncDevice

    missing: list[str] = []

    def function(name: str, module: str, attr: str, on_call=None) -> None:
        if not tracer.patch_function(name, module, attr, on_call):
            missing.append(f"{module}.{attr}")

    def method(name: str, cls: type, attr: str, on_call=None) -> None:
        if not tracer.patch_method(name, cls, attr, on_call):
            missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")

    for cls in _classes_in("repro.protocols"):
        if issubclass(cls, SyncDevice):
            for attr in ("send", "transition"):
                if attr in cls.__dict__:
                    method(f"protocols.{attr}", cls, attr)
    for cls in _classes_in("repro.problems"):
        for attr in ("check", "check_at"):
            if attr in cls.__dict__:
                method("problems.check", cls, attr)

    function("runtime.sync.run", "repro.runtime.sync.executor", "run")
    function("runtime.sync.make_system", "repro.runtime.sync.system", "make_system")
    function("runtime.plan.compile", "repro.runtime.plan", "compile_sync_plan")
    function("runtime.timed.run", "repro.runtime.timed.executor", "run_timed")

    # Injections are counted from the records each deliver call appends
    # to the injector's trace.
    deliver = faults.SyncFaultInjector.__dict__.get("deliver")
    if inspect.isfunction(deliver):

        def counted_deliver(self, *args, **kwargs):
            before = len(self.trace.records)
            try:
                return deliver(self, *args, **kwargs)
            finally:
                tracer.count(
                    "runtime.faults.injected", len(self.trace.records) - before
                )

        tracer.replace(
            faults.SyncFaultInjector,
            "deliver",
            tracer.wrap("runtime.faults.deliver", counted_deliver),
        )
    else:
        missing.append("repro.runtime.faults.SyncFaultInjector.deliver")

    campaign = "repro.analysis.campaign"

    def shrink_candidate(result, *args, **kwargs) -> None:
        if tracer.span("analysis.campaign.shrink").depth:
            tracer.count("analysis.campaign.shrink_candidates")

    function("analysis.campaign.sample", campaign, "_sample_attempt")
    function("analysis.campaign.execute", campaign, "execute_attempt", shrink_candidate)
    function("analysis.campaign.shrink", campaign, "shrink_counterexample")
    function(
        "analysis.adversary_search.build",
        "repro.analysis.adversary_search",
        "build_adversary",
    )

    def pooled(result, *args, **kwargs) -> None:
        tracer.count("analysis.parallel.items", len(result))

    method("analysis.parallel.map", parallel.ParallelRunner, "map", pooled)
    method("analysis.parallel.map", parallel.ParallelRunner, "map_captured", pooled)
    method("analysis.runstore.append", runstore.Shard, "append")
    method("analysis.runstore.sync", runstore.Shard, "sync")

    for attr in sorted(vars(core)):
        if attr.startswith(("refute_", "corollary_")):
            function("core.refute", getattr(core, attr).__module__, attr)
    function("core.chain", "repro.core.covering_argument", "run_scenario_chain")
    function("core.base_behavior", "repro.core.covering_argument", "build_base_behavior")
    function(
        "core.base_behavior", "repro.core.timed_argument", "build_base_behavior_timed"
    )
    for attr in COVERING_BUILDERS:
        function("graphs.coverings.build", "repro.graphs.coverings", attr)
    for attr in CONNECTIVITY_QUERIES:
        function("graphs.connectivity", "repro.graphs.connectivity", attr)
    return missing
