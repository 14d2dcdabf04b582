"""Per-layer attribution: spans and counts around calls into each layer.

Layers are named after the ``repro`` packages. :class:`LayerTracer`
wraps the public entry points of ``sim``, ``disk``, ``array`` and
``layout`` on one assembled array, recording a span (name, start, end,
parent) for every call, in memory, plus the counts the per-layer
metrics need. Every wrapper only observes: it calls through with the
same arguments and returns the same result, so a traced run is
event-for-event identical to an untraced one (the benchmark checks
this on every traced run).

:func:`self_shares` is the other half: host self time by package from
a ``cProfile`` pass, which needs no wrappers at all.
"""

from __future__ import annotations

import cProfile
import gzip
import pstats
import time
import typing
from array import array as int_array

from repro.array import syndromes

#: Syndrome-level public functions of :mod:`repro.array.syndromes`.
#: The field primitives under them (``mul``, ``xtime``, ``inv``...) are
#: left unwrapped: nested calls never count as entries into the layer,
#: and a span per ``xtime`` would multiply the tracing overhead.
GF_FUNCTIONS = (
    "p_of", "q_of", "q_update", "recover_from_q", "recover_two",
    "recover_stripe_data",
)

#: Layout translations the controller and the sweep call.
LAYOUT_METHODS = (
    "logical_to_physical", "physical_to_logical", "stripe_unit",
    "stripe_units", "stripe_of", "stripe_of_logical",
)

#: Packages reported as their own layer by :func:`self_shares`;
#: everything else (builtins, ``heapq``, ``random``, dataclass-generated
#: methods, the benchmark itself) is ``other``.
PROFILE_LAYERS = ("sim", "disk", "array", "layout", "workload", "recon")


class LayerTracer:
    """Spans and counts for one traced run of one array."""

    def __init__(self):
        self.names: typing.List[str] = []
        self._name_ids: typing.Dict[str, int] = {}
        self._group_of: typing.List[str] = []
        self.span_name = int_array("q")
        self.span_start = int_array("q")
        self.span_end = int_array("q")
        self.span_parent = int_array("q")
        self._stack: typing.List[int] = []
        #: Calls entering a span group from outside it, and their host ns.
        self.entries: typing.Dict[str, int] = {}
        self.entry_ns: typing.Dict[str, int] = {}
        self.events = 0
        self.pop_queue_lengths: typing.List[int] = []
        self.lock_waits_ms: typing.List[float] = []
        self._restore: typing.List[typing.Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _name_id(self, group: str, name: str) -> int:
        key = f"{group}.{name}"
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
            self._group_of.append(group)
            self.entries.setdefault(group, 0)
            self.entry_ns.setdefault(group, 0)
        return self._name_ids[key]

    def span(self, group: str, name: str, fn: typing.Callable) -> typing.Callable:
        """``fn`` wrapped in a span named ``group.name``; calls pass through.

        A call whose parent span is in another group (or that has no
        parent) counts as an entry into ``group``.
        """
        name_id = self._name_id(group, name)
        group_of = self._group_of
        stack = self._stack
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        entries, entry_ns = self.entries, self.entry_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(starts)
            names.append(name_id)
            parents.append(parent)
            starts.append(clock())
            ends.append(0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[index] = end
                if parent < 0 or group_of[names[parent]] != group:
                    entries[group] += 1
                    entry_ns[group] += end - starts[index]

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``; :meth:`detach` undoes it."""
        if attribute in vars(owner):
            original = vars(owner)[attribute]
            self._restore.append(lambda: setattr(owner, attribute, original))
        else:
            self._restore.append(lambda: delattr(owner, attribute))
        setattr(owner, attribute, replacement)

    # ------------------------------------------------------------------
    # Attaching to one array
    # ------------------------------------------------------------------
    def attach(self, controller) -> None:
        """Wrap the layer entry points of ``controller``'s array."""
        env = controller.env
        self._patch(env, "process", self.span("sim", "process", env.process))
        self._patch(env, "schedule", self.span("sim", "schedule", env.schedule))

        def count_event(_event) -> None:
            self.events += 1

        env.add_observer(count_event)
        self._restore.append(lambda: env.remove_observer(count_event))

        for disk in controller.disks:
            scheduler = disk.scheduler
            pop = self.span("disk", "sched_pop", scheduler.pop)
            lengths = self.pop_queue_lengths

            def measured_pop(head_cylinder, direction, _pop=pop, _queue=scheduler):
                lengths.append(len(_queue))
                return _pop(head_cylinder, direction)

            self._patch(scheduler, "pop", measured_pop)

        layout = controller.layout
        for method in LAYOUT_METHODS:
            self._patch(layout, method, self.span("layout", method, getattr(layout, method)))
        for function in GF_FUNCTIONS:
            self._patch(
                syndromes, function,
                self.span("array.gf", function, getattr(syndromes, function)),
            )

        locks = controller.locks
        acquire = self.span("array.lock", "acquire", locks.acquire)
        waits = self.lock_waits_ms

        def timed_acquire(stripe):
            asked_ms = env.now
            event = acquire(stripe)
            event.callbacks.append(lambda _event: waits.append(env.now - asked_ms))
            return event

        self._patch(locks, "acquire", timed_acquire)

    def detach(self) -> None:
        """Undo every wrapper, newest first."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def count(self, name: str) -> int:
        """Calls recorded for the span ``name`` (e.g. ``"sim.process"``)."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return 0
        return self.span_name.count(name_id)

    def save(self, path) -> None:
        """Write the spans, gzipped: one ``name start_ns end_ns parent`` line each."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("# name start_ns end_ns parent_index (-1 = root)\n")
            for index in range(len(self.span_name)):
                handle.write(
                    f"{self.names[self.span_name[index]]} {self.span_start[index]} "
                    f"{self.span_end[index]} {self.span_parent[index]}\n"
                )


def profiled(call: typing.Callable[[], object]) -> typing.Tuple[object, typing.Dict[str, float]]:
    """Run ``call`` under ``cProfile``; returns its result and the self shares."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = call()
    finally:
        profile.disable()
    return result, self_shares(pstats.Stats(profile).stats)


def layer_of_file(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    if at >= 0:
        package = filename[at + len(marker):].split("/", 1)[0]
        if package in PROFILE_LAYERS:
            return package
    return "other"


def self_shares(stats: typing.Mapping) -> typing.Dict[str, float]:
    """Host self time by layer, as shares summing to 1."""
    totals = dict.fromkeys(PROFILE_LAYERS + ("other",), 0.0)
    for (filename, _line, _name), (_cc, _nc, self_s, _cum, _callers) in stats.items():
        totals[layer_of_file(filename)] += self_s
    whole = sum(totals.values())
    return {layer: (value / whole if whole else 0.0) for layer, value in totals.items()}
