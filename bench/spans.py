"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

The recorder wraps public functions of the training path from outside
the package: it replaces the names `engine` and `collective` import, and
a few transport and pipeline methods, with thin wrappers that record a
span (name, thread, parent span, start, end) per call. Spans stay in
memory until the run ends. A layer's self time is its span minus the
time its child spans cover; children always run on the parent's thread,
so they never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from gradpipe import collective, engine, transport


@dataclass(eq=False, slots=True)
class Span:
    name: str
    thread: str
    parent: "Span | None"
    start_ns: int
    end_ns: int = 0
    nbytes: int = 0  # input bytes, recorded for codec encodes only

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


# (owner, attribute, span name). The first eight are the names `engine`
# imports, the next four the names `collective` imports.
_TARGETS = (
    (engine, "forward_loss", "models.forward"),
    (engine, "backward_grad", "models.backward"),
    (engine, "sgd_update", "models.update"),
    (engine, "compress", "compression.encode"),
    (engine, "decompress", "compression.decode"),
    (engine, "ring_allreduce", "collective.allreduce"),
    (engine, "gather_to_root", "collective.gather"),
    (engine, "broadcast_from_root", "collective.broadcast"),
    (collective, "compress", "compression.encode"),
    (collective, "decompress", "compression.decode"),
    (collective, "serialize_block", "compression.serialize"),
    (collective, "deserialize_block", "compression.deserialize"),
    (transport.InProcEndpoint, "send", "transport.send"),
    (transport.InProcEndpoint, "recv", "transport.recv"),
    (transport.TcpEndpoint, "send", "transport.send"),
    (transport.TcpEndpoint, "recv", "transport.recv"),
    (transport.InProcTransport, "__init__", "transport.setup"),
    (transport.TcpEndpoint, "__init__", "transport.setup"),
    (engine.GradientBuffer, "take", "engine.buffer_take"),
    (engine._LocalGradientMailbox, "put", "engine.mailbox_put"),
    (engine._LocalGradientMailbox, "take", "engine.mailbox_take"),
)


class Recorder:
    """Collects spans from every thread while `enabled` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()

    def wrap(self, name: str, fn):
        sized = name == "compression.encode"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(
                name,
                threading.current_thread().name,
                stack[-1] if stack else None,
                time.perf_counter_ns(),
            )
            if sized:
                span.nbytes = args[0].nbytes
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                self.spans.append(span)

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in _TARGETS]
        try:
            for owner, attr, name in _TARGETS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)


def self_time_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    children: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)] += s.duration_ns
    return [s.duration_ns - children[id(s)] for s in spans]


def rank_of(thread: str) -> str:
    """Rank a thread works for: 'worker-1' and 'comm-1' both give '1'."""
    return thread.rsplit("-", 1)[-1]


def overlap_ns(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> int:
    """Total length where two sorted, internally disjoint interval lists meet."""
    total, i, j = 0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        total += max(0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


# Per-layer metrics each mode emits: (name, unit, better). A mode emits a
# metric only when it runs the layer behind it.
_COMMON = (
    ("models.forward_ms", "ms", "lower"),
    ("models.backward_ms", "ms", "lower"),
    ("models.update_ms", "ms", "lower"),
    ("compression.encode_ms", "ms", "lower"),
    ("compression.decode_ms", "ms", "lower"),
    ("compression.encode_gbps", "GB/s", "higher"),
    ("compression.encode_calls", "count", "lower"),
    ("compression.decode_calls", "count", "lower"),
    ("transport.send_us", "us", "lower"),
    ("transport.recv_wait_ms", "ms", "lower"),
    ("transport.msgs_per_iter", "count", "lower"),
    ("transport.bytes_per_iter", "B", "lower"),
    ("transport.setup_ms", "ms", "lower"),
    ("engine.overhead_ms", "ms", "lower"),
    ("timing.pred_err", "ratio", "lower"),
    ("bench.trace_overhead", "ratio", "higher"),
)
_RING = (
    ("collective.allreduce_ms", "ms", "lower"),
    ("collective.allreduce_self_ms", "ms", "lower"),
    ("collective.allreduce_wait_ms", "ms", "lower"),
    ("timing.comm_pred_err", "ratio", "lower"),
)
LAYER_METRICS = {
    "d_sync": _COMMON + _RING,
    "pipe_sgd": _COMMON
    + _RING
    + (
        ("engine.idle_ms", "ms", "lower"),
        ("engine.comm_idle_ms", "ms", "lower"),
        ("engine.hidden_frac", "ratio", "higher"),
        ("engine.mask_ratio", "ratio", "lower"),
    ),
    "ps_sync": _COMMON + (("collective.ps_round_ms", "ms", "lower"),),
}


@dataclass
class TracedRun:
    spans: list[Span]
    results: list  # list[gradpipe.engine.WorkerResult]
    iterations: int
    workers: int
    selfs: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.selfs = dict(zip(map(id, self.spans), self_time_ns(self.spans)))


def _top_level(run: TracedRun, thread: str, skip: tuple[str, ...]) -> list[Span]:
    return sorted(
        (
            s
            for s in run.spans
            if s.thread == thread and s.parent is None and not s.name.startswith(skip)
        ),
        key=lambda s: s.start_ns,
    )


def layer_metrics(runs: list[TracedRun]) -> dict[str, float | None]:
    """Per-layer metrics of one mode from its traced runs.

    Times are per iteration and per rank that runs the layer. A value is
    None when no span behind it was recorded: a missing layer, not zero.
    """
    n_iter = sum(run.iterations for run in runs)
    by_name: dict[str, list[tuple[TracedRun, Span]]] = defaultdict(list)
    for run in runs:
        for s in run.spans:
            by_name[s.name].append((run, s))

    def pick(names, where=lambda s: True):
        return [(run, s) for n in names for run, s in by_name[n] if where(s)]

    def per_iter_ms(names, self_only=False, where=lambda s: True):
        chosen = pick(names, where)
        if not chosen:
            return None
        ranks = {rank_of(s.thread) for _, s in chosen}
        ns = sum(run.selfs[id(s)] if self_only else s.duration_ns for run, s in chosen)
        return ns / 1e6 / (n_iter * len(ranks))

    def calls_per_iter(name):
        chosen = pick([name])
        if not chosen:
            return None
        ranks = {rank_of(s.thread) for _, s in chosen}
        return len(chosen) / (n_iter * len(ranks))

    def mean_us(name, where=lambda s: True):
        chosen = pick([name], where)
        if not chosen:
            return None
        return sum(s.duration_ns for _, s in chosen) / len(chosen) / 1e3

    def in_collective(s: Span) -> bool:
        return s.parent is not None

    def stats_per_iter(attr):
        total = sum(getattr(r.stats, attr) for run in runs for r in run.results)
        if total == 0:
            return None
        return total / sum(run.iterations * len(run.results) for run in runs)

    encodes = pick(["compression.encode"])
    encode_ns = sum(s.duration_ns for _, s in encodes)
    workers = runs[0].workers if runs else 0
    setup_us = mean_us("transport.setup")
    out = {
        "models.forward_ms": per_iter_ms(["models.forward"], True),
        "models.backward_ms": per_iter_ms(["models.backward"], True),
        "models.update_ms": per_iter_ms(["models.update"], True),
        "compression.encode_ms": per_iter_ms(
            ["compression.encode", "compression.serialize"], True
        ),
        "compression.decode_ms": per_iter_ms(
            ["compression.decode", "compression.deserialize"], True
        ),
        "compression.encode_gbps": (
            sum(s.nbytes for _, s in encodes) / encode_ns if encode_ns else None
        ),
        "compression.encode_calls": calls_per_iter("compression.encode"),
        "compression.decode_calls": calls_per_iter("compression.decode"),
        "transport.send_us": mean_us("transport.send", in_collective),
        "transport.recv_wait_ms": per_iter_ms(["transport.recv"], where=in_collective),
        "transport.msgs_per_iter": stats_per_iter("messages"),
        "transport.bytes_per_iter": stats_per_iter("frame_bytes"),
        "transport.setup_ms": None if setup_us is None else setup_us / 1e3,
        "engine.overhead_ms": _overhead_ms(runs, n_iter),
        "collective.allreduce_ms": per_iter_ms(["collective.allreduce"]),
        "collective.allreduce_self_ms": per_iter_ms(["collective.allreduce"], True),
        "collective.allreduce_wait_ms": per_iter_ms(
            ["transport.recv"],
            where=lambda s: s.parent is not None
            and s.parent.name == "collective.allreduce",
        ),
        "collective.ps_round_ms": per_iter_ms(
            ["collective.gather", "collective.broadcast"],
            where=lambda s: int(rank_of(s.thread)) < workers,
        ),
        "engine.idle_ms": per_iter_ms(["engine.buffer_take", "engine.mailbox_put"]),
        "engine.comm_idle_ms": per_iter_ms(["engine.mailbox_take"]),
        "engine.hidden_frac": _hidden_frac(runs),
    }
    return out


def _overhead_ms(runs: list[TracedRun], n_iter: int) -> float | None:
    """Iteration wall minus the time the compute thread spends in spans.

    Top-level transport spans are the start-up barrier and mesh set-up,
    which lie outside `train_seconds`, so they are left out.
    """
    total_ms, ranks = 0.0, 0
    for run in runs:
        for r in run.results:
            spans = _top_level(run, f"worker-{r.rank}", ("transport.",))
            if not spans:
                return None
            busy_ms = sum(s.duration_ns for s in spans) / 1e6
            total_ms += r.train_seconds * 1e3 - busy_ms
        ranks = len(run.results)
    return total_ms / (n_iter * ranks) if n_iter and ranks else None


def _hidden_frac(runs: list[TracedRun]) -> float | None:
    """Share of allreduce time on the comm thread that the compute thread
    spent computing rather than blocked on the pipeline."""
    hidden = total = 0
    for run in runs:
        for r in run.results:
            comm = [
                (s.start_ns, s.end_ns)
                for s in _top_level(run, f"comm-{r.rank}", ("engine.", "transport."))
                if s.name == "collective.allreduce"
            ]
            busy = [
                (s.start_ns, s.end_ns)
                for s in _top_level(run, f"worker-{r.rank}", ("engine.", "transport."))
            ]
            hidden += overlap_ns(comm, busy)
            total += sum(hi - lo for lo, hi in comm)
    return hidden / total if total else None
