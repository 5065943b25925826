"""Training engine: pipelined, decentralized-synchronous, and
parameter-server training over a pluggable transport.

Modes:

* ``d_sync``   — one thread per worker; each iteration updates with the
  previous iteration's aggregated gradient, then computes and
  ring-allreduces its local gradient.
* ``pipe_sgd`` — two threads per worker. The compute thread consumes the
  aggregated gradient of iteration t-K out of a depth-K slot buffer
  (slots for iterations <= 0 pre-filled with zeros and marked ready),
  updates, computes the local gradient, and flags it ready; the
  communication thread waits for the flag, ring-allreduces, and flags
  the aggregated slot ready. Updates therefore run exactly K iterations
  behind the gradients they consume.
* ``ps_sync``  — workers send gradients to a dedicated server endpoint
  (rank p), which updates the parameters and broadcasts them back.

Gradients stay plain float32 vectors from ``backward_grad`` to
``sgd_update``; the configured codec runs only on the wire, inside the
collectives, so every mode applies exactly the sum the collective
returns.

All modes divide the aggregated gradient sum by the worker count before
applying it, so the effective step uses the mean over the global batch
and the learning rate keeps its single-node meaning. After the last
iteration every in-flight aggregated gradient is drained into the
parameters exactly once, so a run applies exactly T gradients in every
mode. An optional warm-up runs the first few epochs synchronously, then
drains and switches to the pipelined loop with a freshly zero-primed
buffer.

Each worker produces a trace of (rank, iteration, stage, start_ns,
end_ns, consumed_tag) events, per-iteration loss/wall-clock metrics, and
outgoing-traffic counters.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from .collective import barrier, broadcast_from_root, gather_to_root, ring_allreduce
from .compression import Codec
# Unused here; kept importable because bench/spans.py patches these names.
from .compression import compress, decompress  # noqa: F401
from .data import Dataset, sample_from_shard
from .errors import ConfigError, EngineError
from .models import ModelSpec, backward_grad, forward_loss, init_params, sgd_update
from .transport import Endpoint, InProcTransport, TcpEndpoint, TrafficStats

MODE_PS_SYNC = "ps_sync"
MODE_D_SYNC = "d_sync"
MODE_PIPE_SGD = "pipe_sgd"
MODES = (MODE_PS_SYNC, MODE_D_SYNC, MODE_PIPE_SGD)

STAGE_UPDATE = "update"
STAGE_FORWARD = "forward"
STAGE_BACKWARD = "backward"
STAGE_ALLREDUCE = "allreduce"
STAGE_BARRIER = "barrier"
STAGE_IDLE = "idle"


@dataclass(frozen=True)
class TraceEvent:
    rank: int
    iteration: int
    stage: str
    start_ns: int
    end_ns: int
    consumed_tag: int | None = None


@dataclass(frozen=True)
class RunConfig:
    mode: str = MODE_D_SYNC
    iterations: int = 100
    learning_rate: float = 0.05
    codec: Codec = Codec.NONE
    depth: int = 2  # iteration dependency K (pipe_sgd only)
    batch_size: int = 32
    warmup_epochs: int = 0
    eval_interval: int = 0
    seed: int = 0
    snapshot_first: int = 0  # keep copies of params after the first N updates

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise ConfigError("need at least one iteration")
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if self.mode == MODE_PIPE_SGD and self.depth < 2:
            raise ConfigError("pipelined training needs depth K >= 2")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.warmup_epochs < 0 or self.eval_interval < 0:
            raise ConfigError("warmup_epochs and eval_interval must be >= 0")


@dataclass
class WorkerResult:
    rank: int
    params: np.ndarray
    trace: list[TraceEvent]
    metrics: list[tuple[int, float, float]]  # (iteration, wall_ms, train_loss)
    eval_points: list[tuple[int, np.ndarray]]
    early_params: list[tuple[int, np.ndarray]]
    stats: TrafficStats
    train_seconds: float
    is_server: bool = False


def aggregate_mean(total: np.ndarray, p: int) -> np.ndarray:
    """Aggregated gradient sum -> mean over the global batch."""
    if p < 1:
        raise ConfigError("worker count must be >= 1")
    if p == 1:
        return total
    return (total / np.float32(p)).astype(np.float32)


def effective_mode(config: RunConfig, epoch: int) -> str:
    """Mode in force at a given epoch under the warm-up scheme."""
    if config.mode != MODE_PIPE_SGD:
        return config.mode
    return MODE_D_SYNC if epoch < config.warmup_epochs else MODE_PIPE_SGD


class _LocalGradientMailbox:
    """Bounded ready-flag handoff from the compute to the comm thread.

    Capacity K-1: the compute thread may run at most K-1 iterations
    ahead of the communication thread, which is all a depth-K pipeline
    can exploit. put() blocks while full, take() while empty; a poisoned
    mailbox wakes both sides with the peer's failure.
    """

    def __init__(self, capacity: int, timeout_s: float):
        self._cond = threading.Condition()
        self._items: list[tuple[int, np.ndarray]] = []
        self._capacity = max(1, capacity)
        self._poison: BaseException | None = None
        self._timeout = timeout_s

    def put(self, tag: int, grad: np.ndarray) -> None:
        with self._cond:
            while len(self._items) >= self._capacity and self._poison is None:
                if not self._cond.wait(timeout=self._timeout):
                    raise EngineError(f"timed out handing off local gradient {tag}")
            if self._poison is not None:
                raise EngineError("peer thread failed") from self._poison
            self._items.append((tag, grad))
            self._cond.notify_all()

    def take(self, expected_tag: int) -> np.ndarray:
        with self._cond:
            while not self._items and self._poison is None:
                if not self._cond.wait(timeout=self._timeout):
                    raise EngineError(
                        f"timed out waiting for local gradient {expected_tag}"
                    )
            if self._poison is not None:
                raise EngineError("peer thread failed") from self._poison
            tag, grad = self._items.pop(0)
            if tag != expected_tag:
                raise EngineError(
                    f"mailbox holds gradient {tag}, expected {expected_tag}"
                )
            self._cond.notify_all()
            return grad

    def poison(self, err: BaseException) -> None:
        with self._cond:
            self._poison = err
            self._cond.notify_all()


class GradientBuffer:
    """Depth-K ring of aggregated-gradient slots with ready flags.

    The slot for iteration t is written exactly once; reading blocks
    until the slot is ready and then clears it. Writing an occupied slot
    is a fatal logic error (the consumer must be exactly K behind).
    """

    def __init__(self, depth: int, timeout_s: float):
        self.depth = depth
        self._cond = threading.Condition()
        self._slots: list[tuple[int, np.ndarray] | None] = [None] * depth
        self._poison: BaseException | None = None
        self._timeout = timeout_s

    def put(self, tag: int, total: np.ndarray) -> None:
        idx = tag % self.depth
        with self._cond:
            if self._slots[idx] is not None:
                raise EngineError(
                    f"aggregated-gradient slot for iteration {tag} written twice "
                    f"(still holds iteration {self._slots[idx][0]})"
                )
            self._slots[idx] = (tag, total)
            self._cond.notify_all()

    def take(self, tag: int) -> np.ndarray:
        idx = tag % self.depth
        with self._cond:
            while self._slots[idx] is None and self._poison is None:
                if not self._cond.wait(timeout=self._timeout):
                    raise EngineError(
                        f"timed out waiting for aggregated gradient {tag}"
                    )
            if self._poison is not None:
                raise EngineError("peer thread failed") from self._poison
            slot_tag, total = self._slots[idx]
            if slot_tag != tag:
                raise EngineError(
                    f"slot {idx} holds iteration {slot_tag}, expected {tag}"
                )
            self._slots[idx] = None
            return total

    def poison(self, err: BaseException) -> None:
        with self._cond:
            self._poison = err
            self._cond.notify_all()


class _Worker:
    """State and loops for one worker (or the parameter server)."""

    def __init__(
        self,
        rank: int,
        workers: int,
        endpoint: Endpoint,
        dataset: Dataset,
        model: ModelSpec,
        config: RunConfig,
        epoch_ns: int,
        batch_provider=None,
    ):
        self.rank = rank
        self.workers = workers
        self.endpoint = endpoint
        self.dataset = dataset
        self.model = model
        self.config = config
        self.epoch_ns = epoch_ns
        self.batch_provider = batch_provider
        self.world = endpoint.world_size

        self.params = init_params(model, config.seed)
        self.rng = np.random.default_rng([config.seed, rank])
        self.shard = dataset.shard(rank, workers)
        if batch_provider is None and config.batch_size > len(self.shard):
            raise ConfigError(
                f"rank {rank}: batch size {config.batch_size} exceeds shard of "
                f"{len(self.shard)} samples"
            )

        self.trace: list[TraceEvent] = []
        self._comm_trace: list[TraceEvent] = []
        self.metrics: list[tuple[int, float, float]] = []
        self.eval_points: list[tuple[int, np.ndarray]] = []
        self.early_params: list[tuple[int, np.ndarray]] = []
        self._updates_seen = 0
        self._run_start_ns = 0

    # -- small helpers ----------------------------------------------------

    def _now(self) -> int:
        return time.monotonic_ns() - self.epoch_ns

    def _rec(self, into, stage, t0, t1, iteration, consumed=None) -> None:
        into.append(TraceEvent(self.rank, iteration, stage, t0, t1, consumed))

    def _batch(self, iteration: int) -> np.ndarray:
        if self.batch_provider is not None:
            return self.batch_provider(self.rank, iteration)
        return sample_from_shard(self.shard, self.config.batch_size, self.rng)

    def iterations_per_epoch(self) -> int:
        return max(1, len(self.shard) // self.config.batch_size)

    def _apply_update(self, total: np.ndarray, tag: int, iteration: int) -> None:
        mean = aggregate_mean(total, self.workers)
        self.params = sgd_update(self.params, mean, self.config.learning_rate)
        self._after_update(iteration)

    def _after_update(self, iteration: int) -> None:
        self._updates_seen += 1
        if self._updates_seen <= self.config.snapshot_first:
            self.early_params.append((iteration, self.params.copy()))

    def _maybe_eval_snapshot(self, iteration: int) -> None:
        ev = self.config.eval_interval
        if self.rank == 0 and ev > 0 and iteration % ev == 0:
            self.eval_points.append((iteration, self.params.copy()))

    def _record_metrics(self, iteration: int, loss: float) -> None:
        wall_ms = (time.monotonic_ns() - self._run_start_ns) / 1e6
        self.metrics.append((iteration, wall_ms, loss))

    def _compute_local(self, iteration: int) -> tuple[float, np.ndarray]:
        """forward + backward, with trace events."""
        t0 = self._now()
        batch = self._batch(iteration)
        loss = forward_loss(self.params, self.model, self.dataset, batch)
        t1 = self._now()
        self._rec(self.trace, STAGE_FORWARD, t0, t1, iteration)
        grad = backward_grad(self.params, self.model, self.dataset, batch)
        t2 = self._now()
        self._rec(self.trace, STAGE_BACKWARD, t1, t2, iteration)
        return loss, grad

    # -- synchronous loop (d_sync, and pipe_sgd warm-up) -------------------

    def _sync_phase(
        self,
        t_start: int,
        t_end: int,
        pending: np.ndarray | None,
        pending_tag: int,
    ) -> tuple[np.ndarray | None, int]:
        for t in range(t_start, t_end + 1):
            t0 = self._now()
            if pending is not None:
                self._apply_update(pending, pending_tag, t)
            self._rec(self.trace, STAGE_UPDATE, t0, self._now(), t, pending_tag)
            loss, grad = self._compute_local(t)
            a0 = self._now()
            summed = ring_allreduce(
                grad,
                self.rank,
                self.world,
                self.endpoint,
                self.config.codec,
                iteration=t,
            )
            self._rec(self.trace, STAGE_ALLREDUCE, a0, self._now(), t)
            pending, pending_tag = summed, t
            self._record_metrics(t, loss)
            self._maybe_eval_snapshot(t)
        return pending, pending_tag

    def _drain_pending(self, pending: np.ndarray | None, pending_tag: int) -> None:
        if pending is None:
            return
        t0 = self._now()
        self._apply_update(pending, pending_tag, pending_tag + 1)
        self._rec(
            self.trace, STAGE_UPDATE, t0, self._now(), pending_tag + 1, pending_tag
        )

    # -- pipelined loop -----------------------------------------------------

    def _pipe_phase(self, t_start: int, t_end: int) -> None:
        cfg = self.config
        depth = cfg.depth
        zeros = np.zeros(self.model.num_params, dtype=np.float32)
        buffer = GradientBuffer(depth, self.endpoint.timeout_s + 5.0)
        mailbox = _LocalGradientMailbox(depth - 1, self.endpoint.timeout_s + 5.0)
        for tag in range(t_start - depth, t_start):
            buffer.put(tag, zeros)

        comm_err: list[BaseException] = []

        def comm_loop() -> None:
            try:
                for t in range(t_start, t_end + 1):
                    i0 = self._now()
                    grad = mailbox.take(t)
                    i1 = self._now()
                    self._rec(self._comm_trace, STAGE_IDLE, i0, i1, t)
                    summed = ring_allreduce(
                        grad,
                        self.rank,
                        self.world,
                        self.endpoint,
                        cfg.codec,
                        iteration=t,
                    )
                    self._rec(self._comm_trace, STAGE_ALLREDUCE, i1, self._now(), t)
                    buffer.put(t, summed)
            except BaseException as err:  # propagate into the compute thread
                comm_err.append(err)
                buffer.poison(err)

        comm = threading.Thread(target=comm_loop, name=f"comm-{self.rank}", daemon=True)
        comm.start()

        try:
            for t in range(t_start, t_end + 1):
                w0 = self._now()
                total = buffer.take(t - depth)
                w1 = self._now()
                self._rec(self.trace, STAGE_IDLE, w0, w1, t)
                self._apply_update(total, t - depth, t)
                self._rec(self.trace, STAGE_UPDATE, w1, self._now(), t, t - depth)
                loss, grad = self._compute_local(t)
                mailbox.put(t, grad)
                self._record_metrics(t, loss)
                self._maybe_eval_snapshot(t)
            # Drain: consume the K aggregated gradients still in flight.
            for tag in range(t_end - depth + 1, t_end + 1):
                total = buffer.take(tag)
                d1 = self._now()
                self._apply_update(total, tag, tag + depth)
                self._rec(self.trace, STAGE_UPDATE, d1, self._now(), tag + depth, tag)
        except BaseException as err:
            mailbox.poison(err)
            comm.join(timeout=self.endpoint.timeout_s)
            raise
        comm.join(timeout=self.endpoint.timeout_s + 10.0)
        if comm.is_alive():
            raise EngineError(f"rank {self.rank}: communication thread hung")
        if comm_err:
            raise comm_err[0]

    # -- mode entry points ---------------------------------------------------

    def run(self) -> WorkerResult:
        b0 = self._now()
        barrier(self.rank, self.world, self.endpoint)
        self._rec(self.trace, STAGE_BARRIER, b0, self._now(), 0)
        self._run_start_ns = time.monotonic_ns()

        if self.config.mode == MODE_D_SYNC:
            pending, tag = self._sync_phase(1, self.config.iterations, None, 0)
            self._drain_pending(pending, tag)
        elif self.config.mode == MODE_PIPE_SGD:
            self._run_pipe()
        else:
            raise ConfigError(f"worker cannot run mode {self.config.mode}")

        train_seconds = (time.monotonic_ns() - self._run_start_ns) / 1e9
        return self._result(train_seconds)

    def _run_pipe(self) -> None:
        cfg = self.config
        warmup_iters = min(
            cfg.iterations, cfg.warmup_epochs * self.iterations_per_epoch()
        )
        if warmup_iters > 0:
            pending, tag = self._sync_phase(1, warmup_iters, None, 0)
            self._drain_pending(pending, tag)
        if warmup_iters < cfg.iterations:
            self._pipe_phase(warmup_iters + 1, cfg.iterations)

    def _result(self, train_seconds: float) -> WorkerResult:
        if self.rank == 0 and self.config.eval_interval > 0:
            if not self.eval_points or self.eval_points[-1][0] != self.config.iterations:
                self.eval_points.append(
                    (self.config.iterations, self.params.copy())
                )
        merged = sorted(
            self.trace + self._comm_trace, key=lambda e: (e.start_ns, e.iteration)
        )
        return WorkerResult(
            rank=self.rank,
            params=self.params,
            trace=merged,
            metrics=self.metrics,
            eval_points=self.eval_points,
            early_params=self.early_params,
            stats=self.endpoint.stats.snapshot(),
            train_seconds=train_seconds,
            is_server=False,
        )

    # -- parameter-server mode -------------------------------------------

    def run_ps_worker(self) -> WorkerResult:
        cfg = self.config
        server = self.world - 1
        b0 = self._now()
        barrier(self.rank, self.world, self.endpoint)
        self._rec(self.trace, STAGE_BARRIER, b0, self._now(), 0)
        self._run_start_ns = time.monotonic_ns()
        for t in range(1, cfg.iterations + 1):
            loss, grad = self._compute_local(t)
            a0 = self._now()
            gather_to_root(
                grad, server, self.rank, self.world, self.endpoint, cfg.codec,
                iteration=t,
            )
            self.params = broadcast_from_root(
                None, server, self.rank, self.world, self.endpoint, iteration=t
            )
            self._rec(self.trace, STAGE_ALLREDUCE, a0, self._now(), t)
            self._after_update(t)
            self._record_metrics(t, loss)
            self._maybe_eval_snapshot(t)
        return self._result((time.monotonic_ns() - self._run_start_ns) / 1e9)

    def run_ps_server(self) -> WorkerResult:
        cfg = self.config
        server = self.world - 1
        zeros = np.zeros(self.model.num_params, dtype=np.float32)
        b0 = self._now()
        barrier(self.rank, self.world, self.endpoint)
        self._rec(self.trace, STAGE_BARRIER, b0, self._now(), 0)
        self._run_start_ns = time.monotonic_ns()
        for t in range(1, cfg.iterations + 1):
            a0 = self._now()
            total = gather_to_root(
                zeros, server, self.rank, self.world, self.endpoint, cfg.codec,
                iteration=t,
            )
            a1 = self._now()
            self._rec(self.trace, STAGE_ALLREDUCE, a0, a1, t)
            self.params = sgd_update(
                self.params, aggregate_mean(total, self.workers), cfg.learning_rate
            )
            u1 = self._now()
            self._rec(self.trace, STAGE_UPDATE, a1, u1, t, t)
            broadcast_from_root(
                self.params, server, self.rank, self.world, self.endpoint,
                iteration=t,
            )
        result = self._result((time.monotonic_ns() - self._run_start_ns) / 1e9)
        result.is_server = True
        return result


def _entry(worker: _Worker) -> WorkerResult:
    if worker.config.mode != MODE_PS_SYNC:
        return worker.run()
    if worker.rank == worker.world - 1:
        return worker.run_ps_server()
    return worker.run_ps_worker()


def run_inproc_cluster(
    workers: int,
    config: RunConfig,
    dataset: Dataset,
    model: ModelSpec,
    latency_s: float = 0.0,
    byte_time_s: float = 0.0,
    batch_provider=None,
    timeout_s: float = 30.0,
) -> list[WorkerResult]:
    """Run a full training job with all ranks as threads in this process.

    Returns one WorkerResult per rank (the parameter server, when
    present, is the last entry). The first worker failure aborts the
    whole run and is re-raised here.
    """
    if workers < 1:
        raise ConfigError("need at least one worker")
    world = workers + 1 if config.mode == MODE_PS_SYNC else workers
    transport = InProcTransport(world, latency_s, byte_time_s, timeout_s)
    epoch_ns = time.monotonic_ns()
    ws = [
        _Worker(
            r, workers, transport.endpoint(r), dataset, model, config, epoch_ns,
            batch_provider,
        )
        for r in range(world)
    ]
    results: list[WorkerResult | None] = [None] * world
    errors: list[BaseException] = []

    def runner(idx: int) -> None:
        try:
            results[idx] = _entry(ws[idx])
        except BaseException as err:
            errors.append(err)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"worker-{r}")
        for r in range(world)
    ]
    # With 2p+ threads in one interpreter, the default 5 ms GIL switch
    # interval adds a scheduler quantum to every cross-thread handoff and
    # drowns out injected sub-10ms delays; tighten it for the run.
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old_interval)
    if errors:
        raise errors[0]
    return [r for r in results if r is not None]


def run_tcp_worker(
    rank: int,
    roster: list[tuple[str, int]],
    config: RunConfig,
    dataset: Dataset,
    model: ModelSpec,
    latency_s: float = 0.0,
    byte_time_s: float = 0.0,
    timeout_s: float = 30.0,
) -> WorkerResult:
    """Run one rank of a TCP-mesh cluster (one process per rank).

    The roster must list every endpoint: p entries, or p+1 with the
    parameter server last when mode is ps_sync.
    """
    workers = len(roster) - 1 if config.mode == MODE_PS_SYNC else len(roster)
    if workers < 1:
        raise ConfigError("roster too short for the selected mode")
    endpoint = TcpEndpoint(rank, roster, latency_s, byte_time_s, timeout_s)
    try:
        worker = _Worker(
            rank, workers, endpoint, dataset, model, config, time.monotonic_ns()
        )
        return _entry(worker)
    finally:
        endpoint.close()
