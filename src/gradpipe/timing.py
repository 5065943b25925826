"""Analytic runtime model for synchronous and pipelined training.

Pure float64 arithmetic: predicted totals for synchronous SGD, ideally
and resource-limited pipelined SGD, ring-based gradient exchange with
sequential or segmented communication, plus the scaling-efficiency
ratio and a configuration recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

SEQUENTIAL = "sequential"
SEGMENTED = "segmented"
COMPUTE_BOUND = "compute"
COMM_BOUND = "communication"


@dataclass(frozen=True)
class StageTimes:
    """Per-iteration stage durations in seconds.

    first_segment_backward is the backward-pass time of the first
    gradient segment when communication is overlapped with the backward
    pass; it can never exceed the full backward time.
    """

    update: float = 0.0
    forward: float = 0.0
    backward: float = 0.0
    first_segment_backward: float = 0.0
    comm: float = 0.0

    def __post_init__(self) -> None:
        for name in ("update", "forward", "backward", "first_segment_backward", "comm"):
            if getattr(self, name) < 0:
                raise ConfigError(f"stage time {name} must be >= 0")
        if self.first_segment_backward > self.backward:
            raise ConfigError(
                "first-segment backward time cannot exceed the full backward time"
            )

    @property
    def compute(self) -> float:
        return self.forward + self.backward


@dataclass(frozen=True)
class ClusterParams:
    """Symbols of the ring exchange cost model.

    workers        p  — number of workers
    latency_s      alpha — per-message network latency (s)
    byte_time_s    beta — transfer time per byte (s/byte)
    reduce_time_s  gamma_red — sum-reduction time per byte (s/byte)
    sync_time_s    S — global synchronization time (s)
    model_bytes    n — exchanged gradient size (bytes)
    segments       L — gradient segment count for segmented exchange
    """

    workers: int
    latency_s: float = 0.0
    byte_time_s: float = 0.0
    reduce_time_s: float = 0.0
    sync_time_s: float = 0.0
    model_bytes: float = 0.0
    segments: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.segments < 1:
            raise ConfigError("need at least one gradient segment")
        for name in (
            "latency_s",
            "byte_time_s",
            "reduce_time_s",
            "sync_time_s",
            "model_bytes",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


def t_sync_total(iterations: int, stages: StageTimes) -> float:
    """Synchronous training: every stage on the critical path, every iteration."""
    return iterations * (stages.update + stages.compute + stages.comm)


def t_pipe_ideal(iterations: int, depth: int, stages: StageTimes) -> float:
    """Pipelined training with unlimited resources: depth-fold shortening."""
    if depth < 1:
        raise ConfigError("pipeline depth must be >= 1")
    return (iterations / depth) * (stages.update + stages.compute + stages.comm)


def t_pipe_limited(iterations: int, stages: StageTimes) -> float:
    """Pipelined training with limited resources.

    The slower of compute and communication fully determines the total;
    pipeline depth does not appear (any depth >= 2 yields the same
    bound, which is why depth 2 with its minimal staleness is optimal).
    """
    return iterations * max(stages.update + stages.compute, stages.comm)


def ring_comm_time(params: ClusterParams) -> float:
    """Per-iteration ring exchange time with sequential communication:
    2(p-1) alpha + 2((p-1)/p) n beta + ((p-1)/p) n gamma_red + S.
    """
    p = params.workers
    if p == 1:
        return params.sync_time_s
    frac = (p - 1) / p
    return (
        2 * (p - 1) * params.latency_s
        + 2 * frac * params.model_bytes * params.byte_time_s
        + frac * params.model_bytes * params.reduce_time_s
        + params.sync_time_s
    )


def segmented_comm_time(params: ClusterParams) -> float:
    """Ring exchange time when the gradient is exchanged in L segments:
    2(p-1) L alpha + 2((p-1)/p) n beta + ((p-1)/p) n gamma_red + L S.

    Segmenting multiplies the per-message latency and synchronization
    terms by L while the byte terms are unchanged.
    """
    p = params.workers
    L = params.segments
    if p == 1:
        return L * params.sync_time_s
    frac = (p - 1) / p
    return (
        2 * (p - 1) * L * params.latency_s
        + 2 * frac * params.model_bytes * params.byte_time_s
        + frac * params.model_bytes * params.reduce_time_s
        + L * params.sync_time_s
    )


def star_comm_time(params: ClusterParams) -> float:
    """Per-iteration exchange time through a central server.

    The server drains p gradient messages serially, reduces them, and
    answers each worker once: the total grows linearly with the cluster
    size, which is the congestion the ring exchange avoids.
    """
    p = params.workers
    if p == 1:
        return params.sync_time_s
    n = params.model_bytes
    return (
        (p + 1) * (params.latency_s + n * params.byte_time_s)
        + p * n * params.reduce_time_s
        + params.sync_time_s
    )


def t_pipe_seq(iterations: int, stages: StageTimes, params: ClusterParams) -> float:
    """Pipelined training, whole-gradient (sequential) ring exchange."""
    compute_term = stages.update + stages.forward + stages.backward
    return iterations * max(compute_term, ring_comm_time(params))


def t_pipe_segmented(
    iterations: int, stages: StageTimes, params: ClusterParams
) -> float:
    """Pipelined training, segmented ring exchange overlapping the backward pass.

    Only the first segment's backward time stays on the compute critical
    path; the price is L-fold latency and synchronization.
    """
    compute_term = stages.update + stages.forward + stages.first_segment_backward
    return iterations * max(compute_term, segmented_comm_time(params))


def scaling_efficiency(stages: StageTimes) -> float:
    """(update + compute) / max(update + compute, comm), in (0, 1].

    Equals 1 exactly when the system is compute bound, i.e. communication
    is fully masked and scaling is linear in the cluster size.
    """
    busy = stages.update + stages.compute
    if busy <= 0:
        raise ConfigError("scaling efficiency undefined for zero compute time")
    return busy / max(busy, stages.comm)


@dataclass(frozen=True)
class Recommendation:
    depth: int
    comm_mode: str  # sequential | segmented
    bound: str  # compute | communication


def recommend_config(stages: StageTimes, params: ClusterParams) -> Recommendation:
    """Preferred operating point under limited resources.

    Depth 2 always: it already achieves the resource-limited bound and
    any deeper pipeline only adds staleness. Sequential exchange whenever
    the system is communication bound (segmenting only inflates the
    latency and sync terms); segmented exchange only when it strictly
    lowers the per-iteration bound, which requires a compute-bound
    system with a meaningful backward-pass overlap. A single worker has
    no exchange to overlap, so it always reports sequential.
    """
    seq_comm = ring_comm_time(params)
    seq_compute = stages.update + stages.forward + stages.backward
    bound = COMM_BOUND if seq_comm > seq_compute else COMPUTE_BOUND
    if params.workers == 1 or bound == COMM_BOUND:
        return Recommendation(2, SEQUENTIAL, bound)
    seg_total = max(
        stages.update + stages.forward + stages.first_segment_backward,
        segmented_comm_time(params),
    )
    seq_total = max(seq_compute, seq_comm)
    mode = SEGMENTED if seg_total < seq_total else SEQUENTIAL
    return Recommendation(2, mode, bound)
