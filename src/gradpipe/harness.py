"""Experiment driver: configuration, dataset provisioning, delay
injection, metric collection, and prediction-vs-measurement reports.

Outputs of a run (all under the configured output directory):

* ``metrics.csv``   — header ``iteration,wall_clock_ms,train_loss,eval_accuracy``,
  one row per iteration; accuracy only on evaluation rows.
* ``breakdown.csv`` — per-stage mean seconds per iteration plus final accuracy.
* ``trace.csv``     — raw per-thread stage events.
* ``summary.txt``   — ``key = value`` run summary.
* ``charts/``       — accuracy-vs-wallclock and stage-breakdown SVGs.

The wall-clock column uses the real monotonic clock by default. With
``clock = logical`` it records the iteration index instead, which keeps
the file byte-identical across repeated seeded runs (real timings never
are); trace and summary always carry real times. Evaluation happens on
parameter snapshots after training finishes, so it never perturbs the
measured training time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .collective import barrier
from .compression import Codec, compress, decompress, payload_size
from .data import Dataset, load_idx_dataset, synthetic_blobs
from .engine import (
    MODE_D_SYNC,
    MODE_PIPE_SGD,
    MODE_PS_SYNC,
    RunConfig,
    STAGE_ALLREDUCE,
    STAGE_BACKWARD,
    STAGE_FORWARD,
    STAGE_IDLE,
    STAGE_UPDATE,
    TraceEvent,
    WorkerResult,
    run_inproc_cluster,
    run_tcp_worker,
)
from .errors import ConfigError
from .models import (
    ModelSpec,
    backward_grad,
    evaluate_accuracy,
    forward_loss,
    full_dataset_loss,
    init_params,
    logistic_model,
    mlp_model,
    sgd_update,
)
from .timing import (
    ClusterParams,
    StageTimes,
    recommend_config,
    ring_comm_time,
    scaling_efficiency,
    star_comm_time,
    t_pipe_ideal,
    t_pipe_limited,
    t_pipe_seq,
    t_pipe_segmented,
    t_sync_total,
)
from .transport import InProcTransport, parse_roster

CLOCK_MONOTONIC = "monotonic"
CLOCK_LOGICAL = "logical"

DATASET_SYNTHETIC = "synthetic-convex"
DATASET_MNIST = "mnist"

METRICS_HEADER = "iteration,wall_clock_ms,train_loss,eval_accuracy"
BREAKDOWN_HEADER = (
    "mode,workers,iterations,depth,codec,update,compute,"
    "communicate,idle,iteration_wall,final_accuracy"
)
TRACE_HEADER = "rank,iteration,stage,start_ns,end_ns,consumed_tag"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run."""

    mode: str = MODE_D_SYNC
    workers: int = 4
    iterations: int = 2000
    learning_rate: float = 0.05
    codec: Codec = Codec.NONE
    depth: int = 2
    batch_size: int = 32
    warmup_epochs: int = 0
    eval_interval: int = 0
    seed: int = 0
    dataset: str = DATASET_SYNTHETIC
    synth_dim: int = 64
    synth_classes: int = 2
    synth_samples: int = 10_000
    synth_separation: float = 3.0
    mnist_images: str = ""
    mnist_labels: str = ""
    model: str = ""  # "" -> logistic for synthetic, mlp for mnist
    hidden: tuple[int, ...] = (500, 500)
    transport: str = "inproc"
    roster: str = ""
    rank: int = 0
    inject_alpha_ms: float = 0.0
    inject_mbps: float = 0.0
    clock: str = CLOCK_MONOTONIC
    out_dir: str = ""

    def validate(self) -> None:
        if self.mode not in (MODE_PS_SYNC, MODE_D_SYNC, MODE_PIPE_SGD):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.dataset not in (DATASET_SYNTHETIC, DATASET_MNIST):
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if self.dataset == DATASET_MNIST and not (
            self.mnist_images and self.mnist_labels
        ):
            raise ConfigError("mnist dataset needs mnist_images and mnist_labels paths")
        if self.transport not in ("inproc", "tcp"):
            raise ConfigError(f"unknown transport {self.transport!r}")
        if self.transport == "tcp" and not self.roster:
            raise ConfigError("tcp transport needs a roster file")
        if self.clock not in (CLOCK_MONOTONIC, CLOCK_LOGICAL):
            raise ConfigError(f"unknown clock {self.clock!r}")
        if self.inject_alpha_ms < 0 or self.inject_mbps < 0:
            raise ConfigError("injected delays must be >= 0")

    @property
    def latency_s(self) -> float:
        return self.inject_alpha_ms / 1e3

    @property
    def byte_time_s(self) -> float:
        if self.inject_mbps <= 0:
            return 0.0
        return 8.0 / (self.inject_mbps * 1e6)

    def run_config(self) -> RunConfig:
        return RunConfig(
            mode=self.mode,
            iterations=self.iterations,
            learning_rate=self.learning_rate,
            codec=self.codec,
            depth=self.depth,
            batch_size=self.batch_size,
            warmup_epochs=self.warmup_epochs,
            eval_interval=self.eval_interval,
            seed=self.seed,
        )


_CONFIG_KEYS = {
    "mode": str,
    "workers": int,
    "iterations": int,
    "learning_rate": float,
    "codec": "codec",
    "depth": int,
    "batch_size": int,
    "warmup_epochs": int,
    "eval_interval": int,
    "seed": int,
    "dataset": str,
    "synth_dim": int,
    "synth_classes": int,
    "synth_samples": int,
    "synth_separation": float,
    "mnist_images": str,
    "mnist_labels": str,
    "model": str,
    "hidden": "ints",
    "transport": str,
    "roster": str,
    "rank": int,
    "inject_alpha_ms": float,
    "inject_mbps": float,
    "clock": str,
    "out_dir": str,
}


def parse_kv_text(text: str) -> dict[str, str]:
    """``key = value`` per line; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def config_from_mapping(values: dict[str, str]) -> ExperimentConfig:
    kwargs = {}
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        kind = _CONFIG_KEYS[key]
        if kind == "codec":
            kwargs[key] = Codec.parse(raw)
        elif kind == "ints":
            kwargs[key] = tuple(int(v) for v in raw.split(",") if v.strip())
        elif kind is int:
            kwargs[key] = int(raw)
        elif kind is float:
            kwargs[key] = float(raw)
        else:
            kwargs[key] = raw
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


def load_config_file(path: str | Path) -> dict[str, str]:
    return parse_kv_text(Path(path).read_text())


def build_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset == DATASET_SYNTHETIC:
        return synthetic_blobs(
            dim=config.synth_dim,
            num_classes=config.synth_classes,
            num_samples=config.synth_samples,
            separation=config.synth_separation,
            seed=config.seed,
        )
    return load_idx_dataset(config.mnist_images, config.mnist_labels)


def build_model(config: ExperimentConfig, dataset: Dataset) -> ModelSpec:
    kind = config.model
    if not kind:
        kind = "logistic" if config.dataset == DATASET_SYNTHETIC else "mlp"
    if kind == "logistic":
        return logistic_model(dataset.dim, dataset.num_classes)
    if kind == "mlp":
        return mlp_model(dataset.dim, config.hidden, dataset.num_classes)
    raise ConfigError(f"unknown model {kind!r}")


@dataclass
class BreakdownReport:
    """Mean per-iteration seconds by stage bucket for one run."""

    mode: str
    workers: int
    iterations: int
    depth: int
    codec: str
    update_s: float
    compute_s: float
    communicate_s: float
    idle_s: float
    iteration_wall_s: float
    final_accuracy: float

    def csv_row(self) -> str:
        return (
            f"{self.mode},{self.workers},{self.iterations},{self.depth},{self.codec},"
            f"{self.update_s:.9f},{self.compute_s:.9f},{self.communicate_s:.9f},"
            f"{self.idle_s:.9f},{self.iteration_wall_s:.9f},"
            f"{self.final_accuracy:.4f}"
        )


def parse_breakdown_csv(text: str) -> list[BreakdownReport]:
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != BREAKDOWN_HEADER:
        raise ConfigError("not a breakdown.csv file (bad header)")
    reports = []
    for line in lines[1:]:
        f = line.split(",")
        reports.append(
            BreakdownReport(
                mode=f[0], workers=int(f[1]), iterations=int(f[2]), depth=int(f[3]),
                codec=f[4], update_s=float(f[5]), compute_s=float(f[6]),
                communicate_s=float(f[7]), idle_s=float(f[8]),
                iteration_wall_s=float(f[9]), final_accuracy=float(f[10]),
            )
        )
    return reports


_BUCKETS = {
    STAGE_UPDATE: "update",
    STAGE_FORWARD: "compute",
    STAGE_BACKWARD: "compute",
    STAGE_ALLREDUCE: "communicate",
    STAGE_IDLE: "idle",
}


def breakdown_from_trace(
    trace: list[TraceEvent],
    config: ExperimentConfig,
    wall_seconds: float,
    final_accuracy: float,
) -> BreakdownReport:
    totals = {"update": 0, "compute": 0, "communicate": 0, "idle": 0}
    for event in trace:
        bucket = _BUCKETS.get(event.stage)
        if bucket is not None:
            totals[bucket] += event.end_ns - event.start_ns
    t = config.iterations
    return BreakdownReport(
        mode=config.mode,
        workers=config.workers,
        iterations=t,
        depth=config.depth if config.mode == MODE_PIPE_SGD else 1,
        codec=config.codec.name.lower(),
        update_s=totals["update"] / 1e9 / t,
        compute_s=totals["compute"] / 1e9 / t,
        communicate_s=totals["communicate"] / 1e9 / t,
        idle_s=totals["idle"] / 1e9 / t,
        iteration_wall_s=wall_seconds / t,
        final_accuracy=final_accuracy,
    )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    workers: list[WorkerResult]
    metrics_rows: list[tuple[int, float, float, float | None]]
    breakdown: BreakdownReport
    final_loss: float
    final_accuracy: float
    wall_seconds: float
    out_dir: Path | None


def format_metrics_rows(
    rows: list[tuple[int, float, float, float | None]]
) -> str:
    lines = [METRICS_HEADER]
    for iteration, wall_ms, loss, acc in rows:
        acc_text = "" if acc is None else f"{acc:.4f}"
        lines.append(f"{iteration},{wall_ms:.3f},{loss:.6f},{acc_text}")
    return "\n".join(lines) + "\n"


def parse_metrics_csv(text: str) -> list[tuple[int, float, float, float | None]]:
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != METRICS_HEADER:
        raise ConfigError("not a metrics.csv file (bad header)")
    rows = []
    for line in lines[1:]:
        it, wall, loss, acc = line.split(",")
        rows.append(
            (int(it), float(wall), float(loss), float(acc) if acc else None)
        )
    return rows


def format_trace_csv(workers: list[WorkerResult]) -> str:
    lines = [TRACE_HEADER]
    for result in workers:
        for e in result.trace:
            tag = "" if e.consumed_tag is None else str(e.consumed_tag)
            lines.append(
                f"{e.rank},{e.iteration},{e.stage},{e.start_ns},{e.end_ns},{tag}"
            )
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one training job end to end and write its report files."""
    config.validate()
    dataset = build_dataset(config)
    model = build_model(config, dataset)
    run_cfg = config.run_config()

    # Pre-flight: shard capacity (engine would fail later, fail fast here).
    shard = dataset.shard(config.workers - 1, config.workers)
    if config.batch_size > len(shard):
        raise ConfigError(
            f"batch size {config.batch_size} exceeds the smallest shard "
            f"({len(shard)} samples)"
        )

    if config.transport == "inproc":
        results = run_inproc_cluster(
            config.workers,
            run_cfg,
            dataset,
            model,
            latency_s=config.latency_s,
            byte_time_s=config.byte_time_s,
        )
    else:
        roster = parse_roster(Path(config.roster).read_text())
        expected = config.workers + 1 if config.mode == MODE_PS_SYNC else config.workers
        if len(roster) != expected:
            raise ConfigError(
                f"roster lists {len(roster)} endpoints, mode {config.mode} with "
                f"{config.workers} workers needs {expected}"
            )
        results = [
            run_tcp_worker(
                config.rank, roster, run_cfg, dataset, model,
                latency_s=config.latency_s, byte_time_s=config.byte_time_s,
            )
        ]

    rank0 = results[0]
    eval_acc = {
        it: evaluate_accuracy(snap, model, dataset) for it, snap in rank0.eval_points
    }
    metrics_rows = []
    for iteration, wall_ms, loss in rank0.metrics:
        wall = float(iteration) if config.clock == CLOCK_LOGICAL else wall_ms
        metrics_rows.append((iteration, wall, loss, eval_acc.get(iteration)))

    final_params = rank0.params
    final_loss = full_dataset_loss(final_params, model, dataset)
    final_accuracy = evaluate_accuracy(final_params, model, dataset)
    wall_seconds = max(r.train_seconds for r in results if not r.is_server)
    breakdown = breakdown_from_trace(
        rank0.trace, config, rank0.train_seconds, final_accuracy
    )

    out_dir = None
    if config.out_dir:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.csv").write_text(format_metrics_rows(metrics_rows))
        (out_dir / "breakdown.csv").write_text(
            BREAKDOWN_HEADER + "\n" + breakdown.csv_row() + "\n"
        )
        (out_dir / "trace.csv").write_text(format_trace_csv(results))
        (out_dir / "summary.txt").write_text(
            _summary_text(config, final_loss, final_accuracy, wall_seconds, model)
        )
        from .charts import accuracy_chart, breakdown_chart

        charts = out_dir / "charts"
        charts.mkdir(exist_ok=True)
        if any(acc is not None for *_, acc in metrics_rows):
            accuracy_chart(
                [(config.mode, metrics_rows)], charts / "accuracy_vs_wallclock.svg"
            )
        breakdown_chart([breakdown], charts / "breakdown.svg")

    return ExperimentResult(
        config=config,
        workers=results,
        metrics_rows=metrics_rows,
        breakdown=breakdown,
        final_loss=final_loss,
        final_accuracy=final_accuracy,
        wall_seconds=wall_seconds,
        out_dir=out_dir,
    )


def _summary_text(
    config: ExperimentConfig,
    final_loss: float,
    final_accuracy: float,
    wall_seconds: float,
    model: ModelSpec,
) -> str:
    lines = [
        f"mode = {config.mode}",
        f"workers = {config.workers}",
        f"iterations = {config.iterations}",
        f"codec = {config.codec.name.lower()}",
        f"depth = {config.depth if config.mode == MODE_PIPE_SGD else 1}",
        f"seed = {config.seed}",
        f"model = {model.kind} {'-'.join(str(d) for d in model.layer_dims)}",
        f"params = {model.num_params}",
        f"train_wall_s = {wall_seconds:.6f}",
        f"final_train_loss = {final_loss:.6f}",
        f"final_accuracy = {final_accuracy:.4f}",
    ]
    return "\n".join(lines) + "\n"


# -- calibration -----------------------------------------------------------


def _median_seconds(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def calibrate(
    config: ExperimentConfig, reps: int = 20, probe_bytes: int = 1 << 20
) -> tuple[StageTimes, ClusterParams]:
    """Measure stage times and network parameters for the configured setup.

    Stage times are medians of `reps` timed executions on a real batch.
    The latency probe times receives of tiny pre-sent messages; the
    bandwidth probe times a large transfer and subtracts the latency.
    The sync-time probe runs dissemination barriers across `workers`
    threads. The reduction probe times one decode+add+encode hop per byte
    for the configured codec.
    """
    config.validate()
    dataset = build_dataset(config)
    model = build_model(config, dataset)
    params0 = init_params(model, config.seed)
    rng = np.random.default_rng(config.seed)
    batch = rng.choice(dataset.num_samples, size=config.batch_size, replace=False)
    grad = backward_grad(params0, model, dataset, batch)

    l_for = _median_seconds(
        lambda: forward_loss(params0, model, dataset, batch), reps
    )
    l_back = _median_seconds(
        lambda: backward_grad(params0, model, dataset, batch), reps
    )
    l_up = _median_seconds(lambda: sgd_update(params0, grad, 0.05), reps)

    # Point-to-point probes over a 2-endpoint transport with the same
    # injected delays the run would use.
    transport = InProcTransport(
        2, latency_s=config.latency_s, byte_time_s=config.byte_time_s
    )
    sender, receiver = transport.endpoint(0), transport.endpoint(1)
    ping_reps = max(reps, 20)
    for _ in range(ping_reps):
        sender.send(1, b"x")
    alpha = _median_seconds(lambda: receiver.recv(0), ping_reps)

    flood_reps = 5
    blob = bytes(probe_bytes)
    for _ in range(flood_reps):
        sender.send(1, blob)
    flood = _median_seconds(lambda: receiver.recv(0), flood_reps)
    beta = max(0.0, (flood - alpha) / probe_bytes)

    sync_s = _measure_barrier_time(config.workers, config.latency_s)

    codec = config.codec
    n_bytes = payload_size(codec, model.num_params)
    block = compress(grad, codec)

    def reduce_hop() -> None:
        compress(decompress(block) + grad, codec)

    gamma = _median_seconds(reduce_hop, reps) / max(1, n_bytes)

    cluster = ClusterParams(
        workers=config.workers,
        latency_s=alpha,
        byte_time_s=beta,
        reduce_time_s=gamma,
        sync_time_s=sync_s,
        model_bytes=float(n_bytes),
        segments=1,
    )
    stages = StageTimes(
        update=l_up,
        forward=l_for,
        backward=l_back,
        first_segment_backward=l_back,
        comm=ring_comm_time(cluster),
    )
    return stages, cluster


def _measure_barrier_time(workers: int, latency_s: float, rounds: int = 30) -> float:
    if workers < 2:
        return 0.0
    transport = InProcTransport(workers, latency_s=latency_s)
    durations: list[float] = []
    import threading

    def loop(rank: int) -> None:
        endpoint = transport.endpoint(rank)
        for generation in range(rounds):
            t0 = time.perf_counter()
            barrier(rank, workers, endpoint, generation)
            if rank == 0:
                durations.append(time.perf_counter() - t0)

    threads = [threading.Thread(target=loop, args=(r,)) for r in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return statistics.median(durations)


def calibration_text(stages: StageTimes, cluster: ClusterParams) -> str:
    lines = [
        f"workers = {cluster.workers}",
        f"alpha_s = {cluster.latency_s:.9g}",
        f"byte_time_s = {cluster.byte_time_s:.9g}",
        f"reduce_time_s = {cluster.reduce_time_s:.9g}",
        f"sync_time_s = {cluster.sync_time_s:.9g}",
        f"model_bytes = {cluster.model_bytes:.9g}",
        f"segments = {cluster.segments}",
        f"l_up = {stages.update:.9g}",
        f"l_for = {stages.forward:.9g}",
        f"l_back = {stages.backward:.9g}",
        f"l_b = {stages.first_segment_backward:.9g}",
        f"l_comm = {stages.comm:.9g}",
    ]
    return "\n".join(lines) + "\n"


def parse_calibration(values: dict[str, str]) -> tuple[StageTimes, ClusterParams]:
    try:
        cluster = ClusterParams(
            workers=int(values["workers"]),
            latency_s=float(values["alpha_s"]),
            byte_time_s=float(values["byte_time_s"]),
            reduce_time_s=float(values.get("reduce_time_s", "0")),
            sync_time_s=float(values.get("sync_time_s", "0")),
            model_bytes=float(values.get("model_bytes", "0")),
            segments=int(values.get("segments", "1")),
        )
        backward = float(values["l_back"])
        stages = StageTimes(
            update=float(values.get("l_up", "0")),
            forward=float(values.get("l_for", "0")),
            backward=backward,
            first_segment_backward=float(values.get("l_b", backward)),
            comm=float(values.get("l_comm", "0")) or ring_comm_time(cluster),
        )
    except KeyError as err:
        raise ConfigError(f"calibration file is missing key {err}") from None
    return stages, cluster


# -- prediction-vs-measurement ----------------------------------------------


@dataclass
class CompareRow:
    mode: str
    measured_s: float
    predicted_s: float
    rel_error: float
    bound: str
    flagged: bool


def predict_iteration_time(
    mode: str, depth: int, iterations: int, stages: StageTimes, cluster: ClusterParams
) -> float:
    """Model-predicted mean seconds per iteration for one mode.

    Pipelined totals carry the (depth - 1) pipeline fill/drain
    correction: (T + K - 1) bounded iterations over T of them.
    """
    comm = ring_comm_time(cluster)
    busy = stages.update + stages.compute
    if mode == MODE_D_SYNC:
        return busy + comm
    if mode == MODE_PIPE_SGD:
        fill = (iterations + depth - 1) / iterations
        return max(busy, comm) * fill
    if mode == MODE_PS_SYNC:
        return busy + star_comm_time(cluster)
    raise ConfigError(f"unknown mode {mode!r}")


def compare_prediction(
    measured: list[BreakdownReport],
    stages: StageTimes,
    cluster: ClusterParams,
    flag_threshold: float = 0.25,
) -> list[CompareRow]:
    """Measured vs predicted per-iteration time for each measured run."""
    rows = []
    for report in measured:
        if report.workers != cluster.workers:
            raise ConfigError(
                f"measurement has {report.workers} workers, calibration "
                f"{cluster.workers}"
            )
        predicted = predict_iteration_time(
            report.mode, report.depth, report.iterations, stages, cluster
        )
        rel = (report.iteration_wall_s - predicted) / predicted
        bound = (
            "communication"
            if ring_comm_time(cluster) > stages.update + stages.compute
            else "compute"
        )
        rows.append(
            CompareRow(
                mode=report.mode,
                measured_s=report.iteration_wall_s,
                predicted_s=predicted,
                rel_error=rel,
                bound=bound,
                flagged=abs(rel) > flag_threshold,
            )
        )
    return rows


def compare_table(rows: list[CompareRow]) -> str:
    lines = [
        f"{'mode':<10} {'measured_s':>12} {'predicted_s':>12} "
        f"{'rel_error':>10} {'bound':>14} {'flag':>5}"
    ]
    for r in rows:
        lines.append(
            f"{r.mode:<10} {r.measured_s:>12.6f} {r.predicted_s:>12.6f} "
            f"{r.rel_error:>+10.1%} {r.bound:>14} {'YES' if r.flagged else 'no':>5}"
        )
    return "\n".join(lines) + "\n"


# -- analytic prediction table ----------------------------------------------


def prediction_table(
    iterations: int, depth: int, stages: StageTimes, cluster: ClusterParams
) -> tuple[str, str]:
    """(text table, csv) of all analytic totals, SE, and the recommendation."""
    totals = {
        "sync_total": t_sync_total(iterations, stages),
        "pipe_ideal": t_pipe_ideal(iterations, depth, stages),
        "pipe_limited": t_pipe_limited(iterations, stages),
        "ring_comm_per_iter": ring_comm_time(cluster),
        "pipe_sequential": t_pipe_seq(iterations, stages, cluster),
        "pipe_segmented": t_pipe_segmented(iterations, stages, cluster),
    }
    se = scaling_efficiency(stages)
    rec = recommend_config(stages, cluster)
    width = max(len(k) for k in totals)
    lines = [f"iterations = {iterations}, depth K = {depth}"]
    for key, value in totals.items():
        lines.append(f"{key:<{width}} = {value:.6f} s")
    lines.append(f"{'scaling_efficiency':<{width}} = {se:.4f}")
    lines.append(
        f"recommendation: K={rec.depth}, {rec.comm_mode} communication, "
        f"{rec.bound}-bound"
    )
    text = "\n".join(lines) + "\n"
    csv_lines = ["quantity,value"]
    for key, value in totals.items():
        csv_lines.append(f"{key},{value:.9g}")
    csv_lines.append(f"scaling_efficiency,{se:.9g}")
    csv_lines.append(f"recommended_depth,{rec.depth}")
    csv_lines.append(f"recommended_comm_mode,{rec.comm_mode}")
    csv_lines.append(f"bound,{rec.bound}")
    return text, "\n".join(csv_lines) + "\n"
