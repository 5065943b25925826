"""gradpipe benchmark: end-to-end and per-layer metrics of d_sync,
pipe_sgd and ps_sync on three workloads.

    python3 bench/run.py                                   # every workload
    python3 bench/run.py --workload mlp-compute --seed 3   # one workload
    python3 bench/run.py --workload overlap-injected --trace 1

With --trace 0 a run prints the end-to-end metrics; with --trace 1 it
prints the per-layer metrics of a traced run. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import faulthandler
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

# gradpipe pins the BLAS thread variables on import, so it comes before numpy.
import gradpipe  # noqa: E402
import numpy as np  # noqa: E402
from gradpipe.compression import Codec  # noqa: E402
from gradpipe.engine import (  # noqa: E402
    MODE_D_SYNC,
    MODE_PIPE_SGD,
    MODE_PS_SYNC,
    WorkerResult,
    run_inproc_cluster,
    run_tcp_worker,
)
from gradpipe.harness import (  # noqa: E402
    ExperimentConfig,
    build_dataset,
    build_model,
    calibrate,
    predict_iteration_time,
)
from gradpipe.models import full_dataset_loss  # noqa: E402
from gradpipe.timing import ring_comm_time  # noqa: E402

import spans  # noqa: E402

MODES = (MODE_D_SYNC, MODE_PIPE_SGD, MODE_PS_SYNC)
WARMUP_ITERATIONS = 10
BUILD_REPEATS = 3
# Endpoint receive timeout and thread join bound: a lost peer fails the
# run instead of hanging it.
RUN_TIMEOUT_S = 20.0
# Whole-process watchdog, below the 180 s a run may take.
WATCHDOG_S = 170.0
# How often the resident set size is sampled during the timed runs.
RSS_SAMPLE_S = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    transport: str  # "inproc" or "tcp"
    iterations: int  # T of every timed run
    config: dict = field(default_factory=dict)  # ExperimentConfig fields

    def experiment(self, seed: int, mode: str = MODE_D_SYNC, **overrides) -> ExperimentConfig:
        """The seed drives both synthetic_blobs and RunConfig.seed."""
        fields = dict(workers=2, depth=2, learning_rate=0.05, **self.config)
        fields.update(overrides)
        return ExperimentConfig(mode=mode, seed=seed, **fields)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mlp-compute",
            "models dominate: MLP 784-500-500-10 compute outweighs the AllReduce; codec bypassed",
            "inproc",
            40,
            dict(
                synth_dim=784, synth_classes=10, synth_samples=4096,
                model="mlp", hidden=(500, 500), batch_size=64, codec=Codec.NONE,
            ),
        ),
        Workload(
            "wide-quant8-tcp",
            "quant8 codec, ring and TCP loopback dominate: 2 MB logistic model, tiny batch",
            "tcp",
            25,
            dict(
                synth_dim=16384, synth_classes=32, synth_samples=512,
                model="logistic", batch_size=16, codec=Codec.QUANT8,
            ),
        ),
        Workload(
            "overlap-injected",
            "the paper's regime: injected 5 ms latency makes comm as long as compute; pipeline decides",
            "inproc",
            16,
            dict(
                synth_dim=2000, synth_classes=10, synth_samples=4096,
                model="logistic", batch_size=1024, codec=Codec.TRUNC16,
                inject_alpha_ms=5.0, inject_mbps=8.0 / 0.375,  # beta = 3.75e-7 s/B
            ),
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    *((f"{m}.samples_per_s", "samples/s") for m in MODES),
    *(
        (f"{m}.iter_ms_{q}", "ms")
        for m in (MODE_D_SYNC, MODE_PIPE_SGD)
        for q in ("p50", "p90")
    ),
    *((f"{m}.final_loss", "nats") for m in MODES),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


# -- running one training job ---------------------------------------------


def _free_ports(count: int) -> list[int]:
    socks = [socket.socket(socket.AF_INET, socket.SOCK_STREAM) for _ in range(count)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def _run_tcp(cfg: ExperimentConfig, dataset, model) -> list[WorkerResult]:
    """Every rank of a loopback TCP mesh as a thread of this process."""
    rc = cfg.run_config()
    world = cfg.workers + (1 if rc.mode == MODE_PS_SYNC else 0)
    roster = [("127.0.0.1", port) for port in _free_ports(world)]
    results: list[WorkerResult | None] = [None] * world
    errors: list[BaseException] = []

    def rank_main(rank: int) -> None:
        try:
            results[rank] = run_tcp_worker(
                rank, roster, rc, dataset, model, cfg.latency_s, cfg.byte_time_s,
                timeout_s=RUN_TIMEOUT_S,
            )
        except BaseException as err:  # reported by the caller
            errors.append(err)

    threads = [
        threading.Thread(target=rank_main, args=(r,), name=f"worker-{r}", daemon=True)
        for r in range(world)
    ]
    # The same GIL switch interval as run_inproc_cluster: the default 5 ms
    # would add a scheduler quantum to every handoff between the rank threads,
    # which a one-process-per-rank deployment does not pay.
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=2 * RUN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(old_interval)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a TCP rank did not finish in time")
    if errors:
        raise errors[0]
    return results


def _libc_call(name: str, *args: int) -> None:
    """Call a glibc malloc tuning function; a no-op on other C libraries."""
    libc = ctypes.util.find_library("c")
    fn = getattr(ctypes.CDLL(libc), name, None) if libc else None
    if fn is not None:
        fn(*args)


def _one_malloc_arena() -> None:
    """Let every thread allocate from one malloc arena (M_ARENA_MAX = 1).

    Each run starts new rank and comm threads; with glibc's default of one
    arena per thread, memory the threads free stays resident in their arenas
    and the process's resident set ratchets up in ~24 MB steps at random, so
    peak_rss_mb would read one of two levels. With one arena, freed memory is
    reused by the next run, and malloc_trim before each run can return it.
    """
    _libc_call("mallopt", -8, 1)  # M_ARENA_MAX


def _release_free_heap() -> None:
    """Hand freed heap pages back to the OS (glibc's malloc_trim), so that
    the resident set is what live objects hold, not what set-up left behind."""
    _libc_call("malloc_trim", 0)


class RssSampler:
    """Largest resident set size of this process while the sampler runs.

    ru_maxrss cannot be reset, so it would report the dataset build, whose
    float64 temporaries outweigh what training holds; sampling only during
    the timed runs gives the training path's peak.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="rss-sampler", daemon=True)

    def _sample(self) -> None:
        fd = os.open("/proc/self/statm", os.O_RDONLY)
        try:
            while True:
                resident = int(os.pread(fd, 128, 0).split()[1]) * self._page
                self.peak_bytes = max(self.peak_bytes, resident)
                if self._stop.wait(RSS_SAMPLE_S):
                    return
        finally:
            os.close(fd)

    def __enter__(self) -> "RssSampler":
        _release_free_heap()  # before the first sample
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def train(work: Workload, cfg: ExperimentConfig, dataset, model, transport: str | None = None):
    """One training job through the public entry points: (results, call wall s)."""
    t0 = time.perf_counter()
    if (transport or work.transport) == "tcp":
        results = _run_tcp(cfg, dataset, model)
    else:
        results = run_inproc_cluster(
            cfg.workers, cfg.run_config(), dataset, model, cfg.latency_s,
            cfg.byte_time_s, timeout_s=RUN_TIMEOUT_S,
        )
    return results, time.perf_counter() - t0


def check_run(results: list[WorkerResult], expected: np.ndarray | None) -> str | None:
    """Why a finished run is wrong, or None when it passes every check."""
    first = results[0].params
    if not np.isfinite(first).all():
        return "rank 0 params are not finite"
    for r in results[1:]:
        if not np.array_equal(r.params, first):
            who = "server" if r.is_server else f"rank {r.rank}"
            return f"{who} params differ from rank 0"
    if expected is not None and not np.array_equal(first, expected):
        return "params differ from the reference run"
    return None


# -- one workload ----------------------------------------------------------


@dataclass
class ModeRuns:
    run_samples: int = 0  # p × batch × T, the same for every run
    slowest_s: list[float] = field(default_factory=list)  # slowest rank's train_seconds
    gaps_ms: list[float] = field(default_factory=list)  # rank 0's iteration gaps
    traced: list[spans.TracedRun] = field(default_factory=list)
    traced_slowest_s: list[float] = field(default_factory=list)
    expected: np.ndarray | None = None  # params every run must reproduce

    def samples_per_s(self, traced: bool = False) -> float | None:
        """Samples of all runs over the sum of their slowest train_seconds.

        Runs land in a fast or a slow state depending on how the two vCPUs
        are shared at the time, so the pooled rate is steadier than the
        median run.
        """
        slowest = self.traced_slowest_s if traced else self.slowest_s
        return self.run_samples * len(slowest) / sum(slowest) if slowest else None


class Session:
    """Set-up, warm-up and timed runs of one workload in this process."""

    def __init__(self, work: Workload, seed: int):
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.modes = {m: ModeRuns() for m in MODES}
        self.startup_s: list[float] = []  # call wall minus the slowest train_seconds
        self.peak_rss_bytes = 0  # during the timed runs

        builds = []
        for _ in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            cfg = work.experiment(seed)
            self.dataset = build_dataset(cfg)
            self.model = build_model(cfg, self.dataset)
            builds.append(time.perf_counter() - t0)
        self.build_s = statistics.median(builds)

        # Untimed warm-up: first calls into numpy and the model cost far
        # more than steady state.
        t0 = time.perf_counter()
        for mode in MODES:
            cfg = work.experiment(seed, mode, iterations=WARMUP_ITERATIONS)
            train(work, cfg, self.dataset, self.model)
        self.warmup_s = time.perf_counter() - t0

        if work.transport == "tcp":
            # TCP runs must reproduce the in-process run bit for bit.
            for mode in MODES:
                cfg = work.experiment(seed, mode, iterations=work.iterations)
                results, _ = train(work, cfg, self.dataset, self.model, "inproc")
                self.modes[mode].expected = results[0].params

    def final_loss(self, mode: str) -> float | None:
        """full_dataset_loss of the mode's parameters; evaluated after the
        timed runs, so that its temporaries stay out of peak_rss_mb."""
        expected = self.modes[mode].expected
        if expected is None:
            return None
        loss = full_dataset_loss(expected, self.model, self.dataset)
        if not np.isfinite(loss):
            self.problems.append(f"{mode}: final loss is not finite")
            return None
        return loss

    def run(self, mode: str, recorder: spans.Recorder | None = None) -> None:
        """One timed run; a failure is counted, never dropped."""
        runs = self.modes[mode]
        cfg = self.work.experiment(self.seed, mode, iterations=self.work.iterations)
        self.attempted += 1
        mark = len(recorder.spans) if recorder else 0
        try:
            if recorder:
                recorder.enabled = True
            try:
                results, wall = train(self.work, cfg, self.dataset, self.model)
            finally:
                if recorder:
                    recorder.enabled = False
            if runs.expected is None:
                runs.expected = results[0].params
            problem = check_run(results, runs.expected)
        except Exception as err:  # any failure of the program under test
            problem = f"{type(err).__name__}: {err}"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{mode}: {problem}")
            return
        slowest = max(r.train_seconds for r in results)
        if recorder:
            runs.traced.append(
                spans.TracedRun(recorder.spans[mark:], results, cfg.iterations, cfg.workers)
            )
            runs.traced_slowest_s.append(slowest)
            return
        runs.run_samples = cfg.workers * cfg.batch_size * cfg.iterations
        runs.slowest_s.append(slowest)
        self.startup_s.append(wall - slowest)
        walls = [0.0] + [wall_ms for _, wall_ms, _ in results[0].metrics]
        runs.gaps_ms.extend(np.diff(walls).tolist())

    def rounds(self, seconds: float, traced: spans.Recorder | None = None) -> None:
        """Run the modes in turn until `seconds` have passed, each at least once."""
        deadline = time.perf_counter() + seconds
        turn = 0
        with RssSampler() as rss:
            while turn < len(MODES) or time.perf_counter() < deadline:
                mode = MODES[turn % len(MODES)]
                # Memory freed by earlier runs must not carry over.
                _release_free_heap()
                self.run(mode)
                if traced is not None:
                    self.run(mode, traced)
                turn += 1
        self.peak_rss_bytes = rss.peak_bytes

    def end_to_end(self) -> tuple[dict[str, float | None], dict[str, int]]:
        """Metric values, and the sample count behind each timing."""
        values: dict[str, float | None] = {}
        counts: dict[str, int] = {}
        values["setup_s"] = (
            self.build_s + self.warmup_s + statistics.median(self.startup_s)
            if self.startup_s
            else None
        )
        for mode, runs in self.modes.items():
            values[f"{mode}.samples_per_s"] = runs.samples_per_s()
            counts[f"{mode}.samples_per_s"] = len(runs.slowest_s)
            if mode != MODE_PS_SYNC:
                for q, pct in (("p50", 50), ("p90", 90)):
                    name = f"{mode}.iter_ms_{q}"
                    values[name] = (
                        float(np.percentile(runs.gaps_ms, pct)) if runs.gaps_ms else None
                    )
                    counts[name] = len(runs.gaps_ms)
            values[f"{mode}.final_loss"] = self.final_loss(mode)
        values["peak_rss_mb"] = self.peak_rss_bytes / 2**20
        values["ok_frac"] = (self.attempted - self.failed) / self.attempted
        return {name: values[name] for name, _ in END_TO_END}, counts

    def per_layer(self) -> dict[str, float | None]:
        cfg = self.work.experiment(self.seed)
        stages, cluster = calibrate(cfg, reps=10, probe_bytes=1 << 16)
        values: dict[str, float | None] = {}
        for mode, runs in self.modes.items():
            layer = spans.layer_metrics(runs.traced)
            measured = runs.samples_per_s()
            traced = runs.samples_per_s(traced=True)
            iter_s = (
                cfg.workers * cfg.batch_size / measured if measured else None
            )
            predicted = predict_iteration_time(
                mode, cfg.depth, self.work.iterations, stages, cluster
            )
            layer["timing.pred_err"] = (
                abs(iter_s - predicted) / predicted if iter_s else None
            )
            allreduce_ms = layer["collective.allreduce_ms"]
            comm = ring_comm_time(cluster)
            layer["timing.comm_pred_err"] = (
                abs(allreduce_ms / 1e3 - comm) / comm if allreduce_ms else None
            )
            layer["bench.trace_overhead"] = (
                traced / measured - 1 if traced and measured else None
            )
            if mode == MODE_PIPE_SGD:
                sync = self.modes[MODE_D_SYNC].samples_per_s()
                layer["engine.mask_ratio"] = sync / measured if sync and measured else None
            for name, _, _ in spans.LAYER_METRICS[mode]:
                values[f"{mode}.{name}"] = layer[name]
        return values

    def write_spans(self, path: Path) -> None:
        """All recorded spans as CSV; parent is the row index of the parent span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("run,mode,name,thread,parent,start_ns,end_ns,nbytes\n")
            run_no = 0
            for mode, runs in self.modes.items():
                for run in runs.traced:
                    index = {id(s): i for i, s in enumerate(run.spans)}
                    for s in run.spans:
                        parent = index.get(id(s.parent), -1)
                        out.write(
                            f"{run_no},{mode},{s.name},{s.thread},{parent},"
                            f"{s.start_ns},{s.end_ns},{s.nbytes}\n"
                        )
                    run_no += 1


# -- host record and output ----------------------------------------------


def host_record(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            # A checkout without .git reports "unknown", not an enclosing repo.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(
    work: Workload,
    seed: int,
    session: Session,
    values: dict[str, float | None],
    units: dict[str, str],
    counts: dict[str, int],
) -> None:
    """Print the readable table, then the result as the last line."""
    print(f"# host {json.dumps(host_record(seed), sort_keys=True)}")
    print(
        f"# workload {work.name} seed {seed}: {session.attempted} runs "
        f"attempted, {session.failed} failed"
    )
    for problem in session.problems:
        print(f"# FAILED {problem}")
    missing = [name for name, v in values.items() if v is None]
    for name, value in values.items():
        if value is None:
            print(f"{name:<40} MISSING")
            continue
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name:<40} {value:>14.6g} {units[name]}{n}")
    correct = session.failed == 0 and not missing
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
            if value is not None
        },
    }
    print(json.dumps(result))


def run_workload(work: Workload, seed: int, seconds: float, trace: bool) -> int:
    session = Session(work, seed)
    if not trace:
        session.rounds(seconds)
        values, counts = session.end_to_end()
        report(work, seed, session, values, dict(END_TO_END), counts)
        return 0
    recorder = spans.Recorder()
    with recorder.installed():
        session.rounds(seconds, recorder)
    values = session.per_layer()
    session.write_spans(BENCH_DIR / "out" / f"spans-{work.name}.csv")
    units = {
        f"{mode}.{name}": unit
        for mode in MODES
        for name, unit, _ in spans.LAYER_METRICS[mode]
    }
    report(work, seed, session, values, units, {})
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="length of the timed runs (BENCHMARK.json's run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(gradpipe.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: gradpipe must come from {ROOT / 'src'}")
    if args.workload == "all":
        # Each workload in a fresh process, so its warm-up and peak RSS are its own.
        code = 0
        for name in WORKLOADS:
            proc = subprocess.run(
                [
                    sys.executable, __file__, "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                ],
                check=False,
            )
            code = code or proc.returncode
        return code
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    _one_malloc_arena()
    try:
        return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        faulthandler.cancel_dump_traceback_later()


if __name__ == "__main__":
    sys.exit(main())
