"""Fingerprint what training computes, to check a change keeps it bit-identical.

    python3 tools/param_digest.py --src ../parent/src > parent.txt
    python3 tools/param_digest.py > change.txt && diff parent.txt change.txt

One line per run: mode, codec, p and model, then the SHA-256 of each rank's
final parameters and of its losses, in rank order (a ps_sync server last).
d_sync, pipe_sgd K=2 and K=3, and ps_sync run in one process under every
codec, p in {1, 2, 3}, logistic and MLP; then once each over TCP loopback;
then once each through ``cli.main(["run", ...])`` with a config file and
flags, which also hashes the run's metrics.csv (logical clock).
"""

import argparse
import contextlib
import hashlib
import io
import socket
import struct
import sys
import tempfile
from pathlib import Path

MODES = (("d_sync", 2), ("pipe_sgd", 2), ("pipe_sgd", 3), ("ps_sync", 2))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report(label: str, results: list) -> None:
    losses = [[m[2] for m in r.metrics] for r in results]
    print(label, *(
        sha(r.params.tobytes()) + "/" + sha(struct.pack(f"<{len(ls)}d", *ls))
        for r, ls in zip(results, losses)
    ), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, parser.parse_args().src)
    from gradpipe import engine
    from gradpipe.compression import Codec
    from gradpipe.data import synthetic_blobs
    from gradpipe.models import logistic_model, mlp_model

    data = synthetic_blobs(dim=8, num_classes=3, num_samples=384, seed=1)
    models = {"logistic": logistic_model(8, 3), "mlp": mlp_model(8, (16,), 3)}
    for mode, depth in MODES:
        name = f"{mode}-K{depth}" if mode == "pipe_sgd" else mode
        for codec in Codec:
            cfg = engine.RunConfig(mode=mode, iterations=12, learning_rate=0.1, codec=codec,
                                   depth=depth, batch_size=16, seed=3)
            for model_name, model in models.items():
                for p in (1, 2, 3):
                    results = engine.run_inproc_cluster(p, cfg, data, model)
                    report(f"{name} {codec.name.lower()} p={p} {model_name}", results)
        # cfg has the last codec, quant8. Free loopback ports, one per endpoint:
        socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(3 if mode == "ps_sync" else 2)]
        roster = [s.getsockname() for s in socks]
        for s in socks:
            s.close()
        results = engine.run_rank_threads(
            len(roster), lambda rank: engine.run_tcp_worker(rank, roster, cfg, data, models["mlp"])
        )
        report(f"{name} {codec.name.lower()} p=2 mlp tcp", results)
    for mode, depth in MODES:
        cli_run(mode, depth)


def cli_run(mode: str, depth: int) -> None:
    """One `gradpipe run` through the CLI: its final parameters and metrics.csv."""
    from gradpipe import cli, harness

    runs = []

    def run_experiment(config):
        runs.append(harness.run_experiment(config))
        return runs[-1]

    cli.run_experiment = run_experiment
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "run.cfg")
        config.write_text("synth_dim = 8\nsynth_classes = 3\nsynth_samples = 384\n"
                          "synth_separation = 2.5\nmodel = mlp\n")
        argv = ["run", "--config", str(config), "--mode", mode, "--k", str(depth),
                "--workers", "2", "--iters", "12", "--lr", "0.1", "--codec", "quant8",
                "--batch-size", "16", "--seed", "3", "--eval-interval", "5",
                "--hidden", "16,8", "--clock", "logical", "--out", tmp]
        with contextlib.redirect_stdout(io.StringIO()):  # its line has the wall time
            code = cli.main(argv)
        metrics = Path(tmp, "metrics.csv").read_bytes()
    name = f"{mode}-K{depth}" if mode == "pipe_sgd" else mode
    print(f"cli {name} exit={code}", sha(runs[0].workers[0].params.tobytes()) + "/" + sha(metrics),
          flush=True)


if __name__ == "__main__":
    main()
