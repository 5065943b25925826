"""Fingerprint what training computes, to check a change keeps it bit-identical.

    python3 tools/param_digest.py --src ../parent/src > parent.txt
    python3 tools/param_digest.py > change.txt && diff parent.txt change.txt

One line per run: mode, codec, p and model, then the SHA-256 of each rank's
final parameters and of its losses, in rank order (a ps_sync server last).
d_sync, pipe_sgd K=2 and K=3, and ps_sync run in one process under every
codec, p in {1, 2, 3}, logistic and MLP; then once each over TCP loopback.
"""

import argparse
import hashlib
import socket
import struct
import sys
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


if __name__ == "__main__":
    main()
