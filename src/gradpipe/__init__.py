"""Data-parallel distributed SGD with ring collectives, lossy gradient
compression inside the collective, pipelined training, and an analytic
cluster timing model."""

import os as _os

# In-process clusters run p workers in one interpreter; multi-threaded
# BLAS kernels under that many compute threads thrash small machines and
# destabilize timing measurements. Opt out by setting the variable first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .compression import Codec, CompressedBlock, compress, decompress, wire_size
from .data import Dataset, synthetic_blobs
from .engine import (
    MODE_D_SYNC,
    MODE_PIPE_SGD,
    MODE_PS_SYNC,
    RunConfig,
    WorkerResult,
    run_inproc_cluster,
    run_tcp_worker,
)
from .models import (
    ModelSpec,
    backward_grad,
    evaluate_accuracy,
    forward_loss,
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
    t_pipe_ideal,
    t_pipe_limited,
    t_pipe_seq,
    t_pipe_segmented,
    t_sync_total,
)

__version__ = "0.1.0"

__all__ = [
    "Codec",
    "CompressedBlock",
    "compress",
    "decompress",
    "wire_size",
    "Dataset",
    "synthetic_blobs",
    "MODE_D_SYNC",
    "MODE_PIPE_SGD",
    "MODE_PS_SYNC",
    "RunConfig",
    "WorkerResult",
    "run_inproc_cluster",
    "run_tcp_worker",
    "ModelSpec",
    "backward_grad",
    "evaluate_accuracy",
    "forward_loss",
    "init_params",
    "logistic_model",
    "mlp_model",
    "sgd_update",
    "ClusterParams",
    "StageTimes",
    "recommend_config",
    "ring_comm_time",
    "scaling_efficiency",
    "t_pipe_ideal",
    "t_pipe_limited",
    "t_pipe_seq",
    "t_pipe_segmented",
    "t_sync_total",
]
