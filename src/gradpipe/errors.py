"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError and any other
GradPipeError -> 2, TransportError and CollectiveError -> 3.
"""


class GradPipeError(Exception):
    """Base class for all package errors."""


class ConfigError(GradPipeError):
    """Invalid configuration, dimension mismatch, or contradictory options."""


class CodecError(GradPipeError):
    """Compression failed (non-finite input, unknown codec)."""


class CorruptBlockError(CodecError):
    """Serialized block failed validation (payload length mismatch, bad tag)."""


class TransportError(GradPipeError):
    """Point-to-point messaging failure (timeout, connection loss)."""


class CollectiveError(TransportError):
    """A collective operation aborted; message identifies the failing step."""


class EngineError(GradPipeError):
    """A gradient hand-off between the engine's threads failed: a wait timed
    out, a slot held another iteration, or a comm thread outlived its join.
    The message names the rank, the iteration and the step."""
