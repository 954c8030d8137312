"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class EmptyDistributionError(ReproError, ValueError):
    """Raised when a metric is asked to operate on an empty distribution."""


class InvalidDistributionError(ReproError, ValueError):
    """Raised when counts are negative, non-finite, or otherwise malformed."""


class CalibrationError(ReproError, RuntimeError):
    """Raised when the world generator cannot hit a calibration target."""


class TransientError(ReproError):
    """Marker base for failures that may clear on retry.

    Retry policies treat any :class:`TransientError` subclass as
    retry-safe (SERVFAIL, timeouts, connection resets) and everything
    else (NXDOMAIN, certificate mismatches) as permanent.
    """


class ResolutionError(ReproError):
    """Raised when the simulated DNS resolver cannot resolve a name."""


class NXDomainError(ResolutionError):
    """The queried name does not exist in the simulated namespace."""


class ServFailError(ResolutionError, TransientError):
    """The simulated authoritative infrastructure failed to answer."""


class MeasurementTimeoutError(TransientError):
    """A simulated network operation exceeded its time budget."""


class TLSError(ReproError):
    """Raised when a simulated TLS handshake cannot be completed."""


class TLSHandshakeError(TLSError, TransientError):
    """Connection-level TLS failure (reset/flap), as opposed to a
    certificate validation failure — retrying may succeed."""


class UnknownCountryError(ReproError, KeyError):
    """Raised when a country code is not part of the 150-country dataset."""


class UnknownLayerError(ReproError, KeyError):
    """Raised when an infrastructure layer name is not recognized."""


class PipelineError(ReproError, RuntimeError):
    """Raised when the measurement pipeline is misconfigured."""


class TraceFormatError(PipelineError):
    """Raised when a span trace artifact cannot be understood.

    A JSONL line that does not parse, a span object missing its
    required fields, or a ``_schema`` header naming a version this
    code does not speak.  Typed (rather than a bare
    ``JSONDecodeError``/``KeyError``) so trace consumers can
    distinguish "this artifact is damaged or from an incompatible
    version" from programming errors, and so lenient loaders can skip
    exactly these lines.
    """

    def __init__(
        self, message: str, path: object = None, line: int | None = None
    ) -> None:
        where = ""
        if path is not None:
            where = f"{path}"
            if line is not None:
                where += f":{line}"
            where = f" ({where})"
        super().__init__(f"{message}{where}")
        self.path = path
        self.line = line


class StoreCorruptionError(PipelineError):
    """Raised when the campaign store holds a damaged artifact.

    A truncated or bit-flipped object, an index entry whose JSON no
    longer parses, a dangling digest reference — anything where the
    bytes on disk contradict the store's content-addressing.  Typed
    (rather than a bare ``KeyError``/``JSONDecodeError``) so callers
    can distinguish "your store is damaged, run ``repro campaigns
    fsck --repair``" from programming errors.
    """


class UnknownIdError(PipelineError):
    """Raised when no stored campaign or series matches an id prefix."""

    def __init__(self, kind: str, prefix: str) -> None:
        super().__init__(f"no {kind} matching {prefix!r}")


class AmbiguousIdError(PipelineError):
    """Raised when an id prefix matches several stored campaigns or series."""
