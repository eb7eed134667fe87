"""Exception hierarchy for the R-NUMA reproduction library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An invalid machine, cache, or experiment configuration."""


class ProtocolError(ReproError):
    """An internal coherence-protocol invariant was violated.

    Raised when the directory, a cache, or a protocol engine observes a
    state transition that the MOESI/directory protocol does not permit.
    These indicate bugs, not user errors.
    """


class TraceError(ReproError):
    """A malformed workload trace (e.g. mismatched barriers)."""


class FaultInjected(ReproError):
    """A deterministic injected fault fired (see :mod:`repro.faults`).

    Raised only when an injection point armed through the
    ``REPRO_FAULTS`` environment variable fires; production runs never
    construct it.  Worker-side injections surface as ordinary job
    crashes; store-side injections simulate torn writes and writer
    death, so :meth:`ResultStore.save` deliberately does *not* clean up
    its temp file when this escapes — that is the crash being modeled.
    """
