"""Exception types shared across the package."""


class ReuseGuardError(Exception):
    """Base class for all package errors."""


class UnsupportedGroupError(ReuseGuardError):
    """Requested group descriptor is not one of the supported groups."""


class InvalidCiphertextError(ReuseGuardError):
    """A received ciphertext failed validation against the public key."""


class NotOnCurveError(InvalidCiphertextError):
    """A byte string does not decode to a valid group element."""


class ConsentRequiredError(ReuseGuardError):
    """A query arrived for an account with no open consent window."""


class ConsentTokenError(ReuseGuardError):
    """A consent token is unknown, expired, or already used."""


class InsufficientRespondersError(ReuseGuardError):
    """Fewer responders are registered than the fan-out requires."""


class NoResponseError(ReuseGuardError):
    """A run collected no responder reply, so it has no verdict."""


class InfeasibleError(ReuseGuardError):
    """No parameter choice satisfies the response-time constraint."""


class MalformedAddressError(ReuseGuardError):
    """An account identifier is not a syntactically valid email address."""


class FrameError(ReuseGuardError):
    """A wire frame or payload is malformed."""


class TransportError(ReuseGuardError):
    """A request failed: unreachable peer, no reply, or an unexpected one."""


class StateError(ReuseGuardError):
    """A persisted state file does not decode.

    That is the directory's event log or a responder's similar-set store.
    """
