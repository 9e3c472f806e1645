"""Cross-website password-reuse prevention.

A requester (the site where a password is being set) privately asks the
responders registered for the same canonical account identifier whether
the candidate is similar to a password already set there.  The directory
mediates and anonymizes the fan-out; the planner picks the per-responder
entry budget and fan-out width that maximize detection within a
response-time goal.
"""

from . import bench, bloom, directory, elgamal, groups, netnodes, planner, protocol, similarity, wire
from .errors import (
    ConsentRequiredError,
    ConsentTokenError,
    FrameError,
    InfeasibleError,
    InsufficientRespondersError,
    InvalidCiphertextError,
    MalformedAddressError,
    NoResponseError,
    NotOnCurveError,
    ReuseGuardError,
    StateError,
    TransportError,
    UnsupportedGroupError,
)

__version__ = "0.1.0"

__all__ = [
    "bench", "bloom", "directory", "elgamal", "groups", "netnodes",
    "planner", "protocol", "similarity", "wire",
    "ReuseGuardError", "UnsupportedGroupError", "NotOnCurveError",
    "InvalidCiphertextError", "ConsentRequiredError", "ConsentTokenError",
    "InsufficientRespondersError", "InfeasibleError", "MalformedAddressError",
    "FrameError", "TransportError", "NoResponseError", "StateError",
]
