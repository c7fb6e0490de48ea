"""Deterministic seed derivation.

Every random stream in a run is derived from one master seed, so any piece
of a batch can be reproduced in isolation. Derivation uses SHA-256 rather
than the builtin ``hash`` (which is salted per process).

SHA-256 comes from the interpreter's builtin hash module (``_sha2`` on
CPython 3.12+, ``_sha256`` on 3.10-3.11), as CPython's own ``random`` takes
SHA-512: ``hashlib`` loads OpenSSL's libcrypto, which costs every run a few
milliseconds and several MB of resident memory. It is the same function, so
every digest equals ``hashlib.sha256``'s; ``hashlib`` is imported only on an
interpreter that has neither module.
"""

from __future__ import annotations

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def derive_seed(*parts: object) -> int:
    """Map a tuple of labels/ints to a stable 63-bit seed."""
    text = ":".join(str(p) for p in parts)
    digest = sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
