"""The service's JSON-line wire protocol.

One request per line, one JSON object per request::

    {"id": 3, "op": "acquire", "txn": "t1", "entity": "a", "mode": "X"}

and one response line per request, echoing ``id`` and ``op`` and carrying
the kernel outcome (the :class:`~repro.kernel.outcomes.Outcome` wire
values: ``granted``/``blocked``/``denied``/``victim``/``error``)::

    {"id": 3, "op": "acquire", "txn": "t1", "outcome": "blocked",
     "reason": "conflicting holders"}

A ``blocked`` acquire later produces one unsolicited *event* line when
the parked request resolves, correlated by the original request id::

    {"event": "wake", "id": 3, "txn": "t1", "outcome": "granted"}

Connections open with a ``hello`` handshake that binds the connection to
an *actor* (the authorization principal for every subsequent request).
Entities are strings on the wire; lock modes use the
:class:`~repro.kernel.LockMode` values ``"S"``/``"X"`` (the long names
``"shared"``/``"exclusive"`` are accepted on input).
"""

from __future__ import annotations

import json
from json import JSONDecodeError
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Dict, Optional

from ..kernel import LockMode

#: Bump on incompatible wire changes; echoed in the hello response.
PROTOCOL_VERSION = 1

#: The frame limit, terminator included, on both transports (``serve_tcp``
#: hands it to the stream reader, the in-process pipe checks it itself).
#: A longer request line is refused — audited, answered best-effort —
#: and the connection closed: the rest of the stream cannot be trusted to
#: start on a line boundary.
MAX_LINE_BYTES = 64 * 1024

#: Requests that may change kernel state (all are authorized inline and
#: audited — see :mod:`repro.service.auth`).
MUTATING_OPS = frozenset({"begin", "acquire", "release", "commit", "abort"})

#: Read-only requests (still authorized and audited: ``locks`` serves the
#: holder-only visibility view).
QUERY_OPS = frozenset({"locks"})

OPS = MUTATING_OPS | QUERY_OPS

_MODES: Dict[str, LockMode] = {
    "S": LockMode.SHARED,
    "X": LockMode.EXCLUSIVE,
    "shared": LockMode.SHARED,
    "exclusive": LockMode.EXCLUSIVE,
}

#: Each mode's wire string, for replies: a dict lookup, where
#: ``LockMode.value`` is a Python-level property read.
MODE_WIRE: Dict[LockMode, str] = {mode: mode.value for mode in LockMode}


class ProtocolError(ValueError):
    """A request line the service cannot interpret.  Protocol errors are
    answered (outcome ``error``) and audited, never silently dropped."""


# The codec is built once.  ``JSONEncoder.encode`` builds a fresh C
# encoder on every call (and runs two Python frames to do it), and
# ``JSONDecoder.decode`` adds two frames and two regex matches per line;
# the service pays each once per reply or request.  So ``encode`` calls
# the C encoder that ``JSONEncoder.encode`` would build — sorted keys,
# compact separators, ASCII escaping, non-finite floats allowed — and
# ``decode`` calls the C scanner and applies ``JSONDecoder.decode``'s
# whitespace rule itself, raising the same errors.  Two differences,
# neither reachable from the service: no circular-reference check (a
# shared marker table would keep the ids a failed call left behind; a
# reply is a fresh tree), and no pure-Python fallback (CPython ships the
# C accelerator).
_render = c_make_encoder(
    None,  # markers: no circular-reference check
    json.JSONEncoder().default,  # raises TypeError on an unserializable value
    encode_basestring_ascii,
    None,  # indent
    ":",  # key separator
    ",",  # item separator
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)
_scan_once = json.JSONDecoder().scan_once
#: What ``JSONDecoder.decode`` skips before and after the document.
_WHITESPACE = " \t\n\r"


def encode(message: Dict[str, object]) -> bytes:
    """One message, one line: compact JSON with sorted keys (a canonical
    rendering, so transcripts diff cleanly) plus the line terminator —
    byte for byte ``JSONEncoder(sort_keys=True, separators=(",", ":"))
    .encode(message) + "\\n"``."""
    # The C encoder hands its rendering back as a one-item list.
    return (_render(message, 0)[0] + "\n").encode()


def decode(line: bytes) -> Dict[str, object]:
    """Parse one request line; raises :class:`ProtocolError` on anything
    that is not a single JSON object, with ``JSONDecoder.decode``'s
    error text."""
    try:
        text = line.decode("utf-8")
        try:
            message, end = _scan_once(
                text, len(text) - len(text.lstrip(_WHITESPACE))
            )
        except StopIteration as stop:
            raise JSONDecodeError("Expecting value", text, stop.value) from None
        extra = text[end:].lstrip(_WHITESPACE)
        if extra:
            raise JSONDecodeError("Extra data", text, len(text) - len(extra))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8 and bad JSON; RecursionError is the
        # parser giving up on pathological nesting.  Either way the line
        # is the client's fault and gets an answer, not a dead handler.
        raise ProtocolError(f"malformed request line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


def parse_mode(value: object) -> LockMode:
    """Parse a wire lock mode (default ``X`` when absent)."""
    if value is None:
        return LockMode.EXCLUSIVE
    if isinstance(value, str) and value in _MODES:
        return _MODES[value]
    raise ProtocolError(
        f"unknown lock mode {value!r}; expected one of "
        f"{sorted(_MODES)}"
    )


def require_str(message: Dict[str, object], key: str) -> str:
    """Fetch a mandatory non-empty string field."""
    value = message.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"request field {key!r} must be a non-empty string")
    return value


def request_id(message: Dict[str, object]) -> Optional[object]:
    """The client-chosen correlation id (echoed verbatim; may be absent)."""
    return message.get("id")
