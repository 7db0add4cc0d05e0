"""Frame codec for the network shard protocol: length, version, checksum.

The multi-machine coordinator (:mod:`repro.runtime.netshard`) speaks
the :class:`~repro.runtime.lease.LeaseTable` grant/heartbeat/complete
protocol over TCP.  TCP is a byte stream with none of the message
boundaries the protocol needs, and a distributed transport must treat
the bytes themselves as adversarial (the Imbs-Raynal-Stainer reduction
treats even *processes* that way): a frame can arrive truncated by a
crashed peer, corrupted by a buggy proxy, oversized by a confused or
malicious client, or produced by an incompatible build.  This module
pins the frame format and turns every such event into a **typed,
prompt** failure:

* every frame is ``header + JSON payload``, where the fixed 13-byte
  header carries a magic tag, the protocol version, the payload length
  and a CRC-32 of the payload -- a reader always knows exactly how many
  bytes it is owed and whether they arrived intact;
* every socket read and write takes a **deadline** (absolute
  ``time.monotonic()`` instant, never wall clock): a peer that stops
  mid-frame fails the read with :class:`WireTimeout` instead of
  wedging the server, exactly as a wedged pool worker trips its lease;
* every malformed input raises a dedicated :class:`WireError` subclass
  (:class:`FrameTruncated`, :class:`ChecksumMismatch`,
  :class:`FrameTooLarge`, :class:`VersionMismatch`, ...), so transport
  code retries what is retryable and surfaces what is not.

``tests/runtime/test_wire.py`` pins each failure mode; the chaos proxy
(:class:`repro.runtime.netshard.ChaosProxy`) manufactures them on live
connections.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from time import monotonic
from typing import Any, Dict, List, Optional, Tuple

#: Protocol version carried in every frame header.  Bump on any change
#: to the header layout or the message vocabulary; a peer speaking a
#: different version is rejected with :class:`VersionMismatch` instead
#: of being misparsed.  v2: a ``complete`` frame carries every count
#: inside ``stats`` and names a budget stop in ``interrupted``.
WIRE_VERSION = 2

#: Frame tag: four bytes identifying a repro-shard frame.  Anything
#: else at a frame boundary (an HTTP probe, a desynchronized stream)
#: raises :class:`BadMagic` immediately.
MAGIC = b"RSRD"

#: Hard cap on a single frame's payload.  Shard prefixes and stats
#: are all tiny; a length field beyond this is corruption or
#: abuse, and rejecting it *before* reading the payload keeps a hostile
#: length from making the reader allocate or wait for gigabytes.
#: Module-level so tests can shrink it.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Default per-frame I/O budget (seconds) when the caller passes no
#: deadline.  Generous against real network jitter, finite against a
#: peer that stops mid-frame.  Module-level so tests can shrink it.
DEFAULT_FRAME_TIMEOUT = 30.0

#: ``!`` = network byte order, no padding: magic, version byte,
#: payload length, CRC-32 of the payload.
_HEADER = struct.Struct("!4sBII")

#: Total header size in bytes (13).
HEADER_SIZE = _HEADER.size


class WireError(Exception):
    """Base of every transport-layer failure.

    Catching this (plus ``OSError``) is the contract for "the frame or
    connection is unusable; reconnect or give up" -- no transport
    failure ever escapes as a bare ``ValueError`` or a hang.
    """


class FrameTruncated(WireError):
    """The stream ended (or reset) inside a frame.

    Covers a truncated length prefix -- EOF after 1-12 header bytes --
    as well as EOF inside the payload: in both cases the peer promised
    bytes it never delivered.
    """


class ConnectionClosed(WireError):
    """The peer closed the connection cleanly *between* frames.

    Unlike :class:`FrameTruncated` this is often benign (a server
    finishing, a worker departing); callers decide.
    """


class ChecksumMismatch(WireError):
    """The payload arrived, but its CRC-32 disagrees with the header."""


class FrameTooLarge(WireError):
    """The header announces a payload beyond :data:`MAX_FRAME_BYTES`."""


class VersionMismatch(WireError):
    """The peer speaks a different protocol version."""


class BadMagic(WireError):
    """The bytes at a frame boundary are not a repro-shard frame."""


class WireTimeout(WireError):
    """A read or write deadline expired mid-frame (peer too slow)."""


def encode_frame(body: Dict[str, Any]) -> bytes:
    """Serialize one message to ``header + JSON payload`` bytes.

    Keys are sorted so identical messages are byte-identical (the chaos
    proxy and the tests rely on frames being reproducible).  Raises
    :class:`FrameTooLarge` rather than emitting a frame no compliant
    reader would accept.
    """
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"refusing to encode a {len(payload)}-byte payload "
            f"(cap {MAX_FRAME_BYTES})")
    header = _HEADER.pack(MAGIC, WIRE_VERSION, len(payload),
                          zlib.crc32(payload))
    return header + payload


def _parse_header(header: bytes) -> Tuple[int, int]:
    """Validate a 13-byte header; returns ``(payload_length, crc)``."""
    magic, version, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagic(f"expected frame magic {MAGIC!r}, got {magic!r}")
    if version != WIRE_VERSION:
        raise VersionMismatch(
            f"peer speaks wire version {version}, this build speaks "
            f"{WIRE_VERSION}")
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"header announces a {length}-byte payload "
            f"(cap {MAX_FRAME_BYTES})")
    return length, crc


def _decode_payload(payload: bytes, crc: int) -> Dict[str, Any]:
    """Checksum-verify and JSON-decode one payload."""
    if zlib.crc32(payload) != crc:
        raise ChecksumMismatch(
            f"payload CRC {zlib.crc32(payload):#010x} != header CRC "
            f"{crc:#010x}")
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # The checksum passed, so the bytes arrived as sent: the peer
        # itself emitted garbage.  Not retryable.
        raise WireError(f"undecodable frame payload: {exc}") from None
    if not isinstance(body, dict):
        raise WireError(
            f"frame payload must be a JSON object, got "
            f"{type(body).__name__}")
    return body


def try_decode(buffer: bytes) -> Optional[Tuple[Dict[str, Any], int]]:
    """Decode one frame from the head of ``buffer`` if fully present.

    Returns ``(body, bytes_consumed)``, or ``None`` when the buffer
    holds only a frame prefix (caller: read more).  Raises the typed
    :class:`WireError` subclasses on malformed input.  This is the
    non-blocking half of the codec, used by the selector-driven server
    on its per-connection receive buffers.
    """
    if len(buffer) < HEADER_SIZE:
        return None
    length, crc = _parse_header(bytes(buffer[:HEADER_SIZE]))
    if len(buffer) < HEADER_SIZE + length:
        return None
    payload = bytes(buffer[HEADER_SIZE:HEADER_SIZE + length])
    return _decode_payload(payload, crc), HEADER_SIZE + length


def split_frames(buffer: bytes) -> Tuple[List[bytes], bytes]:
    """Split ``buffer`` into complete raw frames plus the unfinished rest.

    Frame-*boundary* aware but content-agnostic: payloads are not
    checksummed or decoded, so the chaos proxy can reorder, duplicate
    or truncate frames it could never legitimately parse.  A buffer
    that does not start with a valid header is returned whole as the
    remainder (pass-through for non-protocol bytes).
    """
    frames: List[bytes] = []
    rest = bytes(buffer)
    while len(rest) >= HEADER_SIZE:
        try:
            length, _ = _parse_header(rest[:HEADER_SIZE])
        except WireError:
            break
        if len(rest) < HEADER_SIZE + length:
            break
        frames.append(rest[:HEADER_SIZE + length])
        rest = rest[HEADER_SIZE + length:]
    return frames, rest


def _remaining(deadline: Optional[float]) -> float:
    """Seconds left until ``deadline`` (monotonic); raises on expiry."""
    if deadline is None:
        return DEFAULT_FRAME_TIMEOUT
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise WireTimeout("frame deadline expired")
    return remaining


def _recv_exact(sock: socket.socket, nbytes: int,
                deadline: Optional[float],
                eof_ok_at_start: bool = False) -> Optional[bytes]:
    """Read exactly ``nbytes``, honouring the deadline on every recv.

    Returns ``None`` on a clean EOF before the first byte when
    ``eof_ok_at_start`` (a peer hanging up between frames); raises
    :class:`FrameTruncated` on EOF or reset anywhere else, and
    :class:`WireTimeout` when the deadline fires mid-read -- a read
    can therefore never hang past its budget.
    """
    chunks: List[bytes] = []
    got = 0
    while got < nbytes:
        sock.settimeout(_remaining(deadline))
        try:
            chunk = sock.recv(min(65536, nbytes - got))
        except socket.timeout:
            raise WireTimeout(
                f"read stalled with {nbytes - got} of {nbytes} "
                f"byte(s) outstanding") from None
        except OSError as exc:
            raise FrameTruncated(
                f"connection lost mid-frame: {exc}") from None
        if not chunk:
            if not chunks and eof_ok_at_start:
                return None
            raise FrameTruncated(
                f"peer closed with {nbytes - got} of {nbytes} "
                f"byte(s) outstanding")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket,
               deadline: Optional[float] = None) -> Dict[str, Any]:
    """Read one complete frame from ``sock``; blocks at most until
    ``deadline`` (absolute monotonic; ``None`` = the module default).

    Raises :class:`ConnectionClosed` on a clean EOF at a frame
    boundary, and the usual typed errors otherwise.
    """
    header = _recv_exact(sock, HEADER_SIZE, deadline, eof_ok_at_start=True)
    if header is None:
        raise ConnectionClosed("peer closed between frames")
    length, crc = _parse_header(header)
    payload = _recv_exact(sock, length, deadline) if length else b""
    assert payload is not None
    return _decode_payload(payload, crc)


def send_frame(sock: socket.socket, body: Dict[str, Any],
               deadline: Optional[float] = None) -> None:
    """Encode and write one frame; blocks at most until ``deadline``."""
    data = encode_frame(body)
    sock.settimeout(_remaining(deadline))
    try:
        sock.sendall(data)
    except socket.timeout:
        raise WireTimeout(
            f"write of a {len(data)}-byte frame stalled") from None
    except OSError as exc:
        raise ConnectionClosed(
            f"connection lost while writing: {exc}") from None
