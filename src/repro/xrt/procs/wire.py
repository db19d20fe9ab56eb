"""Framed, non-blocking socket connections and the procs message kinds.

Every message between place processes is one frame (see
:func:`repro.xrt.serialization.encode_frame`) holding a 4-tuple
``(kind, src, dst, payload)``.  Topology is a star: each child place holds one
connection to place 0, which routes child-to-child frames by ``dst``.  A
single router gives a useful causal guarantee for the finish protocol: a FORK
notice enqueued before the SPAWN it covers is *delivered* to the home place
before any JOIN that spawn can produce.
"""

from __future__ import annotations

import socket
from typing import Any, List, Tuple

from repro.xrt.serialization import FrameDecoder, encode_frame

# -- message kinds ---------------------------------------------------------------

#: remote spawn: payload (fn, args, fid, pragma_value, home, name)
SPAWN = "spawn"
#: finish fork notice to the home place (uncounted bookkeeping; the sim's
#: equivalent rides inside the spawn message): payload (fid, pragma_value, dst)
#: — the destination place lets the home finish attribute the pending count
#: per place, which is what makes death write-offs exact
FORK = "fork"
#: finish join — the counted control message: payload (fid, pragma_value)
JOIN = "join"
#: blocking remote evaluation: payload (fn, args, reply_id)
EVAL = "eval"
#: evaluation result: payload (reply_id, value, is_error)
REPLY = "reply"
#: mailbox delivery: payload (mailbox, item)
ITEM = "item"
#: place 0 -> child: the program is over, report and exit: payload None
EXIT = "exit"
#: child -> place 0: final per-place report: payload dict
DONE = "done"
#: child -> place 0: uncaught exception: payload formatted traceback str
CRASH = "crash"
#: place 0 -> child: liveness probe; the child must answer PONG from its
#: socket loop (proving the loop is alive, not that activities progress):
#: payload heartbeat sequence number
PING = "ping"
#: child -> place 0: heartbeat answer: payload the PING's sequence number
PONG = "pong"
#: place 0 -> child: structured death notice: payload (dead_place, cause).
#: Per-connection FIFO plus the single router give the causal guarantee the
#: finish protocol needs: a DEAD notice is delivered after every frame the
#: dead place managed to send that the router routed before marking it dead.
DEAD = "dead"

Frame = Tuple[str, int, int, Any]

#: bytes asked of one ``recv``; a shorter read means the socket is drained
_RECV_BYTES = 65536


class Conn:
    """One framed connection, non-blocking in both directions.

    Reads go through a :class:`FrameDecoder` so partial frames are handled in
    exactly one place.  Writes go straight to the socket in the call that
    sends the frame; only a tail the kernel would not take is buffered, and
    the owning loop drains it when the socket turns writable.  A frame is
    never written with a blocking call, so neither side can deadlock the
    pair, and a new frame never overtakes a buffered tail (per-connection
    FIFO).
    """

    __slots__ = (
        "sock", "peer", "decoder", "_out", "bytes_sent", "frames_sent", "dropped", "eof",
        "events",
    )

    def __init__(self, sock: socket.socket, peer: int) -> None:
        sock.setblocking(False)
        self.sock = sock
        #: the place on the other end (from place 0's view; -1 means "router")
        self.peer = peer
        self.decoder = FrameDecoder()
        self._out = bytearray()
        self.bytes_sent = 0
        self.frames_sent = 0
        #: frames queued after EOF — nothing is ever *silently* lost: every
        #: frame is either sent or counted here (``procs.wire.dropped``)
        self.dropped = 0
        self.eof = False
        #: the selector event mask the owning loop registered (0: none), so
        #: the loop re-arms only when the wanted mask changes
        self.events = 0

    def fileno(self) -> int:
        return self.sock.fileno()

    # -- sending ---------------------------------------------------------------

    def send_frame(self, frame: Frame) -> None:
        """Send one frame now; buffer whatever the socket did not take."""
        if self.eof:
            self.dropped += 1
            return
        data = encode_frame(frame)
        self.frames_sent += 1
        self.bytes_sent += len(data)
        if self._out:
            # behind a buffered tail: queue, so frames leave in order
            self._out.extend(data)
            return
        try:
            sent = self.sock.send(data)
        except OSError:
            # would-block, or the peer is gone: buffer the whole frame and
            # let pump_write meet the error, which retires the connection
            sent = 0
        if sent < len(data):
            self._out.extend(data[sent:])

    @property
    def wants_write(self) -> bool:
        return bool(self._out)

    def pump_write(self) -> None:
        """Push the buffered tail out; stops at the first would-block."""
        while self._out:
            try:
                sent = self.sock.send(self._out)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                # peer gone mid-write (EPIPE after a SIGKILL): the buffered
                # bytes can never be delivered — surface as EOF so the owner
                # retires the connection; the loop drains the read side
                # first, so frames the peer managed to send are not lost
                self.eof = True
                self._out.clear()
                return
            if sent == 0:  # pragma: no cover - send() raises rather than 0
                return
            del self._out[:sent]

    def flush_blocking(self, timeout: float) -> None:
        """Best-effort synchronous drain (shutdown paths only)."""
        self.sock.settimeout(timeout)
        try:
            while self._out:
                sent = self.sock.send(self._out)
                del self._out[:sent]
        except OSError:
            self._out.clear()
        finally:
            try:
                self.sock.setblocking(False)
            except OSError:
                pass

    # -- receiving -------------------------------------------------------------

    def pump_read(self) -> List[Frame]:
        """Read what is available; return the frames completed by it.

        A short read ends the call: the loop's selector is level-triggered,
        so anything that arrives later shows up on the next poll.  Once the
        write side has hit EOF, it reads on to the peer's EOF instead, so
        frames the dead peer managed to send still land.
        """
        frames: List[Frame] = []
        while True:
            try:
                chunk = self.sock.recv(_RECV_BYTES)
            except (BlockingIOError, InterruptedError):
                return frames
            except (ConnectionResetError, OSError):
                self.eof = True
                return frames
            if not chunk:
                self.eof = True
                return frames
            frames.extend(self.decoder.feed(chunk))
            if len(chunk) < _RECV_BYTES and not self.eof:
                return frames

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close on a dead fd
            pass
