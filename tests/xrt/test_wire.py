"""The authoritative wire format: framing, partial reads, and real sockets.

Satellite 2 of the procs-backend PR: seeded round-trips of every procs
message shape through real socketpairs, >64 KiB payload framing, and
partial-read reassembly down to one byte at a time.  Everything here is
in-process (no forked children), so it runs in the tier-1 gate.
"""

from __future__ import annotations

import pickle
import random
import socket
import struct

import numpy as np
import pytest

from repro.errors import TransportError
from repro.xrt.procs import wire
from repro.xrt.serialization import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    estimate_nbytes,
    wire_nbytes,
)

# -- frame encoding ----------------------------------------------------------------


def test_encode_frame_is_header_plus_pickle():
    obj = ("item", 1, 2, ("mailbox", [1, 2, 3]))
    data = encode_frame(obj)
    (length,) = struct.unpack("!I", data[:HEADER_BYTES])
    assert length == len(data) - HEADER_BYTES
    assert pickle.loads(data[HEADER_BYTES:]) == obj


def test_wire_nbytes_matches_encoded_length():
    for obj in (None, 0, "x" * 100, {"a": np.arange(7)}, ("spawn", 0, 3, (1, 2))):
        assert wire_nbytes(obj) == len(encode_frame(obj))


def test_oversize_frame_refused_on_send():
    with pytest.raises(TransportError):
        encode_frame(np.zeros(MAX_FRAME_BYTES // 8 + 16, dtype=np.float64))


def test_corrupt_length_prefix_refused_on_receive():
    dec = FrameDecoder()
    with pytest.raises(TransportError):
        dec.feed(struct.pack("!I", MAX_FRAME_BYTES + 1) + b"x")


# -- partial-read reassembly -------------------------------------------------------


def test_decoder_one_byte_at_a_time():
    messages = [("join", 2, 0, ((0, 1), "finish_spmd")), {"k": list(range(50))}, None]
    stream = b"".join(encode_frame(m) for m in messages)
    dec = FrameDecoder()
    out = []
    for i in range(len(stream)):
        out.extend(dec.feed(stream[i : i + 1]))
    assert out == messages
    assert dec.pending_bytes == 0
    assert dec.frames_decoded == len(messages)
    assert dec.bytes_fed == len(stream)


def test_decoder_split_inside_header():
    data = encode_frame("hello")
    dec = FrameDecoder()
    assert dec.feed(data[:2]) == []  # half a header
    assert dec.pending_bytes == 2
    assert dec.feed(data[2:]) == ["hello"]


def test_decoder_many_frames_in_one_chunk():
    messages = [("item", i, 0, ("box", i)) for i in range(20)]
    stream = b"".join(encode_frame(m) for m in messages)
    dec = FrameDecoder()
    assert dec.feed(stream) == messages


def test_decoder_random_chunking_round_trips():
    rng = random.Random(1234)
    messages = [
        ("spawn", 0, 3, ("fn", (1, 2.5, None), (0, 7), "finish_spmd", 0, "w")),
        ("item", 3, 1, ("uts:ctl", ("loot", [(1, 4)], 2))),
        {"arr": np.arange(100, dtype=np.uint64)},
        b"\x00" * 300,
    ]
    stream = b"".join(encode_frame(m) for m in messages)
    dec = FrameDecoder()
    out, i = [], 0
    while i < len(stream):
        step = rng.randint(1, 37)
        out.extend(dec.feed(stream[i : i + step]))
        i += step
    assert len(out) == len(messages)
    np.testing.assert_array_equal(out[2]["arr"], messages[2]["arr"])


def test_large_payload_over_64kib_frames():
    payload = np.arange(3 * 65536, dtype=np.float64)  # ~1.5 MiB on the wire
    data = encode_frame(("item", 1, 2, ("big", payload)))
    assert len(data) > 64 * 1024
    dec = FrameDecoder()
    out = []
    for i in range(0, len(data), 4096):
        out.extend(dec.feed(data[i : i + 4096]))
    assert len(out) == 1
    kind, src, dst, (box, arr) = out[0]
    assert (kind, src, dst, box) == ("item", 1, 2, "big")
    np.testing.assert_array_equal(arr, payload)


# -- every message kind through a real socket --------------------------------------


def _sample_frames(seed: int):
    """One seeded frame per procs message kind (the complete wire vocabulary)."""
    rng = np.random.default_rng(seed)
    fid = (int(rng.integers(0, 4)), int(rng.integers(0, 100)))
    arr = rng.standard_normal(int(rng.integers(1, 2000)))
    return [
        (wire.SPAWN, 0, 2, ("mod.fn", ({"p": 3},), fid, "finish_spmd", 0, "worker")),
        (wire.FORK, 2, 0, (fid, "finish_dense", 3)),
        (wire.JOIN, 2, 0, (fid, "finish_dense")),
        (wire.EVAL, 0, 1, ("mod.fn", (1, 2), 17)),
        (wire.REPLY, 1, 0, (17, arr, False)),
        (wire.ITEM, 3, 1, ("fft:a2a", (3, arr.reshape(-1, 1)))),
        (wire.EXIT, 0, 3, None),
        (wire.DONE, 3, 0, {"ctl_by_pragma": {"finish_spmd": 4}, "activities_run": 2}),
        (wire.CRASH, 2, 0, "Traceback (most recent call last): ..."),
        (wire.PING, 0, 3, int(rng.integers(0, 1000))),
        (wire.PONG, 3, 0, int(rng.integers(0, 1000))),
        (wire.DEAD, 0, 1, (2, "no heartbeat for 5.10s (timeout 5.00s)")),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_message_kinds_round_trip_over_socketpair(seed):
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    try:
        frames = _sample_frames(seed)
        for frame in frames:
            a.send_frame(frame)
        # an idle socket takes each frame in the call that sends it: nothing
        # is buffered, and the peer reads every frame without a pump_write
        assert not a.wants_write
        received = []
        while len(received) < len(frames):
            received.extend(b.pump_read())
        assert not b.eof
        assert len(received) == len(frames)
        for sent, got in zip(frames, received):
            assert got[0] == sent[0] and got[1] == sent[1] and got[2] == sent[2]
        np.testing.assert_array_equal(received[4][3][1], frames[4][3][1])
        assert a.frames_sent == len(frames)
        assert a.bytes_sent == sum(wire_nbytes(f) for f in frames)
        assert b.decoder.frames_decoded == len(frames)
    finally:
        a.close()
        b.close()


def test_conn_eof_detected_on_peer_close():
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    a.send_frame(("item", 0, 1, ("box", "last words")))
    a.pump_write()
    a.close()
    got = []
    while not b.eof:
        got.extend(b.pump_read())
    assert got == [("item", 0, 1, ("box", "last words"))]
    b.close()


def test_send_after_eof_counts_dropped_frames():
    """Satellite: nothing is ever *silently* lost — a frame queued after the
    peer hung up is counted in ``Conn.dropped``, not vanished."""
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    try:
        a.close()
        while not b.eof:
            b.pump_read()
        sent_before = b.frames_sent
        b.send_frame(("item", 0, 1, ("box", "into the void")))
        b.send_frame(("join", 0, 1, ((0, 0), "default")))
        assert b.dropped == 2
        assert b.frames_sent == sent_before  # dropped frames are not "sent"
        assert not b.wants_write  # and nothing was buffered for the wire
    finally:
        b.close()


def test_every_frame_is_sent_or_counted_dropped():
    """The wire conservation law: frames offered == frames sent + dropped."""
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    offered = 0
    try:
        for i in range(5):
            a.send_frame(("item", 0, 1, ("box", i)))
            offered += 1
        a.pump_write()
        b.close()  # peer dies mid-conversation
        while not a.eof:
            a.pump_read()
        for i in range(3):
            a.send_frame(("item", 0, 1, ("box", i)))
            offered += 1
        assert a.frames_sent + a.dropped == offered
        assert a.dropped == 3
    finally:
        a.close()


def _small_buffers(a_sock, b_sock, nbytes: int = 4096) -> None:
    a_sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, nbytes)
    b_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, nbytes)


def test_partial_write_buffers_the_tail_and_later_frames_queue_behind_it():
    """A frame the kernel only partly takes leaves its tail buffered; a frame
    sent after it must queue behind that tail, never overtake it."""
    a_sock, b_sock = socket.socketpair()
    _small_buffers(a_sock, b_sock)
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    big = ("item", 0, 1, ("big", np.arange(64 * 1024, dtype=np.float64)))
    small = ("join", 0, 1, ((0, 0), "default"))
    big_len, small_len = wire_nbytes(big), wire_nbytes(small)
    try:
        a.send_frame(big)  # the peer is not reading yet
        tail = len(a._out)
        assert a.wants_write and 0 < tail < big_len
        # the peer drains part of the head, so the socket has room again;
        # the next frame must still wait behind the buffered tail
        received = b.pump_read()
        assert received == [] and b.decoder.pending_bytes > 0
        a.send_frame(small)
        assert len(a._out) == tail + small_len  # queued, not written through
        while a.wants_write or len(received) < 2:
            received.extend(b.pump_read())
            a.pump_write()
        assert [f[:3] for f in received] == [big[:3], small[:3]]
        np.testing.assert_array_equal(received[0][3][1], big[3][1])
        assert received[1] == small
        assert a.frames_sent == 2
        assert a.bytes_sent == big_len + small_len
        assert b.decoder.bytes_fed == big_len + small_len
        assert b.decoder.pending_bytes == 0
    finally:
        a.close()
        b.close()


def test_send_after_peer_close_surfaces_as_eof_on_the_next_pump_write():
    """Writing to a hung-up peer never raises from ``send_frame``: the frame
    is buffered, ``pump_write`` meets the error and sets ``eof``, and every
    later frame counts into ``dropped``."""
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    try:
        b.close()
        a.send_frame(("item", 0, 1, ("box", "unheard")))
        assert not a.eof and a.wants_write
        assert a.frames_sent == 1
        a.pump_write()
        assert a.eof and not a.wants_write
        a.send_frame(("item", 0, 1, ("box", 1)))
        a.send_frame(("join", 0, 1, ((0, 0), "default")))
        assert a.dropped == 2
        assert a.frames_sent == 1
    finally:
        a.close()


def test_conn_nonblocking_read_returns_empty():
    a_sock, b_sock = socket.socketpair()
    a, b = wire.Conn(a_sock, peer=1), wire.Conn(b_sock, peer=0)
    try:
        assert b.pump_read() == []  # nothing sent: would-block, not EOF
        assert not b.eof
    finally:
        a.close()
        b.close()


# -- estimate vs wire (satellite 3 regression) -------------------------------------


def test_estimate_monotone_under_nesting():
    """The historical bug: nesting a payload made its estimate *shrink*."""
    samples = [
        0,
        3.14,
        "abc",
        b"xyz",
        np.arange(16),
        [1, 2, 3],
        (1.0, (2.0, 3.0)),
        {"a": [1, 2], "b": (3,)},
    ]
    for x in samples:
        assert estimate_nbytes((x,)) >= estimate_nbytes(x), x
        assert estimate_nbytes([x]) >= estimate_nbytes(x), x
        assert estimate_nbytes(((x,),)) >= estimate_nbytes((x,)), x


def test_estimate_tracks_wire_order_of_magnitude():
    """The estimate need not equal the pickle size, but an array-dominated
    payload must be estimated within a small factor of the real encoding."""
    payload = ("item", 1, 2, ("box", np.arange(50_000, dtype=np.float64)))
    est, real = estimate_nbytes(payload), wire_nbytes(payload)
    assert 0.5 * real < est < 2.0 * real
