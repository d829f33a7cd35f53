"""Hostile pickles: globals outside the exact allowlist never execute.

Arena pages, arena metadata and daemon frames all decode through
:func:`repro.iosim.restricted_loads`.  A stream that names
``builtins.eval``, ``builtins.getattr``, or reaches ``os.system`` as a
dotted name through an allowed module must be refused before anything
runs: a typed :class:`SnapshotFormatError` from arena decode, a
``bad-frame`` answer from the daemon.
"""

import pickle
import socket
import struct
import threading

import pytest

from repro.iosim import (ArenaView, BlockDevice, SnapshotFormatError,
                         build_arena, restricted_loads)
from repro.iosim.arena import _ARENA_HEADER
from repro.serving import ServeClient, ServeDaemon


def call_stream(module, name, *args):
    """A protocol-4 pickle that calls ``module.name(*args)`` on load."""

    def text(value):
        raw = value.encode()
        return b"X" + struct.pack("<I", len(raw)) + raw

    return (b"\x80\x04" + text(module) + text(name) + b"\x93("
            + b"".join(text(a) for a in args) + b"tR.")


def hostile_streams(marker):
    """``{label: stream}``; the executing ones would create ``marker``."""
    path = str(marker)
    return {
        "eval": call_stream("builtins", "eval",
                            f"open({path!r}, 'w').close()"),
        "getattr": call_stream("builtins", "getattr", "abc", "upper"),
        "dotted os.system": call_stream("repro.serving.workers", "os.system",
                                        f"touch {path}"),
    }


def test_streams_are_well_formed(tmp_path):
    # The same bytes through an unrestricted loader do execute — so a
    # rejection below is the allowlist's doing, not a malformed stream.
    marker = tmp_path / "ran"
    pickle.loads(hostile_streams(marker)["eval"])
    assert marker.exists()


@pytest.mark.parametrize("label", ["eval", "getattr", "dotted os.system"])
def test_restricted_loads_refuses(tmp_path, label):
    marker = tmp_path / "ran"
    with pytest.raises(Exception, match="forbidden global"):
        restricted_loads(hostile_streams(marker)[label])
    assert not marker.exists()


def _arena_with_blob(stream, meta=False):
    """An arena whose first page blob (or its metadata) is ``stream``.

    Unpickling stops at the stream's STOP opcode, so the stream only has
    to fit inside the blob it overwrites; the table stays untouched.
    """
    pad = b"\0" * (len(stream) + 16)
    device = BlockDevice(8)
    page = device.alloc()
    page.items = [pad]
    device.write(page)
    arena = bytearray(build_arena(device, {"pad": pad}))
    if meta:
        offset = _ARENA_HEADER.size
    else:
        view = ArenaView(bytes(arena))
        offset = view._entries[page.page_id][0]
    arena[offset:offset + len(stream)] = stream
    return ArenaView(bytes(arena)), page.page_id


@pytest.mark.parametrize("label", ["eval", "getattr", "dotted os.system"])
def test_arena_page_decode_is_a_typed_error(tmp_path, label):
    marker = tmp_path / "ran"
    view, page_id = _arena_with_blob(hostile_streams(marker)[label])
    with pytest.raises(SnapshotFormatError, match="forbidden global"):
        view.decode_page(page_id)
    assert not marker.exists()


@pytest.mark.parametrize("label", ["eval", "dotted os.system"])
def test_arena_meta_decode_is_a_typed_error(tmp_path, label):
    marker = tmp_path / "ran"
    view, _page_id = _arena_with_blob(hostile_streams(marker)[label],
                                      meta=True)
    with pytest.raises(SnapshotFormatError, match="forbidden global"):
        view.meta
    assert not marker.exists()


class _EchoDB:
    def query_batch(self, queries):
        return [[q] for q in queries]


def _send_raw(port, frame):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(struct.pack(">I", len(frame)) + frame)
        header = b""
        while len(header) < 4:
            header += sock.recv(4 - len(header))
        (length,) = struct.unpack(">I", header)
        body = b""
        while len(body) < length:
            body += sock.recv(length - len(body))
    return restricted_loads(body)


def test_daemon_answers_bad_frame_and_runs_nothing(tmp_path):
    marker = tmp_path / "ran"
    daemon = ServeDaemon(_EchoDB())
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    assert daemon.ready.wait(timeout=10)
    try:
        for label, stream in hostile_streams(marker).items():
            answer = _send_raw(daemon.port, stream)
            assert answer["ok"] is False, label
            assert answer["error_type"] == "bad-frame", label
            assert "forbidden global" in answer["error"], label
        assert not marker.exists()
        with ServeClient(port=daemon.port) as client:
            assert client.query_batch([3]) == [[3]]
    finally:
        daemon.request_stop()
        thread.join(timeout=10)
    assert daemon.drain_report["queries"] == 1
