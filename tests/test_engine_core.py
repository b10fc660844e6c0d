"""Tests: the shared stream engine under faults and contention.

A band that raises must surface its exception type and message (and
the worker and band it ran on) through either front end, a worker that
dies under the multi-stream broker must leave a flight-recorder dump
just as it does under the ring, and the band accounting shared by the
feeders and the collector must survive fast thread switching.
"""

import json
import os
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.core.remap import RemapLUT
from repro.errors import StreamError
from repro.serve.broker import StreamBroker
from repro.video.stream import corrected_stream

pytestmark = pytest.mark.tier1

SIZE = 64


def _frames(value0, n):
    for k in range(n):
        yield np.full((SIZE, SIZE), value0 + k, dtype=np.uint8)


def _endless():
    k = 0
    while True:
        yield np.full((SIZE, SIZE), k % 251, dtype=np.uint8)
        k += 1


@pytest.mark.parametrize("engine", ["ring", "broker"])
def test_band_exception_keeps_its_cause(engine, small_field, monkeypatch):
    def boom(self, *args, **kwargs):
        raise ValueError("boom")

    # patched before the fleet forks, so every worker inherits it
    monkeypatch.setattr(RemapLUT, "apply_rows_into", boom)
    frames = [np.zeros((SIZE, SIZE), dtype=np.uint8)] * 3
    with pytest.raises(StreamError) as err:
        if engine == "ring":
            list(corrected_stream(iter(frames), small_field, engine="ring",
                                  workers=1, depth=2))
        else:
            with StreamBroker(workers=1) as broker:
                list(broker.open(iter(frames), small_field, name="cam"))
    message = str(err.value)
    worker = "ring-worker-0" if engine == "ring" else "serve-worker-0"
    assert worker in message
    assert "band (frame 0, slot 0, plane 0, rows" in message
    assert "ValueError: boom" in message


def test_dead_broker_worker_dumps_flight_recorder(small_field, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with StreamBroker(workers=2) as broker:
        session = broker.open(_endless(), small_field, name="cam")
        next(session)
        victim = broker._procs[0]
        victim.terminate()
        with pytest.raises(StreamError) as err:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                next(session)
    dump = err.value.flight_dump
    assert dump is not None
    assert os.path.dirname(dump) == str(tmp_path)
    assert dump in str(err.value)
    with open(dump) as fh:
        payload = json.load(fh)
    assert payload["reason"] == "worker-crash"
    last = payload["events"][-1]
    assert last["kind"] == "worker_crash"
    assert last["worker"] == victim.name


def test_band_accounting_under_fast_switching(small_field):
    """More workers than cores, a tiny in-flight cap and a short switch
    interval: every session still arrives complete and in order, and
    the in-flight band count the feeders and the collector share
    drains back to zero (a lost update would leave it off)."""
    lut = RemapLUT(small_field)
    n_frames, n_streams = 12, 4
    got = {i: [] for i in range(n_streams)}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with StreamBroker(workers=min(os.cpu_count() or 1, 4) + 1,
                          chunk=4, max_inflight_bands=3) as broker:
            sessions = [broker.open(_frames(40 * i, n_frames), small_field,
                                    name=f"s{i}")
                        for i in range(n_streams)]

            def drain(i):
                for frame in sessions[i]:
                    got[i].append(int(frame[SIZE // 2, SIZE // 2]))

            threads = [threading.Thread(target=drain, args=(i,))
                       for i in range(n_streams)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            assert broker._inflight == 0
    finally:
        sys.setswitchinterval(old)
    for i in range(n_streams):
        want = [int(lut.apply(np.full((SIZE, SIZE), 40 * i + k,
                                      dtype=np.uint8))[SIZE // 2, SIZE // 2])
                for k in range(n_frames)]
        assert got[i] == want
