"""The worker session both masters share, driven with scripted workers.

Every test runs against both fronts of the one worker-serving core: the
one-shot :class:`SocketExecutor` (marked ``distributed``) and the
persistent :class:`CampaignService` (marked ``service``).  Pinned here:
a ``hello`` with the wrong protocol version or an unusable heartbeat is
refused with one ``error`` reply and a close (and no serving thread
raises); a malformed ``result`` drops the worker but requeues its unit
instead of stranding it; and ``run_worker`` exits with
``WORKER_EXIT_ERROR`` when the master refuses it.
"""

import socket
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.experiments import SocketExecutor
from repro.experiments.executors.socket import (
    PROTO_VERSION,
    WORKER_EXIT_ERROR,
    _LineConn,
    run_worker,
    sockets_available,
)
from repro.experiments.grid import ScenarioGrid, WorkUnit
from repro.experiments.service import CampaignService, ServiceClient
from repro.experiments.store import RunStore, open_store, result_to_dict

pytestmark = pytest.mark.skipif(
    not sockets_available(), reason="localhost sockets unavailable"
)

#: the no-activity deadline of every front; a run that completes must
#: finish well inside it, never by sitting it out
DEADLINE_S = 20.0


class ExecutorFront:
    """A :class:`SocketExecutor` running the pinned campaign in a thread."""

    def __init__(self, config, tmp_path):
        self.units = ScenarioGrid.from_config(config).units()
        self.executor = SocketExecutor(spawn_workers=0, timeout=DEADLINE_S)
        self.store = RunStore()
        self.errors = []
        self.thread = threading.Thread(target=self._run)
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while self.executor.address is None:
            assert time.monotonic() < deadline, "master never bound"
            time.sleep(0.01)
        self.address = self.executor.address

    def _run(self):
        try:
            self.executor.run(self.units, self.store)
        except Exception as exc:  # surfaced by finish()
            self.errors.append(exc)

    def finish(self, timeout):
        """Units stored once the run ends (within ``timeout``)."""
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "master did not finish in time"
        assert not self.errors, self.errors
        return len(self.store)

    def close(self):
        self.thread.join(timeout=DEADLINE_S + 10.0)


class ServiceFront:
    """A :class:`CampaignService` with the pinned campaign submitted."""

    def __init__(self, config, tmp_path):
        self.service = CampaignService(tmp_path / "svc", spawn_workers=0)
        self.address = self.service.start()
        self.client = ServiceClient(self.address)
        self.job = self.client.submit({"config": config.to_dict()})

    def finish(self, timeout):
        final = self.client.wait(self.job["job_id"], timeout=timeout)
        assert final["state"] == "done", final
        with open_store(self.job["store"]) as store:
            return len(store)

    def close(self):
        self.service.stop()


FRONTS = [
    pytest.param(ExecutorFront, id="socket", marks=pytest.mark.distributed),
    pytest.param(ServiceFront, id="service", marks=pytest.mark.service),
]


@pytest.fixture(params=FRONTS)
def front(request, pinned_config, tmp_path):
    made = request.param(pinned_config, tmp_path)
    yield made
    made.close()


@pytest.fixture
def thread_errors(monkeypatch):
    """Every exception that escapes a thread during the test."""
    caught = []
    monkeypatch.setattr(threading, "excepthook", caught.append)
    return caught


def _connect(address):
    return _LineConn(socket.create_connection(address, timeout=10.0))


def _hello(**fields):
    return {"type": "hello", "worker": "scripted", "heartbeat": 0.3,
            "proto": PROTO_VERSION, **fields}


def _healthy_worker(address, stop):
    """Compute every leased unit until ``shutdown``, EOF, or ``stop``."""
    lc = _connect(address)
    try:
        lc.send(_hello())
        while not stop.is_set():
            try:
                message = lc.recv(timeout=0.2)
            except socket.timeout:
                continue
            if message["type"] == "shutdown":
                return
            for data in message.get("units", ()):
                unit = WorkUnit.from_dict(data)
                lc.send({
                    "type": "result",
                    "unit_id": unit.unit_id,
                    "result": result_to_dict(unit.run()),
                    "seconds": 0.01,
                })
    except ConnectionError:
        return
    finally:
        lc.close()


def _complete_with_healthy_worker(front):
    """Serve the whole campaign with one scripted worker; returns the
    number of units stored and the seconds it took."""
    stop = threading.Event()
    worker = threading.Thread(
        target=_healthy_worker, args=(front.address, stop)
    )
    started = time.monotonic()
    worker.start()
    try:
        stored = front.finish(timeout=DEADLINE_S / 2)
    finally:
        stop.set()
        worker.join(timeout=10.0)
    return stored, time.monotonic() - started


@pytest.mark.parametrize(
    "hello, key",
    [
        (_hello(proto=None), "proto"),
        (_hello(proto=3), "proto"),
        (_hello(heartbeat="soon"), "heartbeat"),
        (_hello(heartbeat=1e12), "heartbeat"),
        (_hello(heartbeat=0), "heartbeat"),
        (_hello(heartbeat=float("nan")), "heartbeat"),
        (_hello(heartbeat=True), "heartbeat"),
    ],
    ids=["missing-proto", "proto-3", "text-beat", "huge-beat", "zero-beat",
         "nan-beat", "bool-beat"],
)
def test_bad_hello_gets_error_and_close(front, thread_errors, hello, key):
    lc = _connect(front.address)
    try:
        # proto=None stands for a hello without the field
        lc.send({k: v for k, v in hello.items() if v is not None})
        reply = lc.recv(timeout=10.0)
        assert reply["type"] == "error", reply
        assert reply["key"] == key
        with pytest.raises(ConnectionError):
            lc.recv(timeout=10.0)
    finally:
        lc.close()
    # The refused connection left the master serving: a healthy worker
    # still completes every unit, and no serving thread died.
    stored, _seconds = _complete_with_healthy_worker(front)
    assert stored == 4
    assert thread_errors == []


def test_malformed_result_requeues_its_unit(front, thread_errors):
    # A result without its payload is parsed before the ack claims the
    # unit: the worker is dropped and the unit goes back on the queue,
    # so a healthy worker finishes all four units at once instead of
    # the master waiting out its no-activity deadline.
    lc = _connect(front.address)
    try:
        lc.send(_hello())
        message = lc.recv(timeout=10.0)
        assert message["type"] == "lease", message
        unit_id = WorkUnit.from_dict(message["units"][0]).unit_id
        lc.send({"type": "result", "unit_id": unit_id})
        with pytest.raises(ConnectionError):
            while True:
                lc.recv(timeout=10.0)
    finally:
        lc.close()
    stored, seconds = _complete_with_healthy_worker(front)
    assert stored == 4
    assert seconds < DEADLINE_S / 2
    assert thread_errors == []


@pytest.mark.distributed
def test_many_workers_store_each_unit_once(pinned_config, tmp_path):
    # More workers than cores and a short switch interval: the hub's
    # shared session counters and the job's lease table, hit from every
    # session thread at once (leases, steals, stale acks from workers
    # that ignore revokes), must neither lose nor corrupt a unit.
    from repro.experiments.executors import SerialExecutor

    config = replace(pinned_config, num_graphs=4)  # 8 units
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    stop = threading.Event()
    try:
        front = ExecutorFront(config, tmp_path)
        workers = [
            threading.Thread(target=_healthy_worker, args=(front.address, stop))
            for _ in range(6)
        ]
        for worker in workers:
            worker.start()
        stored = front.finish(timeout=DEADLINE_S)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
    for worker in workers:
        worker.join(timeout=10.0)
        assert not worker.is_alive()
    serial = RunStore()
    SerialExecutor().run(front.units, serial)
    assert stored == len(front.units) == 8
    assert front.store.rep_rows() == serial.rep_rows()
    deadline = time.monotonic() + 10.0
    while front.executor._workers and time.monotonic() < deadline:
        time.sleep(0.01)
    assert front.executor._workers == 0


@pytest.mark.distributed
def test_run_worker_exits_with_error_when_refused():
    server = socket.create_server(("127.0.0.1", 0))
    host, port = server.getsockname()[:2]
    hellos = []

    def refuse():
        conn, _ = server.accept()
        lc = _LineConn(conn)
        hellos.append(lc.recv(timeout=10.0))
        lc.send({"type": "error", "error": "go away", "key": "proto"})
        lc.close()

    master = threading.Thread(target=refuse)
    master.start()
    try:
        assert run_worker(host, port, connect_retries=0) == WORKER_EXIT_ERROR
    finally:
        master.join(timeout=10.0)
        server.close()
    assert hellos[0]["proto"] == PROTO_VERSION
