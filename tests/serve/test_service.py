"""CompileService unit tests (no HTTP): parsing, caching, admission."""

import threading
import time

import pytest

from repro.io import to_qasm
from repro.serve import (
    CompileService,
    QueueFullError,
    RequestError,
    ServeConfig,
)

from .conftest import BELL_QASM, TOFFOLI_QC


def _payload(**overrides):
    payload = {"circuit": BELL_QASM, "format": "qasm", "device": "ibmqx4"}
    payload.update(overrides)
    return payload


@pytest.fixture
def service():
    box = CompileService(ServeConfig(workers=2, queue_depth=1,
                                     allow_test_delay=True))
    yield box
    box.drain()


class TestCompileRequest:
    def test_cold_then_warm(self, service):
        first = service.compile_request(_payload(name="bell"))
        assert first["ok"] and not first["from_cache"]
        assert first["result"]["device"] == "ibmqx4"
        assert first["result"]["version"] == 5  # the batch serialization
        second = service.compile_request(_payload(name="bell"))
        assert second["from_cache"]
        assert second["result"]["optimized"] == first["result"]["optimized"]
        stats = service.server_stats()
        assert stats["compiled_total"] == 1
        assert stats["cache_hits_total"] == 1

    def test_qc_format_and_options(self, service):
        response = service.compile_request(
            {
                "circuit": TOFFOLI_QC,
                "format": "qc",
                "device": "ibmqx4",
                "options": {"verify": "qmdd", "route": "sabre"},
            }
        )
        assert response["ok"]
        assert response["result"]["route"] == "sabre"
        assert response["result"]["verification"]["equivalent"] is True

    def test_options_change_the_cache_key(self, service):
        base = service.compile_request(_payload())
        routed = service.compile_request(
            _payload(options={"route": "sabre"})
        )
        assert base["cache_key"] != routed["cache_key"]
        assert not routed["from_cache"]

    def test_profile_records_spans_on_a_cold_compile(self, service):
        response = service.compile_request(
            _payload(options={"verify": "qmdd"}), profile=True
        )
        trace = response["result"]["trace"]
        assert trace and trace["spans"]
        names = {span["name"] for span in trace["spans"]}
        assert "compile" in names

    def test_profile_on_warm_unprofiled_hit_is_honest(self, service):
        service.compile_request(_payload())
        warm = service.compile_request(_payload(), profile=True)
        assert warm["from_cache"]
        assert "no trace recorded" in warm["profile_note"]

    def test_plain_hit_after_a_profiled_compile_has_no_trace(self, service):
        profiled = service.compile_request(_payload(), profile=True)
        assert profiled["result"]["trace"]["spans"]
        plain = service.compile_request(_payload())
        assert plain["from_cache"]
        fresh = CompileService(ServeConfig(workers=1))
        try:
            reference = fresh.compile_request(_payload())
        finally:
            fresh.drain()
        assert not reference["from_cache"]
        for payload in (plain["result"], reference["result"]):
            payload.pop("synthesis_seconds")
        assert plain["result"] == reference["result"]

    def test_result_payload_round_trips_to_identical_qasm(self, service):
        from repro import compile_circuit, get_device
        from repro.batch.serialize import result_from_payload
        from repro.io import parse_qasm

        response = service.compile_request(_payload())
        served = result_from_payload(response["result"])
        local = compile_circuit(
            parse_qasm(BELL_QASM), get_device("ibmqx4")
        )
        assert to_qasm(served.optimized) == to_qasm(local.optimized)


class TestRequestValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"circuit": "", "device": "ibmqx4"},
            {"circuit": 7, "device": "ibmqx4"},
            _payload(format="verilog"),
            _payload(device=None),
            _payload(device="not-a-device"),
            _payload(circuit="definitely not qasm"),
            _payload(options={"bogus_option": 1}),
            _payload(options=[1, 2]),
            _payload(name=1),
            # Bad option values are refused before any compile work.
            _payload(options={"route": "bogus"}),
            _payload(options={"verify": "nope"}),
            _payload(options={"known_zero": "ab"}),
            _payload(options={"placement": 7}),
            _payload(options={"optimize": "no"}),
        ],
    )
    def test_malformed_payloads_raise_request_error(self, service, payload):
        with pytest.raises(RequestError):
            service.compile_request(payload)

    # Options that are not wire fields of CompileOptions, plus the
    # compile_circuit keyword that is no option at all.
    @pytest.mark.parametrize("option", ["cost_function", "trace", "tracer"])
    def test_wire_forbidden_options_rejected(self, service, option):
        with pytest.raises(RequestError, match="not accepted over the wire"):
            service.compile_request(_payload(options={option: True}))

    def test_errors_are_counted(self, service):
        with pytest.raises(RequestError):
            service.compile_request({})
        assert service.server_stats()["errors_total"] == 1


class TestAdmissionQueue:
    def test_queue_full_rejects_immediately(self):
        service = CompileService(
            ServeConfig(workers=1, queue_depth=0, allow_test_delay=True)
        )
        try:
            release = threading.Event()
            started = threading.Event()

            def slow():
                started.set()
                # Holds the single worker until released.
                service.compile_request(
                    _payload(test_delay_seconds=3.0, name="slow")
                )

            holder = threading.Thread(target=slow)
            holder.start()
            started.wait()
            deadline = time.monotonic() + 10.0
            while (
                service.server_stats()["in_flight"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            began = time.monotonic()
            with pytest.raises(QueueFullError):
                service.compile_request(_payload(name="rejected"))
            # The rejection is immediate, not queued-then-failed.
            assert time.monotonic() - began < 1.0
            assert service.server_stats()["rejected_total"] == 1
            release.set()
            holder.join()
        finally:
            service.drain()

    def test_drain_completes_in_flight_then_rejects(self):
        service = CompileService(
            ServeConfig(workers=1, queue_depth=2, allow_test_delay=True)
        )
        outcomes = {}

        def request():
            outcomes["slow"] = service.compile_request(
                _payload(test_delay_seconds=0.4, name="inflight")
            )

        thread = threading.Thread(target=request)
        thread.start()
        deadline = time.monotonic() + 10.0
        while (
            service.server_stats()["in_flight"] == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        service.drain()  # must block until the in-flight job is done
        thread.join()
        assert outcomes["slow"]["ok"]
        with pytest.raises(QueueFullError, match="draining"):
            service.compile_request(_payload())


class TestMetricsScrape:
    def test_scrape_deltas_are_honest(self, service):
        for _ in range(3):
            service.compile_request(_payload())
        first = service.metrics_scrape()
        assert first["cache"]["misses"] == 1
        assert first["cache"]["hits"] == 2
        assert first["cache"]["stores"] == 1
        # An immediate second scrape saw nothing happen.
        second = service.metrics_scrape()
        assert second["cache"]["hits"] == 0
        assert second["cache"]["misses"] == 0
        assert second["cache"]["hit_rate"] == 0.0
        assert second["scrape"] == first["scrape"] + 1
        # Lifetime keeps accumulating regardless of scrape cadence.
        assert second["cache"]["lifetime"]["hits"] == 2
        # A warm wave between scrapes shows up as a pure-hit delta.
        for _ in range(5):
            service.compile_request(_payload())
        third = service.metrics_scrape()
        assert third["cache"]["hits"] == 5
        assert third["cache"]["misses"] == 0
        assert third["cache"]["hit_rate"] == 1.0
        counters = third["metrics"]["delta"]["counters"]
        assert counters["serve.requests"] == 5
        assert counters["serve.cache_hits"] == 5
        assert "serve.compiles" not in counters  # zero deltas drop

    def test_healthz_is_cheap_and_accurate(self, service):
        document = service.healthz()
        assert document["status"] == "ok"
        assert document["workers"] == 2
        assert document["in_flight"] == 0
        service.compile_request(_payload())
        assert service.healthz()["cache_memory_entries"] == 1
