"""HTTP-layer tests: routes, status codes, storms, overload, scrapes."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import ServeConfig, ServeError
from repro.serve.server import MAX_BODY_BYTES

from .conftest import BELL_QASM, WORKLOAD, RunningServer


class TestRoutes:
    def test_healthz(self, running_server):
        document = running_server.client.healthz()
        assert document["status"] == "ok"
        assert document["workers"] == 2

    def test_unknown_route_404(self, running_server):
        with pytest.raises(ServeError) as info:
            running_server.client._checked("GET", "/nope")
        assert info.value.status == 404

    def test_get_compile_405(self, running_server):
        with pytest.raises(ServeError) as info:
            running_server.client._checked("GET", "/compile")
        assert info.value.status == 405

    def test_post_unknown_route_404(self, running_server):
        with pytest.raises(ServeError) as info:
            running_server.client._checked("POST", "/metrics", {})
        assert info.value.status == 404

    def test_non_json_body_400(self, running_server):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", running_server.server.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/compile", body=b"not json{",
                headers={"Content-Type": "application/json"},
            )
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_oversized_body_413(self, running_server):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", running_server.server.port, timeout=10
        )
        try:
            connection.putrequest("POST", "/compile")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.putheader("Content-Type", "application/json")
            connection.endheaders()
            # The server answers from the headers alone.
            assert connection.getresponse().status == 413
        finally:
            connection.close()

    def test_bad_payload_400_with_structured_error(self, running_server):
        with pytest.raises(ServeError) as info:
            running_server.client.compile("not a circuit", device="ibmqx4")
        assert info.value.status == 400
        assert info.value.payload["error"]["type"] == "BadRequest"

    def test_profile_query_lands_spans(self, running_server):
        response = running_server.client.compile(
            BELL_QASM, device="ibmqx4", name="profiled", profile=True,
            options={"verify": "qmdd"},
        )
        assert response["result"]["trace"]["spans"]


class TestConcurrentStorm:
    def test_storm_shares_one_warm_cache(self):
        """Two identical waves of concurrent mixed requests: the first
        compiles each distinct cell once; the second is served ≥90%
        from the shared warm cache (here: 100%)."""
        box = RunningServer(ServeConfig(workers=4, queue_depth=64))
        try:
            requests = [
                (source, fmt, device, f"cell{index % len(WORKLOAD)}")
                for index, (source, fmt, device) in enumerate(WORKLOAD * 6)
            ]

            def fire(cell):
                source, fmt, device, name = cell
                return box.client.compile(
                    source, device=device, fmt=fmt, name=name
                )

            with ThreadPoolExecutor(max_workers=12) as pool:
                first_wave = list(pool.map(fire, requests))
            assert all(response["ok"] for response in first_wave)
            compiled = sum(
                1 for response in first_wave if not response["from_cache"]
            )
            # Concurrent identical requests may race-compile the same
            # cell, but never more than once per worker.
            assert len(WORKLOAD) <= compiled <= len(WORKLOAD) * 4

            box.client.metrics()  # close the first scrape window
            with ThreadPoolExecutor(max_workers=12) as pool:
                second_wave = list(pool.map(fire, requests))
            assert all(response["ok"] for response in second_wave)
            hit_rate = sum(
                1 for response in second_wave if response["from_cache"]
            ) / len(second_wave)
            assert hit_rate >= 0.9
            scrape = box.client.metrics()
            assert scrape["cache"]["hit_rate"] >= 0.9
            assert scrape["cache"]["stores"] == 0
        finally:
            box.stop()

    def test_warm_results_identical_to_cold(self):
        box = RunningServer(ServeConfig(workers=2, queue_depth=8))
        try:
            cold = box.client.compile(BELL_QASM, device="ibmqx4")
            warm = box.client.compile(BELL_QASM, device="ibmqx4")
            assert warm["from_cache"] and not cold["from_cache"]
            assert warm["result"]["optimized"] == cold["result"]["optimized"]
            assert (
                warm["result"]["optimized_metrics"]
                == cold["result"]["optimized_metrics"]
            )
        finally:
            box.stop()


class TestKeepAlive:
    def test_kept_alive_connection_does_not_stall(self, running_server):
        """Headers and body leave in two writes; without TCP_NODELAY the
        body waits for the client's delayed ACK (~40 ms a response)."""
        import http.client
        import json

        connection = http.client.HTTPConnection(
            "127.0.0.1", running_server.server.port, timeout=10
        )
        try:
            began = time.monotonic()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            assert time.monotonic() - began < 0.5
        finally:
            connection.close()


class TestOverload:
    def test_full_admission_queue_answers_429(self):
        box = RunningServer(
            ServeConfig(workers=1, queue_depth=1, allow_test_delay=True)
        )
        try:
            slow_started = threading.Event()
            outcomes = []

            def slow(name):
                slow_started.set()
                outcomes.append(
                    box.client.compile(
                        BELL_QASM, device="ibmqx4", name=name,
                        extra={"test_delay_seconds": 3.0},
                    )
                )

            # Fill the one worker and the one queue slot.
            holders = [
                threading.Thread(target=slow, args=(f"hold{i}",))
                for i in range(2)
            ]
            for holder in holders:
                holder.start()
            slow_started.wait(timeout=5.0)
            # Both holders must hold their admission slots before the
            # overflow loop starts, or an overflow request can take the
            # last slot and leave a holder with the 429.
            deadline = time.monotonic() + 10.0
            while (
                box.service.server_stats()["in_flight"] < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert box.service.server_stats()["in_flight"] == 2
            # Generous window: under a loaded machine the holders can
            # take a while to both be admitted.
            deadline = time.monotonic() + 10.0
            status = None
            while time.monotonic() < deadline:
                try:
                    box.client.compile(
                        BELL_QASM, device="ibmqx4", name="overflow"
                    )
                except ServeError as error:
                    if error.status == 429:
                        status = 429
                        assert error.queue_full
                        break
                    raise
                time.sleep(0.02)
            assert status == 429, "never saw a 429 while saturated"
            for holder in holders:
                holder.join()
            # The held requests still completed — overload rejected the
            # overflow, it never cancelled admitted work.
            assert all(response["ok"] for response in outcomes)
            assert box.service.server_stats()["rejected_total"] >= 1
        finally:
            box.stop()


class TestMetricsOverHTTP:
    def test_two_scrapes_report_disjoint_intervals(self, running_server):
        client = running_server.client
        client.compile(BELL_QASM, device="ibmqx4")
        client.compile(BELL_QASM, device="ibmqx4")
        first = client.metrics()
        second = client.metrics()
        assert first["cache"]["hits"] == 1
        assert first["cache"]["misses"] == 1
        assert second["cache"]["hits"] == 0
        assert second["cache"]["misses"] == 0
        assert second["scrape"] == first["scrape"] + 1
        assert second["cache"]["lifetime"]["hits"] == 1
        assert second["server"]["requests_total"] == 2
        counters = first["metrics"]["delta"]["counters"]
        assert counters["serve.requests"] == 2
        assert counters["serve.compiles"] == 1
        assert counters["compile.calls"] == 1
