"""Content-addressed cache: keys, fingerprints, tiers, round trips."""

import pytest

from repro import CNOT, H, QuantumCircuit, T, X, compile_circuit, get_device
from repro.batch import CompilationCache, CompileJob, compile_many
from repro.batch.cache import (
    cost_function_identity,
    device_identity,
    job_cache_key,
)
from repro.batch.serialize import (
    circuit_from_payload,
    circuit_to_payload,
    result_from_payload,
    result_to_payload,
)
from repro.core.cost import CostFunction
from repro.io import to_qasm


def bell():
    return QuantumCircuit(2, [H(0), CNOT(0, 1)], name="bell")


OPTIONS = {"verify": False}


class TestFingerprint:
    def test_stable_across_instances(self):
        assert bell().fingerprint() == bell().fingerprint()

    def test_changes_on_any_gate_edit(self):
        base = bell()
        variants = [
            QuantumCircuit(2, [H(0), CNOT(1, 0)]),  # swapped qubits
            QuantumCircuit(2, [H(1), CNOT(0, 1)]),  # different qubit
            QuantumCircuit(2, [X(0), CNOT(0, 1)]),  # different gate
            QuantumCircuit(2, [CNOT(0, 1), H(0)]),  # reordered
            QuantumCircuit(2, [H(0), CNOT(0, 1), T(0)]),  # appended
            QuantumCircuit(2, [H(0)]),  # removed
            QuantumCircuit(3, [H(0), CNOT(0, 1)]),  # widened
        ]
        prints = {base.fingerprint()} | {v.fingerprint() for v in variants}
        assert len(prints) == 1 + len(variants)

    def test_name_is_not_part_of_identity(self):
        renamed = bell().copy(name="other")
        assert renamed.fingerprint() == bell().fingerprint()

    def test_append_invalidates_cached_fingerprint(self):
        circuit = bell()
        before = circuit.fingerprint()
        circuit.append(T(0))
        assert circuit.fingerprint() != before


class TestCacheKey:
    def test_same_job_same_key(self):
        device = get_device("ibmqx4")
        assert job_cache_key(bell(), device, OPTIONS) == job_cache_key(
            bell(), device, OPTIONS
        )

    def test_key_varies_with_device_and_options(self):
        device = get_device("ibmqx4")
        base = job_cache_key(bell(), device, OPTIONS)
        assert base != job_cache_key(bell(), get_device("ibmqx5"), OPTIONS)
        assert base != job_cache_key(
            bell(), device, dict(OPTIONS, optimize=False)
        )
        assert base != job_cache_key(
            bell(), device, dict(OPTIONS, placement="greedy")
        )
        assert base != job_cache_key(
            bell(), device, dict(OPTIONS, mcx_mode="relative_phase")
        )

    def test_custom_cost_function_is_uncacheable(self):
        opaque = CostFunction(custom=lambda c: 1.0)
        assert cost_function_identity(opaque) is None
        device = get_device("ibmqx4")
        options = dict(OPTIONS, cost_function=opaque)
        assert job_cache_key(bell(), device, options) is None
        assert CompileJob.make(bell(), device, options).cache_key() is None

    def test_linear_cost_function_is_cacheable(self):
        weighted = CostFunction(name="eqn2", extra_weights={"t": 0.5})
        assert cost_function_identity(weighted)
        device = get_device("ibmqx4")
        options = dict(OPTIONS, cost_function=weighted)
        assert job_cache_key(bell(), device, options)

    def test_device_identity_includes_name(self):
        assert "ibmqx4" in device_identity(get_device("ibmqx4"))


def key(options, device="ibmqx4"):
    return job_cache_key(bell(), get_device(device), options)


class TestKeyCoversEveryOption:
    """The key is derived from the ``keyed`` fields of CompileOptions,
    so an option that changes the output cannot be left out of it."""

    def test_analyze_and_strict_change_the_key(self):
        assert key({"analyze": False}) != key({})
        assert key({"strict": True}) != key({})

    def test_compiler_epoch_changes_the_key(self, monkeypatch):
        import repro.batch.cache as cache_module

        before = key({})
        monkeypatch.setattr(
            cache_module, "COMPILER_EPOCH", cache_module.COMPILER_EPOCH + 1
        )
        assert key({}) != before

    def test_equal_compiles_share_a_key(self):
        assert key({"verify": True}) == key({"verify": "auto"}) == key({})
        assert key({"placement": None}) == key({"placement": "identity"})
        assert key({"known_zero": [2, 0, 2]}) == key({"known_zero": (0, 2)})

    def test_every_field_is_keyed_or_deliberately_unkeyed(self):
        from dataclasses import fields

        from repro.compiler import KEYED_OPTIONS, CompileOptions

        unkeyed = {
            f.name for f in fields(CompileOptions) if not f.metadata["keyed"]
        }
        assert unkeyed == {"trace"}
        assert key({"trace": True}) == key({})
        # Each keyed field moves the key on its own.
        variants = {
            "optimize": False,
            "verify": "qmdd",
            "placement": "greedy",
            "cost_function": CostFunction(name="eqn2", extra_weights={"t": 0.5}),
            "verify_samples": 8,
            "mcx_mode": "relative_phase",
            "analyze": False,
            "strict": True,
            "known_zero": (0,),
            "route": "sabre",
            "restore_layout": True,
        }
        assert set(variants) == set(KEYED_OPTIONS)
        keys = {key({name: value}) for name, value in variants.items()}
        assert len(keys | {key({})}) == len(variants) + 1

    def test_compile_circuit_rejects_an_unknown_keyword(self):
        from repro.core.exceptions import ReproError

        for name in ("verify_strategy", "bogus"):
            with pytest.raises(ReproError, match="unknown compile option"):
                compile_circuit(bell(), "ibmqx4", **{name: "miter"})


class TestCouplingIdentity:
    def test_same_name_other_coupling_misses_and_matches_a_fresh_compile(self):
        from repro.devices.builders import linear_device

        one_way = linear_device(5)
        both_ways = linear_device(5, bidirectional=True)
        assert one_way.name == both_ways.name
        circuit = QuantumCircuit(5, [CNOT(1, 0)], name="cx")
        cache = CompilationCache()
        compile_many([CompileJob.make(circuit, one_way)], cache=cache)
        entry = compile_many(
            [CompileJob.make(circuit, both_ways)], cache=cache
        )[0]
        assert not entry.from_cache
        fresh = compile_circuit(circuit, both_ways)
        assert to_qasm(entry.result.optimized) == to_qasm(fresh.optimized)
        assert len(entry.result.optimized) == len(fresh.optimized) == 1


class TestMemoryTier:
    def test_round_trip_and_counters(self):
        cache = CompilationCache(max_entries=4)
        job = CompileJob.make(bell(), "ibmqx4", OPTIONS)
        key = job.cache_key()
        assert cache.get(key) is None
        result = job.run()
        cache.put(key, result)
        assert cache.get(key) is result
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.hit_rate == 0.5
        assert key in cache
        assert len(cache) == 1

    def test_traced_job_does_not_leak_its_trace_to_a_later_hit(self):
        cache = CompilationCache()
        traced = CompileJob.make(bell(), "ibmqx4", dict(OPTIONS, trace=True))
        plain = CompileJob.make(bell(), "ibmqx4", OPTIONS)
        assert traced.cache_key() == plain.cache_key()  # trace is unkeyed
        (first,) = compile_many([traced], workers=1, cache=cache)
        (second,) = compile_many([plain], workers=1, cache=cache)
        assert first.result.trace and first.result.trace["spans"]
        assert second.from_cache
        assert second.result.trace is None

    def test_none_key_is_never_stored(self):
        cache = CompilationCache()
        cache.put(None, object())
        assert cache.get(None) is None
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = CompilationCache(max_entries=2)
        cache._memory_put("a", "ra")
        cache._memory_put("b", "rb")
        cache._memory.move_to_end("a", last=True)  # touch a
        cache._memory_put("c", "rc")  # evicts b, the LRU entry
        assert "a" in cache._memory
        assert "b" not in cache._memory
        assert "c" in cache._memory


class TestDiskTier:
    def test_disk_round_trip_across_cache_instances(self, tmp_path):
        directory = str(tmp_path / "cache")
        job = CompileJob.make(bell(), "ibmqx4", OPTIONS)
        warm = CompilationCache(directory=directory)
        warm.put(job.cache_key(), job.run())

        cold = CompilationCache(directory=directory)  # fresh memory tier
        restored = cold.get(job.cache_key())
        assert restored is not None
        assert cold.disk_hits == 1
        direct = compile_circuit(bell(), get_device("ibmqx4"), verify=False)
        assert to_qasm(restored.optimized) == to_qasm(direct.optimized)
        assert restored.optimized_metrics == direct.optimized_metrics

    def test_second_batch_run_is_all_hits(self, tmp_path):
        directory = str(tmp_path / "cache")
        device = get_device("ibmqx4")
        jobs = [
            (QuantumCircuit(2, [H(0), CNOT(0, 1)], name="bell"), device, OPTIONS),
            (QuantumCircuit(2, [T(0), CNOT(0, 1)], name="tc"), device, OPTIONS),
        ]
        first_cache = CompilationCache(directory=directory)
        compile_many(jobs, cache=first_cache)
        second_cache = CompilationCache(directory=directory)
        report = compile_many(jobs, cache=second_cache)
        assert report.cache_hits == len(jobs)
        assert second_cache.disk_hits == len(jobs)
        assert all(entry.from_cache for entry in report)

    def test_unwritable_directory_degrades_silently(self):
        cache = CompilationCache(directory="/proc/definitely/not/writable")
        job = CompileJob.make(bell(), "ibmqx4", OPTIONS)
        cache.put(job.cache_key(), job.run())  # must not raise
        assert cache.get(job.cache_key()) is not None  # memory tier works


class TestSerialization:
    def test_circuit_payload_round_trip(self):
        circuit = bell()
        clone = circuit_from_payload(circuit_to_payload(circuit))
        assert clone == circuit
        assert clone.fingerprint() == circuit.fingerprint()

    def test_result_payload_round_trip(self):
        result = compile_circuit(bell(), get_device("ibmqx4"), verify="qmdd")
        clone = result_from_payload(result_to_payload(result))
        assert to_qasm(clone.optimized) == to_qasm(result.optimized)
        assert clone.optimized_metrics == result.optimized_metrics
        assert clone.device.name == result.device.name
        assert clone.verification.equivalent == result.verification.equivalent

    def test_version_mismatch_returns_none(self):
        result = compile_circuit(bell(), get_device("ibmqx4"), verify=False)
        payload = result_to_payload(result)
        payload["version"] = 999
        assert result_from_payload(payload) is None


class TestValidation:
    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            CompilationCache(max_entries=0)


class TestStaleTempSweep:
    """Opening a cache sweeps ``*.tmp.<pid>`` orphans left by crashed
    writers — dead-pid files immediately, any temp file past the age
    cutoff — while live writers' fresh files are left alone."""

    @staticmethod
    def _plant_temp(directory, name, age_seconds=0.0):
        import os
        import time

        bucket = os.path.join(directory, "ab")
        os.makedirs(bucket, exist_ok=True)
        path = os.path.join(bucket, name)
        with open(path, "w") as handle:
            handle.write("{}")
        if age_seconds:
            old = time.time() - age_seconds
            os.utime(path, (old, old))
        return path

    @staticmethod
    def _dead_pid():
        import multiprocessing

        process = multiprocessing.Process(target=int)
        process.start()
        process.join()
        return process.pid

    def test_dead_pid_temp_removed(self, tmp_path):
        import os

        path = self._plant_temp(
            str(tmp_path), f"abcd.json.tmp.{self._dead_pid()}"
        )
        cache = CompilationCache(directory=str(tmp_path))
        assert not os.path.exists(path)
        assert cache.temp_files_swept == 1
        assert cache.stats()["temp_files_swept"] == 1

    def test_ancient_temp_removed_even_if_pid_alive(self, tmp_path):
        import os

        path = self._plant_temp(
            str(tmp_path), f"abcd.json.tmp.{os.getpid()}",
            age_seconds=7200.0,
        )
        cache = CompilationCache(directory=str(tmp_path))
        assert not os.path.exists(path)
        assert cache.temp_files_swept == 1

    def test_fresh_live_writer_temp_kept(self, tmp_path):
        import os

        path = self._plant_temp(
            str(tmp_path), f"abcd.json.tmp.{os.getpid()}"
        )
        cache = CompilationCache(directory=str(tmp_path))
        assert os.path.exists(path)
        assert cache.temp_files_swept == 0

    def test_real_entries_survive_the_sweep(self, tmp_path):
        cache = CompilationCache(directory=str(tmp_path))
        job = CompileJob.make(bell(), get_device("ibmqx4"), OPTIONS)
        cache.put(job.cache_key(), job.run())
        self._plant_temp(str(tmp_path), f"dead.json.tmp.{self._dead_pid()}")
        reopened = CompilationCache(directory=str(tmp_path))
        assert reopened.temp_files_swept == 1
        assert reopened.get(job.cache_key()) is not None

    def test_memory_only_cache_sweeps_nothing(self):
        assert CompilationCache().temp_files_swept == 0
