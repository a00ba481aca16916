"""Tests for the memoized experiment cache (:mod:`repro.experiments.cache`).

The cache's contract is *bit-identity*: a hit, a prefix slice, a longer
recompute, a disk round-trip and a ``REPRO_NO_CACHE=1`` bypass must all
yield exactly the output of an uncached run.  These tests exercise each
path with small solver configurations so they stay fast.
"""

import warnings

import numpy as np
import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    ExperimentCache,
    cache_enabled,
    default_cache,
    reset_default_cache,
)
from repro.experiments.common import SCALES, advection_trace
from repro.experiments.fig1_memory import _gas_stepper, captured_gas_trace
from repro.experiments.fig6_entropy import density_field
from repro.observability.metrics import MetricsRegistry
from repro.workload.capture import capture_trace

#: Small, fast solver configuration shared by the trace tests.
SMALL = {"n": 16, "nranks": 4}


def small_stepper():
    return _gas_stepper(**SMALL)


def fresh_trace(nsteps):
    """Uncached ground truth for the small configuration."""
    return capture_trace(small_stepper(), nsteps, name="t")


def assert_traces_identical(a, b):
    assert a.ndim == b.ndim
    assert a.nranks == b.nranks
    assert a.bytes_per_cell == b.bytes_per_cell
    assert len(a.steps) == len(b.steps)
    for ra, rb in zip(a.steps, b.steps):
        assert ra.step == rb.step
        assert ra.sim_work == rb.sim_work
        assert ra.cells == rb.cells
        assert ra.data_bytes == rb.data_bytes
        assert ra.memory_bytes == rb.memory_bytes
        assert ra.analysis_intensity == rb.analysis_intensity
        assert np.array_equal(ra.rank_bytes, rb.rank_bytes)


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch):
    """Each test gets a clean default cache and no ambient env settings."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    reset_default_cache()
    yield
    reset_default_cache()


class TestKeying:
    def test_key_depends_on_kind_and_params(self):
        cache = ExperimentCache()
        base = cache.key("trace", n=16)
        assert cache.key("trace", n=16) == base
        assert cache.key("trace", n=17) != base
        assert cache.key("field", n=16) != base

    def test_cache_enabled_env(self, monkeypatch):
        assert cache_enabled()
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        assert cache_enabled()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not cache_enabled()

    @pytest.mark.parametrize("value", ["true", "yes", "TRUE", " Yes "])
    def test_cache_disabled_by_word_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_CACHE", value)
        assert not cache_enabled()

    @pytest.mark.parametrize("value", ["false", "no", "FALSE", " No "])
    def test_cache_stays_enabled_for_negations(self, monkeypatch, value):
        # Regression: REPRO_NO_CACHE=false used to *disable* the cache
        # (any non-(""/"0") value was treated as truthy).
        monkeypatch.setenv("REPRO_NO_CACHE", value)
        assert cache_enabled()

    def test_unrecognized_value_warns_once_and_keeps_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "maybe")
        monkeypatch.setattr(cache_mod, "_WARNED_NO_CACHE_VALUES", set())
        with pytest.warns(RuntimeWarning, match="REPRO_NO_CACHE"):
            assert cache_enabled()
        # The second lookup with the same value must stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache_enabled()


class TestValueMemo:
    def test_identity_preserving_hit(self):
        cache = ExperimentCache()
        calls = []
        obj = cache.value("v", {"a": 1}, lambda: calls.append(1) or {"x": 2})
        again = cache.value("v", {"a": 1}, lambda: calls.append(1) or {"x": 2})
        assert again is obj
        assert len(calls) == 1

    def test_counters(self):
        registry = MetricsRegistry()
        cache = ExperimentCache(metrics=registry)
        cache.value("v", {"a": 1}, lambda: 1)
        cache.value("v", {"a": 1}, lambda: 1)
        cache.value("v", {"a": 2}, lambda: 2)
        assert registry.counter("experiments.cache_misses").value == 2
        assert registry.counter("experiments.cache_hits").value == 1

    def test_no_cache_recomputes(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ExperimentCache()
        calls = []
        cache.value("v", {"a": 1}, lambda: calls.append(1))
        cache.value("v", {"a": 1}, lambda: calls.append(1))
        assert len(calls) == 2

    def test_advection_trace_shares_default_cache(self):
        assert advection_trace(SCALES[0]) is advection_trace(SCALES[0])

    def test_cached_none_is_a_hit(self):
        # Regression: `stored is not None` as the hit test recomputed a
        # legitimately cached None artifact on every call.
        registry = MetricsRegistry()
        cache = ExperimentCache(metrics=registry)
        calls = []
        assert cache.value("v", {"a": 1}, lambda: calls.append(1)) is None
        assert cache.value("v", {"a": 1}, lambda: calls.append(1)) is None
        assert len(calls) == 1
        assert registry.counter("experiments.cache_hits").value == 1

    def test_cached_none_roundtrips_through_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        writer = ExperimentCache()
        assert writer.value("v", {"a": 1}, lambda: None) is None
        registry = MetricsRegistry()
        reader = ExperimentCache(metrics=registry)
        calls = []
        assert reader.value("v", {"a": 1}, lambda: calls.append(1)) is None
        assert not calls
        assert registry.counter("experiments.cache_hits").value == 1

    def test_store_failure_warns_and_counts(self, tmp_path, monkeypatch):
        # Regression: an unwritable REPRO_CACHE_DIR used to fail silently
        # (bare `except OSError: pass`), recomputing artifacts forever.
        # Pointing the dir at a regular file breaks mkdir() even when the
        # suite runs as root (which ignores read-only permission bits).
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("in the way")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(not_a_dir))
        monkeypatch.setattr(cache_mod, "_STORE_FAILURE_WARNED", False)
        registry = MetricsRegistry()
        cache = ExperimentCache(metrics=registry)
        with pytest.warns(RuntimeWarning, match="cache store"):
            assert cache.value("v", {"a": 1}, lambda: 41) == 41
        assert registry.counter("experiments.cache_store_failures").value == 1
        # Later failures keep counting but stay quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.value("v", {"a": 2}, lambda: 42) == 42
        assert registry.counter("experiments.cache_store_failures").value == 2


class TestTraceSessions:
    def test_prefix_and_extension_bit_identical(self):
        cache = ExperimentCache()
        t8 = cache.trace("t", SMALL, 8, small_stepper, name="t")
        assert_traces_identical(t8, fresh_trace(8))
        # Longer request: recomputed from step zero, replacing the 8.
        t12 = cache.trace("t", SMALL, 12, small_stepper, name="t")
        assert_traces_identical(t12, fresh_trace(12))
        # Shorter request: served as a slice of the 12-step capture.
        t5 = cache.trace("t", SMALL, 5, small_stepper, name="t")
        assert_traces_identical(t5, fresh_trace(5))

    def test_disk_roundtrip_and_prefix(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        writer = ExperimentCache()
        writer.trace("t", SMALL, 10, small_stepper, name="t")
        assert list(tmp_path.glob("*.pkl"))
        # A fresh cache (new process stand-in) serves a shorter request
        # straight from the stored artifact.
        registry = MetricsRegistry()
        reader = ExperimentCache(metrics=registry)
        t6 = reader.trace("t", SMALL, 6, small_stepper, name="t")
        assert_traces_identical(t6, fresh_trace(6))
        assert registry.counter("experiments.cache_hits").value == 1
        # A request past the stored capture recomputes from step zero
        # and must still be bit-identical.
        t12 = reader.trace("t", SMALL, 12, small_stepper, name="t")
        assert_traces_identical(t12, fresh_trace(12))

    def test_prefix_reuse_builds_once(self):
        # Shorter requests must be slices of the longest capture: one
        # solver build serves all three, counted as 1 miss + 2 hits.
        registry = MetricsRegistry()
        cache = ExperimentCache(metrics=registry)
        builds = []

        def counting_build():
            builds.append(1)
            return small_stepper()

        for nsteps in (12, 8, 5):
            got = cache.trace("t", SMALL, nsteps, counting_build, name="t")
            assert_traces_identical(got, fresh_trace(nsteps))
        assert len(builds) == 1
        assert registry.counter("experiments.cache_misses").value == 1
        assert registry.counter("experiments.cache_hits").value == 2

    def test_no_cache_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cached_off = captured_gas_trace(nsteps=8, **SMALL)
        monkeypatch.delenv("REPRO_NO_CACHE")
        cached_on = captured_gas_trace(nsteps=8, **SMALL)
        assert_traces_identical(cached_off, cached_on)


class TestFieldSessions:
    def test_extension_bit_identical(self):
        f6_fresh = density_field(n=16, nsteps=6, cache=ExperimentCache())
        cache = ExperimentCache()
        f4 = cache_field = density_field(n=16, nsteps=4, cache=cache)
        f6 = density_field(n=16, nsteps=6, cache=cache)
        assert np.array_equal(f6, f6_fresh)
        assert cache_field is f4  # sanity: same object we captured

    def test_hit_returns_private_copy(self):
        cache = ExperimentCache()
        first = density_field(n=16, nsteps=3, cache=cache)
        second = density_field(n=16, nsteps=3, cache=cache)
        assert np.array_equal(first, second)
        assert first is not second
        second[0, 0, 0] = -1.0  # mutating a result must not poison the cache
        third = density_field(n=16, nsteps=3, cache=cache)
        assert np.array_equal(first, third)

    def test_overshoot_rebuilds(self):
        cache = ExperimentCache()
        f5 = density_field(n=16, nsteps=5, cache=cache)
        # A shorter field is its own artifact, computed from step zero.
        f2 = density_field(n=16, nsteps=2, cache=cache)
        assert np.array_equal(f2, density_field(n=16, nsteps=2, cache=ExperimentCache()))
        assert np.array_equal(f5, density_field(n=16, nsteps=5, cache=cache))

    def test_disk_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        f4 = density_field(n=16, nsteps=4, cache=ExperimentCache())
        registry = MetricsRegistry()
        reader = ExperimentCache(metrics=registry)
        assert np.array_equal(density_field(n=16, nsteps=4, cache=reader), f4)
        assert registry.counter("experiments.cache_hits").value == 1


class TestDefaultCache:
    def test_singleton_and_reset(self):
        cache = default_cache()
        assert default_cache() is cache
        reset_default_cache()
        assert default_cache() is not cache

    def test_code_salt_isolation(self, monkeypatch):
        # Different code revisions must produce different disk keys.
        cache = ExperimentCache()
        base = cache.key("t", n=1)
        monkeypatch.setattr(cache_mod, "_CODE_SALT", "other-revision")
        assert cache.key("t", n=1) != base

    def test_set_code_salt_pins_keys(self, monkeypatch):
        # The sweep runner resolves the salt once in the parent and pins
        # it in every worker -- no git subprocess per worker, and keys
        # match the parent's exactly.
        monkeypatch.setattr(cache_mod, "_CODE_SALT", None)
        cache_mod.set_code_salt("pinned-rev")
        assert cache_mod._code_salt() == "pinned-rev"
        cache = ExperimentCache()
        a = cache.key("t", n=1)
        cache_mod.set_code_salt("other-rev")
        assert cache.key("t", n=1) != a
