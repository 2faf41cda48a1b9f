"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import stats  # noqa: E402
from run import parse_importtime  # noqa: E402


class TestTail:
    @pytest.mark.parametrize("n", [20, 21, 57, 1000])
    def test_ten_samples_beyond(self, n):
        samples = [float(i) for i in range(n)][::-1]
        value, pct, count = stats.tail(samples)
        assert sum(x > value for x in samples) == stats.MIN_BEYOND
        assert count == n
        assert pct == pytest.approx(100.0 * (n - 10) / n)

    def test_highest_such_percentile(self):
        value, pct, _ = stats.tail(range(1, 1001))
        assert (value, pct) == (990, 99.0)

    @pytest.mark.parametrize("n", [1, 2, 11, 19])
    def test_small_samples_fall_back_to_the_median(self, n):
        value, pct, count = stats.tail(range(n))
        assert value == (n - 1) // 2
        assert pct >= 50.0 and count == n

    def test_tail_never_below_median(self):
        for n in range(1, 200):
            samples = list(range(n))
            assert stats.tail(samples)[0] >= samples[(n - 1) // 2]

    def test_no_samples(self):
        with pytest.raises(ValueError):
            stats.tail([])


class TestSelfTime:
    def test_sequential_children(self):
        assert spans.self_time(0, 10, [(1, 3), (5, 6)]) == 7

    def test_nested_children_counted_once(self):
        assert spans.self_time(0, 10, [(1, 5), (2, 3)]) == 6

    def test_overlapping_children_counted_once(self):
        assert spans.self_time(0, 10, [(4, 8), (1, 5)]) == 3

    def test_child_time_outside_span_ignored(self):
        assert spans.self_time(2, 10, [(0, 4), (9, 12)]) == 5

    def test_no_children(self):
        assert spans.self_time(3, 7, []) == 4


@pytest.fixture
def fake_clock(monkeypatch):
    now = [0]
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: now[0])
    return now


def _layered_module(now):
    mod = types.SimpleNamespace()

    def innermost():
        now[0] += 2

    def inner():
        now[0] += 3
        mod.innermost()

    def outer():
        now[0] += 1
        mod.inner()
        now[0] += 2
        mod.inner()
        now[0] += 4

    mod.innermost, mod.inner, mod.outer = innermost, inner, outer
    return mod


class TestTracer:
    def test_self_time_through_nested_and_sequential_calls(self, fake_clock):
        mod = _layered_module(fake_clock)
        tracer = spans.Tracer()
        layers = [(mod, name, name, None) for name in ("outer", "inner", "innermost")]
        with tracer.installed(layers):
            mod.outer()
        totals = tracer.totals(hit_tol=0.0)
        assert totals["outer"] == {"calls": 1, "ns": 17, "self_ns": 7}
        assert totals["inner"] == {"calls": 2, "ns": 10, "self_ns": 6}
        assert totals["innermost"] == {"calls": 2, "ns": 4, "self_ns": 4}

    def test_searches_count_against_enclosing_span(self):
        mod = types.SimpleNamespace()
        mod.minimize = lambda fun: types.SimpleNamespace(nfev=7, fun=fun)
        mod.solve = lambda: [mod.minimize(f) for f in (1.0, 1.0 + 1e-9, 2.0)]
        tracer = spans.Tracer()
        with tracer.installed([(mod, "solve", "solve", None)], [(mod, "minimize")]):
            mod.solve()
            mod.solve()
        entry = tracer.totals(hit_tol=1e-6)["solve"]
        assert (entry["searches"], entry["nfev"], entry["hits"]) == (6, 42, 4)

    def test_sizes_recorded(self):
        mod = types.SimpleNamespace(text=lambda n: "x" * n)
        tracer = spans.Tracer()
        with tracer.installed([(mod, "text", "text", len)]):
            mod.text(3)
            mod.text(5)
        assert tracer.totals(0.0)["text"]["size"] == 8

    def test_merge_adds_sums(self):
        merged = spans.merge({"a": {"calls": 1, "ns": 5}}, {"a": {"calls": 2}, "b": {"calls": 1}})
        assert merged == {"a": {"calls": 3, "ns": 5}, "b": {"calls": 1}}


class TestRestore:
    def _targets(self):
        import workloads

        layers, searches = workloads.trace_targets()
        return layers, searches, [(m, a) for m, a, _, _ in layers] + list(searches)

    def test_every_wrapped_attribute_restored(self):
        layers, searches, attrs = self._targets()
        originals = [getattr(m, a) for m, a in attrs]
        with spans.Tracer().installed(layers, searches):
            assert all(getattr(m, a) is not o for (m, a), o in zip(attrs, originals))
        assert all(getattr(m, a) is o for (m, a), o in zip(attrs, originals))

    def test_restored_when_the_block_raises(self):
        layers, searches, attrs = self._targets()
        originals = [getattr(m, a) for m, a in attrs]
        with pytest.raises(RuntimeError):
            with spans.Tracer().installed(layers, searches):
                raise RuntimeError("op failed")
        assert all(getattr(m, a) is o for (m, a), o in zip(attrs, originals))

    def test_covers_the_named_layers(self):
        import gmqd.dynamics

        layers, searches, attrs = self._targets()
        assert (gmqd.dynamics, "gmqd_numeric") in attrs
        assert (gmqd.channels, "qubit_kraus") in attrs
        assert (gmqd.verify, "gmqd_oracle") in attrs
        if hasattr(gmqd.measures, "optimize"):
            assert (gmqd.measures.optimize, "minimize") in attrs


class TestExactCounts:
    """Search counts are exact: the same call gives the same counts in another traced run."""

    def _traced(self, call):
        import workloads
        from gmqd.verify import TOL_ORACLE_UNDERSHOOT

        tracer = spans.Tracer()
        with tracer.installed(*workloads.trace_targets()):
            call()
        return tracer.totals(TOL_ORACLE_UNDERSHOOT)

    def _state(self):
        from gmqd import channels, states

        scenario = channels.NoiseScenario(channels.ChannelKind.BIT_FLIP, channels.Locality.MULTI_LOCAL, 0.3, 0.6)
        return channels.apply_scenario(states.initial_state(states.TwoParamState.from_bc(0.2, 0.1)), scenario)

    @pytest.mark.parametrize("layer, call", [
        ("measures.gmqd_numeric", lambda m, rho: m.gmqd_numeric(rho)),
        ("measures.gmqd_oracle", lambda m, rho: m.gmqd_oracle(rho, restarts=2)),
    ])
    def test_counts_repeat(self, layer, call):
        from gmqd import measures

        rho = self._state()
        first, second = (self._traced(lambda: call(measures, rho))[layer] for _ in range(2))
        assert first["calls"] == second["calls"] == 1
        for key in ("searches", "nfev", "hits"):
            assert first.get(key) == second.get(key)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       scipy.optimize._x",
        "import time:        40 |         45 |     scipy.optimize",
        "import time:       100 |        175 |   gmqd.measures",
        "import time:        25 |        200 | gmqd",
    ])
    assert parse_importtime(text) == (200e-6, 75e-6)
