"""The live metrics endpoint and its cycle-cadence publisher.

:class:`MetricsServer` is a snapshot store with an HTTP front: every
route serves the last *published* strings under a lock, so these tests
exercise real sockets (loopback, ephemeral ports) but deterministic
content.  :class:`ServePublisher` must follow the sampler's
advance/fill discipline — one publish per crossed boundary batch, at
the current cycle — so that a served run's simulation output stays
bit-identical to an unserved one (pinned in ``test_obs_profile.py``
and the CLI serve smoke below).
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import Observability, ObservabilityConfig
from repro.obs.export import EXPOSITION_CONTENT_TYPE
from repro.obs.server import (
    DEFAULT_PUBLISH_INTERVAL,
    MetricsServer,
    ServePublisher,
)


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read()


class TestMetricsServer:
    def test_unpublished_metrics_is_empty_exposition(self):
        with MetricsServer() as server:
            status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert body == b"# EOF\n"
        assert headers["Content-Type"] == EXPOSITION_CONTENT_TYPE

    def test_publish_then_scrape(self):
        with MetricsServer() as server:
            server.publish("# TYPE g gauge\ng 4\n# EOF\n",
                           monitor_doc={"enabled": True}, cycle=4096)
            _, _, metrics = _get(server.url + "/metrics")
            _, headers, health = _get(server.url + "/healthz")
            _, _, monitor = _get(server.url + "/monitor")
        assert metrics == b"# TYPE g gauge\ng 4\n# EOF\n"
        doc = json.loads(health)
        assert doc["status"] == "ok"
        assert doc["cycle"] == 4096
        assert doc["publishes"] == 1
        assert doc["scrapes"] == 1
        assert doc["uptime_ms"] >= 0
        assert headers["Content-Type"] == "application/json"
        assert json.loads(monitor) == {"enabled": True}

    def test_unknown_route_404(self):
        with MetricsServer() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            assert excinfo.value.code == 404

    def test_draining_status(self):
        with MetricsServer() as server:
            server.mark_draining()
            _, _, health = _get(server.url + "/healthz")
        assert json.loads(health)["status"] == "draining"

    def test_double_start_rejected(self):
        server = MetricsServer().start()
        try:
            with pytest.raises(ConfigurationError):
                server.start()
        finally:
            server.close()

    def test_close_is_idempotent(self):
        server = MetricsServer().start()
        server.close()
        server.close()


def _obs():
    return Observability(ObservabilityConfig(monitor=True, profile=True))


class _FakeServer:
    """Records publishes without sockets (cadence unit tests)."""

    def __init__(self):
        self.calls = []

    def publish(self, exposition, monitor_doc=None, cycle=-1, status="ok"):
        self.calls.append((cycle, status))


class TestServePublisher:
    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ServePublisher(_obs(), _FakeServer(), interval=0)

    def test_advance_publishes_on_boundary(self):
        fake = _FakeServer()
        publisher = ServePublisher(_obs(), fake, interval=100)
        for cycle in range(99):
            publisher.advance(cycle)
        assert fake.calls == []
        publisher.advance(100)
        assert fake.calls == [(100, "ok")]
        assert publisher.next_publish_cycle == 200

    def test_fill_publishes_once_per_span(self):
        fake = _FakeServer()
        publisher = ServePublisher(_obs(), fake, interval=100)
        # One skip crossing three boundaries: one publish at span end.
        publisher.advance(350)
        assert fake.calls == [(350, "ok")]
        assert publisher.next_publish_cycle == 400

    def test_default_interval(self):
        publisher = ServePublisher(_obs(), _FakeServer())
        assert publisher.interval == DEFAULT_PUBLISH_INTERVAL

    def test_publish_renders_live_registry(self):
        obs = _obs()
        obs.metrics.counter("demo.hits").inc(3)
        obs.profiler.begin_run("cycle", 0)
        obs.profiler.end_run(10)
        with MetricsServer() as server:
            publisher = ServePublisher(obs, server, interval=10)
            publisher.publish(cycle=10)
            _, _, body = _get(server.url + "/metrics")
            _, _, monitor = _get(server.url + "/monitor")
        text = body.decode("utf-8")
        assert "demo_hits_total 3" in text
        assert "obs_published_cycle 10" in text
        assert "profiler_runs_total" in text
        assert text.endswith("# EOF\n")
        assert json.loads(monitor)["enabled"] is True


class TestAttachedHub:
    def test_hub_routes_cycle_hooks_to_publisher(self):
        # Profile-only config: the profiler itself needs no cycle
        # hooks, so attaching the publisher is what flips the flag.
        obs = Observability(ObservabilityConfig(profile=True))
        fake = _FakeServer()
        assert not obs.has_cycle_hooks
        obs.attach_publisher(ServePublisher(obs, fake, interval=50))
        assert obs.has_cycle_hooks
        obs.on_cycle_end(49)
        obs.on_cycle_end(50)
        obs.on_cycle_end(249)
        assert fake.calls == [(50, "ok"), (249, "ok")]

    def test_publisher_excluded_from_pickle(self):
        import pickle

        obs = _obs()
        obs.attach_publisher(ServePublisher(obs, _FakeServer(), interval=50))
        clone = pickle.loads(pickle.dumps(obs))
        assert clone.publisher is None
        assert clone.profiler is not None
