"""End-to-end tests of the in-process daemon: correctness, coalescing,
per-request stats, cache hits, one job at a time, disconnect survival,
worker crashes."""

import socket
import threading

import numpy as np
import pytest

from repro.analysis import perf_model
from repro.perf.cache import content_key
from repro.serve import (
    JobFailed,
    ServeClient,
    ServeDaemon,
    ServeError,
    ServeUnavailable,
    daemon_available,
)
from repro.serve.jobs import job_key, run_job
from repro.serve.protocol import recv_frame, send_frame

from ..faults import crash_once

_profile_worker = perf_model._profile_worker


@pytest.fixture()
def scratch_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


@pytest.fixture()
def daemon(scratch_env):
    d = ServeDaemon(str(scratch_env / "test.sock"))
    d.start()
    yield d
    d.stop()


def _hgemm_payload(**over):
    payload = {"m": 64, "n": 64, "k": 16, "kernel": "ours", "seed": 3}
    payload.update(over)
    return payload


def _sweep_payload():
    from repro.arch import RTX2070
    from repro.core import ours
    from repro.serve.jobs import config_to_dict, spec_to_dict

    return {"spec": spec_to_dict(RTX2070), "config": config_to_dict(ours()),
            "sizes": [1024, 2048]}


def _autotune_payload():
    """An autotune whose finalists' SM profiles fan out over two worker
    processes."""
    return {"spec": {"device": "RTX2070"}, "m": 256, "n": 256, "k": 64,
            "jobs": 2}


def _profile_crash_once(payload):
    crash_once()
    return _profile_worker(payload)


def _running(client, view, timeout=5.0):
    """Wait until the executor claims the job of *view*, so it stops
    counting against the queued-depth bound."""
    import time

    deadline = time.time() + timeout
    while (client.wait(view["job_id"], timeout=0)["state"] != "running"
           and time.time() < deadline):
        time.sleep(0.01)


class TestBasics:
    def test_ping_and_availability(self, daemon):
        assert daemon_available(daemon.socket_path)
        with ServeClient(daemon.socket_path) as client:
            info = client.ping()
        assert info["ok"] and info["protocol"] == 2

    def test_unreachable_socket_raises(self, scratch_env):
        with pytest.raises(ServeUnavailable):
            with ServeClient(str(scratch_env / "nothing.sock")) as c:
                c.ping()
        assert not daemon_available(str(scratch_env / "nothing.sock"))

    def test_unknown_kind_is_bad_request(self, daemon):
        with ServeClient(daemon.socket_path) as client:
            with pytest.raises(ServeError) as err:
                client.submit("no-such-kind")
        assert err.value.code == "bad_request"

    def test_malformed_batch_admits_nothing(self, daemon):
        """One malformed submission refuses its whole batch: the valid one
        before it is neither queued nor run, and no tenant is charged."""
        with ServeClient(daemon.socket_path) as client:
            with pytest.raises(ServeError) as err:
                client.batch_submit([{"kind": "noop",
                                      "payload": {"value": 1}},
                                     {"kind": "nope"}])
            assert err.value.code == "bad_request"
            stats = client.stats()
        assert stats["executed"] == 0 and stats["queue_depth"] == 0
        assert stats["inflight"] == 0 and stats["tenants"] == {}

    def test_job_failure_reported_not_fatal(self, daemon):
        with ServeClient(daemon.socket_path) as client:
            # m not tileable by the kernel -> daemon-side ValueError.
            with pytest.raises(JobFailed):
                client.run("hgemm", _hgemm_payload(m=7))
            # The daemon survives and still serves.
            assert client.ping()["ok"]

    def test_mistyped_options_fail_the_job_not_the_worker(self, daemon):
        """The wave model has no options: a sweep or autotune payload that
        names ``options``, even empty ones, fails as one job error naming
        the field instead of answering for another model."""
        with ServeClient(daemon.socket_path) as client:
            for kind, payload in (("sweep", _sweep_payload()),
                                  ("autotune", _autotune_payload())):
                with pytest.raises(JobFailed,
                                   match=r"ConfigError: the payload field "
                                         r"'options' is not accepted"):
                    client.run(kind, {**payload, "options": {}})
            assert all(thread.is_alive() for thread in daemon._threads)
            # The executor still claims and runs jobs.
            views = client.batch_submit(
                [{"kind": "noop", "payload": {"value": v, "sleep_s": 0.2}}
                 for v in (1, 2)])
            done = [client.wait(view["job_id"]) for view in views]
        assert [view["result"] for view in done] == [{"value": 1},
                                                       {"value": 2}]

    @pytest.mark.parametrize("jobs", [-1, 2.5, True, "2"])
    def test_malformed_jobs_fails_the_job_not_the_worker(self, daemon, jobs):
        """A worker count that is not a whole number >= 0 is refused by
        name before any process starts."""
        payload = {**_autotune_payload(), "jobs": jobs}
        with ServeClient(daemon.socket_path) as client:
            with pytest.raises(JobFailed,
                               match=rf"ValueError: jobs must be a whole "
                                     rf"number >= 0 .*got {jobs!r}"):
                client.run("autotune", payload)
            assert all(thread.is_alive() for thread in daemon._threads)
            assert client.ping()["ok"]

    @pytest.mark.parametrize("jobs", [2, -1, "2"])
    def test_a_sweep_ignores_a_worker_count(self, scratch_env, jobs):
        """A sweep estimates its sizes serially and reads no ``jobs``: a
        payload that still names one, well-formed or not, keys and runs
        as the payload without it, since a worker count never changes a
        result."""
        payload = _sweep_payload()
        asked = {**payload, "jobs": jobs}
        assert job_key("sweep", asked) == job_key("sweep", payload)
        assert run_job("sweep", asked) == run_job("sweep", payload)

    def test_malformed_spec_fails_the_job_not_the_daemon(self, daemon):
        payload = _hgemm_payload(spec={"device": 7})
        with ServeClient(daemon.socket_path) as client:
            with pytest.raises(JobFailed,
                               match=r"ConfigError: spec device must be a "
                                     r"registry device name \(a str\), got 7"):
                client.run("hgemm", payload)
            assert all(thread.is_alive() for thread in daemon._threads)
            view = client.run("hgemm", _hgemm_payload())
        assert view["result"]["exact"] is True

    def test_result_matches_inprocess_run(self, daemon):
        from repro.core import hgemm

        payload = _hgemm_payload()
        with ServeClient(daemon.socket_path) as client:
            view = client.run("hgemm", payload)
        rng = np.random.default_rng(payload["seed"])
        a = rng.uniform(-1, 1, (64, 16)).astype(np.float16)
        b = rng.uniform(-1, 1, (16, 64)).astype(np.float16)
        assert view["result"]["exact"] is True
        assert view["result"]["c_sha256"] == content_key(
            hgemm(a, b, kernel="ours").tobytes())

    @pytest.mark.parametrize("body,name", [
        (b"[1, 2]", "array"), (b'"hello"', "string"), (b"5", "number"),
        (b"null", "null"), (b"{", "unparseable")])
    def test_non_object_frame_gets_one_bad_request(self, daemon, body, name):
        """A frame that is not a JSON object is answered, not fatal: one
        ``bad_request`` reply naming what came, and the connection reads
        on."""
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        raw.connect(daemon.socket_path)
        try:
            raw.sendall(len(body).to_bytes(4, "big") + body)
            reply = recv_frame(raw)
            assert reply["ok"] is False and reply["code"] == "bad_request"
            assert name in reply["error"]
            send_frame(raw, {"op": "ping"})
            assert recv_frame(raw)["ok"] is True
        finally:
            raw.close()

    @pytest.mark.parametrize("timeout", ["soon", -1, True, [1], float("nan")])
    def test_malformed_wait_timeout_is_bad_request(self, daemon, timeout):
        with ServeClient(daemon.socket_path) as client:
            job = client.submit("noop", {"value": 1})
            with pytest.raises(ServeError, match="timeout must be") as err:
                client.wait(job["job_id"], timeout=timeout)
            assert err.value.code == "bad_request"
            assert client.ping()["ok"]

    def test_huge_wait_timeout_waits_for_the_job(self, daemon):
        with ServeClient(daemon.socket_path) as client:
            job = client.submit("noop", {"sleep_s": 0.3, "value": 1})
            view = client.wait(job["job_id"], timeout=1e300)
        assert view["state"] == "done" and view["result"] == {"value": 1}

    def test_wait_zero_timeout_returns_a_running_view(self, daemon):
        import time

        with ServeClient(daemon.socket_path) as client:
            job = client.submit("noop", {"sleep_s": 1.5, "value": 1})
            deadline = time.monotonic() + 5
            view = client.wait(job["job_id"], timeout=0)
            while view["state"] == "queued" and time.monotonic() < deadline:
                view = client.wait(job["job_id"], timeout=0)
            started = time.monotonic()
            view = client.wait(job["job_id"], timeout=0)
            assert time.monotonic() - started < 0.5
        assert view["state"] == "running" and "result" not in view


class TestKnobs:
    """The constructor reads ``REPRO_SERVE_SOCKET`` and no other knob;
    nothing here starts the daemon."""

    def test_good_values_are_used(self, scratch_env, monkeypatch):
        """The queue bound is a constant: the removed
        ``REPRO_SERVE_QUEUE_MAX`` is read by nothing."""
        monkeypatch.setenv("REPRO_SERVE_QUEUE_MAX", "7")
        monkeypatch.setenv("REPRO_SERVE_SOCKET", str(scratch_env / "k.sock"))
        d = ServeDaemon()
        assert d.queue.max_depth == 256
        assert d.socket_path == str(scratch_env / "k.sock")


class TestOneExecutor:
    def test_jobs_run_one_at_a_time_in_submission_order(self, daemon,
                                                        monkeypatch):
        """While one tenant's job runs, another tenant's jobs stay queued;
        they start in the order they were submitted, never two at once."""
        import repro.serve.daemon as daemon_mod

        run_job, started, running = daemon_mod.run_job, [], []

        def recording(kind, payload):
            running.append(payload["value"])
            started.append(list(running))
            try:
                return run_job(kind, payload)
            finally:
                running.remove(payload["value"])

        monkeypatch.setattr(daemon_mod, "run_job", recording)
        with ServeClient(daemon.socket_path, tenant="first") as first, \
                ServeClient(daemon.socket_path, tenant="second") as second:
            held = first.submit("noop", {"sleep_s": 1.0, "value": 0})
            _running(first, held)
            views = [second.submit("noop", {"value": v}) for v in (1, 2, 3)]
            states = [second.wait(view["job_id"], timeout=0)["state"]
                      for view in views]
            done = [second.wait(view["job_id"], timeout=60)
                    for view in [held] + views]
        assert states == ["queued"] * 3
        assert [view["result"] for view in done] == [
            {"value": v} for v in range(4)]
        assert started == [[0], [1], [2], [3]]


class TestCoalescing:
    def test_batch_duplicates_execute_once(self, daemon):
        jobs = [{"kind": "hgemm", "payload": _hgemm_payload()}] * 4
        with ServeClient(daemon.socket_path) as client:
            views = client.batch_submit(jobs)
            assert [v["coalesced"] for v in views] == [False, True, True,
                                                       True]
            finals = [client.wait(v["job_id"]) for v in views]
        assert {v["job_id"] for v in finals} == {finals[0]["job_id"]}
        assert all(v["state"] == "done" for v in finals)
        assert daemon.queue.executed == 1
        shas = {v["result"]["c_sha256"] for v in finals}
        assert len(shas) == 1

    def test_noop_twins_share_one_sleep(self, daemon):
        # noop is uncacheable, so dedup can only come from coalescing.
        payload = {"sleep_s": 0.4, "value": 7}
        with ServeClient(daemon.socket_path) as client:
            views = client.batch_submit(
                [{"kind": "noop", "payload": payload}] * 3)
            done = client.wait(views[0]["job_id"])
        assert sum(v["coalesced"] for v in views) == 2
        assert done["waiters"] == 3
        assert done["result"] == {"value": 7}

    def test_twin_finishing_during_cache_lookup_runs_once(self, scratch_env,
                                                          monkeypatch):
        # The twin's job finishes (stores its result, leaves the in-flight
        # index) while the second submission is between its cache miss and
        # its admission.  That submission must share the job, not rerun it.
        import repro.serve.daemon as daemon_mod

        monkeypatch.setattr(daemon_mod, "run_job", lambda kind, p: {"v": 1})
        d = ServeDaemon(str(scratch_env / "race.sock"))
        message = {"kind": "hgemm", "payload": _hgemm_payload()}
        first = d._submit_one(dict(message))
        lookup, workers = d.cache.get, []

        def lookup_while_twin_finishes(key):
            miss = lookup(key)
            workers.append(threading.Thread(
                target=lambda: d._execute(d.queue.next_job(timeout=5))))
            workers[0].start()
            workers[0].join(timeout=0.5)
            return miss

        monkeypatch.setattr(d.cache, "get", lookup_while_twin_finishes)
        second = d._submit_one(dict(message))
        workers[0].join(timeout=5)
        assert not workers[0].is_alive()
        assert second["coalesced"] and second["job_id"] == first["job_id"]
        assert d.queue.executed == 1

    def test_cache_hit_on_resubmit(self, daemon):
        payload = _hgemm_payload()
        with ServeClient(daemon.socket_path) as client:
            first = client.run("hgemm", payload)
            again = client.submit("hgemm", payload)
        assert first["cached"] is False
        assert again["cached"] is True and again["state"] == "done"
        assert again["result"]["c_sha256"] == first["result"]["c_sha256"]
        assert daemon.queue.executed == 1  # the resubmit never ran

    def test_worker_fan_out_shares_the_key(self, daemon):
        """``jobs`` sets an autotune's fan-out, never its result: it stays
        out of the coalescing and cache key."""
        fanned = _autotune_payload()
        plain = {name: v for name, v in fanned.items() if name != "jobs"}
        assert job_key("autotune", fanned) == job_key("autotune", plain)
        with ServeClient(daemon.socket_path) as client:
            first = client.run("autotune", plain, timeout=300)
            again = client.submit("autotune", fanned)
        assert again["cached"] is True
        assert again["result"] == first["result"]

    def test_uncacheable_kind_reruns_on_resubmit(self, daemon):
        payload = {"value": 5}
        with ServeClient(daemon.socket_path) as client:
            first = client.run("noop", payload)
            again = client.run("noop", payload)
        assert first["cached"] is False and again["cached"] is False
        assert daemon.queue.executed == 2


class TestStatsAttribution:
    def test_response_carries_scoped_counters(self, daemon):
        with ServeClient(daemon.socket_path) as client:
            view = client.run("hgemm", _hgemm_payload())
        counters = view["stats"]["counters"]
        assert counters.get("func.runs", 0) >= 1
        assert counters.get("func.instructions", 0) > 0
        assert view["result"]["instructions"] <= counters["func.instructions"]

    def test_concurrent_jobs_attribute_separately(self, daemon):
        """Two different jobs submitted at once must not bleed counters."""
        payloads = [_hgemm_payload(seed=1), _hgemm_payload(seed=2, k=32)]
        views = [None, None]

        def run(slot):
            with ServeClient(daemon.socket_path) as client:
                views[slot] = client.run("hgemm", payloads[slot])

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        for view in views:
            counters = view["stats"]["counters"]
            # Each job is charged exactly its own retired instructions --
            # with cross-thread bleed this would be the sum of both jobs.
            assert counters["func.instructions"] == \
                view["result"]["instructions"]
        assert (views[0]["result"]["instructions"]
                != views[1]["result"]["instructions"])

    def test_tenant_aggregation(self, daemon):
        with ServeClient(daemon.socket_path, tenant="acme") as client:
            client.run("hgemm", _hgemm_payload())
            stats = client.stats()
        acme = stats["tenants"]["acme"]
        assert acme["jobs"] == 1
        assert acme["counters"].get("func.runs", 0) >= 1


class TestRobustness:
    def test_client_disconnect_mid_wait_job_completes(self, daemon):
        """A vanished waiter must not kill or orphan its job."""
        payload = _hgemm_payload(seed=9)
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(daemon.socket_path)
        send_frame(raw, {"op": "submit", "kind": "hgemm",
                         "payload": payload, "tenant": "quitter"})
        view = recv_frame(raw)
        assert view["ok"]
        send_frame(raw, {"op": "wait", "job_id": view["job_id"]})
        raw.close()  # hang up while the job runs

        with ServeClient(daemon.socket_path) as client:
            final = client.wait(view["job_id"], timeout=120)
            assert final["state"] == "done"
            # ...and the result was cached for the next tenant.
            again = client.submit("hgemm", payload)
        assert again["cached"] is True

    def test_worker_crash_chaos_is_salvaged(self, daemon, monkeypatch,
                                            worker_faults):
        """A worker that dies while an autotune job profiles its finalists
        is covered by the serial fallback: the job still completes,
        identically, with the fallback on its own stats record."""
        monkeypatch.setattr(perf_model, "_profile_worker",
                            _profile_crash_once)
        with ServeClient(daemon.socket_path) as client:
            view = client.run("autotune", _autotune_payload(), timeout=300)
        assert view["state"] == "done"
        assert worker_faults.exists()
        assert view["stats"]["counters"].get("par.serial_fallbacks", 0) >= 1
        plain = {k: v for k, v in _autotune_payload().items() if k != "jobs"}
        assert view["result"] == run_job("autotune", plain)

    def test_payload_file_references_are_not_opened(self, daemon,
                                                    scratch_env):
        """Payloads run as received: a file reference a client names is
        neither read nor deleted, and the connection survives."""
        victim = scratch_env / "victim.npy"
        np.save(victim, np.arange(4))
        value = {"__ndfile__": str(victim)}
        with ServeClient(daemon.socket_path) as client:
            view = client.run("noop", {"value": value}, timeout=60)
            assert view["result"]["value"] == value
            assert client.ping()["ok"]
        assert victim.is_file()

    def test_queue_full_is_reported(self, scratch_env):
        d = ServeDaemon(str(scratch_env / "tiny.sock"), queue_max=1)
        d.start()
        try:
            with ServeClient(d.socket_path) as client:
                _running(client, client.submit(
                    "noop", {"sleep_s": 1.0, "value": 1}))
                client.submit("noop", {"sleep_s": 1.0, "value": 2})
                with pytest.raises(ServeError) as err:
                    client.submit("noop", {"sleep_s": 1.0, "value": 3})
            assert err.value.code == "queue_full"
        finally:
            d.stop()

    def test_batch_that_does_not_fit_admits_nothing(self, scratch_env):
        d = ServeDaemon(str(scratch_env / "fit.sock"), queue_max=2)
        d.start()
        try:
            with ServeClient(d.socket_path) as client:
                _running(client, client.submit(
                    "noop", {"sleep_s": 1.0, "value": 0}))
                before = client.stats()
                with pytest.raises(ServeError) as err:
                    client.batch_submit([{"kind": "noop",
                                          "payload": {"value": v}}
                                         for v in (1, 2, 3)])
                after = client.stats()
                # Twins share one queue slot: two new jobs fit.
                views = client.batch_submit([{"kind": "noop",
                                              "payload": {"value": v}}
                                             for v in (1, 1, 2)])
                depth = client.stats()["queue_depth"]
            assert err.value.code == "queue_full"
            assert after["queue_depth"] == before["queue_depth"] == 0
            assert (after["tenants"][client.tenant]["jobs"]
                    == before["tenants"][client.tenant]["jobs"] == 1)
            assert [v["coalesced"] for v in views] == [False, True, False]
            assert depth == 2
        finally:
            d.stop()

    def test_stop_fails_queued_jobs_and_removes_socket(self, scratch_env):
        import os

        d = ServeDaemon(str(scratch_env / "stop.sock"))
        d.start()
        with ServeClient(d.socket_path) as client:
            client.submit("noop", {"sleep_s": 0.5, "value": 0})  # running
            queued = client.submit("noop", {"sleep_s": 0.0, "value": 1})
        d.stop()
        assert not os.path.exists(d.socket_path)
        job = d.queue.get(queued["job_id"])
        assert job.state in ("failed", "done")
        if job.state == "failed":
            assert "stopping" in job.error
