"""CLI-level service smoke test: the exact sequence the CI leg runs.

Start a real background daemon via ``repro serve``, fire a batch of 8
duplicate submissions at it, and require: >= 7 coalesced, one execution,
results identical to an in-process run, clean stop with the socket gone.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.serve import ServeClient, daemon_available


def _cli_env(tmp_path):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    env.pop("REPRO_NO_CACHE", None)
    env.pop("REPRO_CHAOS", None)
    return env


def _cli(env, *argv, timeout=120):
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def test_service_smoke(tmp_path):
    env = _cli_env(tmp_path)
    sock = str(tmp_path / "smoke.sock")

    started = _cli(env, "serve", "start", "--socket", sock)
    assert started.returncode == 0, started.stderr
    assert daemon_available(sock)
    try:
        payload = {"m": 64, "n": 64, "k": 32, "kernel": "ours", "seed": 0}
        with ServeClient(sock, tenant="smoke") as client:
            views = client.batch_submit(
                [{"kind": "hgemm", "payload": payload}] * 8)
            finals = [client.wait(v["job_id"], timeout=300) for v in views]
            stats = client.stats()

        assert sum(v["coalesced"] for v in views) >= 7
        assert stats["executed"] == 1
        assert stats["coalesced"] >= 7
        assert all(v["state"] == "done" for v in finals)
        assert all(v["result"]["exact"] for v in finals)
        assert len({v["result"]["c_sha256"] for v in finals}) == 1

        # The daemon-computed digest must match an in-process run's.
        import numpy as np

        from repro.core import hgemm
        from repro.perf.cache import content_key

        rng = np.random.default_rng(payload["seed"])
        a = rng.uniform(-1, 1, (64, 32)).astype(np.float16)
        b = rng.uniform(-1, 1, (32, 64)).astype(np.float16)
        local = hgemm(a, b, kernel="ours")
        local_sha = content_key(np.ascontiguousarray(local).tobytes())
        assert finals[0]["result"]["c_sha256"] == local_sha

        status = _cli(env, "serve", "status", "--socket", sock)
        assert status.returncode == 0 and "protocol 2" in status.stdout
    finally:
        stopped = _cli(env, "serve", "stop", "--socket", sock)
    assert stopped.returncode == 0, stopped.stderr
    deadline = time.time() + 10
    while os.path.exists(sock) and time.time() < deadline:
        time.sleep(0.05)
    assert not os.path.exists(sock), "daemon left its socket behind"
    assert not daemon_available(sock)
