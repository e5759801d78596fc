"""Tests for the command-line interface."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import JOB_VERBS, build_parser, main

#: A small invocation of every job verb.
JOB_ARGV = {
    "hgemm": ["hgemm", "64", "64", "32"],
    "igemm": ["igemm", "128", "128", "32"],
    "sweep": ["sweep", "--start", "4096", "--stop", "8192", "--step", "4096"],
    "autotune": ["autotune", "1024", "1024", "1024"],
    "verify": ["verify", "--seeds", "1"],
    "workloads": ["workloads", "run", "--suite", "smoke"],
    "numerics": ["numerics", "--ks", "32,256"],
}


#: Per job verb, arguments its job refuses: each exits 1 and prints the
#: same lines in-process and on a daemon, with no traceback -- one
#: ``error: job failed:`` line, or the verb's own failure report.
MALFORMED_ARGV = {
    "hgemm": ["hgemm", "7", "64", "32"],
    "igemm": ["igemm", "64", "64", "32", "--device", "V100"],
    "sweep": ["sweep", "--start", "8192", "--stop", "4096"],
    "autotune": ["autotune", "7", "64", "32"],
    "verify": ["verify", "--device", "V100", "--kernel", "int8",
               "--seeds", "1"],
    "workloads": ["workloads", "run", "--suite", "nope"],
    "numerics": ["numerics", "--m", "7"],
}


def _without_served_line(out: str) -> str:
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("served by daemon:"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_hgemm_args(self):
        args = build_parser().parse_args(["hgemm", "64", "64", "32"])
        assert (args.m, args.n, args.k) == (64, 64, 32)
        assert args.kernel == "ours"

    def test_igemm_args(self):
        args = build_parser().parse_args(
            ["igemm", "128", "128", "32", "--seed", "3"])
        assert (args.m, args.n, args.k) == (128, 128, 32)
        assert args.seed == 3

    @pytest.mark.parametrize("argv", [
        ["hgemm", "64", "64", "32"], ["igemm", "128", "128", "32"],
        ["verify"], ["numerics"]])
    def test_functional_verbs_refuse_jobs(self, argv, capsys):
        """Functional launches run their CTAs in one process: no --jobs."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--jobs", "2"])
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep"], ["autotune", "64", "64", "64"], ["perfstats"],
        ["workloads", "estimate"]])
    def test_profile_verbs_keep_jobs(self, argv):
        assert build_parser().parse_args(argv + ["--jobs", "2"]).jobs == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_engine_and_guard_choices_are_the_registries(self, monkeypatch):
        """The engines and guard modes are their knobs' choices, and each
        knob's default is the first, which the simulators resolve; the CLI
        has no option of its own for them."""
        from repro import knobs
        from repro.arch import RTX2070
        from repro.robust import guard
        from repro.sim import functional, timing

        monkeypatch.delenv("REPRO_FUNC_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_TIMING_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_GUARD", raising=False)

        options = {action.dest for action in build_parser()._actions}
        for name, registry in (("REPRO_FUNC_ENGINE", functional.ENGINES),
                               ("REPRO_TIMING_ENGINE", timing.ENGINES),
                               ("REPRO_GUARD", guard.MODES)):
            assert knobs.KNOBS[name].accepts == registry
            assert knobs.read(name) == registry[0]
        assert not options & {"func_engine", "timing_engine", "guard"}
        assert functional.FunctionalSimulator().engine == functional.ENGINES[0]
        assert timing.TimingSimulator(RTX2070).engine == timing.ENGINES[0]
        assert guard.guard_mode() == guard.MODES[0]

    def test_remote_verbs_are_the_job_verbs(self):
        from repro.serve.jobs import JOB_KINDS

        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        remote = {name for name, parser in sub.choices.items()
                  if any(a.dest == "remote" for a in parser._actions)}
        assert remote == set(JOB_VERBS) == set(JOB_ARGV)
        assert set(JOB_VERBS) <= set(JOB_KINDS)

    def test_readme_examples_parse(self):
        """Every ``python -m repro`` command line in README.md's fenced
        code blocks is one the parser accepts."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        commands, fenced = [], False
        for line in readme.read_text(encoding="utf-8").splitlines():
            if line.startswith("```"):
                fenced = not fenced
                continue
            found = re.match(r"\s*(?:\w+=\S*\s+)*python -m repro\b(.*)", line)
            if fenced and found:
                commands.append(shlex.split(found.group(1), comments=True))
        assert len(commands) >= 20
        for argv in commands:
            build_parser().parse_args(argv)

    def test_removed_func_engine_refused(self, capsys, monkeypatch):
        """A removed engine in ``REPRO_FUNC_ENGINE`` ends the command with
        one error line naming the variable, not a traceback."""
        removed = "grid" "lock"  # the deleted grid-lockstep engine
        monkeypatch.setenv("REPRO_FUNC_ENGINE", removed)
        assert main(["hgemm", "64", "64", "32"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_FUNC_ENGINE must be one of "
                              "('lockstep', 'reference'), got "
                              f"'{removed}'")
        assert "Traceback" not in err


class TestCommands:
    def test_hgemm_ok(self, capsys):
        assert main(["hgemm", "64", "64", "32"]) == 0
        out = capsys.readouterr().out
        assert "bit-exact vs precision model: True" in out

    def test_hgemm_cublas_kernel(self, capsys):
        assert main(["hgemm", "128", "128", "64", "--kernel", "cublas"]) == 0
        assert "cublas-like" in capsys.readouterr().out

    def test_hgemm_f32(self, capsys):
        assert main(["hgemm", "64", "64", "32", "--accumulate", "f32"]) == 0
        assert "True" in capsys.readouterr().out

    def test_igemm_ok(self, capsys):
        assert main(["igemm", "128", "128", "32"]) == 0
        out = capsys.readouterr().out
        assert "IMMA" in out
        assert "bit-exact vs int8 oracle: True" in out

    def test_igemm_multi_cta(self, capsys):
        assert main(["igemm", "192", "128", "32", "--seed", "5"]) == 0
        assert "bit-exact vs int8 oracle: True" in capsys.readouterr().out

    def test_roofline(self, capsys):
        assert main(["roofline", "--device", "T4"]) == 0
        out = capsys.readouterr().out
        assert "Roofline on T4" in out
        assert "memory" in out

    def test_disasm(self, capsys):
        assert main(["disasm"]) == 0
        out = capsys.readouterr().out
        assert "HMMA.1688.F16" in out

    def test_disasm_small_problem_shrinks(self, capsys):
        assert main(["disasm", "--m", "64", "--n", "64", "--k", "32"]) == 0
        assert "HMMA" in capsys.readouterr().out

    def test_disasm_binary_roundtrip(self, capsys):
        assert main(["disasm", "--binary"]) == 0
        out = capsys.readouterr().out
        assert ".kernel" in out
        assert "HMMA.1688.F16" in out

    def test_verify_ours(self, capsys):
        assert main(["verify", "--kernel", "ours", "--seeds", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_int8(self, capsys):
        assert main(["verify", "--kernel", "int8", "--seeds", "1"]) == 0
        assert "bit-exact" in capsys.readouterr().out


class TestJobVerbs:
    """Every job verb prints the same lines in-process and on a daemon."""

    @pytest.mark.parametrize("verb", sorted(JOB_ARGV))
    def test_remote_prints_what_in_process_prints(self, verb, cache_enabled,
                                                  capsys):
        from repro.serve import ServeDaemon

        argv = JOB_ARGV[verb]
        local_rc = main(argv)
        local = capsys.readouterr().out
        daemon = ServeDaemon(str(cache_enabled / "parity.sock"), workers=1)
        daemon.start()
        try:
            remote_rc = main(argv + ["--remote", daemon.socket_path])
        finally:
            daemon.stop()
        remote = capsys.readouterr().out
        assert local_rc == remote_rc == 0
        assert remote.count("served by daemon: ") == 1
        assert _without_served_line(remote) == local

    @pytest.mark.parametrize("verb", sorted(MALFORMED_ARGV))
    def test_refused_job_fails_alike_in_process_and_remote(
            self, verb, cache_enabled, capsys):
        from repro.serve import ServeDaemon

        argv = MALFORMED_ARGV[verb]
        local_rc = main(argv)
        local = capsys.readouterr()
        daemon = ServeDaemon(str(cache_enabled / "refuse.sock"), workers=1)
        daemon.start()
        try:
            remote_rc = main(argv + ["--remote", daemon.socket_path])
        finally:
            daemon.stop()
        remote = capsys.readouterr()
        assert local_rc == remote_rc == 1
        assert "Traceback" not in local.err + remote.err
        assert remote.err == local.err
        assert _without_served_line(remote.out) == local.out
        errors = [line for line in local.err.splitlines()
                  if line.startswith("error:")]
        if verb == "verify":   # a failed grid is a report, not an error
            assert not errors and local.out.startswith("FAIL: ")
        else:
            assert len(errors) == 1
            assert errors[0].startswith("error: job failed: ")
            assert local.out == ""

    def test_sweep_jobs_print_what_serial_prints(self, capsys):
        argv = JOB_ARGV["sweep"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestServeCli:
    def test_serve_parser(self):
        args = build_parser().parse_args(
            ["serve", "start", "--socket", "/tmp/x.sock", "--workers", "3",
             "--queue-max", "16", "--foreground"])
        assert args.command == "serve" and args.action == "start"
        assert args.socket == "/tmp/x.sock"
        assert args.workers == 3 and args.queue_max == 16
        assert args.foreground

    def test_remote_flag_optional_socket(self):
        args = build_parser().parse_args(["hgemm", "64", "64", "32",
                                          "--remote"])
        assert args.remote == ""  # empty string -> default socket
        args = build_parser().parse_args(["sweep", "--remote", "/tmp/s"])
        assert args.remote == "/tmp/s"
        args = build_parser().parse_args(["autotune", "64", "64", "32"])
        assert args.remote is None

    def test_serve_status_unreachable_fails(self, tmp_path, capsys):
        rc = main(["serve", "status",
                   "--socket", str(tmp_path / "none.sock")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_remote_falls_back_in_process(self, tmp_path, capsys):
        """--remote with no daemon must still answer, in-process."""
        rc = main(["hgemm", "64", "64", "32",
                   "--remote", str(tmp_path / "none.sock")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "running in-process" in captured.err
        assert "bit-exact vs precision model: True" in captured.out

    def test_remote_round_trip_against_daemon(self, tmp_path, cache_enabled,
                                              capsys):
        """Full thin-client path against an embedded daemon."""
        from repro.serve import ServeDaemon

        daemon = ServeDaemon(str(tmp_path / "cli.sock"), workers=1)
        daemon.start()
        try:
            rc = main(["hgemm", "64", "64", "32",
                       "--remote", daemon.socket_path])
            out = capsys.readouterr().out
            assert rc == 0
            assert "bit-exact vs precision model: True" in out
            assert "served by daemon: executed" in out
            # Identical resubmission is answered from the shared cache.
            rc = main(["hgemm", "64", "64", "32",
                       "--remote", daemon.socket_path])
            out = capsys.readouterr().out
            assert rc == 0
            assert "served by daemon: cache hit" in out
        finally:
            daemon.stop()

    @staticmethod
    def _parked_daemon(path):
        """A 1-worker daemon whose worker sleeps on a noop, so the jobs
        submitted next stay queued together (as ``repro doctor`` does)."""
        from repro.serve import ServeClient, ServeDaemon

        daemon = ServeDaemon(str(path), workers=1)
        daemon.start()
        with ServeClient(daemon.socket_path, tenant="hold") as holder:
            holder.submit("noop", {"sleep_s": 0.75})
        return daemon

    def test_run_batch_twins_report_one_coalesced(self, tmp_path,
                                                  cache_enabled):
        import threading

        from repro.serve import ServeClient

        payload = {"m": 64, "n": 64, "k": 32, "kernel": "ours", "seed": 5}
        daemon = self._parked_daemon(tmp_path / "twins.sock")
        views = [None, None]

        def run(slot):
            with ServeClient(daemon.socket_path, tenant=f"t{slot}") as client:
                views[slot] = client.run_batch(
                    [{"kind": "hgemm", "payload": payload}])[0]

        try:
            threads = [threading.Thread(target=run, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            daemon.stop()
        assert views[0]["job_id"] == views[1]["job_id"]
        assert sorted(view["coalesced"] for view in views) == [False, True]
        assert views[0]["result"] == views[1]["result"]

    def test_remote_twin_prints_coalesced(self, tmp_path, cache_enabled,
                                          capsys):
        from repro.serve import ServeClient

        argv = ["hgemm", "64", "64", "32", "--seed", "6"]
        payload = {"m": 64, "n": 64, "k": 32, "kernel": "ours",
                   "accumulate": "f16", "seed": 6,
                   "spec": {"device": "RTX2070"}}
        daemon = self._parked_daemon(tmp_path / "twin.sock")
        try:
            with ServeClient(daemon.socket_path, tenant="first") as client:
                first = client.submit("hgemm", payload)
                assert not first["coalesced"]
                rc = main(argv + ["--remote", daemon.socket_path])
        finally:
            daemon.stop()
        out = capsys.readouterr().out
        assert rc == 0
        assert f"served by daemon: coalesced (job {first['job_id']}, " in out


class TestWorkloadsCommand:
    def test_list(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("bert", "layers", "lstm", "resnet", "smoke"):
            assert name in out

    def test_run_smoke(self, capsys):
        assert main(["workloads", "run", "--suite", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "PASS: 4/4 workloads bit-exact" in out

    def test_run_on_volta(self, capsys):
        assert main(["workloads", "run", "--suite", "lstm",
                     "--device", "V100"]) == 0
        assert "V100" in capsys.readouterr().out

    def test_estimate(self, capsys):
        assert main(["workloads", "estimate", "--suite", "lstm"]) == 0
        out = capsys.readouterr().out
        assert "TFLOPS" in out and "speedup" in out

    def test_remote_run_against_daemon(self, tmp_path, cache_enabled, capsys):
        from repro.serve import ServeDaemon

        daemon = ServeDaemon(str(tmp_path / "wl.sock"), workers=1)
        daemon.start()
        try:
            rc = main(["workloads", "run", "--suite", "smoke",
                       "--remote", daemon.socket_path])
            out = capsys.readouterr().out
            assert rc == 0
            assert "PASS: 4/4 workloads bit-exact" in out
            assert "served by daemon: executed" in out
            rc = main(["workloads", "run", "--suite", "smoke",
                       "--remote", daemon.socket_path])
            out = capsys.readouterr().out
            assert rc == 0
            assert "served by daemon: cache hit" in out
        finally:
            daemon.stop()


class TestNumericsCommand:
    def test_reproduces_markidis_shape(self, capsys):
        assert main(["numerics", "--ks", "32,64,128,256"]) == 0
        out = capsys.readouterr().out
        assert "Markidis et al. error shape: REPRODUCED" in out
        assert "f16/positive" in out and "f32/positive" in out
        assert "curve digests" in out

    def test_volta_f16_only(self, capsys):
        assert main(["numerics", "--device", "V100",
                     "--ks", "32,64,128,256"]) == 0
        out = capsys.readouterr().out
        assert "no f32-accumulate form" in out

    def test_remote_against_daemon(self, tmp_path, monkeypatch, capsys):
        from repro.serve import ServeDaemon

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        daemon = ServeDaemon(str(tmp_path / "num.sock"), workers=1)
        daemon.start()
        try:
            rc = main(["numerics", "--ks", "32,64,128,256",
                       "--remote", daemon.socket_path])
            out = capsys.readouterr().out
            assert rc == 0
            assert "served by daemon: executed" in out
        finally:
            daemon.stop()
