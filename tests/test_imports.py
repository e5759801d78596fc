"""The import footprint and the public surface of the package.

``repro``, ``repro.arch``, ``repro.core``, ``repro.analysis``,
``repro.serve`` and ``repro.sim`` resolve their re-exports on first use,
so a process that imports the package, asks for ``--help`` or talks to
a daemon loads neither NumPy nor a simulator.  These tests run fresh
interpreters for the footprint and for threads that import the
simulators together, and pin what the packages and the parser show a
user.
"""

import argparse
import hashlib
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = ("repro", "repro.arch", "repro.core", "repro.analysis",
            "repro.serve", "repro.sim")

#: SHA-256 of each package's sorted ``__all__``, one name a line.
ALL_SHA256 = {
    "repro": "300793a2632ef0e3df250d4c90d3f249f1cbd645f4cfdb35300a9246b72c4e7a",
    "repro.arch":
        "48ee359e781f2dee9e2c08138ee0b718be30e414c7ccd71a73e266b5e5e4be44",
    "repro.core":
        "fdf3cd8015fba5ebd8dc32d1784eb56a66dfb9d915b3aabd2bb0dca01b8e3ee2",
    "repro.analysis":
        "7f64903a75d59ce4e8a3b4bbe43b4b0fdcb6a740e352c87317cfd3f83426770c",
    "repro.serve":
        "199b2caf9f1a39b3d6f41cf93b33298bf295fb2fca57023f10b4799e11e055a8",
    "repro.sim":
        "23e11e4075051e3be874a415b9e4e5dbab739f862fd109eef485f7c291f89f9f",
}

#: The module defining each exported value that has no ``__module__``.
CONSTANTS = {
    "DEVICES": "repro.arch.turing", "RTX2070": "repro.arch.turing",
    "T4": "repro.arch.turing", "V100": "repro.arch.turing",
    "A100": "repro.arch.turing", "GENERATIONS": "repro.arch.family",
    "SM70": "repro.arch.family", "SM75": "repro.arch.family",
    "SM80": "repro.arch.family", "WARP_LANES": "repro.arch.registers",
    "JOB_KINDS": "repro.serve.jobs", "PROTOCOL_VERSION": "repro.serve.daemon",
    "ALU_LATENCY": "repro.sim.timing", "__version__": "repro",
}

#: Exports that share their submodule's name.
SHARED = (("repro.core", "hgemm"), ("repro.core", "igemm"),
          ("repro.analysis", "autotune"), ("repro.analysis", "occupancy"))

#: SHA-256 of ``repro [COMMAND] --help`` at ``COLUMNS=80``.
HELP_SHA256 = {
    "": "f62581d5a27710d0efea9406e4dddac848f9fcc62609660d24871e56c3cafbea",
    "tables": "6488a4b8b67ca66d2100878b180a6007c04ff9ae0f9cea1a6f0571d13fecf84c",
    "roofline":
        "f381c4f64edeed402c088c88791b72afb14e7ff3eb1b7bae9244c8d75bba78ee",
    "sweep": "3c1f1937a770c3290b5b0107fe5a575327dfd94709195236ae2ad4d5980843f3",
    "hgemm": "24f139eccc654d0bce5c8535199fad36f1a7135051b611e46fcd728ba0d56d4d",
    "igemm": "d4a7d355f97fbc7c3bf27d0e7fd94b67e38344a516eadfcf417346486dfbe2bf",
    "autotune":
        "7a797ee27c18352c6991514f4441b3551b4a715366c407bcbb4383772e261bd9",
    "perfstats":
        "13b70ab7036a325d94cd17cef5a39d12d02dc7b62411a4cd59161dbd14743c93",
    "analyze":
        "7dc5884fe1295bd8a9a374f1450906aa0aef1772d8197da6e1718f55014b37cc",
    "verify": "ca95ee983551f9cabc0118dbcfbf4e96c1f81c93305e6b83075370effecc4b65",
    "workloads":
        "0944ab274adceb691814c48ed1ef86016f6f7a2c08aa41fe1e3a1002f561f82e",
    "numerics":
        "161d792fb3ce091cba8d9502f10c4f48aa4b6e4265fa13b9807f26ca290ac491",
    "devices":
        "facbe00d45133fa9f282bd55ba234f5cfe9917a56307dadedd851bfa299c12d3",
    "doctor": "5158d8adba47b5b5a00b2d533303965a9245a0b32d39de797b352ca37070005c",
    "serve": "09dd3c8f12564905c03600779baad6866857af7275ec13185d209cf1241da4f6",
    "disasm": "858d85233e5cc54e38277ef8c8c5df3761a5f2b40bf2b04b87f01f246e0e1e44",
}


def _env(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path))
    return env


def _loaded(tmp_path, code):
    """Modules a fresh interpreter has loaded after running *code*."""
    listing = tmp_path / "modules.txt"
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         f"open({str(listing)!r}, 'w').write('\\n'.join(sys.modules))"],
        env=_env(tmp_path), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return set(listing.read_text().splitlines())


def _cli(*argv):
    """Code that runs ``python -m repro *argv*`` and expects exit 0."""
    return ("import runpy, sys\n"
            f"sys.argv[1:] = {list(argv)!r}\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code")


class TestFootprint:
    def test_import_repro_loads_no_numpy_and_no_simulator(self, tmp_path):
        loaded = _loaded(tmp_path, "import repro")
        assert "repro" in loaded
        assert "numpy" not in loaded
        assert not {name for name in loaded if name.startswith("repro.sim")}

    @pytest.mark.parametrize("code", [
        pytest.param(_cli("--help"), id="help"),
        pytest.param(_cli("devices"), id="devices"),
        pytest.param("import repro.serve.client", id="serve-client")])
    def test_loads_no_numpy(self, tmp_path, code):
        loaded = _loaded(tmp_path, code)
        assert "repro.knobs" in loaded
        assert "numpy" not in loaded

    @pytest.mark.parametrize("argv", [
        ["hgemm", "64", "64", "32"], ["numerics", "--ks", "32,256"]],
        ids=["hgemm", "numerics"])
    def test_remote_job_verb_loads_no_numpy(self, argv, cache_enabled):
        from repro.serve import ServeDaemon

        tmp_path = cache_enabled
        daemon = ServeDaemon(str(tmp_path / "footprint.sock"))
        daemon.start()
        try:
            loaded = _loaded(tmp_path, _cli(*argv, "--remote",
                                            daemon.socket_path))
        finally:
            daemon.stop()
        assert "repro.serve.client" in loaded
        assert "numpy" not in loaded
        assert not {name for name in loaded if name.startswith("repro.sim")}

    def test_shared_names_stay_functions(self, tmp_path):
        """Importing ``repro.core.hgemm`` first must not turn the
        package's ``hgemm`` into the module."""
        probe = "\n".join(
            [f"import {package}.{name}" for package, name in SHARED]
            + ["import inspect, repro",
               "from repro.core import hgemm",
               "assert inspect.isfunction(hgemm)",
               "assert inspect.isfunction(repro.hgemm)"]
            + [f"assert inspect.isfunction({package}.{name})"
               for package, name in SHARED])
        assert "repro.core.hgemm" in _loaded(tmp_path, probe)


#: Starts one thread per job kind that loads the simulators, releases
#: them together, and prints each failed job's error.
_KINDS_AT_ONCE = """
import threading
from repro.core.config import ours
from repro.serve.jobs import config_to_dict, run_job

config = config_to_dict(ours())
payloads = {
    "sweep": {"spec": {"device": "RTX2070"}, "config": config,
              "sizes": [1024]},
    "hgemm": {"m": 64, "n": 64, "k": 16},
    "igemm": {"m": 64, "n": 64, "k": 32},
    "verify": {"config": config, "seeds": 1},
    "workloads": {"suite": "smoke"},
    "numerics": {"ks": [32, 256]},
}
barrier = threading.Barrier(len(payloads))

def run(kind):
    barrier.wait(timeout=60)
    try:
        run_job(kind, payloads[kind])
    except Exception as exc:
        print(f"{kind}: {type(exc).__name__}: {exc}")

threads = [threading.Thread(target=run, args=(kind,)) for kind in payloads]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=300)
    assert not thread.is_alive()
"""


class TestFirstImportRace:
    def test_job_kinds_started_together_all_succeed(self, tmp_path):
        """Jobs of every simulating kind, started at once in a fresh
        interpreter, race their first imports of ``repro.sim``: none may
        read a partly initialised module."""
        done = subprocess.run([sys.executable, "-c", _KINDS_AT_ONCE],
                              env=_env(tmp_path), capture_output=True,
                              text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout == "", done.stdout


class TestSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_are_their_defining_modules_objects(self, package):
        module = importlib.import_module(package)
        names = sorted(module.__all__)
        assert (hashlib.sha256("\n".join(names).encode()).hexdigest()
                == ALL_SHA256[package])
        assert set(names) <= set(dir(module))
        for name in names:
            value = getattr(module, name)
            assert not isinstance(value, types.ModuleType), name
            defining = CONSTANTS.get(name) or value.__module__
            assert defining.startswith(package), name
            assert getattr(sys.modules[defining], name) is value, name

    def test_star_import(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["hgemm"] is repro.core.hgemm

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.core.nope

    @pytest.mark.parametrize("command", sorted(HELP_SHA256))
    def test_help_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as done:
            main([command, "--help"] if command else ["--help"])
        assert done.value.code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]

    def test_every_command_has_pinned_help(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert set(sub.choices) | {""} == set(HELP_SHA256)
