"""Every ``REPRO_*`` environment knob, declared once.

A knob is a process-wide setting: worker processes and a daemon's job
threads inherit the environment, so one variable reaches every simulator
a command builds.  None of them changes a reported number -- the fast
engines are pinned bit-identical to their reference twins, and the
cache, supervisor and daemon knobs change how work is done, not what it
answers -- so each is set one way only, by its variable.

:data:`KNOBS` gives each knob's kind, default, accepted values and a
one-line doc, and :func:`read` is the one parser: an unset or empty
variable reads as the default, and a malformed value raises a
:class:`KnobError` (a ``ValueError``) that names the variable and says
what it accepts.  ``repro doctor`` lists every knob.  This module imports
only the standard library, so any module may read a knob.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Knob", "KnobError", "KNOBS", "CHAOS_DIRECTIVES", "accepted",
           "environment", "read"]


class KnobError(ValueError):
    """A ``REPRO_*`` variable holds a value its knob does not accept."""


@dataclass(frozen=True)
class Knob:
    """One environment knob.

    *kind* names the parser: ``choice`` (one of the *accepts* tuple),
    ``number`` (a finite number in the closed range *accepts*), ``count``
    (a whole number >= *accepts*), ``flag`` (``0`` is off, ``1`` on),
    ``path``, or ``chaos`` (:data:`CHAOS_DIRECTIVES`).
    A callable *default* is evaluated at each read.
    """

    name: str
    kind: str
    default: object
    accepts: object
    doc: str


#: ``REPRO_CHAOS`` directives (see :mod:`repro.robust.chaos`) and the
#: kind of value each takes.
CHAOS_DIRECTIVES = {
    "crash_task": "count",
    "crash_task_always": "count",
    "delay_task": "count",
    "delay_seconds": "number",
    "corrupt_entry": "count",
    "flip_output": "count",
}

_NONNEGATIVE = (0.0, math.inf)


def _default_cache_dir() -> Path:
    return Path.home() / ".cache" / "repro-sim"


def _default_socket() -> Path:
    return read("REPRO_CACHE_DIR") / "serve.sock"


KNOBS = {knob.name: knob for knob in (
    Knob("REPRO_FUNC_ENGINE", "choice", "lockstep", ("lockstep", "reference"),
         "functional simulator engine"),
    Knob("REPRO_TIMING_ENGINE", "choice", "event", ("event", "reference"),
         "cycle-level simulator engine"),
    Knob("REPRO_GUARD", "choice", "off", ("off", "sample", "full"),
         "guard mode of the divergence watchdog"),
    Knob("REPRO_GUARD_BUDGET", "number", 0.05, (0.0, 1.0),
         "share of guarded wall time that sample mode may spend on "
         "reference re-runs"),
    Knob("REPRO_CHAOS", "chaos", dict, CHAOS_DIRECTIVES,
         "deterministic fault injection of the robustness tests"),
    Knob("REPRO_CACHE_DIR", "path", _default_cache_dir, None,
         "directory of the on-disk result cache"),
    Knob("REPRO_NO_CACHE", "flag", False, None,
         "switch that turns both result-cache layers off"),
    Knob("REPRO_CACHE_MAX_MB", "number", None, _NONNEGATIVE,
         "size bound of the on-disk result cache, in MiB"),
    # Entries, not bytes: profile payloads are small dicts, so 4096
    # entries are a few MB at most.
    Knob("REPRO_CACHE_MEM_ENTRIES", "count", 4096, 0,
         "entry bound of the in-process result cache"),
    Knob("REPRO_TASK_TIMEOUT", "number", 600.0, _NONNEGATIVE,
         "seconds a supervised worker task may run"),
    Knob("REPRO_TASK_RETRIES", "count", 2, 0,
         "extra attempts at a crashed or timed-out worker task"),
    Knob("REPRO_RETRY_BACKOFF", "number", 0.25, _NONNEGATIVE,
         "seconds before a task's first retry, doubled per retry"),
    Knob("REPRO_SERVE_SOCKET", "path", _default_socket, None,
         "unix socket of the serve daemon"),
    Knob("REPRO_SERVE_WORKERS", "count", 2, 1,
         "executor threads of the serve daemon"),
    Knob("REPRO_SERVE_QUEUE_MAX", "count", 256, 1,
         "queued-job bound of the serve daemon"),
)}


def accepted(knob: Knob) -> str:
    """What *knob* accepts, in the words its error message uses."""
    if knob.kind == "choice":
        return f"one of {knob.accepts}"
    if knob.kind == "number":
        low, high = knob.accepts
        if high == math.inf:
            return f"a finite number >= {low:g}"
        return f"a number in [{low:g}, {high:g}]"
    if knob.kind == "count":
        return f"a whole number >= {knob.accepts}"
    if knob.kind == "chaos":
        return ("comma-separated name:N directives with names in "
                f"{tuple(knob.accepts)}")
    if knob.kind == "flag":
        return "0 (off) or 1 (on)"
    return "a path"


def _number(raw: str, low: float, high: float, whole: bool):
    """*raw* as a finite number in [low, high] (an int when *whole*), or
    None when it is not one."""
    try:
        value = float(raw)
    except ValueError:
        return None
    if not (math.isfinite(value) and low <= value <= high
            and (value.is_integer() or not whole)):
        return None
    return int(value) if whole else value


def _chaos(raw: str):
    """``name:N`` directives as ``{name: number}``, or None if malformed."""
    out = {}
    for part in raw.split(","):
        name, _, value = part.partition(":")
        name = name.strip()
        if not name and not value:
            continue
        kind = CHAOS_DIRECTIVES.get(name)
        number = kind and _number(value, 0.0, math.inf, kind == "count")
        if number is None:
            return None
        out[name] = number
    return out


def _parse(knob: Knob, raw: str):
    """*raw* as *knob*'s value, or None when *knob* does not accept it."""
    if knob.kind == "choice":
        return raw if raw in knob.accepts else None
    if knob.kind == "number":
        return _number(raw, *knob.accepts, whole=False)
    if knob.kind == "count":
        return _number(raw, knob.accepts, math.inf, whole=True)
    if knob.kind == "chaos":
        return _chaos(raw)
    if knob.kind == "flag":
        return {"0": False, "1": True}.get(raw)
    return Path(raw)


def read(name: str):
    """The value of knob *name*: its default when the variable is unset or
    empty, else the parsed value.  A value the knob does not accept
    raises :class:`KnobError` naming the variable."""
    knob = KNOBS[name]
    raw = os.environ.get(name, "")
    if not raw:
        return knob.default() if callable(knob.default) else knob.default
    value = _parse(knob, raw)
    if value is None:
        raise KnobError(f"{name} must be {accepted(knob)}, got {raw!r} "
                        f"(it sets the {knob.doc}; unset it for the default)")
    return value


def environment() -> dict:
    """The knobs set (non-empty) in this process's environment, as their
    raw strings."""
    return {name: os.environ[name] for name in KNOBS
            if os.environ.get(name)}
