"""Every ``REPRO_*`` environment knob, declared once.

A knob is a process-wide setting: worker processes and a daemon's job
executor inherit the environment, so one variable reaches every simulator
a command builds.  None of them changes a reported number -- the fast
engines are pinned bit-identical to their reference twins, and the
cache and daemon knobs change how work is done, not what it answers --
so each is set one way only, by its variable.

:data:`KNOBS` gives each knob's kind, default, accepted values and a
one-line doc, and :func:`read` is the one parser: an unset or empty
variable reads as the default, and a malformed value raises a
:class:`KnobError` (a ``ValueError``) that names the variable and says
what it accepts.  ``repro doctor`` lists every knob.  This module imports
only the standard library, so any module may read a knob.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Knob", "KnobError", "KNOBS", "accepted", "environment", "read"]


class KnobError(ValueError):
    """A ``REPRO_*`` variable holds a value its knob does not accept."""


@dataclass(frozen=True)
class Knob:
    """One environment knob.

    *kind* names the parser: ``choice`` (one of the *accepts* tuple),
    ``flag`` (``0`` is off, ``1`` on) or ``path``.  A callable *default*
    is evaluated at each read.
    """

    name: str
    kind: str
    default: object
    accepts: object
    doc: str


def _default_cache_dir() -> Path:
    return Path.home() / ".cache" / "repro-sim"


def _default_socket() -> Path:
    return read("REPRO_CACHE_DIR") / "serve.sock"


KNOBS = {knob.name: knob for knob in (
    Knob("REPRO_FUNC_ENGINE", "choice", "lockstep", ("lockstep", "reference"),
         "functional simulator engine"),
    Knob("REPRO_TIMING_ENGINE", "choice", "event", ("event", "reference"),
         "cycle-level simulator engine"),
    Knob("REPRO_CACHE_DIR", "path", _default_cache_dir, None,
         "directory of the on-disk result cache"),
    Knob("REPRO_NO_CACHE", "flag", False, None,
         "switch that turns both result-cache layers off"),
    Knob("REPRO_SERVE_SOCKET", "path", _default_socket, None,
         "unix socket of the serve daemon"),
)}


def accepted(knob: Knob) -> str:
    """What *knob* accepts, in the words its error message uses."""
    if knob.kind == "choice":
        return f"one of {knob.accepts}"
    if knob.kind == "flag":
        return "0 (off) or 1 (on)"
    return "a path"


def _parse(knob: Knob, raw: str):
    """*raw* as *knob*'s value, or None when *knob* does not accept it."""
    if knob.kind == "choice":
        return raw if raw in knob.accepts else None
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
    """The ``REPRO_*`` variables set (non-empty) in this process's
    environment, as their raw strings.  A name not in :data:`KNOBS` (a
    removed or misspelt knob) is read by nothing."""
    return {name: raw for name, raw in os.environ.items()
            if name.startswith("REPRO_") and raw}
