"""Deterministic fault injection (``REPRO_CHAOS``).

The robustness pillars -- the divergence watchdog, the supervised worker
pool and the cache integrity layer -- all exist to survive failures that
are rare and hard to reproduce.  This module makes those failures *cheap*
to reproduce: every directive is deterministic (no randomness, no wall
clock), so a chaos run either recovers bit-identically to a fault-free
run or fails the same way every time.

``REPRO_CHAOS`` is a comma-separated list of ``name:value`` directives
(:data:`repro.knobs.CHAOS_DIRECTIVES`; an unknown name or a value that is
not a number >= 0 raises a ``ValueError`` naming the variable):

``crash_task:N``
    The supervised worker that picks up task *N* (first attempt only)
    dies with ``os._exit`` before running it.  The retry runs clean, so
    the supervisor's recovery path is exercised exactly once per pool.
``crash_task_always:N``
    Every worker attempt at task *N* dies -- exhausts the retry budget
    and forces the supervisor's in-process serial last rung.  The serial
    rung never consults this directive (it models worker-side death).
``delay_task:N`` (with optional ``delay_seconds:S``, default 5)
    The worker sleeps *S* seconds before running task *N*'s first
    attempt, tripping the per-task timeout; the retry runs clean.
``corrupt_entry:K``
    The *K*-th cache entry written to disk by this process is corrupted
    in place after the atomic rename, so the next cold read must detect
    it (checksum mismatch -> quarantine + miss).
``flip_output:C``
    Flips one bit of the simulated memory image after each of the first
    *C* guarded engine runs -- a synthetic fast-engine bug for the
    divergence watchdog to catch.  Only fires on runs the guard is
    watching, so it never silently corrupts unguarded results.

Counters (how many times a directive has fired) are per-process; worker
processes inherit the environment and start their own counters, which is
what makes ``crash_task`` crash each supervised pool at most once per
worker generation.  :func:`reset` clears the counters for tests.
"""

from __future__ import annotations

import os
import time

from .. import knobs

__all__ = [
    "reset",
    "maybe_crash_worker",
    "maybe_delay_task",
    "maybe_corrupt_entry",
    "maybe_flip_output",
]

#: Per-process fire counts, keyed by directive name.
_fired: dict = {}


def reset() -> None:
    """Clear the per-process fire counters (test isolation)."""
    _fired.clear()


# ------------------------------------------------------------ worker faults

def should_crash(task_id: int, attempt: int) -> bool:
    """Decision half of :func:`maybe_crash_worker`, separated for tests."""
    spec = knobs.read("REPRO_CHAOS")
    if spec.get("crash_task_always") == task_id:
        return True
    return attempt == 0 and spec.get("crash_task") == task_id


def maybe_crash_worker(task_id: int, attempt: int) -> None:
    """Die abruptly (``os._exit``) if a crash directive targets this task.

    Called from the supervised worker loop *before* the task function, so
    a crash models an OOM kill / segfault mid-task, not a Python
    exception (those propagate through the normal error channel).
    """
    if should_crash(task_id, attempt):
        os._exit(13)


def maybe_delay_task(task_id: int, attempt: int) -> None:
    """Sleep past the per-task timeout if a delay directive targets us."""
    spec = knobs.read("REPRO_CHAOS")
    if attempt == 0 and spec.get("delay_task") == task_id:
        time.sleep(spec.get("delay_seconds", 5.0))


# ------------------------------------------------------------- cache faults

def maybe_corrupt_entry(path) -> bool:
    """Corrupt the on-disk entry at *path* if it is the targeted store.

    Counts every disk store this process performs; when the count matches
    ``corrupt_entry:K`` the file's leading bytes are overwritten so the
    envelope checksum can no longer verify.  Returns True when it fired.
    """
    target = knobs.read("REPRO_CHAOS").get("corrupt_entry")
    if target is None:
        return False
    index = _fired.get("corrupt_entry", 0)
    _fired["corrupt_entry"] = index + 1
    if index != target:
        return False
    try:
        with open(path, "r+b") as fh:
            fh.write(b"\x00CHAOS\x00")
    except OSError:
        return False
    return True


# ------------------------------------------------------------ engine faults

def maybe_flip_output(words) -> bool:
    """Flip one bit of a guarded run's memory image (``flip_output:C``).

    *words* is the simulator's uint32 memory view; the flipped word sits
    a third of the way in, away from both the zero-filled tail and any
    operand region at offset 0.  Fires at most *C* times per process.
    """
    count = knobs.read("REPRO_CHAOS").get("flip_output", 0)
    if count <= 0:
        return False
    fired = _fired.get("flip_output", 0)
    if fired >= count:
        return False
    _fired["flip_output"] = fired + 1
    words[len(words) // 3] ^= 1
    return True
