"""Worker faults for the crash-salvage tests.

Nothing in ``src/`` injects faults.  A test that needs a worker process
to die passes a task function that calls one of these to
``parallel_map``, or puts such a function over a module-level worker
function (``perf_model._profile_worker``) before the pool starts.  They kill pool workers only, never the process that
runs the test, where ``parallel_map`` runs its serial fallback.
"""

import multiprocessing
import os

#: Environment variable naming the marker file of :func:`crash_once`
#: (set by the ``worker_faults`` fixture).
MARKER = "CRASH_ONCE_MARKER"


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def crash_once() -> None:
    """Kill the calling worker the first time any worker calls this.

    The one worker that dies first creates the marker file atomically,
    so the crash fires once across processes; with the variable unset
    nothing happens."""
    path = os.environ.get(MARKER)
    if not path or not _in_worker():
        return
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return
    os._exit(13)


def crash_always() -> None:
    """Kill the calling worker, every time."""
    if _in_worker():
        os._exit(13)
