"""Absolute cache and job keys, pinned.

A key that moves orphans every result stored under it and splits
coalescing between clients of different versions, yet the cache tests
only compare keys with each other.  The SM-profile key hashes the
profile depths ``perf_model.PROFILE_ITERS``, ``(2, 6)``, which must keep
serialising as they do.
"""

from collections import OrderedDict

import repro.cli as cli
from repro.analysis import PerformanceModel
from repro.arch import RTX2070
from repro.core import ours
from repro.perf.cache import PROFILE_CACHE
from repro.serve.jobs import job_key

#: What ``PerformanceModel(RTX2070).sm_profile(ours())`` stores under: the
#: profile, then its two timing-run legs.
PROFILE_KEYS = {
    "48679a75216318a5f240da87f562c91dfbbca4f01417f4264d0490d4b8d69d94",
    "6d28eddf940aa9feaf208287d44c3bf6038e784642c564ecca04cbc379004db4",
    "bb7590776763ed013bbb11c6b435c7680f2741bbf5dabd665362356f94141781",
}

#: Job keys of the default ``repro sweep`` payloads: ours, cuBLAS-like.
SWEEP_JOB_KEYS = [
    "82cec9d501168c2e2e70a73407c18c9f0865aab5b4f36a3a92d31800a45966f0",
    "60cf3ce68c4ef7885d2415c41df7b1cef6c7095b3dbc77efb526c69884b73083",
]


def test_sm_profile_is_stored_under_its_pinned_keys(cache_enabled,
                                                    monkeypatch):
    # A private memory layer: a profile another test measured must not
    # answer the lookups that store these entries.
    monkeypatch.setattr(PROFILE_CACHE, "_memory", OrderedDict())
    PerformanceModel(RTX2070).sm_profile(ours())
    stored = {path.stem for path in PROFILE_CACHE._root().glob("*.json")}
    assert stored == PROFILE_KEYS


def test_default_sweep_jobs_have_their_pinned_keys(monkeypatch):
    sent = []

    def capture(args, payloads, show):
        sent.extend(payloads)
        return 0

    monkeypatch.setattr(cli, "_run_jobs", capture)
    assert cli.main(["sweep"]) == 0
    assert [job_key("sweep", payload) for payload in sent] == SWEEP_JOB_KEYS
