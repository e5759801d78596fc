"""The workloads/numerics serve job kinds: execution, keys, JSON safety."""

import json

import pytest

from repro.serve.jobs import JOB_KINDS, job_key, run_job


class TestWorkloadsJob:
    def test_registered_and_cacheable(self):
        assert JOB_KINDS["workloads"].cacheable

    def test_runs_smoke_suite(self):
        result = run_job("workloads", {"suite": "smoke",
                                       "spec": {"device": "RTX2070"}})
        assert result["passed"] is True
        assert result["suite"] == "smoke"
        assert result["device"] == "RTX2070"
        assert len(result["results"]) == 4
        assert all(r["exact"] for r in result["results"])
        json.dumps(result)  # the daemon ships this over JSON

    def test_key_separates_suite_and_device(self):
        base = job_key("workloads", {"suite": "smoke",
                                     "spec": {"device": "RTX2070"}})
        assert job_key("workloads", {"suite": "lstm",
                                     "spec": {"device": "RTX2070"}}) != base
        assert job_key("workloads", {"suite": "smoke",
                                     "spec": {"device": "T4"}}) != base
        assert job_key("workloads", {"suite": "smoke",
                                     "spec": {"device": "RTX2070"}}) == base

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError, match="unknown workload suite"):
            run_job("workloads", {"suite": "nope"})


class TestNumericsJob:
    def test_runs_and_is_json_safe(self):
        result = run_job("numerics", {"spec": {"device": "RTX2070"},
                                      "ks": [32, 64, 128, 256]})
        assert result["reproduced"] is True
        assert result["f16_digest"] and result["f32_digest"]
        assert "REPRODUCED" in result["summary"]
        # f16 + f32 curves, one sample per K each.
        assert len(result["samples"]) == 8
        json.dumps(result)

    def test_volta_has_no_f32_curve(self):
        result = run_job("numerics", {"spec": {"device": "V100"},
                                      "ks": [32, 64, 128, 256]})
        assert result["reproduced"] is True
        assert result["f32_digest"] is None
        assert len(result["samples"]) == 4

    def test_key_depends_on_ks_and_distribution(self):
        base = job_key("numerics", {"spec": {"device": "RTX2070"},
                                    "ks": [32, 64]})
        assert job_key("numerics", {"spec": {"device": "RTX2070"},
                                    "ks": [32, 128]}) != base
        assert job_key("numerics", {"spec": {"device": "RTX2070"},
                                    "ks": [32, 64],
                                    "distribution": "normal"}) != base
