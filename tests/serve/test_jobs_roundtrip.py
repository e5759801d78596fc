"""Dataclass round-trips across the serve JSON protocol.

GpuSpec / KernelConfig dicts feed the coalescing keys, so a lossy trip
would split cache identities between client and daemon.  Registry devices
travel by *name* (stable across recalibrations); custom specs travel as
full dicts and must rebuild their nested ``MemoryCpiTable`` and
``ArchSpec`` values.
"""

import dataclasses
import json

import pytest

from repro.arch.family import SM70
from repro.arch.turing import A100, RTX2070, T4, V100
from repro.core.config import ConfigError, ours
from repro.serve.jobs import (
    config_from_dict,
    config_to_dict,
    options_from_dict,
    options_to_dict,
    spec_from_dict,
    spec_to_dict,
)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", [RTX2070, T4, V100, A100],
                             ids=lambda s: s.name)
    def test_registry_device_travels_by_name(self, spec):
        data = spec_to_dict(spec)
        assert data == {"device": spec.name}
        json.dumps(data)  # must be JSON-serialisable
        assert spec_from_dict(data) == spec

    def test_unknown_device_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown device 'H100'"):
            spec_from_dict({"device": "H100"})

    def test_unknown_device_error_lists_known(self):
        with pytest.raises(ValueError, match="A100.*RTX2070.*T4.*V100"):
            spec_from_dict({"device": "GTX480"})

    def test_device_with_overrides_is_refused(self):
        with pytest.raises(ValueError, match=r"\['num_sms'\].*full spec dict"):
            spec_from_dict({"device": "RTX2070", "num_sms": 10})

    def test_custom_spec_travels_as_full_dict(self):
        custom = dataclasses.replace(V100, name="V100-underclocked",
                                     clock_ghz=1.2)
        data = spec_to_dict(custom)
        assert "device" not in data
        assert data["arch"]["name"] == "volta"
        rebuilt = spec_from_dict(json.loads(json.dumps(data)))
        assert rebuilt == custom
        assert rebuilt.arch == SM70
        # Nested tables must come back as real dataclasses, not dicts.
        assert rebuilt.lds_cpi.cpi(64) == custom.lds_cpi.cpi(64)

    @pytest.mark.parametrize("fields,message", [
        ({"device": 7}, "spec device must be a registry device name (a str), got 7"),
        ({"device": None}, "spec device must be a registry device name (a str), got None"),
        ({"num_sms": "forty"}, "GpuSpec.num_sms must be an int, got 'forty'"),
        ({"num_sms": None}, "GpuSpec.num_sms must be set"),
        ({"color": "red"}, "GpuSpec has no field 'color'"),
        ({"arch": "turing"}, "GpuSpec.arch must be a dict of ArchSpec fields, got 'turing'"),
        ({"arch": {"sm_version": "70"}}, "ArchSpec.sm_version must be an int, got '70'"),
        ({"arch": {"supports_imma": 1}}, "ArchSpec.supports_imma must be a bool, got 1"),
        ({"lds_cpi": {"cpi64": "x"}}, "MemoryCpiTable.cpi64 must be a real number, got 'x'"),
    ])
    def test_malformed_spec_is_refused_by_name(self, fields, message):
        """A full spec dict (V100's) with *fields* merged in -- ``None``
        deletes a field -- or a device form is refused by name."""
        if "device" in fields:
            data = fields
        else:
            data = spec_to_dict(dataclasses.replace(V100, name="custom"))
            for name, value in fields.items():
                if isinstance(value, dict):
                    data[name] = {**data[name], **value}
                elif value is None:
                    del data[name]
                else:
                    data[name] = value
        with pytest.raises(ConfigError) as err:
            spec_from_dict(data)
        assert str(err.value) == message

    def test_renamed_registry_spec_is_not_collapsed(self):
        # A custom spec that merely *shares* a registry name but differs
        # in content must not be silently replaced by the registry entry.
        tweaked = dataclasses.replace(RTX2070, num_sms=20)
        data = spec_to_dict(tweaked)
        assert "device" not in data
        assert spec_from_dict(data) == tweaked


class TestConfigRoundTrip:
    def test_config_survives_json(self):
        cfg = ours()
        rebuilt = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert rebuilt == cfg

    @pytest.mark.parametrize("fields,name", [
        ({"b_m": 128.0, "w_m": 64.0}, "b_m"),   # equal to, hashed as, ints
        ({"b_m": "x"}, "b_m"),
        ({"sts_interleave": 2.5}, "sts_interleave"),
        ({"w_k": True}, "w_k"),
        ({"prefetch": "no"}, "prefetch"),
        ({"accum_f32": 0}, "accum_f32"),
    ])
    def test_mistyped_field_is_refused_by_name(self, fields, name):
        with pytest.raises(ConfigError, match=rf"KernelConfig\.{name} must be"):
            config_from_dict(fields)


class TestOptionsRoundTrip:
    def test_options_survive_json(self):
        from repro.analysis import PerfOptions

        options = PerfOptions(cliff_devices=("RTX2070", "T4"),
                              profile_iters=(3, 7))
        data = json.loads(json.dumps(options_to_dict(options)))
        assert options_from_dict(data) == options

    @pytest.mark.parametrize("fields,message", [
        ({"profile_iters": "ab"}, "profile_iters must be a tuple of ints, got 'ab'"),
        ({"profile_iters": [2.0, 6]}, "profile_iters must be a tuple of ints, got (2.0, 6)"),
        ({"profile_iters": [2, True]}, "profile_iters must be a tuple of ints, got (2, True)"),
        ({"cliff_devices": "RTX2070"}, "cliff_devices must be a tuple of strs, got 'RTX2070'"),
        ({"cliff_devices": [7]}, "cliff_devices must be a tuple of strs, got (7,)"),
        ({"l2_reuse_eta": "x"}, "l2_reuse_eta must be a real number, got 'x'"),
        ({"drift_max": False}, "drift_max must be a real number, got False"),
    ])
    def test_mistyped_field_is_refused_by_name(self, fields, message):
        with pytest.raises(ConfigError) as err:
            options_from_dict(fields)
        assert str(err.value) == f"PerfOptions.{message}"
