"""Property test: the job-payload decoders refuse only with ``ConfigError``.

``spec_from_dict`` and ``config_from_dict`` read dicts a client sent.
Starting from valid dicts (registry devices, every feasible autotune
candidate), fields are set to arbitrary JSON-like values, deleted or
added.  Each result either
decodes to an object whose ``*_to_dict`` gives every given field back
(and decodes again to the same object), or raises
:class:`~repro.core.config.ConfigError` -- never another exception type.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.autotune import candidate_space
from repro.arch.turing import DEVICES
from repro.core.config import ConfigError
from repro.serve.jobs import (
    config_from_dict,
    config_to_dict,
    spec_from_dict,
    spec_to_dict,
)

_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.sampled_from([0, -1, 1, 2, 3, 6, 8, 16, 32, 64, 128, 256]),
    st.integers(-2**40, 2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.5, 0.5, 1.0, 1.5]),
    st.text(max_size=6), st.sampled_from(["row", "supertile", "f16", "s8"]),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), _SCALARS, max_size=2),
)


def _canon(value) -> str:
    """JSON text of *value*: lists and tuples alike, NaN equal to NaN."""
    return json.dumps(value, sort_keys=True)


@st.composite
def _mutated(draw, bases, names):
    data = dict(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(names + ["bogus", 1]))
        if draw(st.integers(0, 5)) == 0:
            data.pop(name, None)
        else:
            data[name] = draw(_VALUES)
    return data


def _check(decode, encode, data):
    try:
        obj = decode(data)
    except ConfigError:
        return
    again = encode(obj)
    assert _canon(encode(decode(again))) == _canon(again)
    if "device" in data:
        assert again == {"device": obj.name}
        assert obj.name.lower() == data["device"].lower()
    elif "device" not in again:
        for name, value in data.items():
            assert _canon(again[name]) == _canon(value), name


_CONFIGS = [config_to_dict(config) for spec in DEVICES.values()
            for config in candidate_space(spec)]
_CONFIG_FIELDS = sorted(_CONFIGS[0])


@settings(max_examples=300, deadline=None)
@given(_mutated(_CONFIGS, _CONFIG_FIELDS))
def test_config_decodes_or_refuses(data):
    _check(config_from_dict, config_to_dict, data)


_SPECS = [spec_to_dict(dataclasses.replace(spec, name="custom"))
          for spec in DEVICES.values()]
_SPEC_FIELDS = sorted(_SPECS[0]) + ["device"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _mutated(_SPECS, _SPEC_FIELDS),
    _mutated([{"device": name} for name in DEVICES] + [{"device": "t4"}],
             ["device"]),
))
def test_spec_decodes_or_refuses(data):
    _check(spec_from_dict, spec_to_dict, data)


#: Values no device can have, each set on every custom spec dict.
_IMPOSSIBLE = [
    ("clock_ghz", float("nan")), ("clock_ghz", float("inf")),
    ("dram_measured_gbps", -5), ("hmma_cpi", 0), ("l2_bytes", -1),
    ("mio_queue_depth", 0), ("smem_banks", 0), ("ldg_latency_cycles", -3),
    ("kernel_launch_overhead_us", float("-inf")),
]


@pytest.mark.parametrize("name,value", _IMPOSSIBLE)
def test_impossible_spec_values_are_refused_by_name(name, value):
    for data in _SPECS:
        with pytest.raises(ConfigError, match=rf"^GpuSpec\.{name} must be a "
                                              r"finite number >=? 0, got "):
            spec_from_dict({**data, name: value})


#: (device, arch fields) no Tensor Core generation can have, each set on
#: that device's custom spec dict, and the field the refusal names.
_IMPOSSIBLE_ARCH = [
    ("V100", {"fma_per_tc_cycle": -64}, "fma_per_tc_cycle"),
    ("V100", {"measured_hmma_cpi": float("nan")}, "measured_hmma_cpi"),
    ("V100", {"sm_version": -1}, "sm_version"),
    ("V100", {"hmma_m": 0, "hmma_n": 0, "hmma_k": 0, "a_regs": 0,
              "b_regs": 0, "c_regs_f16": 0}, "hmma_m"),
    # 0 only where there is no F32-accumulate form (Volta's registry value).
    ("RTX2070", {"c_regs_f32": 0}, "c_regs_f32"),
]


@pytest.mark.parametrize("device,arch,name", _IMPOSSIBLE_ARCH)
def test_impossible_arch_values_are_refused_by_name(device, arch, name):
    data = spec_to_dict(dataclasses.replace(DEVICES[device], name="custom"))
    with pytest.raises(ConfigError, match=rf"^ArchSpec\.{name} must be a "
                                          r"finite number > 0, got "):
        spec_from_dict({**data, "arch": {**data["arch"], **arch}})


@pytest.mark.parametrize("cpi", [0.0, -1.0, float("nan")])
def test_impossible_memory_cpi_is_refused_by_name(cpi):
    data = {**_SPECS[0], "lds_cpi": {**_SPECS[0]["lds_cpi"], "cpi64": cpi}}
    with pytest.raises(ConfigError, match=r"^MemoryCpiTable\.cpi64 must be a "
                                          r"finite number > 0, got "):
        spec_from_dict(data)


@pytest.mark.parametrize("name", ["dram_peak_gbps", "dram_measured_gbps",
                                  "l2_measured_gbps", "tensor_tflops",
                                  "fp16_tflops"])
def test_zero_stays_allowed_where_it_is_the_default(name):
    """A figure whose default is 0 (left unmeasured) may be 0."""
    assert getattr(spec_from_dict({**_SPECS[0], name: 0}), name) == 0


@given(st.one_of(_SCALARS, st.lists(_VALUES, max_size=2)))
def test_non_dicts_are_refused(data):
    for decode in (spec_from_dict, config_from_dict):
        try:
            decode(data)
        except ConfigError:
            continue
        raise AssertionError(f"{decode.__name__} accepted {data!r}")
