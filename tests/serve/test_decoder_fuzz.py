"""Property test: the job-payload decoders refuse only with ``ConfigError``.

``spec_from_dict``, ``config_from_dict`` and ``options_from_dict`` read
dicts a client sent.  Starting from valid dicts (registry devices, every
feasible autotune candidate, the default options), fields are set to
arbitrary JSON-like values, deleted or added.  Each result either
decodes to an object whose ``*_to_dict`` gives every given field back
(and decodes again to the same object), or raises
:class:`~repro.core.config.ConfigError` -- never another exception type.
"""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.analysis import PerfOptions
from repro.analysis.autotune import candidate_space
from repro.arch.turing import DEVICES
from repro.core.config import ConfigError
from repro.serve.jobs import (
    config_from_dict,
    config_to_dict,
    options_from_dict,
    options_to_dict,
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


_OPTIONS_FIELDS = sorted(options_to_dict(PerfOptions()))


@settings(max_examples=300, deadline=None)
@given(_mutated([options_to_dict(PerfOptions())], _OPTIONS_FIELDS))
def test_options_decode_or_refuse(data):
    _check(options_from_dict, options_to_dict, data)


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


@given(st.one_of(_SCALARS, st.lists(_VALUES, max_size=2)))
def test_non_dicts_are_refused(data):
    for decode in (spec_from_dict, config_from_dict, options_from_dict):
        try:
            decode(data)
        except ConfigError:
            continue
        raise AssertionError(f"{decode.__name__} accepted {data!r}")
