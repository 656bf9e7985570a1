"""The JSON report emitter against ``json.dumps``.

`cli.emit_report` writes JSON with its own small recursion, which must give
the bytes of ``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)``
for every value a command may return, including the ones a reparsed report
cannot hold (tuples, non-string keys, numpy floats), and raise the same
error type for the ones it refuses.
"""

import enum
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta import cli

BETAS = {
    "cubic": "poly:-1,-1,0,1;interval:1,2",
    "base 2": "poly:-2,1;interval:1,3",
    "x^2-x-1": "poly:-1,-1,1;interval:1,2",
}


class Level(enum.IntEnum):
    LOW = 1


def _stdlib(value):
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


def _outcome(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-2**70, max_value=2**70),
    _finite, _finite.map(np.float64), st.text(), st.just(Level.LOW),
)
_keys = st.one_of(st.text(), st.integers(), _finite, st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        # one key type per dict sorts; a mixed one fails in both encoders
        st.sampled_from([st.integers(), _finite, st.booleans(), _keys]).flatmap(
            lambda keys: st.dictionaries(keys, children, max_size=3)),
    )


_reports = st.recursive(_scalars, _containers, max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_reports)
def test_emitter_matches_json_dumps(value):
    assert _outcome(cli._json_text, value) == _outcome(_stdlib, value)


@pytest.mark.parametrize("value", [
    math.nan, -math.inf, [1.0, math.inf], {"a": {"b": math.nan}}, {math.inf: 1},
    np.int64(3), {1, 2}, object(), {"a": [np.float32(0.5)]}, {(1, 2): 3}, {"a": 1, 2: 3},
    b"bytes",
])
def test_emitter_refuses_what_json_dumps_refuses(value):
    expected = _outcome(_stdlib, value)
    assert expected in (TypeError, ValueError)
    assert _outcome(cli._json_text, value) is expected


def test_emitter_edge_values():
    for value in ({}, [], (), "", {"": []}, {"k": {}}, [[], {}], "é \x00\"\\",
                  {"nested": {"deeper": [1, (2.5, None), {"z": True, "a": False}]}},
                  -0.0, 1e300, 5e-324, 2**200, {1.5: "x", 2.0: "y"}, {True: 1, False: 2},
                  {None: 0}):
        assert cli._json_text(value) == _stdlib(value)


def _command_results():
    """The result objects of some commands, before any emission."""
    out = []
    for name, spec in BETAS.items():
        for argv in (["graph", "--beta", spec], ["components", "--beta", spec],
                     ["spec", "--beta", spec, "--oracle-maxlen", "4"],
                     ["gbeta", "--beta", spec, "--n", "8"],
                     ["rate", "--beta", spec, "--obs", "digit1", "--a", "0.3"],
                     ["mc", "--beta", spec, "--window", "0.2:0.5", "--n", "20", "--N", "300",
                      "--seed", "1"]):
            config = cli.parse_config(argv)
            out.append((argv, cli._COMMANDS[config.command](config)))
    return out


def test_command_reports_match_json_dumps():
    for argv, result in _command_results():
        assert cli.emit_report(result, "json", None) == _stdlib(result) + "\n", argv


def test_emission_leaves_no_cycle():
    # the stdlib encoder's closures left a reference cycle per call
    results = [result for _, result in _command_results()]
    gc.collect()
    gc.disable()
    try:
        for result in results:
            cli.emit_report(result, "json", None)
        assert gc.collect() == 0
    finally:
        gc.enable()


_WITHOUT_C_ENCODER = r"""
import sys
sys.modules["_json"] = None  # a build without the C accelerator
import json
from negabeta import cli
value = {"a\u00e9\"\n": [1, 2.5, (None, True)], "b": {}, "c": {3: "\x00\u2028"}}
assert cli.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii
assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
"""


def test_emitter_without_the_c_string_encoder():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_C_ENCODER], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
