"""report.document_json against json.dumps(..., indent=2, allow_nan=False)."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiphoton import __version__
from semiphoton.report import document_json

texts = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\n\t", "é€😀", " ", ""])
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e308, 2.2250738585072014e-308, 0.1])
ints = st.integers() | st.sampled_from([2 ** 64, -(2 ** 100), 10 ** 300])
leaves = (st.none() | st.booleans() | ints | floats | floats.map(np.float64)
          | texts)
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=30)


def reference(config, body):
    doc = {"meta": {"version": __version__, "config": config}, **body}
    return json.dumps(doc, indent=2, allow_nan=False)


@settings(deadline=None, max_examples=150)
@given(st.dictionaries(texts, leaves, max_size=4),
       st.dictionaries(texts, values, max_size=4))
def test_document_json_is_json_dumps_with_indent(config, body):
    assert document_json(config, body) == reference(config, body)


def test_empty_containers_and_nesting():
    body = {"a": [], "b": {}, "c": (), "d": [[], {}, [{}]], "e": {"f": [1]}}
    assert document_json({}, body) == reference({}, body)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 np.float64("nan"), np.float64("-inf")])
def test_non_finite_float_raises_value_error(bad):
    body = {"x": [1.0, {"y": bad}]}
    with pytest.raises(ValueError) as want:
        reference({}, body)
    with pytest.raises(ValueError) as got:
        document_json({}, body)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [object(), 1j, np.int64(1)])
def test_other_type_raises_type_error(bad):
    body = {"x": ["a", bad]}
    with pytest.raises(TypeError) as want:
        reference({}, body)
    with pytest.raises(TypeError) as got:
        document_json({}, body)
    assert str(got.value) == str(want.value)
