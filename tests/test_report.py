"""report.document_json: its bytes, and its errors against json.dumps(...,
indent=2, allow_nan=False)."""
import json
import math

import numpy as np
import pytest

from semiphoton import __version__
from semiphoton.report import document_json


def reference(config, body):
    doc = {"meta": {"version": __version__, "config": config}, **body}
    return json.dumps(doc, indent=2, allow_nan=False)


# A small nested document: meta first, then the body's keys in their order,
# a two-space indent, a tuple as a list, non-ASCII escaped.
PINNED = """{
  "meta": {
    "version": "%s",
    "config": {
      "units": "natural",
      "zeta": 1.0
    }
  },
  "b": [
    1,
    -0.0,
    {
      "c": null
    }
  ],
  "a": [
    2
  ],
  "d": "\\u00e9",
  "e": true
}""" % __version__

# Empty containers inline, also nested and under an empty config.
EMPTY_AND_NESTED = """{
  "meta": {
    "version": "%s",
    "config": {}
  },
  "a": [],
  "b": {},
  "c": [],
  "d": [
    [],
    {},
    [
      {}
    ]
  ],
  "e": {
    "f": [
      1
    ]
  }
}""" % __version__


def test_document_json_is_json_dumps_with_indent():
    body = {"b": [1, -0.0, {"c": None}], "a": (2,), "d": "\u00e9",
            "e": True}
    assert document_json({"units": "natural", "zeta": 1.0}, body) == PINNED


def test_empty_containers_and_nesting():
    body = {"a": [], "b": {}, "c": (), "d": [[], {}, [{}]], "e": {"f": [1]}}
    assert document_json({}, body) == EMPTY_AND_NESTED


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
