"""``serialize.json_text`` is ``json.dumps(doc, indent=2, sort_keys=True,
allow_nan=False)`` and a newline, byte for byte, on every document doflab
builds and on generated ones; it refuses what doflab never writes."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doflab import serialize
from doflab.regions import achievability_plan
from doflab.serialize import json_text
from test_golden import PLANS, _run_cli, _runs


def stdlib_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


STRINGS = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80é€ \U0001f600\U00010000')),
)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e308, -1.7976931348623157e308,
                     0.1, 1e16, 123456789012345680.0]),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), STRINGS,
    st.integers(), st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    FLOATS, FLOATS.map(np.float64),
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(STRINGS, children, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
@example({})
@example([])
@example(())
@example({"": [{}, [], ()], "a": {"b": [[[]]]}})
@example([np.float64(-0.0), np.float64(1e308), np.float64(5e-324), -0.0])
@example({"q\"uo\\te": "\x00\x1f\x7f é \U0001f600", "\U0001f600": -(10 ** 500)})
@example([True, False, None, 0, -1, 2 ** 64])
def test_json_text_is_the_stdlib_text(doc):
    assert json_text(doc) == stdlib_text(doc)


def test_json_text_matches_on_every_golden_document(tmp_path, monkeypatch):
    docs = []

    def recorded(doc):
        docs.append(doc)
        return stdlib_text(doc)

    monkeypatch.setattr(serialize, "json_text", recorded)
    for i, (name, argv, fmt, _) in enumerate(_runs()):
        if fmt in ("json", None):
            out_dir = tmp_path / str(i)
            out_dir.mkdir()
            _run_cli(name, argv, fmt, out_dir)
    docs += [serialize.plan_document(achievability_plan(m, n, target)) for m, n, target in PLANS.values()]
    monkeypatch.undo()
    assert len(docs) == sum(fmt in ("json", None) for _, _, fmt, _ in _runs()) + len(PLANS)
    for doc in docs:
        assert json_text(doc) == stdlib_text(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan"),
                                   np.float64("-inf")], ids=["nan", "inf", "-inf", "np-nan", "np-inf"])
def test_json_text_refuses_out_of_range_floats(value):
    for doc in (value, [1, value], {"a": {"b": (value,)}}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            stdlib_text(doc)
        with pytest.raises(ValueError, match="not JSON compliant"):
            json_text(doc)


@pytest.mark.parametrize("value", [{1, 2}, np.int64(3), object(), b"bytes"],
                         ids=["set", "np-int64", "object", "bytes"])
def test_json_text_refuses_other_types(value):
    for doc in (value, [value], {"a": value}):
        with pytest.raises(TypeError):
            stdlib_text(doc)
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_text(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {None: 0}, {"a": {2.5: []}}, {"a": 1, 2: "b"}, {("t",): 1}],
                         ids=["int", "none", "nested-float", "mixed", "tuple"])
def test_json_text_refuses_keys_that_are_not_str(doc):
    with pytest.raises(TypeError):
        json_text(doc)
