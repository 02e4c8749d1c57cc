"""Property tests for the input layer: every parser returns a value or
raises ValueError, whatever the text, and the command line turns any spec
file into exit 0, 1 or 2, never a traceback."""

import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hallq.cli import main, parse_class_type
from hallq.gflinalg import mat_from_text
from hallq.partitions import parse_partition
from hallq.symfun import parse_rational, spec_from_dict

# arbitrary text, and text over the parsers' own alphabet
TEXTS = st.text() | st.text(alphabet="0123456789,;:/-. ")


def parses_or_raises_value_error(parse, *args) -> None:
    try:
        parse(*args)
    except ValueError:
        pass


@given(TEXTS)
def test_parse_partition(text):
    parses_or_raises_value_error(parse_partition, text)


@given(TEXTS, st.sampled_from([1, 2, 3, 4, 6, 9]))
def test_mat_from_text(text, q):
    parses_or_raises_value_error(mat_from_text, text, q)


@given(TEXTS)
def test_parse_class_type(text):
    parses_or_raises_value_error(parse_class_type, text)


@given(TEXTS)
def test_rational(text):
    parses_or_raises_value_error(parse_rational, text)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# field values: mostly rational strings, some ill-typed or with a zero denominator
VALUES = st.fractions(min_value=-1, max_value=2, max_denominator=12).map(str) | st.just("1/0") | JSON
ENTRY = st.fixed_dictionaries({"value": VALUES}, optional={"geometric": st.booleans() | JSON})
SPEC_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "alphas": st.lists(ENTRY, max_size=3) | JSON,
        "betas": st.lists(ENTRY, max_size=3) | JSON,
        "gamma": VALUES,
        "q": VALUES,
    },
)


@st.composite
def normalized_docs(draw):
    """Spec documents whose masses sum to 1 whenever gamma comes out >= 0."""
    doc = {}
    total = Fraction(0)
    for key in ("alphas", "betas"):
        values = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=8), max_size=3))
        total += sum(values)
        doc[key] = [{"value": str(v), "geometric": draw(st.booleans())} for v in values]
    doc["gamma"] = str(1 - total)
    return doc


@given(JSON | SPEC_DOCS | normalized_docs())
def test_spec_from_dict(doc):
    parses_or_raises_value_error(spec_from_dict, doc)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.text(max_size=40) | (JSON | SPEC_DOCS | normalized_docs()).map(json.dumps))
def test_cylinder_on_any_spec_file(tmp_path, text):
    spec = tmp_path / "generated.spec"
    spec.write_text(text, encoding="utf-8")
    assert main(["cylinder", "--spec", str(spec), "--q", "2", "--rho", "1"]) in (0, 1, 2)
