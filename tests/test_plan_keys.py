"""Golden plan keys: the parser and optimizer may get faster, never different.

``golden_plan_keys.json`` was recorded from the 4.0.0 parser and
optimizer over 320 query texts that cover the grammar: adjacency,
nested and redundant parentheses, ``NOT NOT``, duplicates, both
complement laws, absorption both ways, quoted single words, prefixes,
mixed-case operators, and 43 malformed texts.  Per text it holds the
parsed AST's ``repr``, the optimised AST's ``repr`` and
:func:`~repro.query.cache.plan_query`'s key for a boolean and a BM25
request — or the :class:`~repro.query.parser.ParseError` message.  The
39 texts with a multi-word quote hold the phrase refusal's message:
phrases left the grammar, as no index stores term positions.

A changed key would silently split the result cache and the front
end's single-flight map, so a row that no longer matches is a
regression, not a fixture to regenerate.
"""

import json
import os

import pytest

from repro.query.cache import plan_query
from repro.query.parser import ParseError, parse_query

with open(
    os.path.join(os.path.dirname(__file__), "golden_plan_keys.json"),
    encoding="utf-8",
) as _fh:
    GOLDEN = json.load(_fh)


def test_the_table_covers_the_grammar():
    assert len(GOLDEN) >= 300
    assert sum("error" in row for row in GOLDEN) >= 40
    texts = " ".join(row["text"] for row in GOLDEN)
    for shape in ("NOT NOT", "(((", '"', "*", " and ", " Or ", " not "):
        assert shape in texts, shape


@pytest.mark.parametrize(
    "row", GOLDEN, ids=[str(i) for i in range(len(GOLDEN))]
)
def test_plan_key_matches_the_recorded_one(row):
    text = row["text"]
    if "error" in row:
        with pytest.raises(ParseError) as raised:
            plan_query(text)
        assert str(raised.value) == row["error"]
        return
    assert repr(parse_query(text)) == row["parsed"]
    plan = plan_query(text, False, "bool", 10)
    assert repr(plan.query) == row["optimized"]
    assert list(plan.key) == row["bool"]
    assert list(plan_query(text, True, "bm25", 7).key) == row["bm25"]
