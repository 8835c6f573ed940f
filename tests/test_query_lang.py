"""The declarative query language: parsing, typing, canonical form."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.policies import ReturnPolicy
from repro.query.lang import (
    NUMERIC_FIELDS,
    SOURCE_FIELDS,
    Aggregate,
    Predicate,
    Query,
    QueryParseError,
    Source,
    parse_query,
)


class TestParseTargets:
    def test_projection(self):
        query = parse_query("select value from keys")
        assert query.source is Source.KEYS
        assert query.field == "value"
        assert query.aggregate is Aggregate.PROJECT
        assert query.predicates == ()
        assert query.top_k is None
        assert query.policy is None

    def test_every_aggregate(self):
        for name, aggregate in (
            ("sum", Aggregate.SUM),
            ("count", Aggregate.COUNT),
            ("avg", Aggregate.AVG),
            ("min", Aggregate.MIN),
            ("max", Aggregate.MAX),
        ):
            query = parse_query(f"select {name}(est) from counters")
            assert query.aggregate is aggregate
            assert query.field == "est"

    def test_count_star(self):
        query = parse_query("select count(*) from ring")
        assert query.aggregate is Aggregate.COUNT
        assert query.field == "*"

    def test_star_outside_count_rejected(self):
        with pytest.raises(QueryParseError, match="count"):
            parse_query("select sum(*) from counters")

    def test_keywords_case_insensitive(self):
        query = parse_query("SELECT Sum(EST) FROM Counters WHERE key == 'a'")
        assert query.aggregate is Aggregate.SUM
        assert query.source is Source.COUNTERS


class TestTypeChecking:
    def test_unknown_source(self):
        with pytest.raises(QueryParseError, match="unknown source"):
            parse_query("select value from flows")

    def test_field_not_on_source(self):
        with pytest.raises(QueryParseError, match="unknown field"):
            parse_query("select est from keys")

    def test_numeric_aggregate_over_text_field(self):
        with pytest.raises(QueryParseError, match="numeric"):
            parse_query("select sum(value) from keys")

    def test_policy_only_on_keys(self):
        with pytest.raises(QueryParseError, match="keys"):
            parse_query("select est from counters policy plurality")

    def test_top_only_on_projections(self):
        with pytest.raises(QueryParseError, match="projection"):
            parse_query("select sum(est) from counters top 3")

    def test_unknown_policy(self):
        with pytest.raises(QueryParseError, match="unknown policy"):
            parse_query("select value from keys policy always")

    def test_unknown_operator(self):
        with pytest.raises(QueryParseError, match="operator"):
            parse_query("select value from keys where key like 3")

    def test_unlexable_text(self):
        with pytest.raises(QueryParseError, match="lex"):
            parse_query("select value, key from keys")

    def test_truncated_query(self):
        with pytest.raises(QueryParseError, match="end of query"):
            parse_query("select value from")


class TestClauses:
    def test_where_chain(self):
        query = parse_query(
            'select est from counters where key contains "flow" and est >= 10'
        )
        assert len(query.predicates) == 2
        assert query.key_predicates == (
            Predicate(field="key", op="contains", literal="flow"),
        )
        assert query.row_predicates == (
            Predicate(field="est", op=">=", literal=10),
        )

    def test_top_with_explicit_order(self):
        query = parse_query("select est from sketch top 5 by est")
        assert query.top_k == 5
        assert query.order_field == "est"

    def test_top_default_order_is_source_specific(self):
        assert parse_query("select est from counters top 2").order_field == "est"
        assert parse_query("select record from ring top 2").order_field == "index"
        assert parse_query("select value from keys top 2").order_field == "answered"

    def test_top_rejects_non_positive(self):
        with pytest.raises(QueryParseError, match="top"):
            parse_query("select est from counters top 0")

    def test_policy_parsed(self):
        query = parse_query("select value from keys policy consensus_2")
        assert query.policy is ReturnPolicy.CONSENSUS_2


class TestPredicateMatching:
    def test_bytes_compared_as_stripped_text(self):
        predicate = Predicate(field="value", op="==", literal="v7")
        assert predicate.matches({"value": b"v7\x00\x00\x00"})
        assert not predicate.matches({"value": b"v8\x00"})

    def test_bool_compared_as_int(self):
        predicate = Predicate(field="answered", op="==", literal=1)
        assert predicate.matches({"answered": True})
        assert not predicate.matches({"answered": False})

    def test_absent_field_never_matches(self):
        assert not Predicate(field="est", op=">", literal=0).matches({})

    def test_numeric_literal_against_text_value(self):
        assert not Predicate(field="key", op=">", literal=3).matches(
            {"key": "flow"}
        )

    def test_contains(self):
        predicate = Predicate(field="key", op="contains", literal="ow-1")
        assert predicate.matches({"key": "flow-12"})
        assert not predicate.matches({"key": "flow-2"})


class TestCanonicalForm:
    def test_round_trips_through_parser(self):
        text = (
            'select est from counters where key contains "flow" '
            "and est >= 10 top 3 by est"
        )
        query = parse_query(text)
        assert parse_query(query.canonical()) == query

    def test_normalizes_spelling(self):
        spellings = [
            "select sum(est) from counters where key == 'a'",
            'SELECT   SUM(est)  FROM counters   WHERE key == "a"',
        ]
        canonicals = {parse_query(text).canonical() for text in spellings}
        assert len(canonicals) == 1

    def test_policy_in_canonical(self):
        query = parse_query("select value from keys policy first_match")
        assert "policy first_match" in query.canonical()


class TestLiterals:
    """Only a NUMBER token is a number, and every literal renders in a form
    that lexes back to itself."""

    @pytest.mark.parametrize("bareword", ["nan", "NaN", "inf", "Infinity"])
    def test_barewords_are_text(self, bareword):
        query = parse_query(f"select value from keys where value == {bareword}")
        assert query.predicates[0].literal == bareword

    @pytest.mark.parametrize(
        "number",
        ["9" * 400 + ".5", "-" + "9" * 400 + ".0", "9" * 5000],
        ids=["float", "negative-float", "int-past-str-digits"],
    )
    def test_out_of_range_number_is_a_parse_error(self, number):
        with pytest.raises(QueryParseError, match="out of range"):
            parse_query(f"select est from counters where est > {number}")

    @pytest.mark.parametrize(
        "literal, rendered",
        [
            (1e-07, "0.0000001"),
            (1.2345678901234567e19, "12345678901234567000.0"),
            (-2.5, "-2.5"),
            (3.0, "3.0"),
            (-7, "-7"),
            ('say "hi"', """'say "hi"'"""),
            ("it's", '"it\'s"'),
        ],
    )
    def test_rendering(self, literal, rendered):
        assert Predicate("est", "==", literal).describe() == f"est == {rendered}"

    def test_one_predicate_is_not_two(self):
        one = parse_query("""select key from keys where key != 'x" and key != "y'""")
        two = parse_query('select key from keys where key != "x" and key != "y"')
        assert len(one.predicates) == 1 and len(two.predicates) == 2
        assert one.canonical() != two.canonical()


OPS = ("==", "!=", ">=", "<=", ">", "<", "contains")

literals = st.one_of(
    st.text(max_size=12).filter(lambda text: not ('"' in text and "'" in text)),
    st.sampled_from(["nan", "-inf", "Infinity", 'a "b"', "c'd", "", " and "]),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-07, 5e-324, -1e-300, 1.2345678901234567e19, 1e22, -0.0]),
)


@st.composite
def queries(draw):
    """Any query the parser can return, by construction."""
    source = draw(st.sampled_from(list(Source)))
    fields = SOURCE_FIELDS[source]
    numeric = [name for name in fields if name in NUMERIC_FIELDS]
    aggregate = draw(st.sampled_from(list(Aggregate)))
    if aggregate is Aggregate.PROJECT:
        field = draw(st.sampled_from(fields))
    elif aggregate is Aggregate.COUNT:
        field = draw(st.sampled_from(("*",) + fields))
    else:
        field = draw(st.sampled_from(numeric))
    predicates = draw(
        st.lists(
            st.builds(Predicate, st.sampled_from(fields), st.sampled_from(OPS), literals),
            max_size=3,
        )
    )
    top_k = order_field = None
    if aggregate is Aggregate.PROJECT and draw(st.booleans()):
        top_k = draw(st.integers(min_value=1, max_value=10**9))
        order_field = draw(st.sampled_from(numeric))
    policy = None
    if source is Source.KEYS:
        policy = draw(st.none() | st.sampled_from(list(ReturnPolicy)))
    return Query(source, field, aggregate, tuple(predicates), top_k, order_field, policy)


class TestCanonicalRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(query=queries())
    def test_canonical_parses_back_to_the_query(self, query):
        parsed = parse_query(query.canonical())
        assert parsed == query
        assert [type(p.literal) for p in parsed.predicates] == [
            type(p.literal) for p in query.predicates
        ]
        assert parsed.canonical() == query.canonical()


VOCABULARY = [
    "select", "from", "where", "and", "top", "by", "policy", "keys", "counters",
    "sketch", "ring", "key", "value", "est", "index", "record", "answered", "sum",
    "count", "avg", "min", "max", "(", ")", "*", "==", "!=", ">=", "<", "contains",
    '"a b"', "'c'", '"', "'", "-1", "2.5", "0", "nan", "plurality", "consensus_2",
    "$", "=", "9" * 400 + ".5", "\n",
]


class TestParserFuzz:
    """Hostile text yields a Query or the typed error, nothing else."""

    @seed(28)
    @settings(max_examples=400, deadline=None)
    @given(
        text=st.one_of(
            st.text(max_size=40),
            st.lists(
                st.sampled_from(VOCABULARY) | st.text(max_size=3), max_size=14
            ).map(" ".join),
            st.lists(st.sampled_from(VOCABULARY), max_size=14).map(
                lambda words: "select value from keys " + " ".join(words)
            ),
        )
    )
    def test_any_text_parses_or_raises_the_typed_error(self, text):
        try:
            query = parse_query(text)
        except QueryParseError:
            return
        assert isinstance(query, Query)
        assert parse_query(query.canonical()) == query
