"""The declarative query language: text -> typed :class:`Query` plan input.

Sonata (PAPERS.md, arXiv 1705.01049) showed that a small declarative
surface -- filter, aggregate, top-k -- is enough to express most
operator telemetry questions, *and* that keeping it declarative is what
lets a planner push work down toward the data.  This module is that
surface for the DART reproduction, sized to the four read substrates the
fleet actually serves:

========== =================================== =======================
source     rows                                fields
========== =================================== =======================
keys       one per candidate key (DART slots)  key, value, answered
counters   one per candidate key (count-min)   key, est
sketch     one per candidate key (sketch bank) key, est
ring       one per readable Append record      index, record
========== =================================== =======================

Grammar (case-insensitive keywords; see DESIGN.md for the worked form)::

    query   := "select" target "from" source
               [ "where" pred ( "and" pred )* ]
               [ "top" INT [ "by" field ] ]
               [ "policy" NAME ]
    target  := field | agg "(" field ")" | "count" "(" "*" ")"
    agg     := "sum" | "count" | "avg" | "min" | "max"
    pred    := field op literal
    op      := "==" | "!=" | ">=" | "<=" | ">" | "<" | "contains"
    literal := NUMBER | "quoted string" | bareword
    NUMBER  := -?DIGITS[.DIGITS]

Everything parses into an immutable :class:`Query`; malformed text
raises :class:`QueryParseError` with the offending token.  The parsed
form is *typed*: fields are checked against the source, aggregates
against field numericity, so planner and service never see a query that
cannot execute.  Only a NUMBER token is a number (bareword ``nan`` is
text); :meth:`Query.canonical` renders each literal to parse back to it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, List, NoReturn, Optional, Tuple, Union

import numpy as np

from repro.core.policies import ReturnPolicy

#: Literal value of one predicate comparison.
LiteralValue = Union[int, float, str]


class QueryParseError(ValueError):
    """Query text that does not parse (or does not type-check)."""


class Source(Enum):
    """The read substrate a query executes against."""

    KEYS = "keys"
    COUNTERS = "counters"
    SKETCH = "sketch"
    RING = "ring"


class Aggregate(Enum):
    """How matching rows are folded into the query's answer."""

    #: No fold: project the selected field of every matching row.
    PROJECT = "project"
    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


#: Fields each source's rows carry.
SOURCE_FIELDS: Dict[Source, Tuple[str, ...]] = {
    Source.KEYS: ("key", "value", "answered"),
    Source.COUNTERS: ("key", "est"),
    Source.SKETCH: ("key", "est"),
    Source.RING: ("index", "record"),
}

#: Fields with a numeric reading (valid for sum/avg/min/max and top-by).
NUMERIC_FIELDS = frozenset({"est", "index", "answered"})

#: Fields whose predicates can be evaluated from the key alone -- the
#: planner prunes these *before* any wire read (push-down to the top).
KEY_ONLY_FIELDS = frozenset({"key"})

_PREDICATE_OPS = ("==", "!=", ">=", "<=", ">", "<", "contains")

#: One token: word, string, NUMBER or operator (no two kinds start with the
#: same character, so the order is only speed: words are the most common).
_TOKEN = re.compile(
    r"[A-Za-z_][\w.\-]*"
    r'|"[^"]*"'
    r"|'[^']*'"
    r"|-?\d+(?:\.\d+)?"
    r"|==|!=|>=|<=|>|<|\(|\)|\*"
)
#: A token or, where none lexes, the rest of the text (which is rejected).
_LEXEME = re.compile(rf"{_TOKEN.pattern}|\S.*", re.DOTALL)


def _tokenize(text: str) -> List[str]:
    """Split query text into tokens in one regex pass; rejects unlexable text."""
    tokens = _LEXEME.findall(text)
    if tokens and _TOKEN.fullmatch(tokens[-1]) is None:
        raise QueryParseError(f"cannot lex query at {tokens[-1].strip()[:20]!r}")
    return tokens


@dataclass(frozen=True)
class Predicate:
    """One ``field op literal`` filter clause.

    ``matches`` evaluates the clause against a row dict; bytes-valued
    fields (``value``, ``record``) are compared through their
    NUL-stripped latin-1 text so operators can write readable literals.
    """

    field: str
    op: str
    literal: LiteralValue

    def describe(self) -> str:
        """The clause in canonical query-text form, which parses back to it:
        a string in double quotes (single when it holds one), a number as a
        NUMBER token (a float keeps its point and has no exponent)."""
        literal = self.literal
        if isinstance(literal, str):
            quote = "'" if '"' in literal else '"'
            literal = f"{quote}{literal}{quote}"
        elif isinstance(literal, float):
            literal = np.format_float_positional(literal, trim="0")
        return f"{self.field} {self.op} {literal}"

    def _coerce(self, value: object) -> object:
        """A row field value in comparable form (bytes -> text, bool -> int)."""
        if isinstance(value, bytes):
            return value.rstrip(b"\x00").decode("latin-1")
        if isinstance(value, bool):
            return int(value)
        return value

    def matches(self, row: Dict[str, object]) -> bool:
        """Whether ``row`` satisfies this clause (absent fields never do)."""
        value = self._coerce(row.get(self.field))
        if value is None:
            return False
        literal = self.literal
        if self.op == "contains":
            return str(literal) in str(value)
        if isinstance(literal, (int, float)) and not isinstance(
            value, (int, float)
        ):
            return False
        if isinstance(literal, str):
            value = str(value)
        if self.op == "==":
            return value == literal
        if self.op == "!=":
            return value != literal
        if self.op == ">=":
            return value >= literal
        if self.op == "<=":
            return value <= literal
        if self.op == ">":
            return value > literal
        return value < literal


@dataclass(frozen=True)
class Query:
    """A fully parsed, type-checked query (the planner's input).

    ``canonical()`` is the normalized text form -- the result cache keys
    on it, so two spellings of the same query share one cache entry, and
    two different queries never do (it parses back to the query).  It and
    the key/row predicate split are computed once per query.
    """

    source: Source
    field: str
    aggregate: Aggregate
    predicates: Tuple[Predicate, ...] = ()
    top_k: Optional[int] = None
    order_field: Optional[str] = None
    policy: Optional[ReturnPolicy] = None

    def canonical(self) -> str:
        """Normalized query text (whitespace/case-insensitive identity)."""
        return self._canonical

    @cached_property
    def _canonical(self) -> str:
        if self.aggregate is Aggregate.PROJECT:
            target = self.field
        else:
            target = f"{self.aggregate.value}({self.field})"
        parts = [f"select {target} from {self.source.value}"]
        if self.predicates:
            clauses = " and ".join(p.describe() for p in self.predicates)
            parts.append(f"where {clauses}")
        if self.top_k is not None:
            parts.append(f"top {self.top_k} by {self.order_field}")
        if self.policy is not None:
            parts.append(f"policy {self.policy.value}")
        return " ".join(parts)

    @cached_property
    def key_predicates(self) -> Tuple[Predicate, ...]:
        """Clauses decidable from the key alone (pruned before any read)."""
        return tuple(
            p for p in self.predicates if p.field in KEY_ONLY_FIELDS
        )

    @cached_property
    def row_predicates(self) -> Tuple[Predicate, ...]:
        """Clauses needing read data (evaluated per shard, post-read)."""
        return tuple(
            p for p in self.predicates if p.field not in KEY_ONLY_FIELDS
        )


def _end(expected: str = "a token") -> NoReturn:
    """Raise the error for a read past the last token."""
    raise QueryParseError(f"unexpected end of query (expected {expected})")


def _expect(token: Optional[str], keyword: str) -> None:
    """Require ``keyword`` (in any case) as the token read."""
    if token is None:
        _end(keyword)
    if token.lower() != keyword:
        raise QueryParseError(f"expected {keyword!r}, got {token!r}")


def _parse_literal(token: str) -> LiteralValue:
    """A predicate literal: a quoted string's text, a NUMBER token's number,
    any other token (a bareword, ``nan`` included) as written."""
    first = token[0]
    if first in "\"'":
        return token[1:-1]
    if first != "-" and not first.isdecimal():
        return token
    try:
        number = float(token) if "." in token else int(token)
    except ValueError:  # more digits than int() converts
        number = math.inf
    if number in (math.inf, -math.inf):
        raise QueryParseError(f"number out of range at {token[:20]!r}")
    return number


def _unknown_field(source: Source, field: str) -> QueryParseError:
    """The error for a ``field`` the source's rows do not carry."""
    return QueryParseError(
        f"unknown field {field!r} for source {source.value!r} "
        f"(fields: {', '.join(SOURCE_FIELDS[source])})"
    )


def parse_query(text: str) -> Query:
    """Parse and type-check one query string; raises :class:`QueryParseError`.

    >>> parse_query("select count(*) from keys where value contains 'v'")
    ... # doctest: +ELLIPSIS
    Query(...)
    """
    tokens: List[Optional[str]] = _tokenize(text)
    tokens.append(None)  # the end: reading it raises, looking at it stops
    _expect(tokens[0], "select")

    # Target: field, agg(field) or count(*).
    head = (tokens[1] or _end()).lower()
    aggregate = Aggregate.PROJECT
    position = 2
    if head in ("sum", "count", "avg", "min", "max") and tokens[2] == "(":
        aggregate = Aggregate(head)
        field = (tokens[3] or _end()).lower()
        _expect(tokens[4], ")")
        position = 5
    else:
        field = head
    if field == "*" and aggregate is not Aggregate.COUNT:
        raise QueryParseError("'*' is only valid inside count(*)")

    _expect(tokens[position], "from")
    source_token = (tokens[position + 1] or _end()).lower()
    position += 2
    source = Source._value2member_map_.get(source_token)  # Source(), without the call
    if source is None:
        raise QueryParseError(
            f"unknown source {source_token!r} "
            f"(sources: {', '.join(s.value for s in Source)})"
        )
    fields = SOURCE_FIELDS[source]
    if field not in fields and field != "*":
        raise _unknown_field(source, field)
    if aggregate not in (Aggregate.PROJECT, Aggregate.COUNT) and field not in NUMERIC_FIELDS:
        raise QueryParseError(
            f"{aggregate.value}() needs a numeric field, got {field!r} "
            f"(numeric: {', '.join(sorted(NUMERIC_FIELDS))})"
        )

    predicates = []
    top_k: Optional[int] = None
    order_field: Optional[str] = None
    policy: Optional[ReturnPolicy] = None
    while tokens[position] is not None:
        clause = tokens[position].lower()
        position += 1
        if clause == "where":
            while True:
                pred_field = (tokens[position] or _end()).lower()
                if pred_field not in fields:
                    raise _unknown_field(source, pred_field)
                op = (tokens[position + 1] or _end()).lower()
                if op not in _PREDICATE_OPS:
                    raise QueryParseError(
                        f"unknown operator {op!r} "
                        f"(operators: {', '.join(_PREDICATE_OPS)})"
                    )
                literal = _parse_literal(tokens[position + 2] or _end())
                position += 3
                predicates.append(Predicate(pred_field, op, literal))
                if (tokens[position] or "").lower() != "and":
                    break
                position += 1
        elif clause == "top":
            count_token = tokens[position] or _end()
            position += 1
            try:
                top_k = int(count_token)
            except ValueError:
                raise QueryParseError(
                    f"top expects an integer, got {count_token!r}"
                ) from None
            if top_k < 1:
                raise QueryParseError(f"top must be >= 1, got {top_k}")
            if (tokens[position] or "").lower() == "by":
                order_field = (tokens[position + 1] or _end()).lower()
                if order_field not in fields:
                    raise _unknown_field(source, order_field)
                position += 2
            else:
                # Default order: the source's natural magnitude field.
                order_field = "est" if source in (
                    Source.COUNTERS, Source.SKETCH
                ) else "index" if source is Source.RING else "answered"
            if order_field not in NUMERIC_FIELDS:
                raise QueryParseError(
                    f"top ... by needs a numeric field, got {order_field!r}"
                )
        elif clause == "policy":
            if source is not Source.KEYS:
                raise QueryParseError(
                    "policy applies only to the keys source"
                )
            policy_token = (tokens[position] or _end()).lower()
            position += 1
            try:
                policy = ReturnPolicy(policy_token)
            except ValueError:
                raise QueryParseError(
                    f"unknown policy {policy_token!r} (policies: "
                    f"{', '.join(p.value for p in ReturnPolicy)})"
                ) from None
        else:
            raise QueryParseError(f"unexpected clause {clause!r}")

    if top_k is not None and aggregate is not Aggregate.PROJECT:
        raise QueryParseError("top-k applies to projections, not aggregates")
    return Query(
        source, field, aggregate, tuple(predicates), top_k, order_field, policy
    )
