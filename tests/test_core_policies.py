"""Tests for query return policies (repro.core.policies)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    QueryOutcome,
    ReturnPolicy,
    fold_matrix,
    fold_slots,
    resolve,
)
from repro.mem.slots import SlotCodec, SlotLayout

A, B, C = b"value-a", b"value-b", b"value-c"


def outcomes(matching, policy):
    return resolve(matching, policy, slots_read=4)


class TestNoMatches:
    @pytest.mark.parametrize("policy", list(ReturnPolicy))
    def test_empty_when_nothing_matches(self, policy):
        result = outcomes([], policy)
        assert result.outcome is QueryOutcome.EMPTY
        assert result.value is None
        assert result.matches == 0
        assert result.slots_read == 4
        assert not result.answered


class TestSingleValue:
    def test_unique_value_returned(self):
        result = outcomes([A, A], ReturnPolicy.SINGLE_VALUE)
        assert result.answered and result.value == A

    def test_one_match_returned(self):
        result = outcomes([A], ReturnPolicy.SINGLE_VALUE)
        assert result.answered and result.value == A

    def test_two_distinct_values_empty(self):
        """Paper: empty return when N cells hold two distinct matching values."""
        result = outcomes([A, B], ReturnPolicy.SINGLE_VALUE)
        assert result.outcome is QueryOutcome.EMPTY

    def test_majority_does_not_help(self):
        result = outcomes([A, A, B], ReturnPolicy.SINGLE_VALUE)
        assert result.outcome is QueryOutcome.EMPTY


class TestPlurality:
    def test_majority_wins(self):
        result = outcomes([A, A, B], ReturnPolicy.PLURALITY)
        assert result.answered and result.value == A

    def test_tie_is_empty(self):
        result = outcomes([A, B], ReturnPolicy.PLURALITY)
        assert result.outcome is QueryOutcome.EMPTY

    def test_single_match_answers(self):
        result = outcomes([B], ReturnPolicy.PLURALITY)
        assert result.answered and result.value == B

    def test_three_way_tie_empty(self):
        result = outcomes([A, B, C], ReturnPolicy.PLURALITY)
        assert result.outcome is QueryOutcome.EMPTY


class TestConsensus2:
    def test_requires_two_occurrences(self):
        assert outcomes([A], ReturnPolicy.CONSENSUS_2).outcome is QueryOutcome.EMPTY
        result = outcomes([A, A], ReturnPolicy.CONSENSUS_2)
        assert result.answered and result.value == A

    def test_minority_singleton_ignored(self):
        result = outcomes([A, A, B], ReturnPolicy.CONSENSUS_2)
        assert result.answered and result.value == A

    def test_two_qualified_values_resolves_by_plurality(self):
        result = outcomes([A, A, A, B, B], ReturnPolicy.CONSENSUS_2)
        assert result.answered and result.value == A

    def test_two_qualified_values_tied_empty(self):
        result = outcomes([A, A, B, B], ReturnPolicy.CONSENSUS_2)
        assert result.outcome is QueryOutcome.EMPTY


class TestFirstMatch:
    def test_returns_first(self):
        result = outcomes([B, A], ReturnPolicy.FIRST_MATCH)
        assert result.answered and result.value == B


class TestInvariants:
    @given(
        matching=st.lists(st.sampled_from([A, B, C]), max_size=8),
        policy=st.sampled_from(list(ReturnPolicy)),
    )
    def test_returned_value_always_among_matches(self, matching, policy):
        """A query never invents a value: any answer came from a slot."""
        result = resolve(matching, policy, slots_read=len(matching))
        if result.answered:
            assert result.value in matching
        else:
            assert result.value is None

    @given(matching=st.lists(st.sampled_from([A, B]), min_size=1, max_size=8))
    def test_unanimous_slots_always_answer(self, matching):
        """If all matching slots agree, every policy except consensus-2
        with a single match answers with that value."""
        if len(set(matching)) != 1:
            return
        for policy in (
            ReturnPolicy.SINGLE_VALUE,
            ReturnPolicy.PLURALITY,
            ReturnPolicy.FIRST_MATCH,
        ):
            result = resolve(matching, policy, slots_read=len(matching))
            assert result.answered and result.value == matching[0]

    @given(
        matching=st.lists(st.sampled_from([A, B, C]), max_size=8),
    )
    def test_consensus_stricter_than_plurality(self, matching):
        """Consensus-2 answering implies plurality would answer the same."""
        consensus = resolve(matching, ReturnPolicy.CONSENSUS_2, slots_read=8)
        plurality = resolve(matching, ReturnPolicy.PLURALITY, slots_read=8)
        if consensus.answered and plurality.answered:
            assert consensus.value == plurality.value


class TestMatrixFold:
    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(list(ReturnPolicy)),
        copies=st.integers(1, 4),
        checksum_bits=st.sampled_from([8, 16, 32]),
        data=st.data(),
    )
    def test_matrix_fold_equals_per_key_fold(self, policy, copies, checksum_bits, data):
        """``fold_matrix`` over K <= 64 keys is ``fold_slots`` key by key.

        Three checksums and three values per draw, so keys whose copies
        collide on the checksum, disagree, and tie are the common case.
        """
        codec = SlotCodec(SlotLayout(checksum_bits=checksum_bits, value_bytes=3))
        checksums = st.sampled_from([0, 1, (1 << checksum_bits) - 1])
        slot = st.tuples(checksums, st.sampled_from([b"aaa", b"bbb", b"ccc"]))
        keys = data.draw(
            st.lists(
                st.tuples(checksums, st.lists(slot, min_size=copies, max_size=copies)),
                min_size=1, max_size=64,
            )
        )
        raws = [[codec.encode(*stored) for stored in slots] for _checksum, slots in keys]
        payloads = np.frombuffer(b"".join(map(b"".join, raws)), dtype=np.uint8)
        expected = [expected for expected, _slots in keys]
        values, answered = fold_matrix(
            codec,
            payloads.reshape(len(keys), copies, -1),
            np.array(expected, dtype=np.uint64),
            policy,
        )
        results = [
            fold_slots(codec, slots, checksum, policy)
            for slots, checksum in zip(raws, expected)
        ]
        assert values == [result.value for result in results]
        assert answered == [result.answered for result in results]
        # Against the paper's wording, not the code: an answer is a value
        # enough matching copies carry (two for consensus).
        for (checksum, slots), value, ok in zip(keys, values, answered):
            matching = [stored for stored_checksum, stored in slots if stored_checksum == checksum]
            assert ok == (value is not None)
            if ok:
                needed = 2 if policy is ReturnPolicy.CONSENSUS_2 else 1
                assert matching.count(value) >= needed
