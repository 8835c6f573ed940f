"""Tests for the vectorised slot-level simulator (repro.core.simulator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.store import DartStore
from repro.core import theory
from repro.core.addressing import DartAddressing
from repro.core.config import DartConfig
from repro.core.policies import ReturnPolicy, fold_matrix, resolve
from repro.core.simulator import (
    SimulationSpec,
    key_lanes,
    simulate,
    simulate_cas_strategy,
)
from repro.hashing.hash_family import fold_keys


class TestSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_keys": 0, "num_slots": 10},
            {"num_keys": 10, "num_slots": 0},
            {"num_keys": 10, "num_slots": 10, "redundancy": 0},
            {"num_keys": 10, "num_slots": 10, "checksum_bits": 0},
            {"num_keys": 10, "num_slots": 10, "checksum_bits": 63},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimulationSpec(**kwargs)

    def test_load_factor(self):
        assert SimulationSpec(num_keys=100, num_slots=400).load_factor == 0.25


class TestBasicBehaviour:
    def test_trivial_load_all_correct(self):
        """At load << 1 essentially every key is retrievable."""
        spec = SimulationSpec(num_keys=100, num_slots=1 << 16)
        result = simulate(spec)
        assert result.success_rate == 1.0
        assert result.error_rate == 0.0

    def test_freshest_keys_always_survive(self):
        """The most recent key's slots cannot have been overwritten."""
        spec = SimulationSpec(num_keys=1 << 15, num_slots=1 << 14)
        result = simulate(spec)
        assert bool(result.correct[-1])

    def test_outcome_partition(self):
        """correct + error + empty partitions all keys."""
        spec = SimulationSpec(num_keys=1 << 15, num_slots=1 << 13, checksum_bits=8)
        result = simulate(spec)
        total = result.correct.sum() + result.error.sum() + result.empty.sum()
        assert total == spec.num_keys
        assert result.success_rate + result.error_rate + result.empty_rate == (
            pytest.approx(1.0)
        )

    def test_deterministic_under_seed(self):
        spec = SimulationSpec(num_keys=1 << 12, num_slots=1 << 12, seed=3)
        assert simulate(spec).success_rate == simulate(spec).success_rate

    def test_seed_changes_outcome_details(self):
        a = simulate(SimulationSpec(num_keys=1 << 12, num_slots=1 << 12, seed=1))
        b = simulate(SimulationSpec(num_keys=1 << 12, num_slots=1 << 12, seed=2))
        assert not np.array_equal(a.correct, b.correct)


class TestAgainstTheory:
    """Paper section 5.1: 'simulations adhere to the aforementioned theory'."""

    @pytest.mark.parametrize(
        "alpha,n", [(0.5, 1), (0.5, 2), (1.0, 2), (2.0, 2), (0.2, 4)]
    )
    def test_average_success_matches_closed_form(self, alpha, n):
        num_slots = 1 << 18
        spec = SimulationSpec(
            num_keys=int(alpha * num_slots), num_slots=num_slots, redundancy=n
        )
        result = simulate(spec)
        expected = theory.average_queryability(alpha, n)
        assert result.success_rate == pytest.approx(expected, abs=0.01)

    def test_oldest_keys_match_worst_case_form(self):
        alpha, n = 1.0, 2
        num_slots = 1 << 18
        spec = SimulationSpec(
            num_keys=int(alpha * num_slots), num_slots=num_slots, redundancy=n
        )
        result = simulate(spec)
        expected = theory.queryability(alpha, n)
        assert result.oldest_fraction_success(0.02) == pytest.approx(
            expected, abs=0.03
        )

    def test_aging_curve_monotone(self):
        """Older buckets cannot be more queryable than fresher ones."""
        spec = SimulationSpec(num_keys=1 << 18, num_slots=1 << 18)
        curve = simulate(spec).success_by_age(buckets=8)
        assert curve.shape == (8,)
        # Allow small statistical wiggle but require the overall trend.
        assert curve[0] < curve[-1]
        assert np.all(np.diff(curve) > -0.02)

    def test_error_rate_within_theory_bounds_b8(self):
        """Return errors at b=8 sit below the oldest-key upper bound and
        above the freshest-key lower bound (age-averaged)."""
        alpha = 2.0
        result = simulate(
            SimulationSpec(num_keys=1 << 19, num_slots=1 << 18, checksum_bits=8)
        )
        _, upper = theory.return_error_bounds(alpha, 2, 8)
        assert 0 < result.error_rate < upper

    def test_32bit_checksum_errors_unreproducible(self):
        """Paper section 5.3: 32-bit checksums fail to reproduce errors."""
        result = simulate(
            SimulationSpec(num_keys=1 << 19, num_slots=1 << 17, checksum_bits=32)
        )
        assert result.error_rate == 0.0


class TestPolicies:
    def test_policy_ordering_on_errors(self):
        """FIRST_MATCH errs at least as often as PLURALITY, which errs at
        least as often as CONSENSUS_2 (with slack for noise)."""
        rates = {}
        for policy in (
            ReturnPolicy.FIRST_MATCH,
            ReturnPolicy.PLURALITY,
            ReturnPolicy.CONSENSUS_2,
        ):
            spec = SimulationSpec(
                num_keys=1 << 18,
                num_slots=1 << 16,
                checksum_bits=8,
                policy=policy,
            )
            rates[policy] = simulate(spec).error_rate
        assert rates[ReturnPolicy.FIRST_MATCH] >= rates[ReturnPolicy.PLURALITY]
        assert rates[ReturnPolicy.PLURALITY] >= rates[ReturnPolicy.CONSENSUS_2]

    def test_consensus_trades_empties_for_errors(self):
        spec_kwargs = dict(num_keys=1 << 16, num_slots=1 << 15, checksum_bits=8)
        plurality = simulate(
            SimulationSpec(policy=ReturnPolicy.PLURALITY, **spec_kwargs)
        )
        consensus = simulate(
            SimulationSpec(policy=ReturnPolicy.CONSENSUS_2, **spec_kwargs)
        )
        assert consensus.empty_rate > plurality.empty_rate
        assert consensus.error_rate <= plurality.error_rate

    def test_single_value_policy_runs(self):
        spec = SimulationSpec(
            num_keys=1 << 14, num_slots=1 << 13, policy=ReturnPolicy.SINGLE_VALUE
        )
        result = simulate(spec)
        assert 0 < result.success_rate < 1


class TestVectorisedMatchesScalar:
    """The simulator must agree with the scalar resolve() on the same data."""

    def test_cross_validation_small_scale(self):
        """Four copies, 4-bit checksums and load 2 make mismatches, checksum
        collisions and ties common; last write wins is replayed key by key."""
        lanes = key_lanes(0, 500)
        for policy in ReturnPolicy:
            spec = SimulationSpec(500, 256, 4, checksum_bits=4, seed=3, policy=policy)
            result = simulate(spec)
            _collectors, checksums, slots = DartAddressing(spec.config).resolve_folded(lanes)
            owner = np.zeros(256, dtype=np.int64)
            for key, row in enumerate(slots.T.tolist()):
                owner[row] = key
            for key, row in enumerate(slots.T.tolist()):
                matching = [
                    int(owner[slot]).to_bytes(8, "big")
                    for slot in row
                    if checksums[owner[slot]] == checksums[key]
                ]
                scalar = resolve(matching, policy, slots_read=4)
                assert bool(result.answered[key]) == scalar.answered, (policy, key)
                assert bool(result.correct[key]) == (
                    scalar.answered and scalar.value == key.to_bytes(8, "big")
                ), (policy, key)


class TestSimulatorIsTheStack:
    @settings(max_examples=100, deadline=None)
    @given(
        num_keys=st.integers(1, 300),
        num_slots=st.integers(16, 512),
        redundancy=st.integers(1, 3),
        checksum_bits=st.sampled_from([4, 8, 32]),
        policy=st.sampled_from(list(ReturnPolicy)),
        seed=st.integers(0, 2**32),
    )
    def test_outcome_is_the_stores_answer(
        self, num_keys, num_slots, redundancy, checksum_bits, policy, seed
    ):
        """Key by key, the simulation is a one-collector store holding
        ``put_many`` of ``(k, k.to_bytes(8))``, read by ``get`` and by the
        read side's matrix fold over the same slots."""
        result = simulate(
            SimulationSpec(num_keys, num_slots, redundancy, checksum_bits, seed, policy)
        )
        config = DartConfig(
            redundancy=redundancy, checksum_bits=checksum_bits, value_bytes=8,
            slots_per_collector=num_slots, seed=seed,
        )
        store = DartStore(config, policy=policy)
        store.put_many([(key, key.to_bytes(8, "big")) for key in range(num_keys)])
        answers = [store.get(key) for key in range(num_keys)]
        assert result.answered.tolist() == [answer.answered for answer in answers]
        assert result.correct.tolist() == [
            answer.value == key.to_bytes(8, "big") for key, answer in enumerate(answers)
        ]
        _collectors, checksums, slots = DartAddressing(config).resolve_folded(
            fold_keys(range(num_keys))
        )
        memory = np.frombuffer(store.cluster[0].region.snapshot(), dtype=np.uint8)
        values, answered = fold_matrix(
            config.slot_codec(), memory.reshape(num_slots, -1)[slots.T], checksums, policy
        )
        assert answered == result.answered.tolist()
        assert values == [answer.value for answer in answers]


class TestCasStrategy:
    def test_cas_requires_n2(self):
        with pytest.raises(ValueError):
            simulate_cas_strategy(
                SimulationSpec(num_keys=10, num_slots=10, redundancy=3)
            )

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_cas_improves_queryability(self, alpha):
        """Paper section 7: WRITE+CAS 'can potentially improve queryability'."""
        num_slots = 1 << 17
        spec = SimulationSpec(
            num_keys=int(alpha * num_slots), num_slots=num_slots, redundancy=2
        )
        assert (
            simulate_cas_strategy(spec).success_rate
            > simulate(spec).success_rate
        )


class TestResultHelpers:
    def test_success_by_age_validation(self):
        result = simulate(SimulationSpec(num_keys=100, num_slots=1000))
        with pytest.raises(ValueError):
            result.success_by_age(0)
        with pytest.raises(ValueError):
            result.oldest_fraction_success(0.0)
        with pytest.raises(ValueError):
            result.oldest_fraction_success(1.5)

    def test_more_buckets_than_keys(self):
        result = simulate(SimulationSpec(num_keys=3, num_slots=1000))
        curve = result.success_by_age(buckets=10)
        assert curve.shape == (10,)


class TestChunkedSimulation:
    """simulate(chunk_size=...) must be exact, not approximate."""

    def test_chunked_identical_to_full(self):
        spec = SimulationSpec(
            num_keys=50_000, num_slots=40_000, checksum_bits=8, seed=5
        )
        full = simulate(spec)
        for chunk in (999, 7_777, 50_000, 200_000):
            chunked = simulate(spec, chunk_size=chunk)
            assert np.array_equal(full.correct, chunked.correct)
            assert np.array_equal(full.answered, chunked.answered)

    def test_invalid_chunk_size(self):
        spec = SimulationSpec(num_keys=10, num_slots=10)
        with pytest.raises(ValueError):
            simulate(spec, chunk_size=0)

    def test_chunked_respects_policies(self):
        spec = SimulationSpec(
            num_keys=20_000,
            num_slots=10_000,
            checksum_bits=8,
            policy=ReturnPolicy.CONSENSUS_2,
        )
        assert np.array_equal(
            simulate(spec).correct, simulate(spec, chunk_size=3_000).correct
        )
