"""Ledger semantics, the aggregate-and-broadcast primitive, participant sampling."""

import numpy as np
import pytest

from fedbilevel import (CommLedger, Participation, ProtocolError, RngStream,
                        aggregate_mean, select_participants)
from fedbilevel.runtime import client_ids


def test_aggregate_identical_payloads_idempotent():
    ledger = CommLedger()
    v = np.array([1.0, 2.0, 3.0])
    out = aggregate_mean(np.stack([v, v, v]), ledger)
    np.testing.assert_array_equal(out, v)
    assert ledger.rounds_total == 1


def test_aggregate_mean_example():
    out = aggregate_mean(np.array([[1.0, 0.0], [0.0, 1.0]]), CommLedger())
    np.testing.assert_array_equal(out, [0.5, 0.5])


def test_piggybacked_payloads_count_one_round():
    ledger = CommLedger()
    outs = aggregate_mean([np.array([[1.0, 1.0], [0.0, 0.0]]),
                           np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])], ledger)
    assert ledger.rounds_total == 1
    assert ledger.scalars_sent == 2 * (2 + 3)
    np.testing.assert_array_equal(outs[0], [0.5, 0.5])
    np.testing.assert_array_equal(outs[1], [0.5, 0.5, 0.5])


def test_aggregate_mean_permutation_invariant():
    # rows are stacked in sorted-id order, whatever order the participants came in
    gen = RngStream(3).child("perm").generator()
    payloads = {i: gen.normal(size=5) for i in range(7)}
    order = [3, 0, 6, 1, 5, 2, 4]
    np.testing.assert_array_equal(client_ids(order), np.arange(7))
    a = aggregate_mean(np.stack([payloads[i] for i in client_ids(order)]), CommLedger())
    b = aggregate_mean(np.stack([payloads[i] for i in client_ids(order[::-1])]),
                       CommLedger())
    assert np.array_equal(a, b)


def test_aggregate_empty_is_protocol_error():
    with pytest.raises(ProtocolError):
        aggregate_mean(np.empty((0, 3)), CommLedger())
    with pytest.raises(ProtocolError):
        aggregate_mean([np.ones((2, 3)), np.ones((3, 3))], CommLedger())
    with pytest.raises(ProtocolError):
        aggregate_mean([], CommLedger())
    with pytest.raises(ProtocolError):
        client_ids([])


def test_client_ids_sorted_distinct_integers():
    assert client_ids(np.array([4, 0, 4, 2])).tolist() == [0, 2, 4]
    assert client_ids(range(3)).tolist() == [0, 1, 2]
    with pytest.raises(ProtocolError, match="integers"):
        client_ids([0, 1.5])


def test_ledger_outer_accounting():
    ledger = CommLedger()
    ledger.start_outer()
    ledger.begin_loop()
    for _ in range(4):
        ledger.record_round(10)
    ledger.finish_outer()
    ledger.start_outer()
    ledger.record_round(5)
    ledger.finish_outer()
    assert ledger.rounds_total == 5
    assert ledger.rounds_this_outer == 1
    assert ledger.outer_history == [(4, 1), (1, 0)]
    assert ledger.scalars_sent == 45


def test_select_participants_full_and_singleton():
    assert select_participants(Participation(1.0), 10, RngStream(0)) == list(range(10))
    single = select_participants(Participation(0.1), 10, RngStream(0).child("s"))
    assert len(single) == 1
    assert select_participants(Participation(0.25), 10, RngStream(1).child("s")) \
        == sorted(select_participants(Participation(0.25), 10, RngStream(1).child("s")))


def test_select_participants_deterministic_by_seed():
    a = select_participants(Participation(0.5), 12, RngStream(9).child("p", 3))
    b = select_participants(Participation(0.5), 12, RngStream(9).child("p", 3))
    c = select_participants(Participation(0.5), 12, RngStream(9).child("p", 4))
    assert a == b
    assert a != c or len(a) == len(c)  # different lane, usually different set


def test_participation_size_rule():
    assert Participation(0.1).size(10) == 1
    assert Participation(0.05).size(10) == 1  # never empty
    assert Participation(1.0).size(7) == 7
    with pytest.raises(ProtocolError):
        Participation(0.0)
    with pytest.raises(ProtocolError):
        Participation(1.2)


def test_aggregate_rejects_malformed_stacks_before_charging_a_round():
    ledger = CommLedger()
    for bad in (np.ones(3), [np.ones((2, 3)), np.ones(3)], [np.ones(3), np.ones((2, 3))],
                np.ones((2, 3, 1)), [[1.0, 2.0]]):
        with pytest.raises(ProtocolError, match="stacks"):
            aggregate_mean(bad, ledger)
    assert (ledger.rounds_total, ledger.scalars_sent) == (0, 0)


def test_aggregate_converts_non_float_payloads():
    ledger = CommLedger()
    (nested,) = aggregate_mean([[[1, 2], [4, 7]]], ledger)   # one list-of-lists stack
    ints = aggregate_mean(np.array([[1, 2], [4, 7]]), ledger)
    single = aggregate_mean(np.array([[1, 2], [4, 7]], dtype=np.float32), ledger)
    for out in (nested, ints, single):
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [2.5, 4.5])
    assert (ledger.rounds_total, ledger.scalars_sent) == (3, 12)


def test_aggregate_strided_stacks_match_numpy_mean_bits():
    gen = RngStream(11).child("strided").generator()
    base = gen.normal(size=(9, 12))
    for s in (base[[7, 1, 4, 0, 3]][:, ::3], base[::2], base.T, base[1:, 2:7]):
        assert not s.flags.c_contiguous
        assert aggregate_mean(s, CommLedger()).tobytes() == s.mean(axis=0).tobytes()
        pair = aggregate_mean([s, s[:, ::-1]], CommLedger())
        assert pair[0].tobytes() == s.mean(axis=0).tobytes()
        assert pair[1].tobytes() == s[:, ::-1].mean(axis=0).tobytes()


def test_aggregate_counts_each_group_once():
    ledger = CommLedger()
    aggregate_mean([np.ones((3, 2)), np.ones((3, 5)), np.ones((3, 1))], ledger)
    assert (ledger.rounds_total, ledger.scalars_sent) == (1, 3 * (2 + 5 + 1))
    aggregate_mean((np.ones((4, 3)),), ledger)
    aggregate_mean(np.ones((4, 3)), ledger)
    assert (ledger.rounds_total, ledger.scalars_sent) == (3, 24 + 12 + 12)
