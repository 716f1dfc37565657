import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbilevel import RngStream
from fedbilevel.rng import _mix64


def test_same_lane_bit_identical():
    a = RngStream(7).child(3, "zeta", 12).generator().normal(size=16)
    b = RngStream(7).child(3, "zeta", 12).generator().normal(size=16)
    assert np.array_equal(a, b)


def test_distinct_lanes_differ():
    base = RngStream(7)
    a = base.child(3, "zeta", 12).generator().normal(size=16)
    b = base.child(3, "zeta", 13).generator().normal(size=16)
    c = base.child(4, "zeta", 12).generator().normal(size=16)
    d = base.child(3, "xi", 12).generator().normal(size=16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_distinct_seeds_differ():
    a = RngStream(1).child("x").generator().normal(size=8)
    b = RngStream(2).child("x").generator().normal(size=8)
    assert not np.array_equal(a, b)


def test_child_extends_key():
    s = RngStream(5).child("a", 1).child("b", 2)
    assert s.key == ("a", 1, "b", 2)
    assert s.seed == 5


def test_lanes_statistically_independent():
    # crude independence check: correlation of streams across adjacent lanes
    base = RngStream(99)
    xs = np.array([base.child("lane", k).generator().normal() for k in range(4000)])
    assert abs(xs.mean()) < 0.08
    assert abs(xs.std() - 1.0) < 0.08
    assert abs(np.corrcoef(xs[:-1], xs[1:])[0, 1]) < 0.08


def _draws(lane):
    return (lane.index(8), lane.subset(np.arange(10, 20), 4), lane.normal(0.5, (3, 2)))


def test_lane_draws_bit_identical():
    a = _draws(RngStream(7).child(3, "zeta", 12))
    b = _draws(RngStream(7).child(3, "zeta", 12))
    c = _draws(RngStream(7, (3, "zeta", 12)))  # same key built in one step
    for x, y, z in zip(a, b, c):
        assert np.array_equal(x, y) and np.array_equal(x, z)


def test_lane_draws_differ_across_lanes_and_seeds():
    base = _draws(RngStream(7).child(3, "zeta", 12))
    for other in (RngStream(7).child(3, "zeta", 13), RngStream(7).child(4, "zeta", 12),
                  RngStream(7).child(3, "xi", 12), RngStream(8).child(3, "zeta", 12)):
        assert not np.array_equal(base[2], _draws(other)[2])
    idx = [RngStream(s).child("x").index(2 ** 40) for s in range(20)]
    assert len(set(idx)) == 20


def test_index_uniform_chi_square():
    base = RngStream(11)
    counts = np.bincount([base.child("idx", k).index(8) for k in range(40_000)],
                         minlength=8)
    assert counts.sum() == 40_000
    chi2 = float(np.sum((counts - 5000.0) ** 2 / 5000.0))
    assert chi2 < 24.32  # 7 dof, p = 0.001


def test_subset_distinct_sorted_uniform_marginals():
    pool = np.arange(100, 110)
    base = RngStream(12)
    hits = np.zeros(10)
    trials = 20_000
    for k in range(trials):
        s = base.child("sub", k).subset(pool, 3)
        assert len(s) == 3 and np.all(np.diff(s) > 0) and np.all(np.isin(s, pool))
        hits[s - 100] += 1
    # each member is picked with probability 3/10
    sd = np.sqrt(trials * 0.3 * 0.7)
    assert np.all(np.abs(hits - 0.3 * trials) < 4.0 * sd)


def test_normal_moments_and_lane_independence():
    base = RngStream(13)
    xs = np.array([base.child("lane", k).normal(2.0, (1,))[0] for k in range(20_000)])
    assert abs(xs.mean()) < 4 * 2.0 / np.sqrt(xs.size)
    assert abs(xs.var() / 4.0 - 1.0) < 0.05
    assert abs(np.corrcoef(xs[:-1], xs[1:])[0, 1]) < 0.03
    # within one lane: an odd count, and the Box-Muller pairs are uncorrelated
    z = base.child("big").normal(1.0, (40_001,))
    assert z.shape == (40_001,)
    assert abs(z.mean()) < 0.02 and abs(z.var() - 1.0) < 0.03
    assert abs(np.corrcoef(z[:20_000], z[20_001:])[0, 1]) < 0.03


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 4)])
def test_uniform_equals_integer_formula(shape):
    # the 53-bit uniform of counter c is 1 - (_mix64(h, c) >> 11) * 2**-53, an
    # exact double: checked on Python ints, bit for bit
    lane = RngStream(41).child("make_quadratic", "eigs")
    got = lane.uniform(shape)
    assert got.shape == shape
    want = [1.0 - (_mix64(lane._hash, c) >> 11) * 2.0 ** -53 for c in range(got.size)]
    assert got.ravel().tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", [1, 2, 9, 240])
def test_permutation_equals_sorted_keys(n):
    # the pool ordered by the lane's hashed counters, sorted on Python ints
    pool = np.arange(n) * 3 + 5
    lane = RngStream(42).child("make_hyperrep", "labels")
    order = sorted(range(n), key=lambda c: _mix64(lane._hash, c))
    assert lane.permutation(pool).tolist() == pool[order].tolist()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 40), st.data())
def test_subset_is_sorted_prefix_of_permutation(seed, n, data):
    k = data.draw(st.integers(1, n))
    pool = np.arange(n) * 7 - 11
    lane = RngStream(seed).child("sub", n)
    assert lane.subset(pool, k).tolist() == np.sort(lane.permutation(pool)[:k]).tolist()


def test_setup_uniform_moments_and_lane_independence():
    # the set-up uniforms, one per lane and a block within a lane: inside
    # (0, 1], mean 1/2, variance 1/12, no lag-1 correlation, flat over 10 bins
    base = RngStream(14)
    xs = np.array([base.child("lane", k).uniform((1,))[0] for k in range(20_000)])
    z = base.child("big").uniform((200, 201))
    for u in (xs, z.ravel()):
        assert 0.0 < u.min() and u.max() <= 1.0
        assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / u.size)
        assert abs(u.var() * 12.0 - 1.0) < 0.05
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 0.03
        counts = np.bincount(np.minimum((u * 10).astype(int), 9), minlength=10)
        chi2 = float(np.sum((counts - u.size / 10) ** 2 / (u.size / 10)))
        assert chi2 < 27.88  # 9 dof, p = 0.001


def test_setup_normal_block_moments():
    # a set-up normal block, as make_quadratic draws one: every column and the
    # whole block are N(0, 1), and neighbouring columns are uncorrelated
    z = RngStream(15).child("make_quadratic", "dA_cl").normal(1.0, (20_000, 6))
    assert abs(z.mean()) < 4 / np.sqrt(z.size) and abs(z.var() - 1.0) < 0.03
    assert np.all(np.abs(z.mean(axis=0)) < 4 / np.sqrt(z.shape[0]))
    assert np.all(np.abs(z.var(axis=0) - 1.0) < 0.06)
    corr = np.corrcoef(z.T)
    assert np.all(np.abs(corr[np.triu_indices(6, 1)]) < 0.03)


def _table_cases():
    # the lane sets of every driver, with a per-client tau list
    from fedbilevel.hypergrad import aggitd_lanes, chain_lanes
    from fedbilevel.lower import local_lanes, lower_phase_lanes
    m, N, T, taus = 4, 2, 3, [1, 3, 2, 1]
    lower = lower_phase_lanes(N, max(taus))
    return m, N, T, taus, {"est": aggitd_lanes(N, max(taus)),
                           "aid": lower + chain_lanes(T, "aid"),
                           "local": lower + chain_lanes(T, "local"),
                           "upper": local_lanes("xi_up", 3)}


def _lane_calls(N, T, taus, ids, name):
    """(path, tags) of every lanes call a step of this table makes for ids:
    the svrg lower and upper steps read "zeta" and "xi_up" from v = 1, the
    fused chain "u" and the two-loop chains "zeta_h" from t = 1."""
    tau = max(taus[i] for i in ids.tolist())
    if name == "upper":
        return [((), ("xi_up", v)) for v in range(1, tau)]
    calls = [((), ("zeta_q", t)) for t in range(N)]
    calls += [(("lower", t), ("zeta", v)) for t in range(N) for v in range(1, tau)]
    if name == "est":
        calls += [((), ("xi_r", t)) for t in range(N + 1)]
        calls += [((), ("u", t)) for t in range(1, N + 1)]
        return calls + [((), ("xi_h",)), ((), ("chi",))]
    return calls + [((name,), tag) for tag in (("xi0",), ("xi_h",), ("chi",))] + [
        ((name,), ("zeta_h", t)) for t in range(1, T + 1)]


@pytest.mark.parametrize("budget", [1 << 16, 50])
def test_table_rows_equal_stream_hashes(monkeypatch, budget):
    # every row of every lane set, at several k, for full and half participation;
    # a budget of 50 rows hashes one outer step per table
    from fedbilevel import Participation, select_participants
    from fedbilevel import rng as rng_mod
    monkeypatch.setattr(rng_mod, "ROW_BUDGET", budget)
    m, N, T, taus, tables = _table_cases()
    root = RngStream(21)
    for name, sets in tables.items():
        tag = "upper" if name == "upper" else "est"
        steps = list(rng_mod.lane_steps(root, tag, 5, m, sets))
        assert len(steps) == 5
        for k in (0, 2, 4):
            for ratio in (1.0, 0.5):
                ids = np.array(select_participants(Participation(ratio), m,
                                                   root.child("part", k)))
                for path, tags in _lane_calls(N, T, taus, ids, name):
                    lanes = steps[k].child(*path).lanes(ids, *tags)
                    scope = root.child(tag, k).child(*path)
                    want = [scope.child(i, *tags) for i in ids.tolist()]
                    assert [int(h) for h in lanes.hashes] == [s._hash for s in want]
                    assert lanes.index(8).tolist() == [s.index(8) for s in want]
                    assert lanes.purpose == tags[0]


@pytest.mark.parametrize("budget", [1 << 16, 50])
def test_table_step_index_equals_stream_index(monkeypatch, budget):
    # Q and T' are drawn on a table step's child path, out of the table's
    # draw of that path at every step (n below 2**32) or on the child's own
    # lane: the draw the free scope stream makes; a budget of 50 rows hashes
    # one step per table
    from fedbilevel import rng as rng_mod
    monkeypatch.setattr(rng_mod, "ROW_BUDGET", budget)
    m, _, _, _, tables = _table_cases()
    for name in ("est", "aid"):
        steps = list(rng_mod.lane_steps(RngStream(21), "est", 5, m, tables[name]))
        assert len(steps) == 5
        for k, step in enumerate(steps):
            for n in (1, 4, 9, 2 ** 32 - 1, 2 ** 40):
                assert step.child("Q").index(n) == RngStream(21).child("est", k, "Q").index(n)
                assert step.child("aid").child("T_prime").index(n) == \
                    RngStream(21).child("est", k, "aid", "T_prime").index(n)
                assert step.index(n) == RngStream(21).child("est", k).index(n)


def test_numpy_integer_index_draws_the_int_index():
    # an np.integer n passes the size check, so it draws what the int n
    # draws, on a free stream and on a table step, below and past 2**32,
    # in exact integer arithmetic (no fixed-width overflow)
    from fedbilevel.rng import CLIENT
    for k in range(8):
        free = RngStream(3).child("a", k)
        step = RngStream(3).child("b", k).declare([(CLIENT, "zeta")], 2)
        for stream in (free, step, step.child("Q")):
            for n in (7, 1000, 2 ** 32 - 1, 2 ** 40):
                want = stream.index(n)
                for t in (np.int64, np.uint64, np.int32, np.uint32):
                    if n <= np.iinfo(t).max:
                        got = stream.index(t(n))
                        assert type(got) is int and got == want, (k, n, t)


def _assert_flat_draws(lanes):
    # the flat draws are the bare draws shifted to each row's client block of a
    # client-major store: ids * n for index(n), ids * len(pool) for subset
    ids = lanes.ids
    for n in (1, 8, 2 ** 32 - 1):
        got, want = lanes.index(n, flat=True), ids * n + lanes.index(n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    sizes = np.arange(ids.size) % 5 + 1
    for pool, k, sz in ((np.arange(6), 3, None), (np.arange(7), 4, sizes),
                        (np.arange(10, 17) * 3, 2, sizes)):
        got = lanes.subset(pool, k, sz, flat=True)
        want = ids[:, None] * len(pool) + lanes.subset(pool, k, sz)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_flat_draws_equal_offset_bare_draws(monkeypatch):
    # on run steps, a child("aid") of one, kept sibling chunks across a chunk
    # boundary, a one-step table, a free stream on reordered and repeated ids
    # and a client subset of a table step
    from fedbilevel import rng as rng_mod
    from fedbilevel.rng import CLIENT
    monkeypatch.setattr(rng_mod, "ROW_BUDGET", 50)
    monkeypatch.setattr(rng_mod, "_kept", (None, None))
    m, _, _, _, tables = _table_cases()
    all_ids = np.arange(m, dtype=np.intp)
    for step in rng_mod.lane_steps(RngStream(5), "est", 3, m, tables["aid"]):
        _assert_flat_draws(step.lanes(all_ids, "zeta_q", 1))
        _assert_flat_draws(step.child("aid").lanes(all_ids, "zeta_h", 2))
        _assert_flat_draws(step.lanes([1, 3], "zeta_q", 0))
    sets = [(CLIENT, "z"), (CLIENT, "y", 0), ("lower", 1, CLIENT, "zeta", 2)]
    chunk = [RngStream(9).child("mc", k).declare(sets, m) for k in range(10)]
    # 12 rows a step, so 4 steps a chunk: k = 0 on its own table (the first
    # call on the parent), then the chunks from k = 0, 4 and 8
    assert len({id(step.table) for step in chunk}) == 4
    for step in chunk:
        _assert_flat_draws(step.lanes(all_ids, "z"))
        _assert_flat_draws(step.child("lower", 1).lanes(all_ids, "zeta", 2))
    one = RngStream(9).child("mc", "s").declare(sets, m)
    assert len(one.table.scopes) == 1
    _assert_flat_draws(one.lanes(all_ids, "y", 0))
    _assert_flat_draws(RngStream(4).child("free").lanes([3, 0, 3, 1, 0], "z"))


def test_free_lanes_hash_one_row_per_distinct_id():
    # a free stream's lanes hash a one-step table of the distinct ids only, not
    # clients 0..max(ids), and every draw is the scalar stream's, bit for bit
    base, ids = RngStream(6).child("s"), [10 ** 6, 4, 10 ** 6, 0]
    lanes = base.lanes(ids, "z", 1)
    assert lanes.step.table.hashes.shape == (1, 3)
    streams = [base.child(i, "z", 1) for i in ids]
    assert lanes.index(9).tolist() == [s.index(9) for s in streams]
    assert lanes.index(9, flat=True).tolist() == [s.index(9) + 9 * i
                                                  for s, i in zip(streams, ids)]
    pool = np.arange(7)
    assert lanes.subset(pool, 3).tolist() == [s.subset(pool, 3).tolist() for s in streams]
    assert lanes.subset(pool, 3, flat=True).tolist() == [
        (s.subset(pool, 3) + 7 * i).tolist() for s, i in zip(streams, ids)]
    want = np.stack([s.normal(0.5, (2, 3)) for s in streams])
    assert lanes.normal(0.5, (2, 3)).tobytes() == want.tobytes()
    _assert_flat_draws(lanes)


def test_every_lanes_draw_is_read_only():
    # a table step on every client reads views of the table's read-only blocks;
    # a client subset and a free stream draw index-array rows, copies, which
    # are read-only too, so the two evaluations of a variance-reduction pair
    # share a draw that neither can change
    from fedbilevel.rng import CLIENT, lane_steps
    step = next(lane_steps(RngStream(3), "est", 1, 4, [(CLIENT, "z")]))
    kinds = {"all": step.lanes(np.arange(4), "z"), "subset": step.lanes([1, 3], "z"),
             "free": RngStream(3).child("free").lanes([2, 0, 2], "z")}
    assert isinstance(kinds["all"].rows, slice)
    assert not isinstance(kinds["subset"].rows, slice) and not isinstance(
        kinds["free"].rows, slice)
    for kind, lanes in kinds.items():
        draws = [lanes.index(8), lanes.index(8, flat=True), lanes.subset(np.arange(6), 2),
                 lanes.subset(np.arange(6), 2, flat=True), lanes.normal(1.0, (2,))]
        assert [d.flags.writeable for d in draws] == [False] * 5, kind
        with pytest.raises(ValueError, match="read-only"):
            draws[1][0] = 0


def test_vectorised_index_equals_python_multiply_high():
    from fedbilevel.rng import _index, _mix64
    gen = np.random.default_rng(5)
    hashes = np.concatenate([gen.integers(0, 2 ** 64, size=4000, dtype=np.uint64),
                             np.array([0, 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)])
    for n in (1, 2, 3, 8, 24, 2 ** 31 - 1, 2 ** 32 - 1):
        want = [(_mix64(h, 0) * n) >> 64 for h in hashes.tolist()]
        assert _index(hashes, n).tolist() == want, n
    for n in (0, 2 ** 32):
        with pytest.raises(ValueError):
            _index(hashes, n)


def test_lane_tables_leave_out_unread_lanes():
    # svrg One-Round-Lower reads no "zeta" lane at v = 0, and neither chain
    # reads "u" or "zeta_h" at t = 0; sgd reads "zeta" at every v
    from fedbilevel.hypergrad import aggitd_lanes, chain_lanes
    from fedbilevel.lower import lower_phase_lanes
    from fedbilevel.rng import _layout
    m, N, T = 8, 2, 2     # the race configuration, tau = 1
    for variant, fused, aid in (("svrg", 72, 56), ("sgd", 88, 72)):
        sets = [*lower_phase_lanes(N, 1, variant), *chain_lanes(T, "aid")]
        assert _layout(aggitd_lanes(N, 1, variant), m).rows == fused
        assert aggitd_lanes(N, 1, variant) is aggitd_lanes(N, 1, variant)   # cached
        assert _layout(tuple(sets), m).rows == aid


def _subset_rows_want(stream, pool, k, size):
    # a row keyed past its size takes the pool entries from position size on, k in all
    return np.concatenate([stream.subset(pool[:size], k), pool[size:k]])


@pytest.mark.parametrize("key_budget", [1 << 20, 70])
@pytest.mark.parametrize("k", [3, 12])
def test_subset_blocks_equal_stream_draws(monkeypatch, key_budget, k):
    # tables of several steps over two ROW_BUDGET chunks; full and partial
    # participation; unequal sizes below k; k >= pool; a key budget of 70
    # hashes each block in slices of one step
    from fedbilevel import rng as rng_mod
    monkeypatch.setattr(rng_mod, "ROW_BUDGET", 50)
    monkeypatch.setattr(rng_mod, "KEY_BUDGET", key_budget)
    m, pool = 4, np.arange(100, 110)
    sets = [(rng_mod.CLIENT, "zeta_q", t) for t in range(2)] + [
        ("lower", t, rng_mod.CLIENT, "zeta", v) for t in range(2) for v in (1, 2)]
    root = RngStream(31)
    steps = list(rng_mod.lane_steps(root, "est", 5, m, sets))
    assert len({id(s.table) for s in steps}) == 3 and steps[0].table is steps[1].table
    for sizes in (None, np.array([10, 2, 7, 5])):
        for ids in (np.arange(m), np.array([1, 3])):
            for k_step, step in enumerate(steps):
                scope = root.child("est", k_step)
                for path, tags in [((), ("zeta_q", t)) for t in range(2)] + [
                        (("lower", t), ("zeta", v)) for t in range(2) for v in (1, 2)]:
                    rows = None if sizes is None else sizes[ids]
                    got = step.child(*path).lanes(ids, *tags).subset(pool, k, rows)
                    assert not got.flags.writeable
                    for r, i in enumerate(ids.tolist()):
                        size = len(pool) if sizes is None else sizes[i]
                        want = _subset_rows_want(scope.child(*path, i, *tags), pool, k, size)
                        assert got[r].tolist() == want.tolist()


@pytest.mark.parametrize("key_budget", [1 << 20, 5])
def test_subset_one_step_tables_equal_stream_draws(monkeypatch, key_budget):
    # RngStream.lanes (any ids, in any order) reads a one-step table over
    # its distinct ids by row, as does one client of a declared lane set
    from fedbilevel import rng as rng_mod
    from fedbilevel.rng import CLIENT
    monkeypatch.setattr(rng_mod, "KEY_BUDGET", key_budget)
    base, pool = RngStream(32).child("scope"), np.arange(7)
    ids, sizes = np.array([5, 0, 3]), np.array([7, 1, 4])
    for k in (2, 7, 9):
        got = base.lanes(ids, "xi", 4).subset(pool, k, sizes)
        assert not got.flags.writeable
        for r, i in enumerate(ids.tolist()):
            want = _subset_rows_want(base.child(i, "xi", 4), pool, k, sizes[r])
            assert got[r].tolist() == want.tolist()
        lane, two = base.child(2, "chi"), np.array([2])
        one = base.declare([(CLIENT, "chi")], 3).lanes(two, "chi").subset(pool, k, np.array([3]))
        assert not one.flags.writeable
        assert one[0].tolist() == _subset_rows_want(lane, pool, k, 3).tolist()
        assert base.lanes(two, "chi").subset(pool, k)[0].tolist() == lane.subset(pool, k).tolist()


def test_subset_blocks_hash_each_lane_set_once(monkeypatch):
    # one counter pass per lane set, pool, k and sizes per table, shared by
    # every step and by both evaluations of a pair; a client subset draws
    # per call
    from fedbilevel import rng as rng_mod
    passes = []
    original = rng_mod._mix64_counters

    def counted(hashes, n):
        passes.append(len(hashes))
        return original(hashes, n)
    monkeypatch.setattr(rng_mod, "_mix64_counters", counted)
    steps = list(rng_mod.lane_steps(RngStream(33), "est", 6, 3,
                                    [(rng_mod.CLIENT, "u", t) for t in range(4)]))
    assert len({id(s.table) for s in steps}) == 1
    ids, pool = np.arange(3), np.arange(20)
    for step in steps:
        for t in range(4):
            for _ in range(2):
                step.lanes(ids, "u", t).subset(pool, 4)
    assert passes == [6 * 3] * 4
    passes.clear()
    lanes = steps[0].lanes(np.array([0, 2]), "u", 1)
    lanes.subset(pool, 4)
    lanes.subset(pool, 4)
    assert passes == [2]


def test_layout_depth_is_its_deepest_lane_set():
    # tau = 1 svrg: the lower phase declares no "lower/zeta" lane set, so the
    # table is as deep as "zeta_q" (3 key parts), not 5
    from fedbilevel.lower import lower_phase_lanes
    from fedbilevel.rng import CLIENT, _layout
    m, N = 3, 2
    sets = [*lower_phase_lanes(N, 1), (CLIENT, "chi")]
    assert sets == [(CLIENT, "zeta_q", 0), (CLIENT, "zeta_q", 1), (CLIENT, "chi")]
    assert len(_layout(tuple(sets), m).columns) == 3
    assert len(_layout(tuple(sets + [("lower", 0, CLIENT, "zeta", 1)]),
                       m).columns) == 5
    scope = RngStream(34).child("est", 0)
    step = scope.declare(sets, m)
    ids = np.arange(m)
    for tags in [("zeta_q", t) for t in range(N)] + [("chi",)]:
        assert [int(h) for h in step.lanes(ids, *tags).hashes] == [
            scope.child(i, *tags)._hash for i in range(m)]
    assert step.table.hashes.shape[1] == len(sets) * m


@pytest.mark.parametrize("form", ["scalar", "step", "rows"])
def test_draw_sizes_out_of_range_raise_naming_the_value(form):
    # a stream's scalar draws, free or on a table, and a Lanes' row draws
    # reject a bad size alike: an index n below 1 or a subset k below 0, or a
    # size that is no integer
    from fedbilevel.rng import CLIENT
    lane, pool = RngStream(1), np.arange(3)
    draws = {"scalar": lane, "step": lane.declare([(CLIENT, "zeta")], 3),
             "rows": lane.lanes(np.arange(3), "zeta")}[form]
    draws.index(1)   # a bool or float equal to a drawn n raises as well
    for call, bad in [(draws.index, n) for n in (0, -3, 2.5, True, 1.0)] + [
            (lambda k: draws.subset(pool, k), k) for k in (-1, 1.5)]:
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}$"):
            call(bad)
    assert np.size(draws.index(1)) and np.size(draws.subset(pool, 0)) == 0


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("rows", ["all", "partial"])
def test_draw_sizes_equal_to_a_cached_size_raise(monkeypatch, warm, rows):
    # a bool or float size equal to a cached n = 1 or k = 1 is no integer
    # size: it raises on a table that already drew n = 1 and k = 1 as on a
    # fresh one, while an np.integer size reads the cached draws
    from fedbilevel import rng as rng_mod
    ids = np.arange(3) if rows == "all" else np.array([0, 2])
    lanes, pool = RngStream(1).lanes(np.arange(3), "z"), np.arange(5)
    lanes = lanes.step.lanes(ids, "z")
    if warm:
        want = (lanes.index(1), lanes.subset(pool, 1))
        passes = []
        for name in ("_index", "_subset"):
            monkeypatch.setattr(rng_mod, name, lambda *a, name=name: passes.append(name))
        got = (lanes.index(np.int64(1)), lanes.subset(pool, np.int64(1)))
        assert passes == [] and all(map(np.array_equal, got, want))
    for call, bad in [(lanes.index, True), (lanes.index, 1.0),
                      (lambda k: lanes.subset(pool, k), True),
                      (lambda k: lanes.subset(pool, k), 1.0)]:
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}$"):
            call(bad)


def test_lanes_read_each_id_its_own_lane():
    # a table step reads a client subset by id; a free stream reads any ids
    # by row, so reordered and repeated ids each draw their own lane, even
    # when there are as many ids as clients, and a negative id raises
    from fedbilevel import ContractViolation
    from fedbilevel.rng import CLIENT
    root = RngStream(0)
    step = root.declare([(CLIENT, "z")], 3)
    for ids in ([2], [0, 2]):
        assert [int(h) for h in step.lanes(np.array(ids), "z").hashes] == [
            root.child(i, "z")._hash for i in ids]
    for ids in ([2, 1, 0], [1, 1, 1], [4, 0, 4, 2]):
        lanes = root.lanes(ids, "z")
        assert lanes.ids.tolist() == ids and lanes.index(1000).tolist() == [
            root.child(i, "z").index(1000) for i in ids]
        assert [int(h) for h in lanes.hashes] == [root.child(i, "z")._hash for i in ids]
    with pytest.raises(ContractViolation, match=re.escape("client ids [1, -1]")):
        root.lanes([1, -1], "z")


def test_table_step_lanes_take_id_sequences(monkeypatch):
    # a list, tuple or range of ids reads the lanes of their intp array,
    # converted once; the intp array CheckedOracles passes is not converted
    from fedbilevel import rng as rng_mod
    from fedbilevel.rng import CLIENT
    step = RngStream(0).child("a", 0).declare([(CLIENT, "z")], 3)
    converted, convert = [], rng_mod._id_array
    monkeypatch.setattr(rng_mod, "_id_array", lambda ids: converted.append(ids) or convert(ids))
    for ids in ([1], (0, 2), range(3), range(1, 3), []):
        want = step.lanes(np.array(ids, dtype=np.intp), "z")
        assert converted == []
        got = step.lanes(ids, "z")
        assert converted == [ids] and got.ids.dtype == np.intp
        assert got.ids.tolist() == list(ids) and got.purpose == want.purpose == "z"
        assert got.hashes.tolist() == want.hashes.tolist()
        assert got.index(9).tolist() == want.index(9).tolist()
        converted.clear()


def test_table_step_lanes_name_an_id_out_of_range():
    # an id sequence a table step converts must hold clients 0..m-1 of its
    # table: on two lane sets over m = 2, id 2 would read the other set's
    # first row under "z", and id 5 no row at all
    from fedbilevel import ContractViolation
    from fedbilevel.rng import CLIENT
    step = RngStream(0).child("a", 0).declare([(CLIENT, "z"), (CLIENT, "y")], 2)
    for ids, bad in (([2], "id 2 is >= m = 2"), ([5], "id 5 is >= m = 2"),
                     ((1, 3), "id 3 is >= m = 2"), (range(3), "id 2 is >= m = 2"),
                     ([0, -1], "id -1 is < 0")):
        with pytest.raises(ContractViolation, match=re.escape(bad)):
            step.lanes(ids, "z")
    assert step.lanes([1], "z").hashes.tolist() == [RngStream(0).child("a", 0, 1, "z")._hash]


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None, np.float64(2.0)])
def test_lanes_name_a_non_integer_id(bad):
    # on a table step and on a free stream, before any lane is read
    from fedbilevel import ContractViolation
    from fedbilevel.rng import CLIENT
    root = RngStream(0).child("a", 0)
    for stream in (root.declare([(CLIENT, "z")], 3), root):
        for ids in ([0, bad], (bad,)):
            with pytest.raises(ContractViolation, match=re.escape(f"{bad!r} is not an integer")):
                stream.lanes(ids, "z")


@pytest.mark.parametrize("kind", ["finite-sum", "additive-gaussian"])
@pytest.mark.parametrize("setting", ["full", "half", "tau list"])
def test_free_stream_and_table_step_draw_the_same(monkeypatch, kind, setting):
    # each estimator and local phase on a free RngStream(s).child(tag, k)
    # gives the bits, the ledger bill and the sample audit of step k of
    # lane_steps over the phase's declared lane sets, whatever the order of
    # the calls: steps on both sides of a sibling chunk's end, out of order,
    # interleaved with a second parent's (one-step tables), then one parent's
    # after the other's (chunks of siblings)
    from fedbilevel import (AggITDConfig, AidConfig, CommLedger, LowerStepConfig,
                            Participation, QuadraticProblem, QuadraticSpec, aggitd, aid_fhe,
                            local_fhe, make_quadratic, one_round_lower, one_round_upper,
                            select_participants)
    from fedbilevel.hypergrad import aggitd_lanes, beta_cap, chain_lanes, lambda_cap
    from fedbilevel.lower import local_lanes, max_tau
    from fedbilevel import rng as rng_mod
    from fedbilevel.rng import _chunk_steps, _layout, lane_steps
    m, seed, k = 4, 9, 2
    problem = QuadraticProblem(make_quadratic(QuadraticSpec(
        d1=3, d2=4, m=m, hetero=0.5, noise_spread=0.3, noise_std=0.2, seed=5,
        noise_mode=kind)), batch_size=2)
    ids = select_participants(Participation(0.5 if setting == "half" else 1.0), m,
                              RngStream(seed).child("part", k))
    tau = [1, 3, 2, 1] if setting == "tau list" else 2
    lam = lambda_cap(problem.constants)
    lower = LowerStepConfig(beta=beta_cap(lam, problem.constants), tau=tau)
    x, y, v = 0.3 * np.ones(3), np.full(4, -0.2), np.linspace(-0.1, 0.1, 4)
    phases = {
        "aggitd": (aggitd_lanes(2, max_tau(tau)), lambda rng, ledger: aggitd(
            problem, x, y, AggITDConfig(lam=lam, N=2, lower=lower), ids, rng, ledger)[:2]),
        "aid_fhe": (chain_lanes(3), lambda rng, ledger: aid_fhe(
            problem, x, y, AidConfig(lam=lam, T=3), ids, rng, ledger)),
        "local_fhe": (chain_lanes(3), lambda rng, ledger: local_fhe(
            problem, x, y, AidConfig(lam=lam, T=3), ids, rng, ledger)),
        "one_round_lower": (local_lanes("zeta", max_tau(tau)), lambda rng, ledger:
                            one_round_lower(problem, x, y, v, lower, ids, rng, ledger)),
        "one_round_upper": (local_lanes("xi_up", max_tau(tau)), lambda rng, ledger:
                            one_round_upper(problem, x, y, v[:3], 0.1, tau, ids, rng,
                                            ledger)),
    }
    monkeypatch.setattr(rng_mod, "_kept", (None, None))
    for name, (sets, call) in phases.items():
        chunk = _chunk_steps(_layout(tuple(sets), m))
        K, js = chunk + 2, (chunk, chunk + 1, k, chunk - 1)
        visits = ([(tag, j) for j in js for tag in ("est", "alt")]
                  + [(tag, j) for tag in ("est", "alt") for j in js])
        steps = {tag: list(lane_steps(RngStream(seed), tag, K, m, sets))
                 for tag in ("est", "alt")}
        for tag, j in visits:
            step = steps[tag][j]
            assert step.table is not None and step == RngStream(seed).child(tag, j)
            got = []
            for rng in (RngStream(seed).child(tag, j), step):
                problem.audit.reset()
                ledger = CommLedger()
                out = np.concatenate(np.atleast_1d(*call(rng, ledger)) if name == "aggitd"
                                     else [call(rng, ledger)])
                got.append((out.tobytes(), ledger, dict(problem.audit.by_purpose)))
            assert got[0] == got[1] and got[0][1].rounds_total > 0, (name, tag, j)


def test_sibling_direct_calls_share_one_table_per_chunk(monkeypatch):
    # 1,000 direct aggitd calls on root.child("mc", t) hash a one-step table,
    # then one table per chunk of siblings; a str-ended free stream still
    # hashes a one-step table, and of 100 parents only the last one's is kept
    from fedbilevel import (AggITDConfig, CommLedger, LowerStepConfig, QuadraticSpec,
                            aggitd, make_problem)
    from fedbilevel import rng as rng_mod
    from fedbilevel.hypergrad import aggitd_lanes, beta_cap, lambda_cap
    from fedbilevel.rng import CLIENT, _chunk_steps, _layout
    problem = make_problem(QuadraticSpec(d1=3, d2=3, m=3, n_per_client=8, mu=1.0, L_g=2.0,
                                         hetero=0.3, noise_spread=0.1, seed=11))
    lam = lambda_cap(problem.constants)
    cfg = AggITDConfig(lam=lam, N=3, lower=LowerStepConfig(beta=beta_cap(lam, problem.constants),
                                                           tau=1))
    chunk = _chunk_steps(_layout(aggitd_lanes(3, 1), 3))
    built, init = [], rng_mod.LaneTable.__init__

    def counted(table, seed, base, k0, scopes, *rest):
        built.append(len(scopes))
        init(table, seed, base, k0, scopes, *rest)
    monkeypatch.setattr(rng_mod.LaneTable, "__init__", counted)
    monkeypatch.setattr(rng_mod, "_kept", (None, None))
    root = RngStream(123)
    for t in range(1000):
        aggitd(problem, np.ones(3), np.zeros(3), cfg, range(3), root.child("mc", t),
               CommLedger())
    assert len(built) == 1 + -(-1000 // chunk) and built[0] == 1 and set(built[1:]) == {chunk}
    built.clear()
    root.child("mc", 3, "z").lanes(np.arange(3), "w")
    root.child("make_quadratic").declare([(CLIENT, "U")], 2)
    assert built == [1, 1]
    for p in range(100):
        root.child("p", p, 0).declare([(CLIENT, "z")], 2)
    assert rng_mod._kept[1][0].table.base == ("p", 99)


def test_declare_hashes_one_step_then_aligned_chunks(monkeypatch):
    # a parent's first int-ended declare hashes one step; a later miss on the
    # kept parent hashes the _chunk_steps chunk that holds its step, from a
    # multiple of the chunk size; a declare on another parent in between
    # starts that parent over at one step; each step reads its own lanes
    from fedbilevel import rng as rng_mod
    from fedbilevel.rng import CLIENT, _chunk_steps, _layout
    sets, ids = [(CLIENT, "z")], np.arange(3)
    chunk = _chunk_steps(_layout(tuple(sets), 3))
    assert chunk == rng_mod.ROW_BUDGET // 3
    built, init = [], rng_mod.LaneTable.__init__

    def counted(table, seed, base, k0, scopes, *rest):
        built.append((base, k0, len(scopes)))
        init(table, seed, base, k0, scopes, *rest)
    monkeypatch.setattr(rng_mod.LaneTable, "__init__", counted)
    monkeypatch.setattr(rng_mod, "_kept", (None, None))
    root, k = RngStream(7), 2 * chunk + 5
    visits = [("a", k), ("a", k), ("a", k + 1), ("a", chunk - 1), ("a", 3),
              ("b", 0), ("a", k + 1), ("a", k)]
    for tag, j in visits:
        step = root.child(tag, j).declare(sets, 3)
        assert step == root.child(tag, j) and step.table.k0 + step.s == j
        assert [int(h) for h in step.lanes(ids, "z").hashes] == [
            root.child(tag, j, i, "z")._hash for i in range(3)]
    assert built == [(("a",), k, 1), (("a",), 2 * chunk, chunk), (("a",), 0, chunk),
                     (("b",), 0, 1), (("a",), k + 1, 1), (("a",), 2 * chunk, chunk)]


def test_sibling_chunks_shared_by_threads():
    # threads that miss, evict and read the kept chunks at once each read
    # their lanes' own hashes and fail nowhere (short switch interval, joins
    # bounded in time)
    import sys
    import threading
    errors, interval = [], sys.getswitchinterval()

    def work(w):
        try:
            for p in range(64):
                lane = RngStream(w % 2).child("th", p, w)
                got = [int(h) for h in lane.lanes(np.arange(2), "z").hashes]
                if got != [lane.child(i, "z")._hash for i in range(2)]:
                    errors.append((w, p))
        except Exception as e:   # any failure of a worker fails the test
            errors.append(e)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []


# -- the reference model: every draw from the free per-lane definition --------

def _model_hash(seed, key):
    """The lane's running hash: the seed's lane extended by the key path."""
    from fedbilevel.rng import _extend
    return _extend(RngStream(seed)._hash, key)


def _is_size(value, least, bound):
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and least <= value < bound)


def _model_index(hashes, n):
    if not _is_size(n, 1, 2 ** 32):
        raise ValueError(n)
    return [(_mix64(h, 0) * int(n)) >> 64 for h in hashes]


def _model_subset(hashes, pool, k, sizes):
    # a row's positions from its size on sort last; Python's sort is stable
    if not _is_size(k, 0, np.inf):
        raise ValueError(k)
    rows = []
    for h, size in zip(hashes, sizes):
        keys = [_mix64(h, c) if c < size else 2 ** 64 - 1 for c in range(len(pool))]
        rows.append(sorted(pool[sorted(range(len(pool)), key=keys.__getitem__)[:k]].tolist()))
    return rows


def _model_normal(h, std, shape):
    n = int(np.prod(shape))
    u = np.array([1.0 - (_mix64(h, c) >> 11) * 2.0 ** -53 for c in range(n + n % 2)])
    r, theta = std * np.sqrt(-2.0 * np.log(u[0::2])), 2.0 * np.pi * u[1::2]
    return np.concatenate((r * np.cos(theta), r * np.sin(theta)))[:n].reshape(shape)


def _model_purpose(key):
    """A lane's purpose: the innermost string tag of its key path, else
    "unkeyed". Below its table's base a key path holds the int step index,
    the lane set's parts and the int client id, so this is the set's
    innermost tag, else the base's."""
    return next((c for c in reversed(key) if isinstance(c, str)), "unkeyed")


def _same_or_same_error(got, want):
    """got() equals want(), or both raise ValueError; got's names the size."""
    try:
        expected = want()
    except ValueError as e:
        with pytest.raises(ValueError, match=f"got {re.escape(repr(e.args[0]))}$"):
            got()
        return
    assert got() == expected


def test_draws_equal_the_per_lane_model(monkeypatch):
    # declare on int- and str-ended keys, lane_steps chunks, table lanes on
    # all ids (an intp array) and on sorted partial ids (a list), free lanes
    # on any ids, and index, subset and normal at fresh, cached and bool/float
    # sizes, interleaved on two seeds and a few parents with small row and key
    # budgets: every draw is the model's, or the same ValueError, whatever the
    # tables and caches hold, and every Lanes has the model's purpose (a set
    # with no string tag, (CLIENT, 1) or a free stream's (CLIENT,), takes its
    # table base's)
    from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test
    from fedbilevel import ContractViolation
    from fedbilevel import rng as rng_mod
    from fedbilevel.rng import CLIENT
    monkeypatch.setattr(rng_mod, "ROW_BUDGET", 6)
    monkeypatch.setattr(rng_mod, "KEY_BUDGET", 8)
    monkeypatch.setattr(rng_mod, "_kept", (None, None))
    seeds, parents = st.sampled_from([3, 2 ** 64 - 5]), st.sampled_from([(), ("est",), ("p", 2)])
    lasts = st.integers(0, 9) | st.sampled_from(["s", "t"])
    set_lists = st.sampled_from([((CLIENT, "z"),), ((CLIENT, "z", 0), (CLIENT, 1),
                                                    ("lower", 1, CLIENT, "zeta", 2))])
    parts = st.lists(st.integers(0, 3), max_size=3)   # a client subset, taken mod m
    pools = [np.arange(5), np.arange(10, 17) * 3]
    sizes = [1, 2, 7, 2 ** 32 - 1, np.int64(7), True, 1.0, 0, 2 ** 32]

    class Machine(RuleBasedStateMachine):
        # each table step adds the Lanes of every declared set, on all its
        # clients and on a sorted subset, and each draw rule draws on every
        # Lanes built so far, so a call meets whatever earlier calls left in
        # the tables' and the Lanes' caches

        def __init__(self):
            super().__init__()
            self.lanes = []   # (Lanes, the model hash of each row)

        def add_table_lanes(self, step, seed, key, sets, m, part):
            for lane_set in sets:
                at = lane_set.index(CLIENT)
                path, tags = lane_set[:at], lane_set[at + 1:]
                for ids in (np.arange(m, dtype=np.intp), sorted({i % m for i in part})):
                    lanes = step.child(*path).lanes(ids, *tags)
                    assert lanes.purpose == _model_purpose((*key, *path, *tags))
                    self.lanes.append((lanes, [_model_hash(seed, (*key, *path, i, *tags))
                                               for i in map(int, ids)]))

        @rule(seed=seeds, parent=parents, lasts=st.lists(lasts, min_size=1, max_size=4),
              sets=set_lists, m=st.integers(1, 4), part=parts)
        def declare(self, seed, parent, lasts, sets, m, part):
            # siblings of one parent in turn: kept-table hits, misses and chunks
            for last in lasts:
                key = (*parent, last)
                step = RngStream(seed).child(*key).declare(sets, m)
                assert step.index(7) == _model_index([_model_hash(seed, key)], 7)[0]
                assert step.child("Q").index(2 ** 40) == (
                    _mix64(_model_hash(seed, (*key, "Q")), 0) * 2 ** 40) >> 64
                with pytest.raises(ContractViolation, match="is not declared"):
                    step.lanes(np.arange(1), "nope")
            self.add_table_lanes(step, seed, key, sets, m, part)

        @rule(seed=seeds, tag=st.sampled_from(["est", "upper"]), K=st.integers(1, 7),
              k=st.integers(0, 6), sets=set_lists, m=st.integers(1, 4), part=parts)
        def lane_steps(self, seed, tag, K, k, sets, m, part):
            step = list(rng_mod.lane_steps(RngStream(seed), tag, K, m, sets))[k % K]
            assert step.index(7) == _model_index([_model_hash(seed, (tag, k % K))], 7)[0]
            self.add_table_lanes(step, seed, (tag, k % K), sets, m, part)

        @rule(seed=seeds, parent=parents, last=lasts, ids=st.lists(st.integers(0, 5), max_size=6),
              tags=st.sampled_from([(), ("z",), ("zeta", 1)]))
        def free_lanes(self, seed, parent, last, ids, tags):
            key = (*parent, last)
            lanes = RngStream(seed).child(*key).lanes(ids, *tags)
            assert lanes.purpose == _model_purpose((*key, *tags))
            self.lanes.append((lanes, [_model_hash(seed, (*key, i, *tags)) for i in ids]))
            with pytest.raises(ContractViolation, match="< 0"):
                RngStream(seed).child(*key).lanes([*ids, -1], *tags)

        @rule(order=st.permutations(sizes))
        def index(self, order):
            for n in order:
                for lanes, hashes in self.lanes:
                    _same_or_same_error(lambda: lanes.index(n).tolist(),
                                        lambda: _model_index(hashes, n))

        @rule(first=st.sampled_from([0, 1]),
              k=st.sampled_from([0, 1, 3, 9, np.int64(1), True, 1.0, -1]),
              short=st.booleans())
        def subset(self, first, k, short):
            # both pools in either order, each whole and with row r's pool cut
            # to its first (r + 3) % 6 entries, in either order
            for pool, short in itertools.product((pools[first], pools[1 - first]),
                                                 (short, not short)):
                for lanes, hashes in self.lanes:
                    rows = np.arange(3, 3 + len(hashes)) % 6 if short else None
                    per_row = [len(pool)] * len(hashes) if rows is None else rows.tolist()
                    _same_or_same_error(lambda: lanes.subset(pool, k, rows).tolist(),
                                        lambda: _model_subset(hashes, pool, k, per_row))

        @rule(std=st.sampled_from([0.5, 2.0]), shape=st.sampled_from([(1,), (3,), (2, 2)]))
        def normal(self, std, shape):
            for lanes, hashes in self.lanes:
                got = lanes.normal(std, shape)
                assert got.shape == (len(hashes), *shape)
                assert got.tobytes() == b"".join(_model_normal(h, std, shape).tobytes()
                                                 for h in hashes)

    run_state_machine_as_test(Machine, settings=settings(
        max_examples=60, stateful_step_count=25, derandomize=True, deadline=None,
        database=None))
