import numpy as np
import pytest

from fedbilevel import RngStream


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


def _table_cases():
    # the lane sets of every driver, with a per-client tau list
    from fedbilevel.drivers import upper_lanes
    from fedbilevel.hypergrad import aggitd_lanes, chain_lanes
    from fedbilevel.lower import lower_phase_lanes
    m, N, T, taus = 4, 2, 3, [1, 3, 2, 1]
    lower = lower_phase_lanes(N, max(taus))
    return m, N, T, taus, {"est": aggitd_lanes(N, max(taus)),
                           "aid": lower + chain_lanes(T, "aid"),
                           "local": lower + chain_lanes(T, "local"),
                           "upper": upper_lanes(3)}


def _lane_calls(N, T, taus, ids, name):
    """(path, tags) of every lanes call a step of this table makes for ids:
    the svrg lower steps read "zeta" from v = 1, the fused chain "u" and the
    two-loop chains "zeta_h" from t = 1."""
    tau = max(taus[i] for i in ids.tolist())
    if name == "upper":
        return [((), ("xi_up", v)) for v in range(tau)]
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
                    assert lanes.stream(0) == want[0]


@pytest.mark.parametrize("budget", [1 << 16, 50])
def test_table_step_index_equals_stream_index(monkeypatch, budget):
    # Q and T' are drawn on a table step's own path, with no stream built: the
    # draw the scope stream makes; a budget of 50 rows hashes one step per table
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
        assert _layout(aggitd_lanes(N, 1, variant), tuple(range(m))).rows == fused
        assert aggitd_lanes(N, 1, variant) is aggitd_lanes(N, 1, variant)   # cached
        assert _layout(tuple(sets), tuple(range(m))).rows == aid


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
    # RngStream.lanes (any ids, in any order) and Lanes.of read a one-step
    # table whose clients are the call's ids
    from fedbilevel import rng as rng_mod
    from fedbilevel.rng import Lanes
    monkeypatch.setattr(rng_mod, "KEY_BUDGET", key_budget)
    base, pool = RngStream(32).child("scope"), np.arange(7)
    ids, sizes = np.array([5, 0, 3]), np.array([7, 1, 4])
    for k in (2, 7, 9):
        got = base.lanes(ids, "xi", 4).subset(pool, k, sizes)
        assert not got.flags.writeable
        for r, i in enumerate(ids.tolist()):
            want = _subset_rows_want(base.child(i, "xi", 4), pool, k, sizes[r])
            assert got[r].tolist() == want.tolist()
        lane = base.child(2, "chi")
        one = Lanes.of(lane).subset(pool, k, np.array([3]))
        assert not one.flags.writeable
        assert one[0].tolist() == _subset_rows_want(lane, pool, k, 3).tolist()
        assert Lanes.of(lane).subset(pool, k)[0].tolist() == lane.subset(pool, k).tolist()


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
    from fedbilevel.rng import CLIENT, LaneTable, _layout
    m, N = 3, 2
    sets = [*lower_phase_lanes(N, 1), (CLIENT, "chi")]
    assert sets == [(CLIENT, "zeta_q", 0), (CLIENT, "zeta_q", 1), (CLIENT, "chi")]
    assert len(_layout(tuple(sets), tuple(range(m))).columns) == 3
    assert len(_layout(tuple(sets + [("lower", 0, CLIENT, "zeta", 1)]),
                       tuple(range(m))).columns) == 5
    scope = RngStream(34).child("est", 0)
    step = LaneTable.of(scope, sets, np.arange(m)).step(0)
    ids = np.arange(m)
    for tags in [("zeta_q", t) for t in range(N)] + [("chi",)]:
        assert [int(h) for h in step.lanes(ids, *tags).hashes] == [
            scope.child(i, *tags)._hash for i in range(m)]
    assert step.table.hashes.shape == (1, len(sets) * m)
