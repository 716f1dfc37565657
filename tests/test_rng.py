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
    # the families of every driver, with a per-client tau list
    from fedbilevel import AggITDConfig, LowerStepConfig
    from fedbilevel.drivers import upper_lanes
    from fedbilevel.hypergrad import aggitd_lanes, chain_lanes
    from fedbilevel.lower import lower_lanes
    from fedbilevel.rng import CLIENT
    m, N, T, taus = 4, 2, 3, [1, 3, 2, 1]
    cfg = AggITDConfig(lam=0.5, N=N, lower=LowerStepConfig(beta=0.1, tau=taus))
    lower = [(CLIENT, "zeta_q", range(N)), *lower_lanes(3, "lower", range(N))]
    return m, N, T, taus, {"est": aggitd_lanes(cfg, m),
                           "aid": lower + chain_lanes(T, "aid"),
                           "local": lower + chain_lanes(T, "local"),
                           "upper": upper_lanes(3)}


def _lane_calls(N, T, taus, ids, name):
    """(path, tags) of every lanes call a step of this table makes for ids."""
    tau = max(taus[i] for i in ids.tolist())
    if name == "upper":
        return [((), ("xi_up", v)) for v in range(tau)]
    calls = [((), ("zeta_q", t)) for t in range(N)]
    calls += [(("lower", t), ("zeta", v)) for t in range(N) for v in range(tau)]
    if name == "est":
        calls += [((), (tag, t)) for tag in ("xi_r", "u") for t in range(N + 1)]
        return calls + [((), ("xi_h",)), ((), ("chi",))]
    return calls + [((name,), tag) for tag in (("xi0",), ("xi_h",), ("chi",))] + [
        ((name,), ("zeta_h", t)) for t in range(T + 1)]


@pytest.mark.parametrize("budget", [1 << 16, 50])
def test_table_rows_equal_stream_hashes(monkeypatch, budget):
    # every row of every family, at several k, for full and half participation;
    # a budget of 50 rows hashes one outer step per table
    from fedbilevel import Participation, select_participants
    from fedbilevel import rng as rng_mod
    monkeypatch.setattr(rng_mod, "ROW_BUDGET", budget)
    m, N, T, taus, tables = _table_cases()
    root = RngStream(21)
    for name, families in tables.items():
        tag = "upper" if name == "upper" else "est"
        steps = list(rng_mod.lane_steps(root, tag, 5, m, families))
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
