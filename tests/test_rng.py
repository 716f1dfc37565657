import numpy as np

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
