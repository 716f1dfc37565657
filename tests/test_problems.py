"""Oracle contract: hand-checked values, unbiasedness, linearity, determinism."""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fedbilevel import (AggITDConfig, AidConfig, CommLedger, ContractViolation,
                        HyperRepSpec, LowerStepConfig, Point, ProtocolError,
                        QuadraticInstance, QuadraticProblem, QuadraticSpec, RngStream,
                        aggitd, aid_fhe, local_fhe, make_hyperrep, make_quadratic,
                        one_round_lower, one_round_upper)
from fedbilevel.errors import ClientLookupError
from fedbilevel.problems import NOISE_GAUSSIAN

from conftest import (batch_of_one, exact_mean, manual_instance, two_sample_instance,
                      zero_offsets)


def _problem_1d():
    # g = 1/2 * 2 y^2 + 1 * x y  (a=2, b=1, c=0)
    inst = QuadraticInstance(A=np.array([[[2.0]]]), B=np.array([[[1.0]]]), c=np.zeros((1, 1)),
                             d=np.zeros((1, 1)), e=np.zeros((1, 1)),
                             **zero_offsets(1, 1, 1, 1), mu=1.0, L_g=2.0)
    return QuadraticProblem(inst)


def test_grad_lower_y_hand_value():
    problem = _problem_1d()
    p = Point(np.array([1.0]), np.array([3.0]))
    g = batch_of_one(problem, "grad_lower_y", 0, p, None)
    assert g == pytest.approx(7.0)


@pytest.mark.parametrize("kind", ["quadratic", "hyperrep"])
def test_grad_lower_y_zero_at_optimum(kind):
    # the exact aggregate lower gradient vanishes at the problem's own y*(x)
    if kind == "quadratic":
        problem = QuadraticProblem(make_quadratic(
            QuadraticSpec(d1=4, d2=4, m=3, hetero=0.6, seed=3)))
        x = np.array([0.3, -1.0, 2.0, 0.0])
    else:
        problem = make_hyperrep(HyperRepSpec(m=3, n_points=120, partition="label-skew"), 3)
        x = problem.initial_point()[0]
    agg = exact_mean(problem, "grad_lower_y", x, problem.y_star(x))
    assert np.linalg.norm(agg) <= 1e-10


def test_finite_sum_two_samples_mean_zero_offset():
    inst = two_sample_instance((1.0, -1.0))
    problem = QuadraticProblem(inst, batch_size=2)  # full batch covers both samples
    p = Point(np.zeros(1), np.zeros(1))
    exact = batch_of_one(problem, "grad_lower_y", 0, p, None)
    batched = batch_of_one(problem, "grad_lower_y", 0, p, RngStream(0).child(0, "zeta", 0))
    assert np.array_equal(batched, exact)
    # single-sample draws land exactly on the +/- offsets
    one = QuadraticProblem(inst, batch_size=1)
    draws = {float(batch_of_one(one, "grad_lower_y", 0, p,
                                RngStream(0).child(0, "zeta", t))[0])
             for t in range(30)}
    assert draws == {1.0, -1.0}


def test_grad_upper_x_examples():
    inst = manual_instance([2.0, 3.0], d1=2, m=1, lin_scale=0.0)
    problem = QuadraticProblem(inst)
    g = batch_of_one(problem, "grad_upper_x", 0, Point(np.array([2.0, 0.0]), np.zeros(2)),
                     None)
    np.testing.assert_allclose(g, [2.0, 0.0])
    g0 = batch_of_one(problem, "grad_upper_x", 0, Point(np.zeros(2), np.zeros(2)), None)
    np.testing.assert_allclose(g0, [0.0, 0.0])


def test_grad_upper_x_symmetric_cancellation():
    inst = manual_instance([2.0], d1=1, m=2, lin_scale=0.0, rho_x=0.0)
    inst = replace(inst, e=np.array([[1.0], [-1.0]]))
    problem = QuadraticProblem(inst)
    for xv in (0.0, 2.5, -3.0):
        agg = exact_mean(problem, "grad_upper_x", np.array([xv]), np.zeros(1))
        np.testing.assert_allclose(agg, [0.0], atol=1e-15)


def test_grad_upper_y_examples():
    inst = manual_instance([1.0, 1.0], d1=2, m=1, lin_scale=0.0)
    problem = QuadraticProblem(replace(inst, d=np.ones((1, 2))))
    g = batch_of_one(problem, "grad_upper_y", 0, Point(np.zeros(2), np.zeros(2)), None)
    np.testing.assert_allclose(g, [-1.0, -1.0])
    g0 = batch_of_one(problem, "grad_upper_y", 0, Point(np.zeros(2), np.array([1.0, 1.0])),
                      None)
    np.testing.assert_allclose(g0, [0.0, 0.0])


def test_gaussian_noise_monte_carlo_mean():
    # noise-off value vs Monte-Carlo mean of the stochastic oracle, 3.5 SE margin
    std = 0.1
    spec = QuadraticSpec(d1=2, d2=2, m=1, hetero=0.0, noise_mode=NOISE_GAUSSIAN,
                         noise_std=std, seed=4)
    problem = QuadraticProblem(make_quadratic(spec))
    p = Point(np.array([0.5, -0.5]), np.array([1.0, 2.0]))
    exact = batch_of_one(problem, "grad_upper_y", 0, p, None)
    root = RngStream(10)
    n = 40_000
    mean = np.mean([batch_of_one(problem, "grad_upper_y", 0, p, root.child(0, "mc", t))
                    for t in range(n)], axis=0)
    se_norm = std * np.sqrt(2.0 / n)
    assert np.linalg.norm(mean - exact) <= 3.5 * se_norm


def test_hvp_examples_and_fd_oracle():
    inst = manual_instance([2.0, 3.0], d1=2, m=1)
    problem = QuadraticProblem(inst)
    p = Point(np.zeros(2), np.zeros(2))
    hvp = lambda v: batch_of_one(problem, "hvp_lower_yy", 0, p, v, None)  # noqa: E731
    np.testing.assert_allclose(hvp(np.array([1.0, 1.0])), [2.0, 3.0])
    np.testing.assert_allclose(hvp(np.zeros(2)), 0.0)
    # central finite difference of grad_lower_y along v
    gen = RngStream(2).child("fd").generator()
    v = gen.normal(size=2)
    eps = 1e-6
    y = gen.normal(size=2)
    x = gen.normal(size=2)
    gp = batch_of_one(problem, "grad_lower_y", 0, Point(x, y + eps * v), None)
    gm = batch_of_one(problem, "grad_lower_y", 0, Point(x, y - eps * v), None)
    fd = (gp - gm) / (2 * eps)
    hv = batch_of_one(problem, "hvp_lower_yy", 0, Point(x, y), v, None)
    assert np.linalg.norm(hv - fd) / np.linalg.norm(fd) <= 1e-6


def test_jvp_examples_and_fd_oracle():
    # coupling B = [[1, 2]] so grad_y g = A y + B x: jvp v -> B^T v
    inst = QuadraticInstance(A=np.array([[[2.0]]]), B=np.array([[[1.0, 2.0]]]),
                             c=np.zeros((1, 1)), d=np.zeros((1, 1)), e=np.zeros((1, 2)),
                             **zero_offsets(1, 1, 2, 1), mu=1.0, L_g=2.0)
    problem = QuadraticProblem(inst)
    p = Point(np.zeros(2), np.zeros(1))
    jvp = lambda v: batch_of_one(problem, "jvp_lower_xy", 0, p, v, None)  # noqa: E731
    np.testing.assert_allclose(jvp(np.array([1.0])), [1.0, 2.0])
    np.testing.assert_allclose(jvp(np.zeros(1)), 0.0)
    # finite difference of grad_lower_y in x, contracted with v
    gen = RngStream(6).child("fd").generator()
    x, y = gen.normal(size=2), gen.normal(size=1)
    v = gen.normal(size=1)
    eps = 1e-6
    fd = np.zeros(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        gp = batch_of_one(problem, "grad_lower_y", 0, Point(x + e, y), None)
        gm = batch_of_one(problem, "grad_lower_y", 0, Point(x - e, y), None)
        fd[j] = ((gp - gm) / (2 * eps)) @ v
    jv = batch_of_one(problem, "jvp_lower_xy", 0, Point(x, y), v, None)
    assert np.linalg.norm(jv - fd) / np.linalg.norm(fd) <= 1e-6


def test_unbiasedness_full_finite_sum_mean_exact():
    spec = QuadraticSpec(d1=3, d2=3, m=2, n_per_client=6, hetero=0.5,
                         noise_spread=0.2, seed=9)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst, batch_size=6)
    p = Point(np.ones(3), np.ones(3))
    stream = RngStream(1).child(0, "zeta", 0)
    for name in ("grad_lower_y", "grad_upper_x", "grad_upper_y"):
        exact = batch_of_one(problem, name, 0, p, None)
        full = batch_of_one(problem, name, 0, p, stream)
        assert np.array_equal(full, exact), name


def test_hessian_sample_safety():
    spec = QuadraticSpec(d1=3, d2=5, m=4, n_per_client=8, mu=1.0, L_g=10.0,
                         hetero=1.0, noise_spread=0.5, seed=12)
    inst = make_quadratic(spec)
    w = np.linalg.eigvalsh(inst.A[:, None] + inst.dA)  # (m, n, d2): every sampled Hessian
    assert w.shape == (4, 8, 5)
    assert w[..., 0].min() >= 1.0 - 1e-12
    assert w[..., -1].max() <= 10.0 + 1e-12


def test_oracle_determinism_and_linearity():
    spec = QuadraticSpec(d1=3, d2=3, m=2, hetero=0.4, noise_spread=0.3, seed=5)
    problem = QuadraticProblem(make_quadratic(spec))
    p = Point(np.ones(3), np.ones(3))
    s = RngStream(77).child(1, "u", 4)
    hvp = lambda v: batch_of_one(problem, "hvp_lower_yy", 1, p, v, s)  # noqa: E731
    jvp = lambda v: batch_of_one(problem, "jvp_lower_xy", 1, p, v, s)  # noqa: E731
    a = hvp(np.array([1.0, 0.0, 0.0]))
    b = hvp(np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(a, b)
    u = np.array([0.3, -1.0, 2.0])
    v = np.array([1.5, 0.2, -0.7])
    lin = hvp(2.0 * u + 3.0 * v)
    parts = 2.0 * hvp(u) + 3.0 * hvp(v)
    np.testing.assert_allclose(lin, parts, rtol=1e-12)
    jl = jvp(2.0 * u + 3.0 * v)
    jp = 2.0 * jvp(u) + 3.0 * jvp(v)
    np.testing.assert_allclose(jl, jp, rtol=1e-12)


def test_error_cases():
    # checked() checks the participant set and the points once, before any
    # oracle call: ids sorted and deduplicated, in [0, m), not empty, integers
    problem = QuadraticProblem(make_quadratic(QuadraticSpec(d1=1, d2=1, m=5, seed=2)))
    x, y = np.zeros(1), np.zeros(1)
    for ids in ([0, 5], [-1, 0]):
        with pytest.raises(ClientLookupError):
            problem.checked(ids, x, y)
    for ids in ([], [0.5, 1.0]):
        with pytest.raises(ProtocolError):
            problem.checked(ids, x, y)
    for xx, yy in ((np.zeros(2), y), (x, np.zeros((2, 1))), (np.zeros((4, 1)), y)):
        with pytest.raises(ContractViolation, match="shape"):
            problem.checked([0, 1, 4], xx, yy)
    assert problem.checked([4, 1, 1, 0], x, y).ids.tolist() == [0, 1, 4]
    assert problem.audit.total == 0


def test_svrg_correction_is_exactly_q_at_the_anchor():
    # evaluating one lane twice at one point draws one sample: the correction
    # g(y_i) - g(y) + q is exactly q while y_i == y
    spec = QuadraticSpec(d1=3, d2=3, m=2, hetero=0.4, noise_spread=0.3, seed=5)
    problem = QuadraticProblem(make_quadratic(spec))
    x, y = np.ones(3), np.array([0.5, -1.0, 2.0])
    q = np.array([0.3, -0.2, 0.1])
    lane = RngStream(4).child("lower", 0, 1, "zeta", 0)
    g = batch_of_one(problem, "grad_lower_y", 1, Point(x, y), lane)
    assert np.array_equal(g - batch_of_one(problem, "grad_lower_y", 1, Point(x, y), lane) + q,
                          q)
    cfg = LowerStepConfig(beta=0.05, tau=1)
    got = one_round_lower(problem, x, y, q, cfg, [1], RngStream(4).child("lower", 0),
                          CommLedger())
    assert np.array_equal(got, y - 0.05 * q)


def test_generator_stream_rejected():
    # an oracle's lanes are Lanes or None: a stream or a Generator is rejected
    # per call, before anything is audited
    problem = _problem_1d()
    ids = problem.checked([0], np.zeros(1), np.zeros(1)).ids
    for lanes in (RngStream(0).child(0, "zeta"), RngStream(0).generator()):
        with pytest.raises(ContractViolation, match="Lanes"):
            problem.grad_lower_y(ids, np.zeros(1), np.zeros(1), lanes)
    assert problem.audit.total == 0


@pytest.mark.parametrize("rng", [None, 5])
@pytest.mark.parametrize("phase,tau", [("aggitd", 1), ("aid_fhe", 1), ("local_fhe", 1),
                                       ("one_round_lower", 1), ("one_round_lower", 2),
                                       ("one_round_upper", 1), ("one_round_upper", 2)])
def test_phases_name_a_bad_rng(phase, tau, rng):
    # every estimator and local phase takes a scope RngStream or a lane
    # table's step as its rng, even where it draws nothing (tau = 1); any
    # other rng is named before a round is charged
    problem = QuadraticProblem(make_quadratic(QuadraticSpec(d1=2, d2=2, m=2, seed=3)))
    x, y, v, ledger = np.zeros(2), np.zeros(2), np.ones(2), CommLedger()
    lower = LowerStepConfig(beta=0.01, tau=tau)
    calls = {
        "aggitd": lambda: aggitd(problem, x, y, AggITDConfig(lam=0.1, N=1, lower=lower),
                                 range(2), rng, ledger),
        "aid_fhe": lambda: aid_fhe(problem, x, y, AidConfig(lam=0.1, T=2), range(2), rng,
                                   ledger),
        "local_fhe": lambda: local_fhe(problem, x, y, AidConfig(lam=0.1, T=2), range(2), rng,
                                       ledger),
        "one_round_lower": lambda: one_round_lower(problem, x, y, v, lower, range(2), rng,
                                                   ledger),
        "one_round_upper": lambda: one_round_upper(problem, x, y, v, 0.1, tau, range(2), rng,
                                                   ledger),
    }
    with pytest.raises(ContractViolation, match=r"\brng\b"):
        calls[phase]()
    assert ledger.rounds_total == 0


@pytest.mark.parametrize("bad", [-1, 0, 2.5, True, False, "2", None])
def test_batch_size_must_be_a_positive_integer(bad):
    # checked once where a problem is built and once where a run is configured,
    # before any oracle could audit a negative or empty batch; a run config's
    # None is unset, resolved when the run builds its problem
    from fedbilevel import ParameterError, RunConfig, make_problem
    builds = [lambda: make_problem(QuadraticSpec(), batch_size=bad),
              lambda: make_hyperrep(HyperRepSpec(m=3, n_points=120), 0, batch_size=bad)]
    if bad is None:
        assert RunConfig(batch_size=bad).batch_size is None
    else:
        builds.append(lambda: RunConfig(batch_size=bad))
    for build in builds:
        with pytest.raises(ParameterError, match="batch_size"):
            build()
    assert make_problem(QuadraticSpec(), batch_size=np.int64(3)).batch_size == 3
    assert RunConfig(batch_size=np.int32(2)).batch_size == 2


def _persistent_case(m=4):
    spec = QuadraticSpec(d1=3, d2=4, m=m, hetero=0.5, noise_spread=0.3, seed=6)
    problem = QuadraticProblem(make_quadratic(spec))
    gen = RngStream(6).child("inputs").generator()
    return problem, gen.normal(size=3), gen.normal(size=4), gen.normal(size=4)


def test_full_set_has_one_checked_oracles_per_problem():
    # every check of the full client set, however the ids are listed, returns
    # the problem's one CheckedOracles; each check still checks the points
    problem, x, y, _ = _persistent_case()
    full = problem.checked(range(4), x, y)
    assert problem.checked([3, 1, 0, 2, 2], x, y) is full
    assert problem.checked(np.arange(4), np.tile(x, (4, 1)), y) is full
    assert full.ids.tolist() == [0, 1, 2, 3] and not full.ids.flags.writeable
    other, *_ = _persistent_case()
    assert other.checked(range(4), x, y) is not full
    for xx, yy in ((np.zeros(2), y), (x, np.zeros(5)), (x, np.zeros((3, 4)))):
        with pytest.raises(ContractViolation, match="shape"):
            problem.checked(range(4), xx, yy)


def test_partial_set_gets_its_own_checked_oracles():
    # a partial set's schedules live on its own CheckedOracles, one per check,
    # and never on the full set's
    problem, x, y, q = _persistent_case()
    full = problem.checked(range(4), x, y)
    cfg = LowerStepConfig(beta=0.05, tau=[1, 3, 2, 1])
    part = problem.checked([2, 0], x, y)
    assert part is not problem.checked([0, 2], x, y) and part is not full
    one_round_lower(problem, x, y, q, cfg, part, RngStream(1), CommLedger())
    one_round_lower(problem, x, y, q, cfg, [0, 2], RngStream(1), CommLedger())
    assert len(part.schedules) == 1 and full.schedules == {}
    one_round_lower(problem, x, y, q, cfg, range(4), RngStream(1), CommLedger())
    assert len(full.schedules) == 1


def test_schedule_memo_stays_bounded_over_a_stepsize_sweep():
    # direct calls on the full set share its CheckedOracles, so a sweep over
    # 1,000 stepsizes keeps at most SCHEDULES_KEPT schedules; a setting dropped
    # from the memo is rebuilt with the same bits
    from fedbilevel.lower import SCHEDULES_KEPT
    problem, x, y, q = _persistent_case()
    tau = [1, 3, 2, 1]
    first = one_round_lower(problem, x, y, q, LowerStepConfig(beta=1e-3, tau=tau), range(4),
                            RngStream(2), CommLedger())
    for beta in np.linspace(1e-3, 0.1, 1000)[1:]:
        one_round_lower(problem, x, y, q, LowerStepConfig(beta=float(beta), tau=tau),
                        range(4), RngStream(2), CommLedger())
    schedules = problem.checked(range(4), x, y).schedules
    assert len(schedules) == SCHEDULES_KEPT
    assert (repr(tau), 1e-3) not in schedules
    again = one_round_lower(problem, x, y, q, LowerStepConfig(beta=1e-3, tau=tau), range(4),
                            RngStream(2), CommLedger())
    assert again.tobytes() == first.tobytes()


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), 1, Fraction(1, 2)])
def test_check_positive_accepts_finite_positive_reals(value):
    from fedbilevel.problems import check_positive
    check_positive("lam", value)


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), True, "1"])
def test_check_positive_names_what_it_rejects(value):
    # a float is accepted by its type first, but not when it is not in (0, inf)
    from fedbilevel import ParameterError
    from fedbilevel.problems import check_positive
    with pytest.raises(ParameterError, match=re.escape(
            f"lam must be a finite number > 0, got {value!r}") + "$"):
        check_positive("lam", value)
