"""CSV export and SVG rendering: schema, determinism, clamping."""

import pytest

from fedbilevel import ParameterError, QuadraticSpec, RunConfig, export_csv, render_svg
from fedbilevel.drivers import run_fbo_aggitd
from fedbilevel.reporting import CSV_HEADER, CSV_SCHEMA_LINE


def _report(K=3, N=5, seed=9):
    spec = QuadraticSpec(d1=3, d2=3, m=2, mu=1.0, L_g=2.0, hetero=0.2,
                         noise_spread=0.1, seed=seed)
    return run_fbo_aggitd(RunConfig(problem=spec, K=K, N=N, seed=seed, eval_every=1))


def test_csv_k_zero_header_plus_one_row(tmp_path):
    path = tmp_path / "m.csv"
    export_csv(_report(K=0), path)
    lines = path.read_bytes().decode().splitlines()
    assert lines[0] == CSV_SCHEMA_LINE
    assert lines[1] == "k,rounds_cum,grad_norm_sq,lower_gap,est_err,objective,test_metric"
    assert lines[1] == CSV_HEADER
    assert len(lines) == 3


def test_csv_reexport_identical_bytes(tmp_path):
    rep = _report(K=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(rep, p1)
    export_csv(rep, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_rounds_progression_step_13(tmp_path):
    path = tmp_path / "m.csv"
    export_csv(_report(K=4, N=5), path)
    lines = path.read_bytes().decode().splitlines()[2:]
    rounds = [int(line.split(",")[1]) for line in lines]
    assert rounds == [0, 13, 26, 39, 52]


def test_csv_full_precision_round_trip(tmp_path):
    rep = _report(K=2)
    path = tmp_path / "m.csv"
    export_csv(rep, path)
    lines = path.read_bytes().decode().splitlines()[2:]
    parsed = [float(line.split(",")[2]) for line in lines]
    for row, val in zip(rep.rows, parsed):
        assert val == row.grad_norm_sq  # exact, via shortest round-trip repr


def test_svg_single_report_polyline(tmp_path):
    rep = _report(K=2)  # 3 rows
    path = tmp_path / "p.svg"
    render_svg([rep], "rounds_cum", "grad_norm_sq", path)
    text = path.read_bytes().decode()
    assert text.count("<polyline") == 1
    pts = text.split('points="')[1].split('"')[0].split()
    assert len(pts) == 3


def test_svg_two_reports_legend(tmp_path):
    a, b = _report(K=2, seed=1), _report(K=2, seed=2)
    b.label = "other"
    path = tmp_path / "p.svg"
    render_svg([a, b], "k", "objective", path)
    text = path.read_bytes().decode()
    assert text.count("<polyline") == 2
    assert ">fbo-aggitd<" in text
    assert ">other<" in text


def test_svg_log_clamp_warns(tmp_path):
    rep = _report(K=2)
    rep.rows[0] = rep.rows[0].__class__(**{**{f: getattr(rep.rows[0], f)
                                              for f in rep.rows[0]._fields},
                                           "grad_norm_sq": 0.0})
    with pytest.warns(UserWarning, match="clamped"):
        render_svg([rep], "k", "grad_norm_sq", tmp_path / "p.svg", log_y=True)


def test_svg_unknown_metric_rejected(tmp_path):
    rep = _report(K=1)
    with pytest.raises(ParameterError):
        render_svg([rep], "k", "nonsense", tmp_path / "p.svg")
    with pytest.raises(ParameterError):
        render_svg([rep], "time", "objective", tmp_path / "p.svg")
