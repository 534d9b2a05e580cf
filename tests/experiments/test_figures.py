"""Smoke tests for the figure drivers (miniature durations)."""


from repro.experiments.figures import fig7, fig9, fig14

KW = dict(runs=1, duration=6.0, seed=1)


def test_fig7a_structure():
    result = fig7.fig7a(**KW)
    assert result.figure_id == "Fig7a"
    labels = [s.label for s in result.series]
    assert labels == ["wN", "mN", "mL"]
    for series in result.series:
        assert series.result.af_runs and series.result.atk_runs


def test_fig7c_includes_extra_mn_series():
    result = fig7.fig7c(**KW)
    labels = [s.label for s in result.series]
    assert labels == ["ttl=20s", "ttl=10s", "ttl=5s", "ttl=5s,mN"]


def test_fig7_panel_selection():
    result = fig7.fig7e(**KW)
    assert result.figure_id == "Fig7e"
    labels = [s.label for s in result.series]
    assert labels == ["1 direction(s)", "2 direction(s)"]


def test_fig9a_structure():
    result = fig9.fig9a(**KW)
    assert [s.label for s in result.series] == ["wN", "mN", "mL"]


def test_fig9_source_location_study_shapes():
    study = fig9.source_location_study(runs=1, duration=6.0, seed=1)
    assert study.fully_covered_interval == (1986.0, 2014.0)
    assert study.inside_packets + study.outside_packets > 0
    text = study.format()
    assert "fully covered area" in text


def test_fig9_attack_range_tuning_labels(monkeypatch):
    monkeypatch.setattr(fig9, "TUNING_RANGES", (450.0, 500.0))
    result = fig9.attack_range_tuning(runs=1, duration=6.0, seed=1)
    assert [s.label for s in result.series] == ["range=450m", "range=500m"]


def test_fig14a_reports_mitigation_improvement_fields():
    result = fig14.fig14a(**KW)
    assert result.figure_id == "Fig14a"
    for series in result.series:
        assert series.unmitigated.atk_runs
        assert series.mitigated.atk_runs
    text = result.format()
    assert "mitigated=" in text


def test_fig14b_structure():
    result = fig14.fig14b(**KW)
    assert [s.label for s in result.series] == ["wN", "mN"]
