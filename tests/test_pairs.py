"""The summary of ``tools/pairs.py`` on fixed numbers."""

import pytest


@pytest.fixture
def pairs(monkeypatch):
    from test_golden import ROOT

    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import pairs

    return pairs


def test_a_clear_gain_of_a_lower_is_better_metric(pairs):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 0.91, 1.05, 0.89, 0.90]
    s = pairs.summarize(parent, change, "lower", 0.25)
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["parent"][1] == pytest.approx(1.00)
    assert s["change"][1] == pytest.approx(0.90)
    assert s["ratio"] == pytest.approx(0.90)
    assert s["parent_iqr"] == pytest.approx(1.0175 - 0.9825)  # linear quartiles
    assert s["gain"] and s["within_bound"]
    row = pairs.format_row("experiment_s", "s", s)
    assert "better in 9 of 10" in row and "gain yes" in row and "within bound yes" in row


def test_eight_wins_in_ten_is_no_gain(pairs):
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    s = pairs.summarize(parent, change, "lower", 0.25)
    assert s["wins"] == 8 and not s["gain"]


def test_a_gap_inside_the_parent_iqr_is_no_gain(pairs):
    parent = [0.8, 1.2] * 5
    change = [p - 0.1 for p in parent]
    s = pairs.summarize(parent, change, "lower", 0.25)
    assert s["wins"] == 10 and s["parent_iqr"] == pytest.approx(0.4)
    assert not s["gain"]


def test_higher_is_better_and_the_bound(pairs):
    parent = [10.0, 10.0, 10.0]
    s = pairs.summarize(parent, [12.0] * 3, "higher", 0.1)
    assert s["wins"] == 3 and s["gain"] and s["within_bound"]
    s = pairs.summarize(parent, [8.9] * 3, "higher", 0.1)
    assert s["wins"] == 0 and not s["within_bound"]
    s = pairs.summarize(parent, [11.0] * 3, "lower", 0.1)
    assert s["within_bound"] and not s["gain"]
    s = pairs.summarize(parent, [11.01] * 3, "lower", 0.1)
    assert not s["within_bound"]
    assert "within bound NO" in pairs.format_row("peak_rss_mb", "MB", s)


def test_one_pair(pairs):
    s = pairs.summarize([2.0], [1.0], "lower", 0.25)
    assert s["parent"] == (2.0, 2.0, 2.0) and s["wins"] == 1 and s["gain"]


def test_smoke_runs_take_a_one_second_budget(pairs, monkeypatch, tmp_path):
    import bench

    commands = []

    def fake_run(command, **kwargs):
        commands.append(command)
        stdout = 'env {"host": 1}\n{"metrics": {}}\n'
        return bench.subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    for smoke in (True, False):
        run = bench.run_once(tmp_path, "bundled-emit", 0, smoke, 3)
        assert run == {"result": {"metrics": {}}, "env": {"host": 1}}
    smoked, full = commands
    assert smoked[1:] == ["perfbench/run.py", "--workload", "bundled-emit", "--seed", "3",
                          "--trace", "0", "--smoke", "--seconds", "1"]
    assert full[1:] == smoked[1:-3]
