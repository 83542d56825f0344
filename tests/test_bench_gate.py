"""tools/bench_gate.py gates the latest committed record of every group."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", os.path.join(ROOT, "tools", "bench_gate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_rerun(slowdown):
    """A ``rerun`` that replays the latest committed record of the
    requested group, its mean scaled by ``slowdown[group]``."""
    def rerun(params, out_path, group="sweep"):
        from_group = {"sweep": "BENCH_0007.json", "scale": "BENCH_0008.json"}
        with open(os.path.join(ROOT, from_group[group])) as fileobj:
            doc = json.load(fileobj)
        doc["benchmarks"][0]["stats"]["mean"] *= slowdown.get(group, 1.0)
        with open(out_path, "w") as fileobj:
            json.dump(doc, fileobj)
    return rerun


def test_records_group_by_command(bench_gate):
    groups = bench_gate.records_by_group(bench_gate.committed_records())
    names = {group: [os.path.basename(path) for path in paths]
             for group, paths in groups.items()}
    assert names["sweep"][-2:] == ["BENCH_0006.json", "BENCH_0007.json"]
    assert names["scale"][-1:] == ["BENCH_0008.json"]


def test_every_group_is_gated(bench_gate, monkeypatch, capsys):
    monkeypatch.setattr(bench_gate, "rerun", _fake_rerun({}))
    assert bench_gate.main(["--reruns", "1"]) == 0
    out = capsys.readouterr().out
    assert "trajectory (sweep group" in out
    assert "trajectory (scale group" in out
    assert "vs BENCH_0007.json (sweep)" in out
    assert "vs BENCH_0008.json (scale)" in out


@pytest.mark.parametrize("group", ["sweep", "scale"])
def test_regression_in_either_group_fails(bench_gate, monkeypatch, capsys,
                                          group):
    monkeypatch.setattr(bench_gate, "rerun", _fake_rerun({group: 3.0}))
    assert bench_gate.main(["--reruns", "1", "--tolerance", "0.5"]) == 1
    assert "REGRESSION" in capsys.readouterr().out
