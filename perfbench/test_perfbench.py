"""Tests of the benchmark's own code: metric names, span arithmetic, wrapping.

    python3 -m pytest perfbench
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

import run
import tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    metrics = run.END_TO_END + run.PER_LAYER
    names = [name for name, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def test_spec_lists_exactly_what_run_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert len(SPEC["per_layer"]) <= 128


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and a second a [5, 9]
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 1, 2.0, 3.0],
        ["a", 0, 5.0, 9.0],
    ]
    times = tracer.layer_times(spans)
    assert times["root"] == (1, pytest.approx(3.0))
    assert times["a"] == (2, pytest.approx(2.0 + 4.0))
    assert times["b"] == (1, pytest.approx(1.0))
    total = sum(s for _, s in times.values())
    assert total == pytest.approx(10.0)


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake_layer")
    exec("def helper(x):\n"
         "    return x + 1\n"
         "def double(x):\n"
         "    return helper(x) * 2\n"
         "class Box:\n"
         "    def size(self, n):\n"
         "        return n\n", mod.__dict__)
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_wrapping_records_nested_spans(fake_module):
    t = tracer.Tracer()
    seen = []
    assert t.wrap("perfbench_fake_layer", "double", "fake.double")
    assert t.wrap("perfbench_fake_layer", "helper", "fake.helper")
    assert t.wrap("perfbench_fake_layer", "Box.size", "fake.size",
                  hook=lambda tr, args, kwargs, result: seen.append(result))
    assert fake_module.double(1) == 4
    assert fake_module.Box().size(7) == 7
    assert seen == [7]
    assert [(s[0], s[1]) for s in t.spans] == [
        ("fake.double", -1), ("fake.helper", 0), ("fake.size", -1)]
    assert all(s[3] >= s[2] for s in t.spans)


def test_vanished_wrap_target_is_reported_absent(fake_module):
    t = tracer.Tracer()
    assert not t.wrap("perfbench_fake_layer", "encode_link", "codec.encode_link")
    assert not t.wrap("perfbench_fake_layer", "ChannelMatrix.scale", "codec.scale")
    assert not t.wrap("perfbench_no_such_module", "f", "gone.f")
    assert t.absent == ["perfbench_fake_layer:encode_link",
                        "perfbench_fake_layer:ChannelMatrix.scale",
                        "perfbench_no_such_module:f"]
    assert t.spans == []
    # the per-layer table still carries the vanished layer, at zero
    untraced, traced = run.Rep(wall={"x": 1.0}), run.Rep(wall={"x": 1.0})
    traced.traces["x"] = {"spans": [["cli.report", -1, 0.0, 1.0]], "counters": {},
                          "absent": t.absent}
    m = run.layer_metrics(untraced, traced, "synth")
    assert m["codec.encode_link.calls"] == 0
    assert m["trace.absent_targets"] == 3
    assert set(m) == {name for name, _ in run.PER_LAYER}


def test_critic_flops_follow_layer_sizes():
    # one 4->3->1 critic, 2->2 embedding, batch 5
    assert tracer.critic_step_flops([4, 3, 1], [2, 2], 5) == 5 * (26 * 15 + 6 * 4)


def test_ks_check_flags_values_over_the_limit(tmp_path):
    out = tmp_path / "eval"
    out.mkdir()
    (out / "ks.csv").write_text(
        "# chanimg-report v1 name=ks seed=8\nheight,metric,value\n"
        f"1.6,ks_pathloss,0.02\n1.6,ks_delay,{run.KS_LIMIT * 2}\n")
    op = run.Op("eval", [], [str(out)])
    problem, values = run.check_ks(op)
    assert "ks_delay_max" in problem
    assert values == {"ks_pathloss_max": 0.02, "ks_delay_max": run.KS_LIMIT * 2}
    (out / "ks.csv").unlink()
    assert run.check_ks(op)[0] == "ks.csv missing"
