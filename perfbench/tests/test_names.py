import json
import os
import re

import names
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


def test_metric_names_and_units_use_the_allowed_characters():
    all_names = list(names.END_TO_END) + list(names.PER_LAYER)
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(names.unit_of(name)), name


def test_benchmark_json_matches_the_code():
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == names.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(names.PER_LAYER)
    assert all(m["unit"] == names.unit_of(m["name"]) for m in spec["per_layer"])
    for w in spec["workloads"]:
        assert w["name"] in run.WORKLOADS and NAME.fullmatch(w["name"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
