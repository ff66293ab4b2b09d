"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

The smoke runs start Ray in a subprocess each, so they take ~30 s apiece.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import workloads  # noqa: E402

SMALL = 0.05


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = workloads.scaled(workloads.WORKLOADS[name], SMALL)
    a, b = workloads.make_tables(w, 7), workloads.make_tables(w, 7)
    assert a.keys() == b.keys()
    assert all(a[k].equals(b[k]) for k in a)
    assert not a["base"].equals(workloads.make_tables(w, 8)["base"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gold_is_consistent(name):
    w = workloads.WORKLOADS[name]
    t = workloads.make_tables(w, 3)
    for corpus, gold in (("base", "base_gold"), ("delta", "delta_gold")):
        texts = {
            (c, i): s
            for c, i, s in zip(
                t[corpus]["conv_id"].to_pylist(),
                t[corpus]["turn_idx"].to_pylist(),
                t[corpus]["text"].to_pylist(),
            )
        }
        g = t[gold]
        for c, i, addr in zip(
            g["conv_id"].to_pylist(), g["turn_idx"].to_pylist(), g["address"].to_pylist()
        ):
            assert addr in texts[(c, i)]
    # one entity per surface, over base and delta together
    surfaces = gen.gold_surfaces(t["base_gold"], t["delta_gold"])
    # the delta plants entities the base never mentions
    base_ids = set(t["base_gold"]["entity_id"].to_pylist())
    assert any(e not in base_ids for e in set(surfaces.values()))
    # every exotic label keeps its hand-assigned identity
    for addr, label in gen.EXOTICS:
        if addr in surfaces:
            assert surfaces[addr] == gen.EXOTIC_ID_BASE + gen.EXOTIC_LABELS.index(label)


def test_person_variants_share_one_entity_and_differ_across_entities():
    cfg = gen.GenConfig(turns=10, entities=200)
    ents = gen.make_entities(cfg, np.random.default_rng(0))
    seen = {}
    for eid, variants in zip(ents["entity_id"], ents["variants"]):
        assert len(set(variants)) == len(gen.STYLES)
        for v in variants:
            assert seen.setdefault(v, eid) == eid


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced(name):
    spec = _spec()
    out = _result(_run([
        "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1",
        "--scale", str(SMALL),
    ]))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_smoke_end_to_end():
    spec = _spec()
    out = _result(_run([
        "--workload", "text_heavy", "--seed", "2", "--seconds", "1",
        "--scale", str(SMALL),
    ]))
    assert out["correct"]
    metrics = out["metrics"]
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert metrics["pair_f1"]["value"] >= 0.99
    assert metrics["mention_recall"]["value"] >= 0.99


def test_fails_without_the_engine():
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "text_heavy", "--seed", "1", "--seconds", "1"], cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_spans_are_nested_and_closed():
    import spans

    tr = spans.Tracer("t")
    with tr.span("a"):
        with tr.span("b"):
            pass
    assert [s["parent"] for s in tr.spans] == [None, 0]
    assert all(s["end"] >= s["start"] for s in tr.spans)
    assert 0 <= tr.self_time("a") <= tr.dur("a")
