"""The benchmark's own tests: tiny smoke runs, the oracle, the path counter.

    python3 -m pytest -q bench

Run from the repository root.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import oracle
from pathcount import count_simple_paths

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"hetionet-hops4": {"nodes": 300, "edges": 1_500, "mp_nodes": 200, "mp_edges": 800, "pairs": 20},
        "remote-http": {"entities": 40, "pairs": 20}}


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args, "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    result = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", "hetionet-hops4",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A tiny hetionet-hops4 run's output directory and the generator's plan."""
    work = tmp_path_factory.mktemp("oracle")
    plan = gen.gen_hetionet_hops4(work, 7, nodes=300, edges=1_500, mp_nodes=200, mp_edges=800, pairs=20)
    config = dict(plan["config"], out_dir=str(work / "out"))
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "kgprompt.cli", "run", "--config", str(work / "config.json")],
                   env=env, check=True, capture_output=True, timeout=120)
    return work / "out", plan


def test_oracle_accepts_the_program_output(finished_run):
    out, plan = finished_run
    assert oracle.check(out, plan) == []


def _flip_prediction(out: Path) -> None:
    path = out / "folds" / "fold_2" / "predictions.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0]["predicted"] = "causal" if records[0]["predicted"] != "causal" else "non-causal"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _inflate_candidate_count(out: Path) -> None:
    path = out / "bundles.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[3]["candidate_count"] += 1
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _relink_as_exact(out: Path) -> None:
    path = out / "linkage.jsonl"
    text = path.read_text()
    assert '"normalized"' in text
    path.write_text(text.replace('"normalized"', '"exact"', 1))


@pytest.mark.parametrize("corrupt", [_flip_prediction, _inflate_candidate_count, _relink_as_exact])
def test_oracle_rejects_a_corrupted_artifact(finished_run, tmp_path, corrupt):
    out, plan = finished_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    corrupt(copy)
    assert oracle.check(copy, plan) != []
    assert oracle.tree_hashes(copy) != oracle.tree_hashes(out)


def _enumerated(neighbors: dict, x, y, max_hops: int) -> int:
    count = 0

    def walk(path: list) -> None:
        nonlocal count
        for v in neighbors[path[-1]]:
            if v == y:
                count += 2 <= len(path) <= max_hops
            elif len(path) < max_hops and v not in path:
                walk(path + [v])

    walk([x])
    return count


def test_path_count_matches_enumeration():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(3, 12)
        neighbors = {i: set() for i in range(n)}
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                neighbors[a].add(b)
                neighbors[b].add(a)
        x, y = rng.sample(range(n), 2)
        for hops in (2, 3, 4):
            assert count_simple_paths(neighbors, x, y, hops) == _enumerated(neighbors, x, y, hops)


def test_generator_is_deterministic(tmp_path):
    for name, size in TINY.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        gen.GENERATORS[name](a, 3, **size)
        gen.GENERATORS[name](b, 3, **size)
        for f in a.iterdir():
            assert f.read_bytes() == (b / f.name).read_bytes(), f.name


def test_seed_changes_the_files_but_not_the_shape(tmp_path):
    for name, size in TINY.items():
        plans = []
        for seed in (3, 4):
            out = tmp_path / f"{name}-{seed}"
            out.mkdir()
            plans.append((out, gen.GENERATORS[name](out, seed, **size)))
        (a, plan_a), (b, plan_b) = plans
        assert plan_a["properties"] == plan_b["properties"], name
        assert sorted(plan_a["degree"].values()) == sorted(plan_b["degree"].values()), name
        assert [m for _n, m in plan_a["expected_links"]] == [m for _n, m in plan_b["expected_links"]]
        assert any(f.read_bytes() != (b / f.name).read_bytes() for f in a.iterdir()), name
