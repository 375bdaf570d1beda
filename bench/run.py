"""Seeded benchmark of ``kgprompt run`` as a closed loop of CLI processes.

    python3 bench/run.py --workload hetionet-hops4 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

Run from the repository root.  Each invocation generates its workload's
inputs from the seed, then for ``--seconds`` seconds runs ``kgprompt run``
one process at a time, each into a fresh output directory.  One run in
three is a set-up (a fresh home directory and input copy, so it pays the
first-run costs of anything the program caches outside its output); the
others are timed runs.  Every run is checked by the output oracle.  With
``--trace 1`` one more run is made in-process under ``trace.py`` and the
per-layer metrics are reported instead of the end-to-end ones.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
from gen import GENERATORS  # noqa: E402

# Input sizes for the benchmark's own smoke tests; full sizes are the
# generators' defaults.
TINY_SIZES = {
    "hetionet-hops4": {"nodes": 500, "edges": 2_000, "mp_nodes": 300, "mp_edges": 1_200, "pairs": 20},
    "remote-http": {"entities": 60, "pairs": 30},
}
SETUPS = 3  # least set-up runs per invocation; setup_s is their trimmed mean
MIN_TIMED = 3  # least timed runs per invocation, even past --seconds
TIMED_PER_SETUP = 2  # timed runs between two set-ups
DEADLINE_S = 150  # stop timing new runs past this, to end within 180 s
WORK_DIR = ".bench_work"


def quantile(values: list, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def trimmed_mean(values: list) -> float:
    """Mean without the lowest and the highest value, when there are five or more.

    The host's speed drifts in stretches of seconds to minutes; a mean weighs a
    window's fast and slow stretches by their length, where a median of a
    few runs jumps from one to the other.
    """
    ordered = sorted(values)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


class Stub:
    """The stub servers' process: started once per invocation, stopped at the end."""

    def __init__(self, graph: Path, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stubs.py"), str(graph)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=cwd, text=True)
        ports = json.loads(self.proc.stdout.readline())
        self.wiki = f"http://127.0.0.1:{ports['wiki']}"
        self.predict = f"http://127.0.0.1:{ports['predict']}"

    def _call(self, base: str, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(urllib.request.Request(base + path, data=data), timeout=10) as r:
            return json.loads(r.read())

    def reset(self) -> None:
        for base in (self.wiki, self.predict):
            self._call(base, "/_reset", b"")

    def stats(self) -> dict:
        return {"wiki": self._call(self.wiki, "/_stats"), "predict": self._call(self.predict, "/_stats")}

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _relocate(config: dict, inputs: Path) -> dict:
    """Rewrite the config's input paths relative to the directory holding ``inputs``."""
    def rel(path: str) -> str:
        return str(Path("inputs") / Path(path).relative_to(inputs))

    config = json.loads(json.dumps(config))
    config["out_dir"] = "out"  # every run passes its own --out
    config["dataset"] = rel(config["dataset"])
    for key in ("path", "cache_dir"):
        if key in config["kg"]:
            config["kg"][key] = rel(config["kg"][key])
    if "overrides" in config:
        config["overrides"] = rel(config["overrides"])
    return config


class Workload:
    def __init__(self, root: Path, name: str, seed: int, seconds: float, size: str, spawner):
        self.spawner = spawner
        self.root = root
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.work = root / WORK_DIR / f"{name}-{seed}-{os.getpid()}"
        self.stub: Stub | None = None
        self.verdicts: dict = {}  # artifact hashes -> oracle failures
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.runs = 0

    # --- running kgprompt ---

    def _env(self, home: Path) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("KGPROMPT_", "PYTHON"))}
        env.update({
            "PYTHONPATH": str(self.root / "src"),
            "HOME": str(home),
            "XDG_CACHE_HOME": str(home / ".cache"),
        })
        return env

    def _spawn(self, argv: list, cwd: Path, env: dict) -> dict:
        """Run a child through ``spawner.py``, so its peak RSS is its own."""
        self.runs += 1
        log = self.work / f"run{self.runs}.log"
        job = {"argv": argv, "cwd": str(cwd), "env": env, "log": str(log)}
        self.spawner.stdin.write(json.dumps(job) + "\n")
        self.spawner.stdin.flush()
        return dict(json.loads(self.spawner.stdout.readline()), log=log)

    def _kgprompt(self, cwd: Path, env: dict, traced: Path | None = None) -> dict:
        """One checked ``kgprompt run`` into a fresh output directory."""
        out = self.work / f"out{self.runs + 1}"
        args = ["run", "--config", "config.json", "--out", str(out)]
        if self.stub:
            cache = self.work / f"cache{self.runs + 1}"
            shutil.copytree(cwd / "inputs" / "warm_cache", cache)
            args += ["--cache", str(cache)]
            self.stub.reset()
        if traced is None:
            argv = [sys.executable, "-m", "kgprompt.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "trace.py"), str(traced), "--", *args]
        run = self._spawn(argv, cwd, env)
        run["out"] = out
        if self.stub:
            run["cache_writes"] = (sum(1 for p in cache.rglob("*.json"))
                                   - sum(1 for p in (cwd / "inputs" / "warm_cache").rglob("*.json")))
        self._judge(run)
        if traced is None:  # only the traced run's output is read again
            shutil.rmtree(out, ignore_errors=True)
            if self.stub:
                shutil.rmtree(cache)
        return run

    def _judge(self, run: dict) -> None:
        self.attempted += 1
        problems = []
        if run["exit"] != 0:
            problems.append(f"exit code {run['exit']}: {run['log'].read_text()[-400:]}")
        else:
            hashes = oracle.tree_hashes(run["out"])
            key = json.dumps(hashes, sort_keys=True)
            if key not in self.verdicts:
                self.verdicts[key] = oracle.check(run["out"], self.plan)
            problems += self.verdicts[key]
            if self.reference is None:
                self.reference = hashes
            elif hashes != self.reference:
                problems.append("artifact hashes differ from the first run's")
        if problems:
            self.failed += 1
            self.failures.append(problems[:5])
        run["ok"] = not problems

    # --- the invocation ---

    def prepare(self) -> None:
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        sizes = TINY_SIZES[self.name] if self.size == "tiny" else {}
        self.plan = GENERATORS[self.name](inputs, self.seed, **sizes)
        config = self.plan["config"]
        if self.name == "remote-http":
            self.stub = Stub(inputs / "remote_graph.json", self.work)
            config["kg"].update(sparql_url=self.stub.wiki + "/sparql",
                                entity_api_url=self.stub.wiki + "/api")
            config["backend"]["base_url"] = self.stub.predict
            self._warm_cache(inputs, config)
        self.config = _relocate(config, inputs)

    def _warm_cache(self, inputs: Path, config: dict) -> None:
        """Pre-warm a cache for the generator's half of the pair names."""
        warm = dict(config, dataset=self.plan["warm_dataset"], out_dir=str(self.work / "warm_out"))
        warm["kg"] = dict(config["kg"], cache_dir=str(inputs / "warm_cache"))
        (self.work / "warm.json").write_text(json.dumps(warm))
        run = self._spawn([sys.executable, "-m", "kgprompt.cli", "extract", "--config", "warm.json"],
                          self.work, self._env(self.work / "warm_home"))
        if run["exit"] != 0:
            raise RuntimeError(f"cache warm-up failed: {run['log'].read_text()[-400:]}")
        shutil.rmtree(self.work / "warm_out")

    def setup(self, i: int) -> tuple:
        """A fresh copy of everything a first run may build or cache, then one run."""
        cwd = self.work / f"setup{i}"
        shutil.copytree(self.work / "inputs", cwd / "inputs")
        (cwd / "config.json").write_text(json.dumps(self.config))
        env = self._env(cwd / "home")
        return cwd, env, self._kgprompt(cwd, env)

    def run(self, trace: bool) -> dict:
        started = time.perf_counter()
        self.prepare()
        # Set-ups and timed runs share one window, one set-up after every
        # TIMED_PER_SETUP timed runs, so that both sample the same stretch of
        # a shared host's varying speed.  Timed runs reuse the first set-up's
        # home and inputs; later set-ups are removed once measured.
        loop_start = time.perf_counter()
        cwd, env, first = self.setup(0)
        setups, timed, steps = [first], [], [time.perf_counter() - loop_start]
        while True:
            now = time.perf_counter()
            enough = len(setups) >= SETUPS and len(timed) >= MIN_TIMED
            if enough and now - loop_start + statistics.median(steps) > self.seconds:
                break  # the next run would end past the window
            if now - started > DEADLINE_S:
                break
            if len(timed) >= TIMED_PER_SETUP * len(setups):
                extra_cwd, _env, run = self.setup(len(setups))
                setups.append(run)
                shutil.rmtree(extra_cwd)
            else:
                timed.append(self._kgprompt(cwd, env))
            steps.append(time.perf_counter() - now)
        walls = [r["wall_s"] for r in timed]
        summary = {
            "setup_s": trimmed_mean([s["wall_s"] for s in setups]),
            "setups": len(setups),
            "run_wall_s": trimmed_mean(walls),
            "run_wall_s.p50": quantile(walls, 0.5),
            "run_wall_s.p25": quantile(walls, 0.25),
            "run_wall_s.p75": quantile(walls, 0.75),
            "runs": len(timed),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in timed),
            "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        }
        if not trace:
            metrics = {
                "run_wall_s": (summary["run_wall_s"], "s"),
                "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
                "setup_s": (summary["setup_s"], "s"),
            }
            return self._result(metrics, summary)
        result_path = self.work / "trace.json"
        traced = self._kgprompt(cwd, env, traced=result_path)
        stub_stats = self.stub.stats() if self.stub else None
        layer = json.loads(result_path.read_text()) if result_path.exists() else None
        metrics = {}
        if traced["ok"] and result_path.exists():
            metrics = per_layer_metrics(layer, traced, summary, self.config, stub_stats)
        return self._result(metrics, summary, layer)

    def _result(self, metrics: dict, summary: dict, layer: dict | None = None) -> dict:
        return {
            "summary": summary,
            "properties": self.plan["properties"],
            "layer": layer,
            "failures": self.failures,
            "output": {
                "correct": self.failed == 0 and bool(metrics),
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
        }

    def close(self) -> None:
        if self.stub:
            self.stub.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # only when no other invocation is using it
        except OSError:
            pass


def per_layer_metrics(layer: dict, traced: dict, summary: dict, config: dict, stub: dict | None) -> dict:
    """Per-layer metrics of the traced run; counts come from the stubs where they exist."""
    t = layer["layers"]
    ingest = layer["ingest"][0] if layer["ingest"] else {"edges": 0, "edges_loaded": 0,
                                                          "duplicates_rejected": 0, "rss_bytes": 0}
    methods = layer["link_methods"]
    names = sum(methods.values()) or 1
    structure = config["structure"]
    pair_ms, req_ms = layer["pair_ms"], layer["req_ms"]
    mp_ms = pair_ms if structure == "MP" else []
    nn_ms = pair_ms if structure == "NN" else []
    out = traced["out"]
    contexts = oracle.read_jsonl(out / "contexts.jsonl")
    prompts = oracle.read_jsonl(out / "prompts.jsonl")
    loads = layer["cache_hits"] + layer["cache_misses"]
    if stub:
        backend_counts = (stub["predict"]["requests"], stub["predict"]["retries"],
                          stub["predict"]["connections"], stub["predict"]["max_in_flight"])
        remote_counts = (stub["wiki"]["requests"], stub["wiki"]["connections"])
    else:
        backend_counts = (len(req_ms), 0, 0, 1)
        remote_counts = (0, 0)
    return {
        "ingest.load_s": (t["ingest"], "s"),
        "ingest.rss_mb": (ingest["rss_bytes"] / 2**20, "MB"),
        "ingest.bytes_per_edge": (ingest["rss_bytes"] / ingest["edges"] if ingest["edges"] else 0.0,
                                  "B/edge"),
        "ingest.edges_loaded": (ingest["edges_loaded"], "count"),
        "ingest.duplicates_rejected": (ingest["duplicates_rejected"], "count"),
        "linking.link_s": (t["linking"], "s"),
        "linking.resolved_ratio": (1 - methods.get("unresolved", 0) / names, "ratio"),
        "linking.exact": (methods.get("exact", 0), "count"),
        "linking.normalized": (methods.get("normalized", 0), "count"),
        "linking.manual_override": (methods.get("manual_override", 0), "count"),
        "linking.unresolved": (methods.get("unresolved", 0), "count"),
        "structures.extract_s": (t["structures"], "s"),
        "structures.mp.pair_ms.p50": (quantile(mp_ms, 0.5), "ms"),
        "structures.mp.pair_ms.p80": (quantile(mp_ms, 0.8), "ms"),
        "structures.mp.pair_ms.max": (max(mp_ms, default=0.0), "ms"),
        "structures.mp.truncated_pairs": (sum(t for _c, t in layer["mp"]), "count"),
        "structures.mp.candidates_total": (sum(c for c, _t in layer["mp"]), "count"),
        "structures.nn.pair_ms.p50": (quantile(nn_ms, 0.5), "ms"),
        "structures.nn.pair_ms.p99": (quantile(nn_ms, 0.99), "ms"),
        "structures.nn.pair_ms.max": (max(nn_ms, default=0.0), "ms"),
        "verbalize.s": (t["verbalize"], "s"),
        "verbalize.empty_ratio": (sum(c["empty"] for c in contexts) / len(contexts), "ratio"),
        "prompts.s": (t["prompts"], "s"),
        "prompts.truncated": (sum(p["truncated"] for p in prompts), "count"),
        "dataset.split_s": (t["dataset"], "s"),
        "metrics.eval_s": (t["metrics"], "s"),
        "backend.predict_s": (t["backend"], "s"),
        "backend.req_ms.p50": (quantile(req_ms, 0.5), "ms"),
        "backend.req_ms.p99": (quantile(req_ms, 0.99), "ms"),
        "backend.requests": (backend_counts[0], "count"),
        "backend.retries": (backend_counts[1], "count"),
        "backend.connections": (backend_counts[2], "count"),
        "backend.max_in_flight": (backend_counts[3], "count"),
        "remote.fetch_s": (t["remote"], "s"),
        "remote.http_requests": (remote_counts[0], "count"),
        "remote.connections": (remote_counts[1], "count"),
        "remote.cache_hit_ratio": (layer["cache_hits"] / loads if loads else 0.0, "ratio"),
        "remote.cache_writes": (traced.get("cache_writes", 0), "count"),
        "pipeline.self_s": (t["pipeline"] + t["cli"], "s"),
        "pipeline.artifact_mb": (sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / 1e6,
                                 "MB"),
        "cli.import_s": (layer["import_s"], "s"),
        "cli.cpu_s": (summary["cpu_s"], "s"),
        "trace.overhead_ratio": (traced["wall_s"] / summary["run_wall_s"] - 1, "ratio"),
    }


def report_lines(name: str, result: dict, trace: bool) -> list:
    s = result["summary"]
    out = result["output"]
    lines = [f"workload {name}: {out['attempted']} runs checked, {out['failed']} failed"]
    lines.append("  inputs: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                          for k, v in result["properties"].items()))
    lines.append(f"  run_wall_s = {s['run_wall_s']:.4f} s (trimmed mean; p25 {s['run_wall_s.p25']:.4f}, "
                 f"p50 {s['run_wall_s.p50']:.4f}, p75 {s['run_wall_s.p75']:.4f}, n={s['runs']})")
    lines.append(f"  peak_rss_mb = {s['peak_rss_mb']:.1f} MB")
    lines.append(f"  setup_s = {s['setup_s']:.4f} s (trimmed mean of {s['setups']})")
    lines.append(f"  fail_ratio = {out['failed'] / out['attempted']:.4f} ratio")
    layer = result["layer"]
    if trace and layer:
        total = sum(layer["layers"].values())
        shares = sorted(layer["layers"].items(), key=lambda kv: -kv[1])
        lines.append("  layer self-time shares: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in shares if v / total >= 0.001))
        if layer["missing"]:
            lines.append("  not traced (names absent): " + ", ".join(layer["missing"]))
        for k, m in out["metrics"].items():
            lines.append(f"  {k} = {m['value']:.6g} {m['unit']}")
    for problem in result["failures"][:3]:
        lines.append(f"  FAILED: {problem}")
    return lines


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kgprompt" / "cli.py").is_file():
        print(f"error: no kgprompt sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    spawner = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawner.py")],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    outputs = {}
    try:
        for name in names:
            workload = Workload(root, name, args.seed, args.seconds, args.size, spawner)
            try:
                result = workload.run(bool(args.trace))
            finally:
                workload.close()
            print("\n".join(report_lines(name, result, bool(args.trace))), flush=True)
            outputs[name] = result["output"]
    finally:
        spawner.stdin.close()
        spawner.wait()
    if len(names) == 1:
        print(json.dumps(outputs[names[0]]))
    else:
        print(json.dumps(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
