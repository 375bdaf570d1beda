"""Output oracle for one ``kgprompt run`` output directory.

Every expectation comes from the generator's plan or from rules the
benchmark implements itself, never from the program under test:

- ingest-report counts against what the generator planted;
- pair linkage (node and method per name) against the planted names;
- NN ``candidate_count`` against the generator's neighbor counts;
- MP ``candidate_count`` and truncation against an independent path count;
- full, disjoint prediction coverage of the fold test sets;
- each prediction against the mock hash rule or the stub's answer rule;
- ``report.json`` P/R/F1 recomputed from the predictions and gold labels.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

from stubs import stub_label

CANDIDATES = ["causal", "non-causal"]  # identity label mapping, causal first
NN_LIMIT = 4  # default max_neighbors
MP_LIMIT = 1  # default max_metapaths


def tree_hashes(out_dir: Path) -> dict:
    """sha256 of every artifact except the manifest, which names ``out_dir``."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def read_jsonl(path: Path) -> list:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _prf(pairs: list) -> tuple:
    tp = sum(p == "causal" and g == "causal" for p, g in pairs)
    fp = sum(p == "causal" and g != "causal" for p, g in pairs)
    fn = sum(p != "causal" and g == "causal" for p, g in pairs)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _mock_label(seed: int, prompt: str) -> str:
    digest = hashlib.sha256(f"{seed}:{prompt}".encode("utf-8")).digest()
    return CANDIDATES[int.from_bytes(digest[:8], "big") % len(CANDIDATES)]


def check(out_dir: Path, plan: dict) -> list:
    """Return a list of failed checks (empty when the output is correct)."""
    try:
        return _check(Path(out_dir), plan)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check(out: Path, plan: dict) -> list:
    failures = []
    config = plan["config"]
    ids = plan["instance_ids"]

    if "ingest" in plan:
        report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
        for key, want in plan["ingest"].items():
            if report.get(key) != want:
                failures.append(f"ingest_report {key}: {report.get(key)} != planted {want}")

    linkage = {r["instance_id"]: r for r in read_jsonl(out / "linkage.jsonl")}
    if list(linkage) != ids:
        failures.append("linkage.jsonl does not list every instance once, in order")
    for i, instance_id in enumerate(ids):
        record = linkage.get(instance_id, {})
        for side, (node, method) in zip(("e1", "e2"), plan["expected_links"][2 * i: 2 * i + 2]):
            got = (record.get(f"{side}_node"), record.get(f"{side}_method"))
            if got != (node, method):
                failures.append(f"{instance_id} {side} linked {got}, planted {(node, method)}")

    degree = plan["degree"]
    bundles = read_jsonl(out / "bundles.jsonl")
    if config["structure"] == "NN":
        want_sides = [(iid, side) for i, iid in enumerate(ids)
                      for side, (node, _m) in zip(("e1", "e2"), plan["expected_links"][2 * i: 2 * i + 2])
                      if node is not None]
        if [(b["instance_id"], b["side"]) for b in bundles] != want_sides:
            failures.append("bundles.jsonl does not hold one NN bundle per linked name")
        for b in bundles:
            node = b["pair"][0]
            if b["candidate_count"] != degree.get(node):
                failures.append(f"{b['instance_id']} NN candidate_count {b['candidate_count']} "
                                f"!= degree {degree.get(node)} of {node}")
            if len(b["payload"]) != min(NN_LIMIT, degree.get(node, 0)):
                failures.append(f"{b['instance_id']} NN payload size {len(b['payload'])}")
    else:
        ceiling = plan["ceiling"]
        by_id = {b["instance_id"]: b for b in bundles}
        if len(by_id) != len(ids):
            failures.append("bundles.jsonl does not hold one MP bundle per pair")
        for iid in ids:
            b = by_id.get(iid)
            count = plan["path_counts"][iid]
            if b is None:
                continue
            want = (min(count, ceiling), count > ceiling, min(MP_LIMIT, count))
            got = (b["candidate_count"], b["truncated"], len(b["payload"]))
            if got != want:
                failures.append(f"{iid} MP (candidates, truncated, selected) {got} != {want}")

    plan_ids = json.loads((out / "fold_plan.json").read_text(encoding="utf-8"))["assignments"]
    if sorted(plan_ids) != sorted(ids):
        failures.append("fold_plan.json does not assign every instance")
    golds = plan["golds"]
    backend = config["backend"]
    per_fold = []
    seen: set = set()
    n_folds = config["folds"]["n_folds"]
    for fold in range(n_folds):
        fold_dir = out / "folds" / f"fold_{fold}"
        tests = read_jsonl(fold_dir / "test_prompts.jsonl")
        preds = read_jsonl(fold_dir / "predictions.jsonl")
        test_ids = [t["instance_id"] for t in tests]
        if [p["instance_id"] for p in preds] != test_ids:
            failures.append(f"fold {fold}: predictions do not cover its test prompts exactly")
        if test_ids != [iid for iid in ids if plan_ids.get(iid) == fold]:
            failures.append(f"fold {fold}: test prompts are not the fold plan's test ids")
        seen.update(test_ids)
        prompt_of = {t["instance_id"]: t["prompt"] for t in tests}
        for p in preds:
            iid = p["instance_id"]
            if backend["kind"] == "mock":
                want = _mock_label(backend["seed"], prompt_of.get(iid, ""))
            else:
                want = stub_label(iid, CANDIDATES)
            if p["predicted"] != want:
                failures.append(f"{iid}: predicted {p['predicted']}, backend rule gives {want}")
        per_fold.append(_prf([(p["predicted"], golds[p["instance_id"]]) for p in preds]))
    if seen != set(ids):
        failures.append("predictions do not cover every instance")

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if len(report["per_fold"]) != n_folds:
        failures.append(f"report.json has {len(report['per_fold'])} folds, not {n_folds}")
    for fold, (got, want) in enumerate(zip(report["per_fold"], per_fold)):
        if not all(math.isclose(got[k], w, abs_tol=1e-12)
                   for k, w in zip(("precision", "recall", "f1"), want)):
            failures.append(f"report.json fold {fold} P/R/F1 differ from recomputation")
    means = [statistics.fmean(m[i] for m in per_fold) for i in range(3)]
    got_means = [report["mean"][k] for k in ("precision", "recall", "f1")]
    if not all(math.isclose(g, w, abs_tol=1e-12) for g, w in zip(got_means, means)):
        failures.append("report.json mean P/R/F1 differ from recomputation")
    if not math.isclose(report["f1_std"], statistics.pstdev(m[2] for m in per_fold), abs_tol=1e-12):
        failures.append("report.json f1_std differs from recomputation")
    return failures
