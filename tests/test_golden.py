"""Pinned artifact bytes: any change to what a fixture run writes fails here.

The hashes cover every artifact except ``manifest.json``, whose config block
carries the (temporary) output directory. A deliberate output change must
update these hashes in the same commit and say why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from kgprompt.pipeline import ExperimentConfig, run_experiment

from conftest import DATA_DIR


def fixture_config(out_dir: Path, **overrides) -> dict:
    config = {
        "dataset": str(DATA_DIR / "fixture_dataset.jsonl"),
        "kg": {"kind": "jsonl", "path": str(DATA_DIR / "fixture_kg.jsonl")},
        "structure": "NN",
        "limits": {"max_neighbors": 4, "max_common_neighbors": 5, "max_metapaths": 2, "max_hops": 4},
        "architecture": "MLM",
        "few_shot": {"k": 4, "seed": 203, "stratified": True},
        "folds": {"n_folds": 5, "seed": 203},
        "backend": {"kind": "mock", "seed": 203},
        "out_dir": str(out_dir),
    }
    config.update(overrides)
    return config


def write_hetionet_fixture(path: Path) -> Path:
    """A dump with a duplicate node, duplicate edges and "both" records."""

    def node(kind, identifier, name):
        return {"kind": kind, "identifier": identifier, "name": name}

    def edge(source, target, kind, direction="forward"):
        return {"source_id": source, "target_id": target, "kind": kind, "direction": direction}

    dump = {
        "nodes": [
            node("Gene", 1, "FGF6"),
            node("Gene", 2, "FGFR4"),
            node("Disease", "DOID:10283", "prostate cancer"),
            node("Gene", 1, "FGF6 again"),
            node("Anatomy", "UBERON:0001255", "urinary bladder"),
        ],
        "edges": [
            edge(["Gene", 1], ["Gene", 2], "interacts", "both"),
            edge(["Gene", 2], ["Disease", "DOID:10283"], "associates"),
            edge(["Gene", 2], ["Gene", 1], "interacts"),
            edge(["Gene", 2], ["Disease", "DOID:10283"], "associates"),
            edge(["Gene", 1], ["Gene", 1], "regulates", "both"),
            edge(["Anatomy", "UBERON:0001255"], ["Gene", 1], "expresses", "backward"),
            edge(["Gene", 1], ["Gene", 2], "interacts", "both"),
        ],
    }
    path.write_text(json.dumps(dump), encoding="utf-8")
    return path


def artifact_hashes(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


GOLDEN: dict[str, dict[str, str]] = {
    "NN": {
        "bundles.jsonl": "1560f1f16f3b7b19077d60cc608db9f020b8fe044e878efb0bd82ffee0ec35f3",
        "contexts.jsonl": "48d31b460f5a0d177150d8b111ffeb8771cf545ed0f923749318e6c146f83f91",
        "fold_plan.json": "b3fb06e73440900b451f12f2227cd6f8b01ca651d99cfb89a4e074792c11c788",
        "folds/fold_0/few_shot.jsonl": "5c73b46765da0180c27291ac3225626d974af8f87dc1c9e9438675eabf52dbee",
        "folds/fold_0/metrics.json": "64a2da2b952ee66f6b525b27e457f02b2275c8b990c8ab294a7f55b5a00a976f",
        "folds/fold_0/predictions.jsonl": "0590a291ff7704021273c8a837bcfb8b6a18d16ae335e07cf05b71a0ce2333d6",
        "folds/fold_0/test_prompts.jsonl": "0fdede337d3ec52d46a687731f85082bf041296cd2199493ad2587d8cee7dc55",
        "folds/fold_1/few_shot.jsonl": "f9b0d1e40dfb4a4233fb78274f1d6a146bea6508f413b29ce6d83088ac0c0818",
        "folds/fold_1/metrics.json": "7bafb7410d2be617acbc21c10778773bb72fd7460d82501656991aad18a7349f",
        "folds/fold_1/predictions.jsonl": "9430e743f563ae9b29843ab5b39a0bc2b751bf4b5b21fed521996e9222aa39aa",
        "folds/fold_1/test_prompts.jsonl": "9f72515adfe9c3d736e9851dd478cd5a57ce972748c08a13edd4b63d27cbde26",
        "folds/fold_2/few_shot.jsonl": "8df54b440a7c68351ca77c9db915fb36fee06f0c3baea18d15b312f2ee1b7b22",
        "folds/fold_2/metrics.json": "2beeddd06d29503bfc723396ec8af6a87af5b83ba6ae2c969edebca317caada2",
        "folds/fold_2/predictions.jsonl": "32bc20d315e4d4915879c2701d8dc6d58aabf65065f114907b50b1bf988ca6b4",
        "folds/fold_2/test_prompts.jsonl": "d8c0601f1d6a840846f7a423a651f7181acbecd140699abe3109cd816a3f5008",
        "folds/fold_3/few_shot.jsonl": "90394ef128337449e6b5e68d50baa702854b0fd9fb904bb1babf35e470ec38ed",
        "folds/fold_3/metrics.json": "7bafb7410d2be617acbc21c10778773bb72fd7460d82501656991aad18a7349f",
        "folds/fold_3/predictions.jsonl": "a9aabb751e8bc07706c6523e9e45016f49c4a1e34508be1c936f82b3bbf216dd",
        "folds/fold_3/test_prompts.jsonl": "c7c534c6e003c4857e27f0173e9f2608024b757e772a4dce3c9fe805ab055145",
        "folds/fold_4/few_shot.jsonl": "74989a7c3003c3c983f911f9adfdf02c779d019a42c6d0a02e24283a3b808831",
        "folds/fold_4/metrics.json": "cfd5c4a49a5917f791d3d2803f6625d32fdfad7b706636c38231998cbe5118ef",
        "folds/fold_4/predictions.jsonl": "90a0e49f94ee93bc8f137510e82b84cbb51bae02741c8de79d962e829388ed13",
        "folds/fold_4/test_prompts.jsonl": "579369098ddcbc33b305c4e46cf12cd670199e29c145c095b008c8dd08d2ff90",
        "ingest_report.json": "d7f8633c62bd5abcd115335bf87983e7502c827eed1eeb96c6c591a0c2c9d8e8",
        "linkage.jsonl": "dccd1a8b80446db6c6754e615a0e4e1a159cea4a374351063b76723ce7e4f372",
        "prompts.jsonl": "e8842b626e6e42461f7df5a06cc6b1c12ef0835f70d64990f4c71639f558c716",
        "report.json": "343f810f43ef9ed2628de4f71733102edbe7080329aa94d1ccde67b76373b895",
        "report.txt": "03cf2a27832379d48fbcac1cfc86ff981e972eddeeb814b5947624c39c18f3e4",
    },
    "CNN": {
        "bundles.jsonl": "1bcb4fb6d92dd4ca50ffc965b0ae4119ed9442c0a9a90a3d221c3418f687ca37",
        "contexts.jsonl": "4f5ee552b7d026cce1cf744ccb17410c17c6b2f08bcace2258231e13d4390d22",
        "fold_plan.json": "b3fb06e73440900b451f12f2227cd6f8b01ca651d99cfb89a4e074792c11c788",
        "folds/fold_0/few_shot.jsonl": "b26d3071b9143df0fc6c723005c687937985c8e03ce39348ffa123c27f81f59f",
        "folds/fold_0/metrics.json": "64a2da2b952ee66f6b525b27e457f02b2275c8b990c8ab294a7f55b5a00a976f",
        "folds/fold_0/predictions.jsonl": "6f5410c4874bb3ddd6d7db36e970942f84c57e6e8cf378857e1ad4cbe068fcb6",
        "folds/fold_0/test_prompts.jsonl": "346d80c6d16289fcb01c2252904cb39917e95c6d8d2985032f558de95139ef52",
        "folds/fold_1/few_shot.jsonl": "3f356d0e4838c552af1e8f9cd842e6e7ab6850f74bf1a287c14dfca8c622b095",
        "folds/fold_1/metrics.json": "cfd5c4a49a5917f791d3d2803f6625d32fdfad7b706636c38231998cbe5118ef",
        "folds/fold_1/predictions.jsonl": "5bb95798e66a6943a549ef441ec3f8134eefe3e927a0b2517298715379e1229a",
        "folds/fold_1/test_prompts.jsonl": "1ef823cd0bd6faa15985ba6860f50f69ee5920f30cd902158f4303ae13df7b97",
        "folds/fold_2/few_shot.jsonl": "15b0aa13f9f4ec712ce01116acdccbc580454f3bc75ec7a2467b7381c0874425",
        "folds/fold_2/metrics.json": "7bafb7410d2be617acbc21c10778773bb72fd7460d82501656991aad18a7349f",
        "folds/fold_2/predictions.jsonl": "7ee44a265b6723323a101f61c8045aa06a4bd2f384b6765f9eeb92916887cbd8",
        "folds/fold_2/test_prompts.jsonl": "68e3eab691fb1a3599d2a5a0c4d5b25def21ad7930accd8cbeea51fad029dd5d",
        "folds/fold_3/few_shot.jsonl": "ff8a7184e0c27a9512b93ab90e1bc9d131cb72785a90ebc8e43a320dadcc8730",
        "folds/fold_3/metrics.json": "7820eec011dbfa0448ed28c2e9081d6f66921765db8f931ea7cc318fb1239322",
        "folds/fold_3/predictions.jsonl": "7be63cb7ceb4462477c1e53ef1c75c600ebca5dd3f7666e095b7448064f9b482",
        "folds/fold_3/test_prompts.jsonl": "07e33a92bb6497b0034b722400f5955bdf94c9c5f5cdbc5a7a171acd786a7c75",
        "folds/fold_4/few_shot.jsonl": "2590548e8f6523d796bd3d4bffe7169fe5f36c659ed134ba8c3d5448f1922615",
        "folds/fold_4/metrics.json": "7bafb7410d2be617acbc21c10778773bb72fd7460d82501656991aad18a7349f",
        "folds/fold_4/predictions.jsonl": "06e2a4321975c6c90b1b6e998bbf66f8859e744cf21b56b249f660f6cf8948b1",
        "folds/fold_4/test_prompts.jsonl": "bbb141706edead70f14d62fde8bc43917a55d35f24bd3fc9a8551ed6aa3fed73",
        "ingest_report.json": "d7f8633c62bd5abcd115335bf87983e7502c827eed1eeb96c6c591a0c2c9d8e8",
        "linkage.jsonl": "dccd1a8b80446db6c6754e615a0e4e1a159cea4a374351063b76723ce7e4f372",
        "prompts.jsonl": "1199338e792a5c260ed447120ec2a9bc57ba0a92b281319588b77577358c387a",
        "report.json": "b66a48df92fa7ceba594744c8879c005fcf49f0bfc5426b1fac003433a9c9b7b",
        "report.txt": "84c9908ab335598854f09708104dee0948a7af571faf7fc3dd0589fb6703644c",
    },
    "MP": {
        "bundles.jsonl": "c5cc99de9d47ee73b4d81dd2bf1878217fea3f2a00b2fbba560fd94353173fad",
        "contexts.jsonl": "abac6829c636d8dedef5d02fc2acfedf2867f31f5cc6b3290be3867d6ce711ef",
        "fold_plan.json": "b3fb06e73440900b451f12f2227cd6f8b01ca651d99cfb89a4e074792c11c788",
        "folds/fold_0/few_shot.jsonl": "db7ab2cf9f56e596f6129b322b60078cc0bad3b447d0027285e276fe4b049df3",
        "folds/fold_0/metrics.json": "64a2da2b952ee66f6b525b27e457f02b2275c8b990c8ab294a7f55b5a00a976f",
        "folds/fold_0/predictions.jsonl": "92d41d59d8e1ec2a50a7e4f53d5eb155cef32e4159fd3d5004cd3e561f78bb2a",
        "folds/fold_0/test_prompts.jsonl": "077bb4b3cfb79b4f6485aa4d20d0d32ac1256c5c607d78da10a4e49c46361a91",
        "folds/fold_1/few_shot.jsonl": "4ac90f5f15717172e2c2d788e6515f7e6448507f9601e0a620c0e8e59de2bf6a",
        "folds/fold_1/metrics.json": "cfd5c4a49a5917f791d3d2803f6625d32fdfad7b706636c38231998cbe5118ef",
        "folds/fold_1/predictions.jsonl": "5bb95798e66a6943a549ef441ec3f8134eefe3e927a0b2517298715379e1229a",
        "folds/fold_1/test_prompts.jsonl": "e62906f9be91764e0384c5f8c970f80d26de0febefda9b3b37b9648e4d12bec1",
        "folds/fold_2/few_shot.jsonl": "bf7786e0b3fc207a091adb63ee464aa35f20b25aeddd4fdad629cea6bcb5a3d7",
        "folds/fold_2/metrics.json": "7bafb7410d2be617acbc21c10778773bb72fd7460d82501656991aad18a7349f",
        "folds/fold_2/predictions.jsonl": "7ee44a265b6723323a101f61c8045aa06a4bd2f384b6765f9eeb92916887cbd8",
        "folds/fold_2/test_prompts.jsonl": "e9b2ace2cf45af560df9a20d5d89542c151a3d8752b181779e8e774510102b0f",
        "folds/fold_3/few_shot.jsonl": "05e9e62d99f90b77b57010b9d4200ed73f10a5e7642e73f5fdb74ed857c60d2c",
        "folds/fold_3/metrics.json": "ef8c28c838c701b42b6468ed2dc007c87adc694751b4e9e831322c0e45d4f6b3",
        "folds/fold_3/predictions.jsonl": "42b520212cdef233190961e74b4e55a7a9d8cc62d0bfc64f3f5532d489cc1059",
        "folds/fold_3/test_prompts.jsonl": "63b21e92f4091e7f17b7de5fcea6641ed594d8b2141a64826662b5918d91e305",
        "folds/fold_4/few_shot.jsonl": "6fbdd8c431a040dd5f9da142a8c062a18d31ab572c37691caec299f915e8f56f",
        "folds/fold_4/metrics.json": "7bafb7410d2be617acbc21c10778773bb72fd7460d82501656991aad18a7349f",
        "folds/fold_4/predictions.jsonl": "06e2a4321975c6c90b1b6e998bbf66f8859e744cf21b56b249f660f6cf8948b1",
        "folds/fold_4/test_prompts.jsonl": "bed983b89efa016355a93345264f545bfbd00da03dc1e35ae22a7c613fcf7982",
        "ingest_report.json": "d7f8633c62bd5abcd115335bf87983e7502c827eed1eeb96c6c591a0c2c9d8e8",
        "linkage.jsonl": "dccd1a8b80446db6c6754e615a0e4e1a159cea4a374351063b76723ce7e4f372",
        "prompts.jsonl": "d21aed797da86da209f75dfd6b91cd5c2fb2c51e5e750d61e45153d2a910583b",
        "report.json": "aa63918ad34645e8c1f31f53a10999d1ce234a917a5f418dc94b32fd3519f5b5",
        "report.txt": "58438f32d613901a464e49df0697971188f8b224ae2b67c849dbaf453c1f51e1",
    },
    "hetionet_ingest": {
        "ingest_report.json": "ce4cd90d6cd861b59089828a9746b03b1db9cf08910a956a4342ef72428f66ba",
    },
}


def test_fixture_runs_match_golden_hashes(tmp_path):
    for structure in ("NN", "CNN", "MP"):
        config = fixture_config(tmp_path / structure, structure=structure)
        out = run_experiment(ExperimentConfig.from_dict(config))
        assert artifact_hashes(out) == GOLDEN[structure], structure


def test_hetionet_ingest_report_matches_golden_hash(tmp_path):
    dump = write_hetionet_fixture(tmp_path / "het.json")
    config = fixture_config(tmp_path / "run", kg={"kind": "hetionet_json", "path": str(dump)})
    out = run_experiment(ExperimentConfig.from_dict(config), until="ingest")
    assert artifact_hashes(out) == GOLDEN["hetionet_ingest"]


def test_manifest_lists_only_this_invocations_artifacts(tmp_path):
    config = ExperimentConfig.from_dict(fixture_config(tmp_path / "run"))
    run_experiment(config)
    out = run_experiment(config, until="link")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["artifacts"]) == ["ingest_report.json", "linkage.jsonl"]
    assert (out / "folds" / "fold_0" / "predictions.jsonl").exists()  # left, not hashed
