import dataclasses
import re
import shutil

import numpy as np
import pytest

from expertmerge import catalog as store
from expertmerge import embedding, pipeline
from expertmerge import model as lm
from expertmerge.catalog import bench_sweep
from expertmerge.cli import main
from expertmerge.config import EvalProtocol, RunConfig
from expertmerge.corpus import CorpusConfig, generate_corpus, write_corpus
from expertmerge.embedding import EmbedderConfig, embed_corpus
from expertmerge.model import TrainConfig
from expertmerge.routing import MergeWeights


def tiny_run_config(seed=0):
    return RunConfig(
        seed=seed,
        n_clusters=4,
        hidden=8,
        lora_rank=2,
        lora_alpha=4.0,
        ttt_neighbors=6,
        embedder=EmbedderConfig(dim=64),
        corpus=CorpusConfig(
            n_domains=2,
            modes_per_domain=2,
            docs_per_domain=12,
            min_doc_len=30,
            max_doc_len=40,
            chars_per_domain=4,
            seed=seed,
        ),
        base_train=TrainConfig(learning_rate=5e-3, epochs=1, seed=seed),
        expert_train=TrainConfig(learning_rate=1e-2, epochs=1, seed=seed),
        protocol=EvalProtocol(query_prefix_len=10, eval_prefix_len=5, seed=seed),
    )


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    cfg = tiny_run_config()
    docs, _, _ = generate_corpus(cfg.corpus)
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    write_corpus(docs, path)
    return docs, path, cfg


@pytest.fixture(scope="module")
def built(tiny_corpus, tmp_path_factory):
    docs, _, cfg = tiny_corpus
    out = tmp_path_factory.mktemp("catalog")
    return pipeline.build_catalog(docs, cfg, out), docs, cfg


def test_build_outputs(built):
    result, docs, cfg = built
    assert result.catalog.K == cfg.n_clusters
    root = result.catalog.root
    assert (root / "manifest.txt").exists()
    assert (root / "base.npz").exists()
    assert (root / "config.yaml").exists()
    for rec in result.catalog.records:
        assert (root / rec.adapter_path).stat().st_size == rec.byte_size


def test_build_deterministic(tiny_corpus, tmp_path):
    docs, _, cfg = tiny_corpus
    a = pipeline.build_catalog(docs, cfg, tmp_path / "a")
    b = pipeline.build_catalog(docs, cfg, tmp_path / "b")
    manifest_a = (a.catalog.root / "manifest.txt").read_text()
    manifest_b = (b.catalog.root / "manifest.txt").read_text()
    assert manifest_a == manifest_b
    for ra, rb in zip(a.catalog.records, b.catalog.records):
        assert (a.catalog.root / ra.adapter_path).read_bytes() == (
            b.catalog.root / rb.adapter_path
        ).read_bytes()
    for name in (pipeline.EMBEDDINGS_NAME, pipeline.CORPUS_DIGEST_NAME):
        assert (a.catalog.root / name).read_bytes() == (b.catalog.root / name).read_bytes()
    assert a.catalog.root == tmp_path / "a"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "a", tmp_path / "b"]


def test_failed_build_leaves_nothing(tiny_corpus, tmp_path, monkeypatch):
    docs, _, cfg = tiny_corpus
    train_adapter = lm.train_adapter
    calls = []

    def fail_at_expert_3(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) == 4:
            raise RuntimeError("expert 3 failed")
        return train_adapter(*args, **kwargs)

    monkeypatch.setattr(lm, "train_adapter", fail_at_expert_3)
    with pytest.raises(RuntimeError, match="expert 3 failed"):
        pipeline.build_catalog(docs, cfg, tmp_path / "catalog")
    assert len(calls) == 4
    assert list(tmp_path.iterdir()) == []


def test_build_refuses_non_empty_output(tiny_corpus, tmp_path, monkeypatch):
    docs, _, cfg = tiny_corpus

    def no_work(*args, **kwargs):
        raise AssertionError("the build started")

    monkeypatch.setattr(embedding, "embed_corpus", no_work)
    (tmp_path / "keep.txt").write_text("kept")
    with pytest.raises(ValueError, match="exists and is not empty"):
        pipeline.build_catalog(docs, cfg, tmp_path)
    with pytest.raises(ValueError, match="exists and is not empty"):
        pipeline.build_catalog(docs, cfg, tmp_path / "keep.txt")
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]
    assert (tmp_path / "keep.txt").read_text() == "kept"


def test_build_k_too_large(tmp_path):
    cfg = dataclasses.replace(tiny_run_config(), n_clusters=50)
    docs, _, _ = generate_corpus(cfg.corpus)
    with pytest.raises(ValueError, match="K > n"):
        pipeline.build_catalog(docs, cfg, tmp_path)


def test_load_built_roundtrip(built):
    result, docs, cfg = built
    reloaded = pipeline.load_built(docs, result.catalog.root)
    assert reloaded.catalog.K == result.catalog.K
    assert reloaded.base.fingerprint() == result.base.fingerprint()
    assert np.array_equal(reloaded.assignment.labels, result.assignment.labels)
    assert np.array_equal(reloaded.split.train_idx, result.split.train_idx)
    assert np.array_equal(
        reloaded.catalog.centroid_matrix(), result.catalog.centroid_matrix()
    )
    assert np.array_equal(reloaded.embeddings, embed_corpus(cfg.embedder, docs))


@pytest.mark.parametrize(
    "damage, match",
    [
        ("other_docs", "built from other documents"),
        ("missing_embeddings", "cannot read embeddings.npy"),
        ("missing_digest", "cannot read corpus.sha256"),
        ("not_npy", "cannot read embeddings.npy"),
        ("wrong_shape", "expected float32"),
        ("wrong_dtype", "expected float32"),
    ],
)
def test_load_built_rejects_mismatched_embeddings(built, tmp_path, damage, match):
    result, docs, cfg = built
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    path = root / pipeline.EMBEDDINGS_NAME
    n, dim = len(docs), cfg.embedder.dim
    if damage == "other_docs":
        docs = docs[:-1] + [docs[-1][::-1]]
    elif damage == "missing_embeddings":
        path.unlink()
    elif damage == "missing_digest":
        (root / pipeline.CORPUS_DIGEST_NAME).unlink()
    elif damage == "not_npy":
        path.write_bytes(b"not an array")
    elif damage == "wrong_shape":
        np.save(path, np.zeros((n, dim - 1), dtype=np.float32))
    else:
        np.save(path, np.zeros((n, dim), dtype=np.float64))
    with pytest.raises(ValueError, match=match):
        pipeline.load_built(docs, root)


def test_cli_build_and_eval(tiny_corpus, tmp_path, capsys):
    _, corpus_path, cfg = tiny_corpus
    cat_dir = tmp_path / "cat"
    cfg_path = tmp_path / "run.yaml"
    cfg.save(cfg_path)
    assert main(["build", str(corpus_path), str(cat_dir), "--config", str(cfg_path)]) == 0
    assert "4 experts" in capsys.readouterr().out
    out_dir = tmp_path / "report"
    rc = main(
        [
            "eval",
            str(cat_dir),
            str(corpus_path),
            str(out_dir),
            "--methods",
            "base,ttmm_tau",
        ]
    )
    assert rc == 0
    text = (out_dir / "report.txt").read_text()
    assert "base:" in text and "ttmm_tau:" in text
    csv = (out_dir / "report.csv").read_text()
    assert csv.startswith("method,perplexity")


def test_cli_set_overrides(tiny_corpus, tmp_path, capsys):
    _, corpus_path, cfg = tiny_corpus
    cfg_path = tmp_path / "run.yaml"
    cfg.save(cfg_path)
    rc = main(
        [
            "build",
            str(corpus_path),
            str(tmp_path / "cat"),
            "--config",
            str(cfg_path),
            "--set",
            "n_clusters=2",
        ]
    )
    assert rc == 0
    assert "2 experts" in capsys.readouterr().out


def test_cli_build_error_exit_code(tiny_corpus, tmp_path, capsys):
    _, corpus_path, cfg = tiny_corpus
    cfg_path = tmp_path / "run.yaml"
    cfg.save(cfg_path)
    rc = main(
        [
            "build",
            str(corpus_path),
            str(tmp_path / "cat"),
            "--config",
            str(cfg_path),
            "--set",
            "n_clusters=500",
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_bench(tiny_corpus, tmp_path, capsys):
    _, corpus_path, cfg = tiny_corpus
    cat_dir = tmp_path / "cat"
    cfg_path = tmp_path / "run.yaml"
    cfg.save(cfg_path)
    main(["build", str(corpus_path), str(cat_dir), "--config", str(cfg_path)])
    capsys.readouterr()
    rc = main(
        [
            "bench",
            str(cat_dir),
            str(corpus_path),
            "--taus",
            "0.0,0.1",
            "--betas",
            "0.05",
            "--repetitions",
            "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("tau,beta,n_active")
    assert len(out.strip().splitlines()) == 3  # header + 2 cells


def test_bench_sweep_n_active_monotone(built):
    result, docs, cfg = built
    query = result.catalog.records[0].centroid
    rows = bench_sweep(result.catalog, query, [0.0, 0.05, 0.2], [0.05], repetitions=2)
    actives = [row["n_active"] for row in rows]
    assert actives == sorted(actives, reverse=True)
    with pytest.raises(ValueError):
        bench_sweep(result.catalog, query, [0.0], [0.05], repetitions=0)


def test_cli_generate(tiny_corpus, tmp_path, capsys):
    docs, corpus_path, cfg = tiny_corpus
    cat_dir = tmp_path / "cat"
    cfg_path = tmp_path / "run.yaml"
    cfg.save(cfg_path)
    main(["build", str(corpus_path), str(cat_dir), "--config", str(cfg_path)])
    capsys.readouterr()
    prompt = docs[0][:6]
    for method in ("base", "merged", "expert-0"):
        rc = main(
            [
                "generate",
                str(cat_dir),
                prompt,
                "--method",
                method,
                "--n-tokens",
                "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith(prompt)


@pytest.mark.parametrize("method", ["expert-99", "expert--1", "expert-4"])
def test_cli_generate_rejects_unknown_expert_id(built, capsys, method):
    result, docs, cfg = built
    rc = main(["generate", str(result.catalog.root), docs[0][:6], "--method", method])
    assert rc == 1
    assert f"is not in 0..{cfg.n_clusters - 1}" in capsys.readouterr().err


def test_manifest_byte_size_checked(built, tmp_path, capsys):
    result, docs, _ = built
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    manifest = root / store.MANIFEST_NAME
    size = result.catalog.records[0].byte_size
    manifest.write_text(
        manifest.read_text().replace(f"byte_size: {size}\n", f"byte_size: {size + 1}\n", 1)
    )
    catalog = store.load_catalog(root)
    assert catalog.records[0].byte_size == size + 1
    message = rf"expert_0000\.bin is {size} bytes, its manifest byte_size is {size + 1}"
    with pytest.raises(ValueError, match=message):
        store.load_active(catalog, MergeWeights(entries={0: 1.0}))
    store.load_active(catalog, MergeWeights(entries={1: 1.0}))
    prompt = docs[0][:6]
    assert main(["generate", str(root), prompt, "--method", "expert-0"]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert main(["generate", str(root), prompt, "--method", "expert-1"]) == 0


def test_cli_probe(tiny_corpus, tmp_path, capsys):
    _, corpus_path, cfg = tiny_corpus
    cfg_path = tmp_path / "run.yaml"
    cfg.save(cfg_path)
    rc = main(
        [
            "probe",
            str(corpus_path),
            "--config",
            str(cfg_path),
            "--trials",
            "2",
            "--eta",
            "0.005",
            "--steps",
            "1",
            "--neighbors",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert "bound held on" in out
    assert rc in (0, 1)


def test_cli_cluster_report(tiny_corpus, tmp_path, capsys):
    _, corpus_path, cfg = tiny_corpus
    cfg_path = tmp_path / "run.yaml"
    cfg.save(cfg_path)
    rc = main(
        [
            "cluster-report",
            str(corpus_path),
            "--config",
            str(cfg_path),
            "--k-list",
            "1,2,4",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("K,loss")
    assert "cluster 0" in out
