import dataclasses
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CallCounter
from expertmerge import catalog as store
from expertmerge import clustering, embedding, evaluation, pipeline
from expertmerge import model as lm
from expertmerge.cli import main
from expertmerge.config import EvalProtocol, RunConfig
from expertmerge.corpus import CorpusConfig, generate_corpus, write_corpus
from expertmerge.embedding import EmbedderConfig, embed_corpus
from expertmerge.model import TrainConfig


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
    assert (root / store.BASE_NAME).exists()
    assert (root / "config.yaml").exists()
    assert (root / store.CENTROIDS_NAME).exists()
    assert (root / pipeline.ASSIGNMENT_NAME).exists()
    for rec in result.catalog.records:
        assert (root / rec.adapter_path).stat().st_size == rec.byte_size
    # five header lines, then one line per expert
    assert len((root / "manifest.txt").read_text().splitlines()) == 5 + cfg.n_clusters


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
    assert np.array_equal(reloaded.catalog.centroids, result.catalog.centroids)
    assert np.array_equal(reloaded.embeddings, embed_corpus(cfg.embedder, docs))


def test_run_table1_reads_each_adapter_once(built, monkeypatch):
    result, docs, cfg = built
    reads = CallCounter(monkeypatch, store, "load_adapter")
    report = evaluation.run_table1(
        docs,
        result.embeddings,
        result.assignment,
        result.split,
        result.base,
        result.catalog,
        cfg,
    )
    assert list(report.perplexities) == list(evaluation.DEFAULT_METHODS)
    assert reads.calls == cfg.n_clusters


def test_run_table1_without_holdout(tiny_corpus, tmp_path):
    # holdout_fraction 0 holds out only the test documents, which the
    # routing diagnostics then read
    docs, _, cfg = tiny_corpus
    cfg = dataclasses.replace(
        cfg, protocol=dataclasses.replace(cfg.protocol, holdout_fraction=0.0)
    )
    result = pipeline.build_catalog(docs, cfg, tmp_path / "cat")
    assert all(held.size == 0 for held in result.split.holdout.values())
    report = evaluation.run_table1(
        docs,
        result.embeddings,
        result.assignment,
        result.split,
        result.base,
        result.catalog,
        cfg,
        methods=("base",),
    )
    assert report.pass_at_n[-1] == (cfg.n_clusters, 1.0)
    assert all(0.0 <= acc <= 1.0 for _, acc in report.pass_at_n)
    assert np.isfinite(report.matrix).all()


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("a: [", r"run\.yaml is not valid YAML \(expected the node content, .* line 1, column 5\)"),
        ("routing:\n  - a\n", "routing must be a mapping"),
    ],
)
def test_cli_bad_config_file_is_one_error_line(tiny_corpus, tmp_path, capsys, text, message):
    _, corpus_path, _ = tiny_corpus
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(text)
    assert main(["build", str(corpus_path), str(tmp_path / "cat"), "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: bad config: ")
    assert re.search(message, err)


def test_cli_damaged_catalog_config_is_one_error_line(built, tmp_path, capsys):
    result, docs, _ = built
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    (root / "config.yaml").write_text("seed: 0\nrouting: [\n")
    assert main(["generate", str(root), docs[0][:6]]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: bad config: {root / 'config.yaml'} is not valid YAML (")


def test_cli_damaged_catalog_config_not_utf8_is_one_error_line(built, tmp_path, capsys):
    result, docs, _ = built
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    path = root / "config.yaml"
    path.write_bytes(b"\xff" + path.read_bytes())
    assert main(["generate", str(root), docs[0][:6]]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {path} ('utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte)\n"
    )


@pytest.mark.parametrize("case", ["corpus file", "corpus directory", "config"])
def test_cli_file_not_utf8_is_one_error_line(tiny_corpus, tmp_path, capsys, case):
    docs, corpus_path, _ = tiny_corpus
    argv = ["build", str(corpus_path), str(tmp_path / "cat")]
    if case == "corpus file":
        bad = tmp_path / "corpus.txt"
        argv[1] = str(bad)
    elif case == "corpus directory":
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.txt").write_text(docs[0])
        bad = tmp_path / "docs" / "b.txt"
        argv[1] = str(tmp_path / "docs")
    else:
        bad = tmp_path / "run.yaml"
        argv += ["--config", str(bad)]
    bad.write_bytes(b"abc\xffdef\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {bad} ('utf-8' codec can't decode byte 0xff in position 3: "
        "invalid start byte)\n"
    )
    assert not (tmp_path / "cat").exists()


def test_cli_config_that_is_a_directory_is_one_error_line(tiny_corpus, tmp_path, capsys):
    _, corpus_path, _ = tiny_corpus
    assert main(["build", str(corpus_path), str(tmp_path / "cat"), "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {tmp_path} ([Errno 21] Is a directory: '{tmp_path}')\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cluster-report", "{corpus}", "--set", "seed"], "--set expects key=value, got 'seed'"),
        (
            ["generate", "{catalog}", "ab", "--method", "bogus"],
            "--method 'bogus' is not base, merged or expert-<id>",
        ),
        (
            ["generate", "{catalog}", "ab", "--method", "expert-x"],
            "--method 'expert-x' is not base, merged or expert-<id>",
        ),
        (["generate", "{catalog}", "ab", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (
            ["cluster-report", "{corpus}", "--k-list", "a,b"],
            "--k-list 'a,b' is not comma-separated integers",
        ),
        (
            ["cluster-report", "{corpus}", "--k-list", ""],
            "--k-list '' is not comma-separated integers",
        ),
    ],
    ids=[
        "--set seed",
        "--method bogus",
        "--method expert-x",
        "--seed -1",
        "--k-list a,b",
        "--k-list empty",
    ],
)
def test_cli_usage_fault_is_one_error_line(built, tiny_corpus, capsys, argv, message):
    result, _, _ = built
    _, corpus_path, _ = tiny_corpus
    paths = {"corpus": corpus_path, "catalog": result.catalog.root}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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
    # the one adapter_bytes is every expert's byte_size, checked at each load
    result, docs, _ = built
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    manifest = root / store.MANIFEST_NAME
    size = result.catalog.records[0].byte_size
    manifest.write_text(
        manifest.read_text().replace(f"adapter_bytes: {size}\n", f"adapter_bytes: {size + 1}\n")
    )
    catalog = store.load_catalog(root)
    assert {rec.byte_size for rec in catalog.records} == {size + 1}
    prompt = docs[0][:6]
    for k in (0, 1):
        message = rf"expert_000{k}\.bin is {size} bytes, its manifest adapter_bytes is {size + 1}"
        with pytest.raises(ValueError, match=message):
            store.load_active(catalog, [k])
        assert main(["generate", str(root), prompt, "--method", f"expert-{k}"]) == 1
        assert re.search(message, capsys.readouterr().err)
    assert main(["generate", str(root), prompt, "--method", "base"]) == 0


def test_cli_generate_rejects_other_base(built, tmp_path, capsys):
    result, docs, _ = built
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    other = store.load_base(root)
    other.block0[0, 0] += 1.0
    store.save_base(other, root)
    for method in ("base", "merged", "expert-0"):
        assert main(["generate", str(root), docs[0][:6], "--method", method]) == 1
        assert f"catalog {root}: base fingerprint mismatch" in capsys.readouterr().err


def test_adapter_of_another_hidden_size_is_rejected_at_load(built, tiny_corpus, tmp_path, capsys):
    # expert 0's file is replaced by an adapter of other shapes (block0 is
    # (h+1, h-1)) and so of the same byte count, that carries the catalog's
    # base fingerprint, with its manifest record updated
    result, docs, cfg = built
    _, corpus_path, _ = tiny_corpus
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    catalog = store.load_catalog(root)
    base = store.load_base(root)
    path = catalog.adapter_file(0)
    h = cfg.hidden
    right = store.load_adapter(path)
    shapes = ((h + 1, h - 1),) + right.shapes[1:]
    wrong = lm.LoraAdapter(right.theta, shapes, right.rank, right.alpha)
    record = catalog.records[0]
    record.byte_size, record.checksum = store.save_adapter(wrong, path, catalog.base_fingerprint)
    assert record.byte_size == catalog.records[1].byte_size
    store.save_manifest(catalog)
    catalog = store.load_catalog(root)
    store.load_active(catalog, [0])  # the file itself is sound
    message = (
        f"adapter {path} of expert 0: block0 is ({h + 1}, {h - 1}), "
        f"the base's block0 is ({h}, {h})"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        store.load_active(catalog, [0], base)
    with pytest.raises(ValueError, match=re.escape("adapter: block0 is")):
        lm.generate(base, store.load_active(catalog, [0])[0], docs[0][:6], 5, seed=0)
    assert main(["generate", str(root), docs[0][:6], "--method", "expert-0"]) == 1
    assert message in capsys.readouterr().err
    assert main(["generate", str(root), docs[0][:6], "--method", "expert-1"]) == 0
    capsys.readouterr()
    assert main(["eval", str(root), str(corpus_path), str(tmp_path / "report")]) == 1
    assert message in capsys.readouterr().err


def _save_npz(path, array):
    with open(path, "wb") as f:  # np.savez would add .npz to a path
        np.savez(f, array=array)


ARRAY_DAMAGES = {
    "missing": lambda path, array: path.unlink(),
    "pickled": lambda path, array: np.save(path, array.astype(object), allow_pickle=True),
    "npz": _save_npz,
    "wrong_dtype": lambda path, array: np.save(path, array.astype(np.float64)),
    "wrong_shape": lambda path, array: np.save(
        path, np.concatenate([array, np.zeros_like(array[..., :1])], axis=-1)
    ),
}


def _without_block1(path, rows):
    v, h = rows.shape[0] // 2 - rows.shape[1], rows.shape[1]
    np.save(path, np.delete(rows, np.s_[v + h : v + 2 * h], axis=0))


def _inf_in_block0(path, rows):
    rows[rows.shape[0] // 2 - rows.shape[1], 0] = np.inf  # row V: block0's first
    np.save(path, rows)


# damages of base.npy, each with a part of the one error line it must give
BASE_DAMAGES = {
    "missing": (ARRAY_DAMAGES["missing"], "cannot read base.npy ([Errno 2] No such file"),
    "pickled": (ARRAY_DAMAGES["pickled"], "cannot read base.npy (Object arrays cannot be loaded"),
    "npz": (ARRAY_DAMAGES["npz"], "cannot read base.npy (the magic string is not correct"),
    "not an array": (
        lambda path, rows: path.write_bytes(b"not an array\n"),
        "cannot read base.npy (the magic string is not correct",
    ),
    "wrong_dtype": (ARRAY_DAMAGES["wrong_dtype"], "base.npy is float64"),
    "wrong_shape": (ARRAY_DAMAGES["wrong_shape"], "rows, expected 2(V+h) = "),
    "no block1": (_without_block1, "rows, expected 2(V+h) = "),
    "inf in block0": (_inf_in_block0, "cannot read base.npy (non-finite entries in block0)"),
}


@pytest.mark.parametrize("damage", sorted(BASE_DAMAGES))
def test_cli_damaged_base_is_one_error_line(built, tmp_path, capsys, damage):
    result, docs, _ = built
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    path = root / store.BASE_NAME
    edit, detail = BASE_DAMAGES[damage]
    edit(path, np.load(path))
    assert main(["generate", str(root), docs[0][:6]]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: catalog {root}: ")
    assert detail in err


@pytest.mark.parametrize(
    "damage, detail",
    [
        (lambda path: path.unlink(), "No such file or directory"),
        (lambda path: path.write_bytes(b"\xff" + path.read_bytes()), "'utf-8' codec can't decode"),
        (lambda path: path.write_text(path.read_text() * 2), "duplicate symbols in vocab"),
    ],
    ids=["missing", "not utf-8", "repeated symbol"],
)
def test_cli_damaged_vocab_is_one_error_line(built, tmp_path, capsys, damage, detail):
    result, docs, _ = built
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    damage(root / store.VOCAB_NAME)
    assert main(["generate", str(root), docs[0][:6]]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: catalog {root}: cannot read vocab.txt (")
    assert detail in err


@pytest.mark.parametrize("damage", sorted(ARRAY_DAMAGES))
@pytest.mark.parametrize(
    "name", [store.CENTROIDS_NAME, pipeline.ASSIGNMENT_NAME, pipeline.EMBEDDINGS_NAME]
)
def test_cli_rejects_bad_catalog_array(built, tiny_corpus, tmp_path, capsys, name, damage):
    result, docs, _ = built
    _, corpus_path, _ = tiny_corpus
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    path = root / name
    ARRAY_DAMAGES[damage](path, np.load(path))
    commands = [["eval", str(root), str(corpus_path), str(tmp_path / "report")]]
    if name == store.CENTROIDS_NAME:
        commands.append(["generate", str(root), docs[0][:6]])
    for argv in commands:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: catalog {root}: ")
        assert name in err


def test_open_catalog_rejects_other_embedder(built, tiny_corpus, tmp_path, capsys):
    result, docs, cfg = built
    _, corpus_path, _ = tiny_corpus
    root = tmp_path / "cat"
    shutil.copytree(result.catalog.root, root)
    embedder = dataclasses.replace(cfg.embedder, hash_seed=cfg.embedder.hash_seed + 1)
    dataclasses.replace(cfg, embedder=embedder).save(root / "config.yaml")
    message = f"catalog {root}: embedder fingerprint mismatch"
    with pytest.raises(ValueError, match=re.escape(message)):
        pipeline.open_catalog(root)
    assert main(["eval", str(root), str(corpus_path), str(tmp_path / "report")]) == 1
    assert message in capsys.readouterr().err
    assert main(["generate", str(root), docs[0][:6]]) == 1
    assert message in capsys.readouterr().err


def test_build_bytes_do_not_depend_on_blas_threads(tmp_path):
    corpus = dataclasses.replace(RunConfig().corpus, docs_per_domain=60)
    corpus_path = tmp_path / "corpus.txt"
    write_corpus(generate_corpus(corpus)[0], corpus_path)
    src = str(Path(pipeline.__file__).parents[1])
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"cat_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "expertmerge.cli", "build", str(corpus_path), str(out)]
            + ["--set", "n_clusters=8"],
            env=env,
            check=True,
            capture_output=True,
        )
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len([p for p in trees[0] if p.parts[0] == store.ADAPTER_DIR]) == 8
    assert trees[0] == trees[1]


@pytest.mark.parametrize("key", ["seed.x", "nope.x", "routing.gamma"])
def test_cli_rejects_unknown_set_key(tiny_corpus, capsys, key):
    _, corpus_path, _ = tiny_corpus
    assert main(["cluster-report", str(corpus_path), "--set", f"{key}=1"]) == 1
    assert capsys.readouterr().err == f"error: unknown config key: {key}\n"


def test_cli_cluster_report(tiny_corpus, tmp_path, capsys, monkeypatch):
    docs, corpus_path, cfg = tiny_corpus
    cfg_path = tmp_path / "run.yaml"
    cfg.save(cfg_path)
    last = clustering.bisecting_kmeans(embed_corpus(cfg.embedder, docs), 4, cfg.seed)
    runs = CallCounter(monkeypatch, clustering, "bisecting_kmeans")
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
    # one clustering per K: the titles reuse the clustering at the last K
    assert runs.calls == 3
    sizes = [int(n) for n in re.findall(r"cluster \d+ \(n=(\d+)\)", out)]
    assert sizes == [len(last.members(k)) for k in range(4)]
