"""End-to-end catalog construction: embed, cluster, pre-train, train experts.

Everything is deterministic for a fixed config seed, so rebuilding with
the same inputs yields byte-identical adapters, manifest and corpus
embeddings. The catalog keeps the corpus embeddings and the documents'
digest, so evaluation reloads them instead of embedding the corpus again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog as store, clustering, embedding, model as lm
from .clustering import ClusterAssignment
from .config import RunConfig
from .evaluation import HoldoutSplit, split_holdout

EMBEDDINGS_NAME = "embeddings.npy"
CORPUS_DIGEST_NAME = "corpus.sha256"
ASSIGNMENT_NAME = "assignment.npy"


@dataclass
class BuildResult:
    cfg: RunConfig
    catalog: store.ExpertCatalog
    base: lm.BaseParams
    embeddings: np.ndarray
    assignment: ClusterAssignment
    split: HoldoutSplit


def build_catalog(docs: list[str], cfg: RunConfig, out_dir: str | Path) -> BuildResult:
    """Build the catalog into `out_dir`, which must be new or empty. The
    build writes into a temporary directory beside it and renames that into
    place at the end, so a build that fails leaves no output behind."""
    out_dir = Path(out_dir)
    if out_dir.exists() and (not out_dir.is_dir() or any(out_dir.iterdir())):
        raise ValueError(f"output directory {out_dir} exists and is not empty")
    if cfg.n_clusters > len(docs):
        raise ValueError(f"K > n: {cfg.n_clusters} clusters for {len(docs)} documents")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        # a subdirectory, not the mkdtemp one, so it gets the usual permissions
        work = staging / "catalog"
        result = _build_into(work, docs, cfg)
        os.replace(work, out_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    result.catalog.root = out_dir
    return result


def _build_into(work: Path, docs: list[str], cfg: RunConfig) -> BuildResult:
    (work / store.ADAPTER_DIR).mkdir(parents=True)
    embeddings = embedding.embed_corpus(cfg.embedder, docs)
    assignment = clustering.bisecting_kmeans(embeddings, cfg.n_clusters, cfg.seed)
    split = split_holdout(len(docs), assignment, cfg.protocol)

    vocab = lm.Vocab.from_corpus(docs)
    train_docs = [docs[i] for i in split.train_idx]
    rng = np.random.default_rng(cfg.seed)
    n_pre = max(1, int(round(cfg.base_pretrain_fraction * len(train_docs))))
    pre_idx = rng.choice(len(train_docs), size=n_pre, replace=False)
    base = lm.train_base(
        vocab, [train_docs[i] for i in sorted(pre_idx)], cfg.base_train, cfg.hidden
    )
    fingerprint = base.fingerprint()
    store.save_base(base, work)

    records: list[store.ExpertRecord] = []
    train_assignment = ClusterAssignment(assignment.labels[split.train_idx], assignment.K)
    centroids = clustering.compute_centroids(embeddings[split.train_idx], train_assignment)
    for k in range(assignment.K):
        cluster_docs = [docs[i] for i in split.train_idx[train_assignment.members(k)]]
        expert_cfg = dataclasses.replace(cfg.expert_train, seed=cfg.expert_train.seed + 7919 * k)
        adapter = lm.train_adapter(
            base, cluster_docs, expert_cfg, rank=cfg.lora_rank, alpha=cfg.lora_alpha
        )
        rec = store.ExpertRecord(k, int(centroids.sizes[k]), byte_size=0, checksum="")
        path = work / rec.adapter_path
        rec.byte_size, rec.checksum = store.save_adapter(adapter, path, fingerprint)
        records.append(rec)

    cat = store.ExpertCatalog(
        root=work,
        records=records,
        centroids=centroids.centroids,
        embedder_fingerprint=cfg.embedder.fingerprint(),
        base_fingerprint=fingerprint,
    )
    store.save_manifest(cat)
    cfg.save(work / "config.yaml")
    np.save(work / ASSIGNMENT_NAME, assignment.labels, allow_pickle=False)
    np.save(work / EMBEDDINGS_NAME, embeddings, allow_pickle=False)
    (work / CORPUS_DIGEST_NAME).write_text(_corpus_digest(docs) + "\n", encoding="utf-8")
    return BuildResult(
        cfg=cfg, catalog=cat, base=base, embeddings=embeddings, assignment=assignment, split=split
    )


def _corpus_digest(docs: list[str]) -> str:
    """sha256 hex of the documents, each length-prefixed so that no two
    document lists share a digest by concatenation."""
    digest = hashlib.sha256()
    for doc in docs:
        raw = doc.encode("utf-8")
        digest.update(len(raw).to_bytes(8, "little"))
        digest.update(raw)
    return digest.hexdigest()


def _load_embeddings(catalog_dir: Path, docs: list[str], dim: int) -> np.ndarray:
    """The corpus embeddings the build wrote, checked against `docs`."""
    try:
        stored = (catalog_dir / CORPUS_DIGEST_NAME).read_text(encoding="utf-8").strip()
    except OSError as exc:
        raise ValueError(
            f"catalog {catalog_dir}: cannot read {CORPUS_DIGEST_NAME} ({exc})"
        ) from exc
    if stored != _corpus_digest(docs):
        raise ValueError(f"catalog {catalog_dir} was built from other documents")
    return store.read_array(catalog_dir / EMBEDDINGS_NAME, np.float32, (len(docs), dim))


def open_catalog(
    catalog_dir: str | Path,
) -> tuple[RunConfig, store.ExpertCatalog, lm.BaseParams]:
    """The config, manifest and base model of a built catalog, with the
    config's embedder and the base checked against the fingerprints the
    manifest records, and the centroids' width against the embedder's dim."""
    catalog_dir = Path(catalog_dir)
    cfg = RunConfig.load(catalog_dir / "config.yaml")
    cat = store.load_catalog(catalog_dir)
    if cfg.embedder.fingerprint() != cat.embedder_fingerprint:
        raise ValueError(f"catalog {catalog_dir}: embedder fingerprint mismatch")
    width = cat.centroids.shape[1]
    if width != cfg.embedder.dim:
        raise ValueError(
            f"catalog {catalog_dir}: {store.CENTROIDS_NAME} has width {width}, "
            f"the embedder's dim is {cfg.embedder.dim}"
        )
    base = store.load_base(catalog_dir)
    if base.fingerprint() != cat.base_fingerprint:
        raise ValueError(f"catalog {catalog_dir}: base fingerprint mismatch")
    return cfg, cat, base


def load_built(docs: list[str], catalog_dir: str | Path) -> BuildResult:
    """Reload a built catalog and its corpus embeddings, and recompute the
    deterministic split. `docs` must be the documents it was built from."""
    catalog_dir = Path(catalog_dir)
    cfg, cat, base = open_catalog(catalog_dir)
    embeddings = _load_embeddings(catalog_dir, docs, cfg.embedder.dim)
    labels = store.read_array(catalog_dir / ASSIGNMENT_NAME, np.int64, (len(docs),))
    try:
        assignment = ClusterAssignment(labels=labels, K=cat.K)
    except ValueError as exc:
        raise ValueError(
            f"catalog {catalog_dir}: {ASSIGNMENT_NAME} holds bad labels ({exc})"
        ) from exc
    split = split_holdout(len(docs), assignment, cfg.protocol)
    return BuildResult(
        cfg=cfg, catalog=cat, base=base, embeddings=embeddings, assignment=assignment, split=split
    )
