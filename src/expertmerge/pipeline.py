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


@dataclass
class BuildResult:
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
        rel_path = f"{store.ADAPTER_DIR}/expert_{k:04d}.bin"
        byte_size = store.save_adapter(adapter, work / rel_path, fingerprint)
        blob = (work / rel_path).read_bytes()
        records.append(
            store.ExpertRecord(
                expert_id=k,
                centroid=centroids.centroids[k],
                cluster_size=int(centroids.sizes[k]),
                adapter_path=rel_path,
                byte_size=byte_size,
                checksum=blob[-8:].hex(),
            )
        )

    cat = store.ExpertCatalog(
        root=work,
        records=records,
        embedder_fingerprint=cfg.embedder.fingerprint(),
        base_fingerprint=fingerprint,
    )
    store.save_manifest(cat)
    cfg.save(work / "config.yaml")
    _write_assignment(work / "assignment.txt", assignment)
    np.save(work / EMBEDDINGS_NAME, embeddings, allow_pickle=False)
    (work / CORPUS_DIGEST_NAME).write_text(_corpus_digest(docs) + "\n", encoding="utf-8")
    return BuildResult(
        catalog=cat, base=base, embeddings=embeddings, assignment=assignment, split=split
    )


def _write_assignment(path: Path, assignment: ClusterAssignment) -> None:
    lines = [f"{i} {int(label)}" for i, label in enumerate(assignment.labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    try:
        embeddings = np.load(catalog_dir / EMBEDDINGS_NAME, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise ValueError(
            f"catalog {catalog_dir}: cannot read {EMBEDDINGS_NAME} ({exc})"
        ) from exc
    if embeddings.dtype != np.float32 or embeddings.shape != (len(docs), dim):
        raise ValueError(
            f"catalog {catalog_dir}: {EMBEDDINGS_NAME} is {embeddings.dtype} "
            f"{embeddings.shape}, expected float32 {(len(docs), dim)}"
        )
    return embeddings


def load_built(docs: list[str], catalog_dir: str | Path) -> BuildResult:
    """Reload a built catalog and its corpus embeddings, and recompute the
    deterministic split. `docs` must be the documents it was built from."""
    catalog_dir = Path(catalog_dir)
    cfg = RunConfig.load(catalog_dir / "config.yaml")
    cat = store.load_catalog(catalog_dir)
    base = store.load_base(catalog_dir)
    if base.fingerprint() != cat.base_fingerprint:
        raise ValueError("catalog base fingerprint mismatch")
    embeddings = _load_embeddings(catalog_dir, docs, cfg.embedder.dim)
    labels = np.array(
        [
            int(line.split()[1])
            for line in (catalog_dir / "assignment.txt").read_text().splitlines()
        ],
        dtype=np.int64,
    )
    assignment = ClusterAssignment(labels=labels, K=cat.K)
    split = split_holdout(len(docs), assignment, cfg.protocol)
    return BuildResult(
        catalog=cat, base=base, embeddings=embeddings, assignment=assignment, split=split
    )
