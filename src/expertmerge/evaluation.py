"""Evaluation protocol, baselines, and diagnostics.

Covers the per-cluster holdout split, global fine-tuning, test-time
training on nearest neighbors, the expert-by-cluster perplexity matrix,
pass@N routing accuracy, and the headline perplexity table across methods.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import embedding, merging, model as lm, routing
from .catalog import ExpertCatalog, load_active
from .clustering import MIN_CLUSTER_SIZE, ClusterAssignment
from .config import EvalProtocol, RunConfig
from .routing import MergeWeights, RoutingConfig


@dataclass
class HoldoutSplit:
    train_idx: np.ndarray  # document indices used for training
    holdout: dict[int, np.ndarray]  # cluster id -> diagnostic holdout indices
    test: dict[int, int]  # cluster id -> single test document index


def split_holdout(
    n_docs: int, assignment: ClusterAssignment, protocol: EvalProtocol, seed: int
) -> HoldoutSplit:
    """Deterministic seeded split; exactly one test doc per cluster."""
    if n_docs != len(assignment.labels):
        raise ValueError("assignment does not cover the corpus")
    rng = np.random.default_rng(seed)
    train: list[int] = []
    holdout: dict[int, np.ndarray] = {}
    test: dict[int, int] = {}
    for k in range(assignment.K):
        members = assignment.members(k)
        if len(members) < MIN_CLUSTER_SIZE:
            raise ValueError(f"cluster {k} too small to hold out a test document")
        shuffled = members[rng.permutation(len(members))]
        n_hold = max(1, int(round(protocol.holdout_fraction * len(members))))
        n_hold = min(n_hold, len(members) - 1)  # keep at least one train doc
        held = shuffled[:n_hold]
        test[k] = int(held[0])
        holdout[k] = np.sort(held[1:])
        train.extend(shuffled[n_hold:])
    return HoldoutSplit(
        train_idx=np.sort(np.array(train, dtype=np.int64)), holdout=holdout, test=test
    )


def global_finetune(
    base: lm.BaseParams,
    train_docs: list[str],
    cfg: lm.TrainConfig,
    seed: int,
    rank: int,
    alpha: float,
) -> lm.LoraAdapter:
    """One adapter trained on the whole training corpus."""
    return lm.train_adapter(base, train_docs, cfg, seed, rank=rank, alpha=alpha)


def ttt_adapt(
    base: lm.BaseParams,
    query: np.ndarray,
    corpus_embeddings: np.ndarray,
    corpus_docs: list[str],
    N: int,
    learning_rate: float,
    seed: int,
    rank: int,
    alpha: float,
) -> lm.LoraAdapter:
    """Adapt to a prompt: one gradient step per nearest neighbor, visited
    once from most to least similar, from the adapter init of seed."""
    if N > len(corpus_docs):
        raise ValueError(f"N={N} exceeds corpus size {len(corpus_docs)}")
    sims = corpus_embeddings.astype(np.float64) @ np.asarray(query, dtype=np.float64)
    neighbors = routing.top_n(sims, N)
    keys = [lm._pair_keys(base.vocab, corpus_docs[i], lm.MAX_SEQ_LEN) for i in neighbors]

    init = lm.LoraAdapter.init(base, rank=rank, alpha=alpha, seed=seed)
    return lm.fit_adapter(base, init, ([k] for k in keys), learning_rate)


def expert_cluster_matrix(
    base: lm.BaseParams,
    adapters: dict[int, lm.LoraAdapter],
    holdout_docs: dict[int, list[str]],
    eval_prefix_len: int = 0,
) -> np.ndarray:
    """Entry (k, j): perplexity of expert k on cluster j's holdout docs."""
    K = len(adapters)
    tables = [lm._prob_table(base, adapters[k]) for k in range(K)]
    counts = [lm._scored_counts(base.vocab, holdout_docs[j], eval_prefix_len) for j in range(K)]
    return np.exp([[lm._nll(table, c) for c in counts] for table in tables])


def pass_at_n(
    centroids: np.ndarray,
    samples: list[tuple[np.ndarray, int]],
    N_list: list[int],
) -> list[tuple[int, float]]:
    """Fraction of samples whose source cluster is among the N nearest."""
    K = len(centroids)
    if any(n < 1 or n > K for n in N_list):
        raise ValueError(f"N values must lie in [1, {K}]")
    c = centroids.astype(np.float64)
    ranks = []
    for emb, true_cluster in samples:
        order = routing.top_n(c @ np.asarray(emb, dtype=np.float64), K)
        ranks.append(int(np.flatnonzero(order == true_cluster)[0]))
    ranks_arr = np.array(ranks)
    return [(n, float((ranks_arr < n).mean())) for n in N_list]


def ensemble_perplexity(
    base: lm.BaseParams,
    weights: MergeWeights,
    adapters: dict[int, lm.LoraAdapter],
    docs: list[str],
    eval_prefix_len: int = 0,
) -> float:
    """Perplexity of the weighted mixture of per-expert distributions."""
    counts = lm._scored_counts(base.vocab, docs, eval_prefix_len)
    mix = sum(weights.entries[k] * lm._prob_table(base, adapters[k]) for k in weights.support)
    return float(np.exp(lm._nll(mix, counts)))


DEFAULT_METHODS = (
    "base",
    "finetune",
    "ttmm_tau",
    "ttmm_fixed_1",
    "ttmm_fixed_3",
    "ttmm_fixed_10",
    "ensemble_fixed_3",
    "ensemble_fixed_10",
    "ttt",
)


@dataclass
class EvalReport:
    perplexities: dict[str, float]
    matrix: np.ndarray
    diagonal_rowmin_fraction: float
    pass_at_n: list[tuple[int, float]]
    config_echo: str

    def to_text(self) -> str:
        lines = ["perplexity by method"]
        lines += [f"  {method}: {ppl:.6f}" for method, ppl in self.perplexities.items()]
        lines.append(
            f"expert-cluster diagonal row-min fraction: {self.diagonal_rowmin_fraction:.4f}"
        )
        lines += ["pass@N"] + [f"  {n}: {acc:.4f}" for n, acc in self.pass_at_n]
        lines += ["config"] + [f"  {line}" for line in self.config_echo.splitlines()]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = ["method,perplexity"]
        rows.extend(f"{m},{p}" for m, p in self.perplexities.items())
        return "\n".join(rows) + "\n"


def diagonal_rowmin_fraction(matrix: np.ndarray) -> float:
    mins = matrix.argmin(axis=1)
    return float((mins == np.arange(len(matrix))).mean())


# holdout documents per cluster that the expert-cluster matrix and pass@N read
MAX_HOLDOUT_DOCS = 8


def run_table1(
    docs: list[str],
    embeddings: np.ndarray,
    assignment: ClusterAssignment,
    split: HoldoutSplit,
    base: lm.BaseParams,
    catalog: ExpertCatalog,
    cfg: RunConfig,
    methods: tuple[str, ...] = DEFAULT_METHODS,
) -> EvalReport:
    """Perplexity of every requested method on the per-cluster test set,
    plus routing diagnostics."""
    unknown = set(methods) - set(DEFAULT_METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    K = assignment.K
    test_pairs = [(k, split.test[k]) for k in range(K)]
    test_docs = [docs[i] for _, i in test_pairs]
    queries = embedding.embed_corpus(
        cfg.embedder,
        [docs[i][: cfg.protocol.query_prefix_len] or docs[i] for _, i in test_pairs],
    )
    train_docs = [docs[i] for i in split.train_idx]
    epl = cfg.protocol.eval_prefix_len

    all_adapters = load_active(catalog, range(K), base)

    perplexities: dict[str, float] = {}

    def per_doc_mean(ppls: list[float]) -> float:
        # average in NLL space: exp(mean log ppl)
        return float(np.exp(np.mean(np.log(ppls))))

    if "base" in methods:
        perplexities["base"] = lm.perplexity(base, None, test_docs, epl)

    if "finetune" in methods:
        ft = global_finetune(
            base, train_docs, cfg.expert_train, cfg.seed, cfg.lora_rank, cfg.lora_alpha
        )
        perplexities["finetune"] = lm.perplexity(base, ft, test_docs, epl)

    def merged_ppl(weights: MergeWeights, doc: str) -> float:
        adapted = merging.apply_merged(base, merging.merge_adapters(weights, all_adapters))
        return lm.perplexity(adapted, None, [doc], epl)

    def ensemble_ppl(weights: MergeWeights, doc: str) -> float:
        return ensemble_perplexity(base, weights, all_adapters, [doc], epl)

    def fixed(n: int) -> RoutingConfig:
        return dataclasses.replace(cfg.routing, fixed_n=min(n, K))

    routed = [("ttmm_tau", cfg.routing, merged_ppl)]
    routed += [(f"ttmm_fixed_{n}", fixed(n), merged_ppl) for n in (1, 3, 10)]
    routed += [(f"ensemble_fixed_{n}", fixed(n), ensemble_ppl) for n in (3, 10)]
    for label, route_cfg, score in routed:
        if label in methods:
            ppls = [
                score(routing.route(query, catalog, route_cfg), docs[i])
                for (_, i), query in zip(test_pairs, queries)
            ]
            perplexities[label] = per_doc_mean(ppls)

    if "ttt" in methods:
        train_embs = embeddings[split.train_idx]
        ppls = []
        for (k, i), query in zip(test_pairs, queries):
            adapter = ttt_adapt(
                base,
                query,
                train_embs,
                train_docs,
                min(cfg.ttt_neighbors, len(train_docs)),
                cfg.ttt_learning_rate,
                cfg.seed,
                cfg.lora_rank,
                cfg.lora_alpha,
            )
            ppls.append(lm.perplexity(base, adapter, [docs[i]], epl))
        perplexities["ttt"] = per_doc_mean(ppls)

    # diagnostics: expert-cluster matrix and pass@N on each cluster's capped
    # holdout, or on its test document when the holdout is empty
    held = {k: split.holdout[k][:MAX_HOLDOUT_DOCS] for k in range(K)}
    capped = {k: idx if idx.size else [split.test[k]] for k, idx in held.items()}
    holdout_docs = {k: [docs[i] for i in idx] for k, idx in capped.items()}
    matrix = expert_cluster_matrix(base, all_adapters, holdout_docs, epl)

    samples = [(embeddings[i], k) for k, idx in capped.items() for i in idx]
    n_list = sorted({1, min(3, K), min(10, K), K})
    return EvalReport(
        perplexities=perplexities,
        matrix=matrix,
        diagonal_rowmin_fraction=diagonal_rowmin_fraction(matrix),
        pass_at_n=pass_at_n(catalog.centroids, samples, n_list),
        config_echo=cfg.to_yaml(),
    )
