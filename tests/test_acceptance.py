"""Exit-criteria suite.

Every test prints a single pass/fail line; run with `pytest -s` to see
them. The headline ordering tests build the full synthetic corpus and
catalog once per session, which takes under a minute on a laptop.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import CallCounter, heaviest, random_unit_vectors
from expertmerge import catalog as store
from expertmerge import model as lm
from expertmerge import pipeline, routing
from expertmerge.config import RunConfig
from expertmerge.corpus import generate_corpus
from expertmerge.embedding import embed_corpus
from expertmerge.evaluation import ensemble_perplexity, global_finetune, run_table1, ttt_adapt
from expertmerge.merging import apply_merged, merge_adapters
from expertmerge.routing import MergeWeights, rbf_weights, sparse_softmax

HEADLINE_METHODS = ("base", "finetune", "ttmm_tau", "ttmm_fixed_1", "ttmm_fixed_10")


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def headline(tmp_path_factory):
    cfg = RunConfig()
    docs, _, _ = generate_corpus(cfg.corpus)
    out = tmp_path_factory.mktemp("headline_catalog")
    start = time.monotonic()
    built = pipeline.build_catalog(docs, cfg, out)
    report = run_table1(
        docs,
        built.embeddings,
        built.assignment,
        built.split,
        built.base,
        built.catalog,
        cfg,
        methods=HEADLINE_METHODS,
    )
    elapsed = time.monotonic() - start
    return built, report, elapsed


def test_criterion_01_headline_ordering(headline):
    _, report, elapsed = headline
    p = report.perplexities
    ok = (
        p["base"] > p["finetune"] > p["ttmm_tau"]
        and p["ttmm_tau"] <= 0.98 * p["finetune"]
        and elapsed <= 600.0
    )
    verdict(
        1,
        ok,
        f"base={p['base']:.3f} finetune={p['finetune']:.3f} "
        f"ttmm={p['ttmm_tau']:.3f} elapsed={elapsed:.1f}s",
    )


def test_criterion_02_merging_count_benefit(headline):
    _, report, _ = headline
    p10 = report.perplexities["ttmm_fixed_10"]
    p1 = report.perplexities["ttmm_fixed_1"]
    ok = p10 <= 1.005 * p1
    verdict(2, ok, f"fixed_10={p10:.4f} fixed_1={p1:.4f}")


def test_criterion_03_sparse_softmax_suite():
    rng = np.random.default_rng(0)
    failures = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 17))
        z = rng.standard_normal(k) * 3.0
        tau = float(rng.uniform(0.0, 1.0 / k))
        w = sparse_softmax(z, tau)
        e = np.exp(z - z.max())
        p = e / e.sum()
        ok = (
            w.n_active >= 1
            and abs(sum(w.entries.values()) - 1.0) <= 1e-9
            and all(p[j] <= tau + 1e-12 for j in range(k) if j not in w.entries)
            and heaviest(w) == int(np.argmax(p))
        )
        failures += not ok
    verdict(3, failures == 0, f"{failures} failures out of 10000 cases")


def test_criterion_04_rbf_equivalence():
    worst = 0.0
    for beta in (0.01, 0.1, 1.0):
        for trial in range(1000):
            c = random_unit_vectors(6, 24, 10_000 + trial)
            q = random_unit_vectors(1, 24, 20_000 + trial)[0]
            z = c.astype(np.float64) @ q.astype(np.float64) / beta
            e = np.exp(z - z.max())
            attention = e / e.sum()
            worst = max(worst, float(np.abs(attention - rbf_weights(q, c, beta)).max()))
    verdict(4, worst <= 1e-6, f"max elementwise gap {worst:.2e}")


def test_criterion_05_one_hot_merge_exact(small_base):
    adapters = {
        k: lm.train_adapter(
            small_base,
            ["abcdefgh", "hgfedcba"],
            lm.TrainConfig(learning_rate=1e-2, epochs=1),
            k,
            rank=2,
        )
        for k in range(4)
    }
    rng = np.random.default_rng(1)
    symbols = small_base.vocab.symbols[2:]
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(4))
        prompt = "".join(rng.choice(list(symbols), size=int(rng.integers(1, 9))))
        model = apply_merged(
            small_base, merge_adapters(MergeWeights(entries={k: 1.0}), adapters)
        )
        gap = np.abs(
            lm.forward(model, None, prompt) - lm.forward(small_base, adapters[k], prompt)
        ).max()
        worst = max(worst, float(gap))
    verdict(5, worst <= 1e-6, f"max probability gap {worst:.2e}")


def test_criterion_06_gradient_check():
    from test_model import (
        adapter_nll_and_grad,
        doc_keys,
        finite_difference_grads,
        max_relative_error,
    )

    vocab = lm.Vocab.from_corpus(["abc"])  # V = 5
    base = lm.BaseParams.init_random(vocab, hidden=4, seed=11)
    adapter = lm.LoraAdapter.init(base, rank=2, alpha=4.0, seed=12)
    rng = np.random.default_rng(13)
    adapter = dataclasses.replace(adapter, theta=rng.standard_normal(adapter.theta.size) * 0.1)
    docs = ["abca", "cab"]
    _, analytic = adapter_nll_and_grad(base, adapter, doc_keys(vocab, docs))
    err = max_relative_error(analytic, finite_difference_grads(base, adapter, docs))
    verdict(6, err <= 1e-4, f"max relative gradient error {err:.2e}")


# TTT's neighbour count and learning rate, as ROADMAP item 2 picked them on the
# diagnostic holdout, never on test documents. The config's ttt_* defaults stay
# as they are, because they fix the recorded ttt perplexity.
TTT_NEIGHBORS = 50
TTT_LEARNING_RATE = 5e-3


def mean_kl_from_ttt(docs: list[str], built: pipeline.BuildResult) -> dict[str, float]:
    """Mean over the Table-1 test prompts of KL(TTT || q) between next-token
    tables, for q the TTMM model, global fine-tuning and one seeded random
    expert. A prompt's KL is the mean of the row KLs, each row weighted by
    how often the test document scores its input token."""
    cfg, base, catalog, split = built.cfg, built.base, built.catalog, built.split
    test = [split.test[k] for k in range(catalog.K)]
    queries = embed_corpus(
        cfg.embedder, [docs[i][: cfg.protocol.query_prefix_len] or docs[i] for i in test]
    )
    train_docs = [docs[i] for i in split.train_idx]
    train_embs = built.embeddings[split.train_idx]
    adapters = store.load_active(catalog, range(catalog.K), base)
    finetune = global_finetune(
        base, train_docs, cfg.expert_train, cfg.seed, cfg.lora_rank, cfg.lora_alpha
    )
    random_expert = adapters[int(np.random.default_rng(0).integers(catalog.K))]
    fixed = {
        "finetune": lm._prob_table(base, finetune),
        "random": lm._prob_table(base, random_expert),
    }
    kls: dict[str, list[float]] = {"ttmm": [], "finetune": [], "random": []}
    for i, query in zip(test, queries):
        rows = lm._scored_counts(base.vocab, [docs[i]], cfg.protocol.eval_prefix_len).sum(axis=1)
        adapter = ttt_adapt(
            base,
            query,
            train_embs,
            train_docs,
            TTT_NEIGHBORS,
            TTT_LEARNING_RATE,
            cfg.seed,
            cfg.lora_rank,
            cfg.lora_alpha,
        )
        p = lm._prob_table(base, adapter)
        merged = merge_adapters(routing.route(query, catalog, cfg.routing), adapters)
        tables = {"ttmm": lm._prob_table(apply_merged(base, merged), None), **fixed}
        for name, q in tables.items():
            kls[name].append(float((p * np.log(p / q)).sum(axis=1) @ rows / rows.sum()))
    return {name: float(np.mean(values)) for name, values in kls.items()}


def ttmm_approximates_ttt(kl: dict[str, float]) -> bool:
    """TTMM lands at most half as far from TTT as global fine-tuning does,
    and a random expert does not."""
    return kl["ttmm"] <= 0.5 * kl["finetune"] < kl["random"]


def test_criterion_07_ttmm_approximates_ttt(headline):
    built, _, _ = headline
    docs, _, _ = generate_corpus(built.cfg.corpus)
    kl = mean_kl_from_ttt(docs, built)
    verdict(
        7,
        ttmm_approximates_ttt(kl),
        f"mean KL from TTT: ttmm={kl['ttmm']:.3f} finetune={kl['finetune']:.3f} "
        f"random={kl['random']:.3f}",
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8))
def test_ttmm_approximates_ttt_across_corpus_seeds(seed, tmp_path):
    cfg = RunConfig().with_overrides({"corpus.seed": seed})
    docs, _, _ = generate_corpus(cfg.corpus)
    kl = mean_kl_from_ttt(docs, pipeline.build_catalog(docs, cfg, tmp_path / "catalog"))
    assert ttmm_approximates_ttt(kl), kl


def test_criterion_08_forward_pass_accounting(small_base, monkeypatch):
    adapters = {
        k: lm.train_adapter(
            small_base,
            ["abcd"],
            lm.TrainConfig(learning_rate=1e-2, epochs=1),
            k,
            rank=1,
        )
        for k in range(5)
    }
    w = MergeWeights(entries={k: 0.2 for k in range(5)})
    tables = CallCounter(monkeypatch, lm, "_prob_table")
    n_tokens = 7
    for t in range(n_tokens):
        ensemble_perplexity(small_base, w, adapters, ["abcd"[: 1 + t % 3]])
    ensemble_evals = tables.calls
    model = apply_merged(small_base, merge_adapters(w, adapters))
    for t in range(n_tokens):
        lm.perplexity(model, None, ["abcd"[: 1 + t % 3]])
    merged_evals = tables.calls - ensemble_evals
    ok = ensemble_evals == 5 * n_tokens and merged_evals == n_tokens
    verdict(8, ok, f"ensemble {ensemble_evals}/{5 * n_tokens} merged {merged_evals}/{n_tokens}")


def test_criterion_09_routing_diagnostics(headline):
    _, report, _ = headline
    accs = [acc for _, acc in report.pass_at_n]
    ns = [n for n, _ in report.pass_at_n]
    frac = report.diagonal_rowmin_fraction
    ok = (
        accs == sorted(accs)
        and ns[-1] == len(report.matrix)
        and accs[-1] == 1.0
        and frac >= 0.8
    )
    verdict(9, ok, f"pass@N={list(zip(ns, accs))} diag_rowmin={frac:.3f}")


def test_criterion_10_latency_report(headline):
    built, _, _ = headline
    query = built.catalog.centroids[0]
    taus = [0.0, 0.005, 0.01, 0.02, 0.03]
    reports = [
        store.timed_route_merge(built.catalog, query, routing.RoutingConfig(beta=0.05, tau=t))[1]
        for t in taus
    ]
    actives = [rep.n_active for rep in reports]
    phases_ok = all(
        rep.select_duration >= 0 and rep.load_duration >= 0 and rep.merge_duration >= 0
        for rep in reports
    )
    ok = actives == sorted(actives, reverse=True) and phases_ok
    verdict(10, ok, f"n_active over tau {taus}: {actives}")


def test_criterion_11_bit_exact_persistence(headline, tmp_path):
    built, _, _ = headline
    catalog = built.catalog
    original = catalog.adapter_file(0).read_bytes()
    adapter = store.load_adapter(catalog.adapter_file(0), catalog.base_fingerprint)
    rewritten_path = tmp_path / "rewritten.bin"
    store.save_adapter(adapter, rewritten_path, catalog.base_fingerprint)
    roundtrip_ok = rewritten_path.read_bytes() == original

    reloaded = store.load_catalog(catalog.root)
    manifest = (catalog.root / store.MANIFEST_NAME).read_text()
    reload_dir = tmp_path / "manifest_copy"
    reload_dir.mkdir()
    reloaded.root = reload_dir
    store.save_manifest(reloaded)
    manifest_ok = (reload_dir / store.MANIFEST_NAME).read_text() == manifest

    corrupted = bytearray(original)
    corrupted[len(corrupted) // 2] ^= 1
    bad_path = tmp_path / "bad.bin"
    bad_path.write_bytes(bytes(corrupted))
    try:
        store.load_adapter(bad_path)
        corruption_ok = False
    except ValueError:
        corruption_ok = True
    ok = roundtrip_ok and manifest_ok and corruption_ok
    verdict(
        11,
        ok,
        f"adapter_roundtrip={roundtrip_ok} manifest_roundtrip={manifest_ok} "
        f"corruption_rejected={corruption_ok}",
    )
