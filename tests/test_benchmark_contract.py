"""The benchmark in perfbench/ calls expertmerge functions by name and traces
the ones tracing.TRACED lists; a rename or deletion here must not go
unnoticed until a traced run fails. perfbench/ is only read."""

import ast
import dataclasses
import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import expertmerge
from conftest import CallCounter
from expertmerge import model as lm
from expertmerge import pipeline
from expertmerge.config import RunConfig
from expertmerge.corpus import generate_corpus
from expertmerge.evaluation import ttt_adapt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.Bindings(tracing.Recorder(), expertmerge).problems == []


def test_check_build_passes_on_a_build(monkeypatch, tmp_path):
    # the benchmark's build check reads the catalog format; a reduced build
    # (480 documents, 8 experts) must pass it with no failure
    monkeypatch.syspath_prepend(str(PERFBENCH))
    session = importlib.import_module("session")
    corpus = dataclasses.replace(RunConfig().corpus, docs_per_domain=60)
    cfg = RunConfig(n_clusters=8, corpus=corpus)
    docs = generate_corpus(corpus)[0]
    assert len(docs) == 480
    pipeline.build_catalog(docs, cfg, tmp_path / "cat")
    tally = session.Tally()
    digest = session.check_build(tmp_path / "cat", cfg.n_clusters, tally)
    assert tally.problems == [] and not tally.failed
    assert len(digest) == 64


def test_scored_tokens_annotation_matches_scoring(monkeypatch):
    # the traced run records model.scored_tokens from perplexity's arguments;
    # it must count the pairs that scoring reads, however the call passes them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    annotate = importlib.import_module("tracing").ANNOTATE["model.perplexity"]
    signature = inspect.signature(lm.perplexity)
    base = lm.BaseParams.init_random(lm.Vocab.from_corpus(["abcdef"]), hidden=4, seed=0)
    docs = ["fed", "abcabc", "cafe" * 30]
    for epl in (0, 1, 2):
        expected = int(lm._scored_counts(base.vocab, docs, epl).sum())
        assert annotate(signature.bind(base, None, docs, epl)) == expected
        assert annotate(signature.bind(base, None, docs=docs, eval_prefix_len=epl)) == expected
    default = int(lm._scored_counts(base.vocab, docs, 0).sum())
    assert annotate(signature.bind(base, None, docs)) == default


@pytest.mark.parametrize("n, batch_size, epochs", [(7, 2, 3), (4, 4, 2), (5, 8, 1)])
def test_nll_and_grad_runs_once_per_training_step(monkeypatch, n, batch_size, epochs):
    # model.nll_and_grad.calls in a traced run counts optimizer steps: one per
    # minibatch in train_adapter and one per neighbour in ttt_adapt
    base = lm.BaseParams.init_random(lm.Vocab.from_corpus(["abcdef"]), hidden=4, seed=0)
    rng = np.random.default_rng(n)
    docs = ["".join(rng.choice(list("abcdef"), size=int(rng.integers(2, 12)))) for _ in range(n)]
    counter = CallCounter(monkeypatch, lm, "nll_and_grad")
    monkeypatch.setattr(lm, "BATCH_SIZE", batch_size)
    lm.train_adapter(base, docs, lm.TrainConfig(epochs=epochs), 0, rank=2)
    assert counter.calls == epochs * math.ceil(n / batch_size)
    counter.calls = 0
    embs = rng.standard_normal((n, 4)).astype(np.float32)
    ttt_adapt(base, embs[0], embs, docs, n - 1, 2e-4, 0, rank=2, alpha=4.0)
    assert counter.calls == n - 1


def test_called_names_exist():
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> expertmerge module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "expertmerge":
                for alias in node.names:
                    modules[alias.asname or alias.name] = f"expertmerge.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("expertmerge."):
                for alias in node.names:
                    if not hasattr(importlib.import_module(node.module), alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                module = importlib.import_module(modules[node.value.id])
                if not hasattr(module, node.attr):
                    missing.append(f"{path.name}: {modules[node.value.id]}.{node.attr}")
    assert missing == []
