"""Command-line surface: build, eval, generate, cluster-report."""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import catalog as store, clustering, embedding, evaluation, merging, model as lm, pipeline
from .config import RunConfig, parse_yaml
from .corpus import read_corpus
from .evaluation import DEFAULT_METHODS


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    overrides = {}
    for item in args.set or []:
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--set expects key=value, got {item!r}")
        overrides[key] = parse_yaml(value, f"--set {item}")
    return cfg.with_overrides(overrides) if overrides else cfg


def cmd_build(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    docs = read_corpus(args.corpus)
    result = pipeline.build_catalog(docs, cfg, args.out)
    print(f"built catalog with {result.catalog.K} experts at {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    docs = read_corpus(args.corpus)
    built = pipeline.load_built(docs, args.catalog)
    methods = tuple(args.methods.split(",")) if args.methods else DEFAULT_METHODS
    report = evaluation.run_table1(
        docs,
        built.embeddings,
        built.assignment,
        built.split,
        built.base,
        built.catalog,
        built.cfg,
        methods=methods,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    print(report.to_text())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    method = re.fullmatch(r"base|merged|expert-(-?\d+)", args.method)
    if not method:
        raise ValueError(f"--method {args.method!r} is not base, merged or expert-<id>")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    cfg, cat, base = pipeline.open_catalog(args.catalog)

    if args.method == "base":
        text = lm.generate(base, None, args.prompt, args.n_tokens, args.seed)
    elif args.method == "merged":
        query = embedding.embed(cfg.embedder, args.prompt or "?")
        merged, _ = store.timed_route_merge(cat, query, cfg.routing, base)
        adapted = merging.apply_merged(base, merged)
        text = lm.generate(adapted, None, args.prompt, args.n_tokens, args.seed)
    else:
        k = int(method[1])
        adapter = store.load_active(cat, [k], base)[k]
        text = lm.generate(base, adapter, args.prompt, args.n_tokens, args.seed)
    print(text)
    return 0


def cmd_cluster_report(args: argparse.Namespace) -> int:
    try:
        k_list = [int(k) for k in args.k_list.split(",")]
    except ValueError:
        raise ValueError(f"--k-list {args.k_list!r} is not comma-separated integers") from None
    cfg = _load_config(args)
    docs = read_corpus(args.corpus)
    embs = embedding.embed_corpus(cfg.embedder, docs)
    curve = clustering.elbow_curve(embs, k_list, cfg.seed)
    print("K,loss")
    for k, loss, _ in curve:
        print(f"{k},{loss:.6f}")
    assignment = curve[-1][2]
    print("\ncluster titles (top character n-grams)")
    for k in range(assignment.K):
        members = assignment.members(k)
        counts: dict[str, int] = {}
        for i in members[:50]:
            for gram in embedding.ngrams(docs[i], (3,)):
                counts[gram] = counts.get(gram, 0) + 1
        top = sorted(counts, key=lambda g: (-counts[g], g))[:5]
        print(f"  cluster {k} (n={len(members)}): {' '.join(top)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expertmerge",
        description="Cluster a corpus, train per-cluster low-rank experts, and "
        "merge them per prompt at inference time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="YAML config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key, e.g. routing.tau=0.02",
        )

    p = sub.add_parser("build", help="build an expert catalog from a corpus")
    p.add_argument("corpus", help="corpus file (one doc per line) or directory")
    p.add_argument("out", help="catalog output directory")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="evaluate methods against the catalog")
    p.add_argument("catalog")
    p.add_argument("corpus")
    p.add_argument("out", help="report output directory")
    p.add_argument("--methods", help="comma-separated subset of methods")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("generate", help="generate text with base/merged/expert model")
    p.add_argument("catalog")
    p.add_argument("prompt")
    p.add_argument("--n-tokens", type=int, default=100)
    p.add_argument("--method", default="merged", help="base | merged | expert-<id>")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster-report", help="elbow curve and cluster titles")
    p.add_argument("corpus")
    p.add_argument("--k-list", default="1,2,4,8,16,32")
    common(p)
    p.set_defaults(func=cmd_cluster_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
