#!/usr/bin/env python3
"""End-to-end experiment: corpus -> catalog -> evaluation -> latency sweep.

Produces the headline perplexity table, routing diagnostics, and the
tau/beta latency sweep in one run directory.
"""

import argparse
import time
from pathlib import Path

from expertmerge import embedding, pipeline
from expertmerge.catalog import bench_csv, bench_sweep
from expertmerge.config import RunConfig
from expertmerge.corpus import generate_corpus, read_corpus, write_corpus
from expertmerge.evaluation import DEFAULT_METHODS, run_table1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", help="run output directory")
    parser.add_argument("--config", help="YAML run config")
    parser.add_argument("--corpus", help="existing corpus file; generated if absent")
    parser.add_argument(
        "--methods",
        default=",".join(DEFAULT_METHODS),
        help="comma-separated method subset",
    )
    parser.add_argument("--taus", default="0.0,0.005,0.01,0.02")
    parser.add_argument("--betas", default="0.02,0.05,0.1")
    parser.add_argument("--repetitions", type=int, default=10)
    args = parser.parse_args()

    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.corpus:
        docs = read_corpus(args.corpus)
    else:
        docs, _, _ = generate_corpus(cfg.corpus)
        write_corpus(docs, out / "corpus.txt")

    t0 = time.monotonic()
    built = pipeline.build_catalog(docs, cfg, out / "catalog")
    build_s = time.monotonic() - t0
    print(f"built {built.catalog.K} experts in {build_s:.1f}s")

    t0 = time.monotonic()
    report = run_table1(
        docs,
        built.embeddings,
        built.assignment,
        built.split,
        built.base,
        built.catalog,
        cfg,
        methods=tuple(args.methods.split(",")),
    )
    eval_s = time.monotonic() - t0
    (out / "report.txt").write_text(report.to_text())
    (out / "report.csv").write_text(report.to_csv())
    print(report.to_text())
    print(f"evaluation took {eval_s:.1f}s")

    query_doc = docs[built.split.test[0]]
    query = embedding.embed(
        cfg.embedder, query_doc[: cfg.protocol.query_prefix_len] or query_doc
    )
    rows = bench_sweep(
        built.catalog,
        query,
        [float(t) for t in args.taus.split(",")],
        [float(b) for b in args.betas.split(",")],
        args.repetitions,
    )
    (out / "latency.csv").write_text(bench_csv(rows))
    print(f"latency sweep written to {out / 'latency.csv'}")


if __name__ == "__main__":
    main()
