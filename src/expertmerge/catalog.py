"""On-disk expert catalog: adapter serialization, manifest, checked loading
of experts by id, the timed route-load-merge and the tau×beta latency sweep.

Adapter binary format 2 (little-endian throughout):

    HEADER: magic "TTMM" | version u16 | base fingerprint (32 bytes)
            | d_out u32, d_in u32 of each model.TARGET_NAMES entry
            | rank u32 | alpha f32
    | adapter.theta as f32: A (r, d_in) then B (d_out, r) of each target,
      row-major (the theta layout)
    | checksum u64 (blake2b-64 of all preceding bytes)

The manifest is a human-readable key/value text file; the centroids are
centroids.npy beside it, and adapters live in an adapters/ subdirectory.
Every .npy file of a catalog is read by read_array. A catalog of format 1
(per-matrix adapter records, centroids and labels as text) must be rebuilt.
"""

from __future__ import annotations

import hashlib
import re
import statistics
import struct
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as lm
from . import routing
from .merging import MergedAdapter, merge_adapters
from .routing import RoutingConfig

MAGIC = b"TTMM"
FORMAT_VERSION = 2
HEADER = struct.Struct("<4sH32s" + "II" * len(lm.TARGET_NAMES) + "If")
MANIFEST_NAME = "manifest.txt"
CENTROIDS_NAME = "centroids.npy"
ADAPTER_DIR = "adapters"


def _checksum64(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def read_array(path: Path, dtype: type, shape: tuple[int | None, ...]) -> np.ndarray:
    """The .npy array at path, of this dtype and shape (None: any length on
    that axis). A missing or unreadable file, a pickled or an .npz one, or
    another dtype or shape raises one ValueError naming the file."""
    try:
        with open(path, "rb") as f:
            array = np.lib.format.read_array(f, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ValueError(f"catalog {path.parent}: cannot read {path.name} ({exc})") from exc
    if array.dtype != dtype or len(array.shape) != len(shape) or any(
        want is not None and got != want for got, want in zip(array.shape, shape)
    ):
        raise ValueError(
            f"catalog {path.parent}: {path.name} is {array.dtype} {array.shape}, "
            f"expected {np.dtype(dtype)} {shape}"
        )
    return array


def save_adapter(
    adapter: lm.LoraAdapter, path: str | Path, base_fingerprint: bytes
) -> tuple[int, str]:
    """Write the adapter in the binary format; returns the byte size and the
    checksum hex that its manifest record holds."""
    if len(base_fingerprint) != 32:
        raise ValueError("base fingerprint must be 32 bytes")
    dims = [d for shape in adapter.shapes for d in shape]
    header = HEADER.pack(
        MAGIC, FORMAT_VERSION, base_fingerprint, *dims, adapter.rank, adapter.alpha
    )
    payload = header + adapter.theta.astype("<f4").tobytes()
    checksum = struct.pack("<Q", _checksum64(payload))
    Path(path).write_bytes(payload + checksum)
    return len(payload) + len(checksum), checksum.hex()


def load_adapter(
    path: str | Path,
    base_fingerprint: bytes | None = None,
    checksum: str | None = None,
    byte_size: int | None = None,
) -> lm.LoraAdapter:
    """Read an adapter and verify its checksum and that its length matches
    its header's shapes; if given, also verify the base fingerprint and that
    the file matches its manifest record: its checksum equals `checksum`
    (hex) and its length equals `byte_size`."""
    blob = Path(path).read_bytes()
    if byte_size is not None and len(blob) != byte_size:
        raise ValueError(
            f"adapter {path} is {len(blob)} bytes, its manifest byte_size is {byte_size}"
        )
    if len(blob) < HEADER.size + 8:
        raise ValueError(f"corrupt adapter: {path} (truncated)")
    if _checksum64(blob[:-8]) != int.from_bytes(blob[-8:], "little"):
        raise ValueError(f"corrupt adapter: {path} (checksum mismatch)")
    if checksum is not None and blob[-8:].hex() != checksum:
        raise ValueError(f"adapter {path} does not match its manifest checksum {checksum}")
    magic, version, fingerprint, *dims, rank, alpha = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError(f"corrupt adapter: {path} (bad magic)")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported adapter format version {version}")
    if base_fingerprint is not None and fingerprint != base_fingerprint:
        raise ValueError(f"adapter {path} was trained against a different base model")
    shapes = list(zip(dims[0::2], dims[1::2]))  # (d_out, d_in) per target
    count = rank * sum(d_out + d_in for d_out, d_in in shapes)
    extra = len(blob) - (HEADER.size + 4 * count + 8)
    if extra:
        what = "trailing" if extra > 0 else "missing"
        raise ValueError(
            f"corrupt adapter: {path} ({abs(extra)} {what} bytes for its header's shapes)"
        )
    theta = np.frombuffer(blob, dtype="<f4", count=count, offset=HEADER.size)
    return lm.LoraAdapter(theta, shapes, rank, alpha)


@dataclass
class ExpertRecord:
    expert_id: int
    cluster_size: int
    adapter_path: str  # relative to the catalog directory
    byte_size: int
    checksum: str  # hex of the trailing u64


@dataclass
class ExpertCatalog:
    root: Path
    records: list[ExpertRecord]
    centroids: np.ndarray  # (K, d) float32; row k is expert k's unit-norm centroid
    embedder_fingerprint: str
    base_fingerprint: bytes

    def __post_init__(self) -> None:
        ids = [r.expert_id for r in self.records]
        if ids != list(range(len(ids))):
            raise ValueError("expert ids must be dense in [0, K)")
        for rec in self.records:
            # a file directly in ADAPTER_DIR: no absolute path, other directory or ".."
            folder, _, name = rec.adapter_path.partition("/")
            if folder != ADAPTER_DIR or name in ("", ".", "..") or "/" in name:
                raise ValueError(
                    f"expert {rec.expert_id} adapter_path {rec.adapter_path!r} "
                    f"is not {ADAPTER_DIR}/<name>"
                )

    @property
    def K(self) -> int:
        return len(self.records)

    def adapter_file(self, expert_id: int) -> Path:
        return self.root / self.records[expert_id].adapter_path


@dataclass
class LatencyReport:
    select_duration: float
    load_duration: float
    merge_duration: float
    n_active: int
    bytes_loaded: int


def save_manifest(catalog: ExpertCatalog) -> Path:
    """Write the manifest and the centroids beside it; returns the manifest path."""
    np.save(catalog.root / CENTROIDS_NAME, catalog.centroids, allow_pickle=False)
    lines = [
        f"catalog_version: {FORMAT_VERSION}",
        f"embedder_fingerprint: {catalog.embedder_fingerprint}",
        f"base_fingerprint: {catalog.base_fingerprint.hex()}",
        f"num_experts: {catalog.K}",
        "",
    ]
    for rec in catalog.records:
        lines.extend(
            [
                f"expert_id: {rec.expert_id}",
                f"cluster_size: {rec.cluster_size}",
                f"adapter_path: {rec.adapter_path}",
                f"byte_size: {rec.byte_size}",
                f"checksum: {rec.checksum}",
                "",
            ]
        )
    path = catalog.root / MANIFEST_NAME
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


HEADER_KEYS = ("catalog_version", "embedder_fingerprint", "base_fingerprint", "num_experts")
CHECKSUM_HEX = re.compile(r"[0-9a-f]{16}")
CENTROID_NORM_TOL = 1e-5


def load_catalog(root: str | Path) -> ExpertCatalog:
    """Read and check the manifest, every header and record key present and
    every field parsed, and then centroids.npy, one finite float32 (K, d)
    matrix of rows within CENTROID_NORM_TOL of unit norm. Any fault raises
    ValueError naming the file."""
    root = Path(root)
    path = root / MANIFEST_NAME
    text = path.read_text(encoding="utf-8")
    header: dict[str, str] = {}
    fields: list[dict[str, str]] = []
    current: dict[str, str] = {}

    def flush() -> None:
        if current:
            fields.append(dict(current))
            current.clear()

    for line in text.splitlines():
        line = line.strip()
        if not line:
            flush()
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "expert_id":
            flush()
        if key in HEADER_KEYS:
            header[key] = value
        else:
            current[key] = value
    flush()

    def bad(problem: str) -> ValueError:
        return ValueError(f"manifest {path}: {problem}")

    where = "header"
    try:
        version = int(header["catalog_version"])
        num_experts = int(header["num_experts"])
        embedder_fingerprint = header["embedder_fingerprint"]
        base_fingerprint = bytes.fromhex(header["base_fingerprint"])
        records = []
        for i, rec in enumerate(fields):
            where = f"record {i}"
            records.append(
                ExpertRecord(
                    expert_id=int(rec["expert_id"]),
                    cluster_size=int(rec["cluster_size"]),
                    adapter_path=rec["adapter_path"],
                    byte_size=int(rec["byte_size"]),
                    checksum=rec["checksum"],
                )
            )
    except KeyError as exc:
        raise bad(f"{where} has no {exc.args[0]}") from exc
    except ValueError as exc:
        raise bad(f"{where} has an unparsable field ({exc})") from exc
    if version != FORMAT_VERSION:
        raise bad(f"unsupported catalog version {version}")
    if len(base_fingerprint) != 32:
        raise bad("base_fingerprint is not 32 bytes")
    if len(records) != num_experts:
        raise bad(f"num_experts is {num_experts} but there are {len(records)} records")
    if not records:
        raise bad("no experts")
    for rec in records:
        if not CHECKSUM_HEX.fullmatch(rec.checksum):
            raise bad(f"expert {rec.expert_id} checksum {rec.checksum!r} is not 16 hex digits")
    centroids = read_array(root / CENTROIDS_NAME, np.float32, (num_experts, None))
    if not np.isfinite(centroids).all():
        raise ValueError(f"catalog {root}: {CENTROIDS_NAME} has a non-finite entry")
    norms = np.linalg.norm(centroids.astype(np.float64), axis=1)
    off = np.flatnonzero(np.abs(norms - 1.0) > CENTROID_NORM_TOL)
    if off.size:
        raise ValueError(
            f"catalog {root}: centroid {off[0]} in {CENTROIDS_NAME} has norm {norms[off[0]]}, not 1"
        )
    try:
        return ExpertCatalog(
            root=root,
            records=records,
            centroids=centroids,
            embedder_fingerprint=embedder_fingerprint,
            base_fingerprint=base_fingerprint,
        )
    except ValueError as exc:
        raise bad(str(exc)) from exc


def save_base(base: lm.BaseParams, root: str | Path) -> None:
    root = Path(root)
    np.savez(root / "base.npz", **{name: getattr(base, name) for name in lm.DENSE_NAMES})
    (root / "vocab.txt").write_text(base.vocab.symbols[2:], encoding="utf-8")


def load_base(root: str | Path) -> lm.BaseParams:
    root = Path(root)
    arrays = np.load(root / "base.npz")
    chars = (root / "vocab.txt").read_text(encoding="utf-8")
    vocab = lm.Vocab(symbols=lm.BOS + lm.EOS + chars)
    return lm.BaseParams(vocab=vocab, **{name: arrays[name] for name in lm.DENSE_NAMES})


def load_active(
    catalog: ExpertCatalog, ids: Iterable[int], base: lm.BaseParams | None = None
) -> dict[int, lm.LoraAdapter]:
    """Load the adapters of the given expert ids, each checked against its
    manifest record (checksum, byte size) and the catalog's base fingerprint,
    and, if base is given, its target shapes against the base's matrices."""
    adapters: dict[int, lm.LoraAdapter] = {}
    for k in ids:
        if not 0 <= k < catalog.K:
            raise ValueError(f"expert id {k} is not in 0..{catalog.K - 1}")
        path = catalog.adapter_file(k)
        if not path.exists():
            raise FileNotFoundError(f"adapter file missing for expert {k}: {path}")
        record = catalog.records[k]
        adapters[k] = load_adapter(
            path, catalog.base_fingerprint, record.checksum, record.byte_size
        )
        if base is not None:
            lm.check_fits(base, adapters[k], f"adapter {path} of expert {k}")
    return adapters


def timed_route_merge(
    catalog: ExpertCatalog,
    query: np.ndarray,
    cfg: RoutingConfig,
    base: lm.BaseParams | None = None,
) -> tuple[MergedAdapter, LatencyReport]:
    """route -> load_active (checked against base if given) -> merge_adapters
    with per-phase wall timing."""
    t0 = time.monotonic()
    weights = routing.route(query, catalog, cfg)
    t1 = time.monotonic()
    adapters = load_active(catalog, weights.support, base)
    t2 = time.monotonic()
    merged = merge_adapters(weights, adapters)
    t3 = time.monotonic()
    report = LatencyReport(
        select_duration=t1 - t0,
        load_duration=t2 - t1,
        merge_duration=t3 - t2,
        n_active=weights.n_active,
        bytes_loaded=sum(catalog.records[k].byte_size for k in weights.support),
    )
    return merged, report


def bench_sweep(
    catalog: ExpertCatalog,
    query: np.ndarray,
    taus: list[float],
    betas: list[float],
    repetitions: int,
) -> list[dict]:
    """Median select/load/merge latency per (tau, beta) cell."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rows = []
    for tau in taus:
        for beta in betas:
            route_cfg = RoutingConfig(beta=beta, tau=tau)
            selects, loads, merges = [], [], []
            n_active = 0
            bytes_loaded = 0
            for _ in range(repetitions):
                _, rep = timed_route_merge(catalog, query, route_cfg)
                selects.append(rep.select_duration)
                loads.append(rep.load_duration)
                merges.append(rep.merge_duration)
                n_active = rep.n_active
                bytes_loaded = rep.bytes_loaded
            rows.append(
                {
                    "tau": tau,
                    "beta": beta,
                    "n_active": n_active,
                    "bytes_loaded": bytes_loaded,
                    "select_ms": 1e3 * statistics.median(selects),
                    "load_ms": 1e3 * statistics.median(loads),
                    "merge_ms": 1e3 * statistics.median(merges),
                }
            )
    return rows


def bench_csv(rows: list[dict]) -> str:
    """bench_sweep rows as CSV text with a header line."""
    lines = ["tau,beta,n_active,select_ms,load_ms,merge_ms,bytes_loaded"]
    for row in rows:
        lines.append(
            f"{row['tau']},{row['beta']},{row['n_active']},"
            f"{row['select_ms']:.4f},{row['load_ms']:.4f},{row['merge_ms']:.4f},"
            f"{row['bytes_loaded']}"
        )
    return "\n".join(lines) + "\n"
