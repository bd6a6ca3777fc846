"""On-disk expert catalog: adapter serialization, manifest, checked loading
of experts by id, and the timed route-load-merge.

Catalog format 4. An adapter file is (little-endian throughout):

    HEADER: magic "TTMM" | version u16 | base fingerprint (32 bytes)
            | d_out u32, d_in u32 of each model.TARGET_NAMES entry
            | rank u32 | alpha f32
    | adapter.theta as f32: A (r, d_in) then B (d_out, r) of each target,
      row-major (the theta layout)
    | checksum u64 (blake2b-64 of all preceding bytes)

The manifest holds each fact once: the header lines catalog_version: 4,
embedder_fingerprint, base_fingerprint, num_experts and adapter_bytes (the
byte size of every adapter file), then one "expert: <cluster size>
<checksum hex>" line per expert, expert k the k-th. Expert k's adapter is
adapters/expert_<k as 4 digits>.bin, a name derived from k
(ExpertRecord.adapter_path). The centroids are centroids.npy. The base
model is vocab.txt and base.npy, one (2V+2h, h) float32 array of the rows
of embed_table, block0, block1 and out_proj. Every .npy file of a catalog
is read by read_array. A catalog of format 1-3 must be rebuilt.
"""

from __future__ import annotations

import hashlib
import re
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
FORMAT_VERSION = 4
HEADER = struct.Struct("<4sH32s" + "II" * len(lm.TARGET_NAMES) + "If")
MANIFEST_NAME = "manifest.txt"
CENTROIDS_NAME = "centroids.npy"
BASE_NAME = "base.npy"
VOCAB_NAME = "vocab.txt"
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
    (hex) and its length equals `byte_size`. A missing or unreadable file
    raises one ValueError naming it."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"adapter {path}: cannot read it ({exc})") from exc
    if byte_size is not None and len(blob) != byte_size:
        raise ValueError(
            f"adapter {path} is {len(blob)} bytes, its manifest adapter_bytes is {byte_size}"
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
    byte_size: int
    checksum: str  # hex of the trailing u64

    @property
    def adapter_path(self) -> str:
        """The adapter file relative to the catalog root: the one place naming it."""
        return f"{ADAPTER_DIR}/expert_{self.expert_id:04d}.bin"


@dataclass
class ExpertCatalog:
    root: Path
    records: list[ExpertRecord]  # records[k] is expert k
    centroids: np.ndarray  # (K, d) float32; row k is expert k's unit-norm centroid
    embedder_fingerprint: str
    base_fingerprint: bytes

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
    """Write the manifest and the centroids beside it; returns the manifest
    path. Records of different byte sizes, which one adapter_bytes cannot
    state, raise ValueError."""
    sizes = sorted({rec.byte_size for rec in catalog.records})
    if len(sizes) != 1:
        raise ValueError(f"catalog {catalog.root}: adapter byte sizes {sizes} are not one size")
    np.save(catalog.root / CENTROIDS_NAME, catalog.centroids, allow_pickle=False)
    lines = [
        f"catalog_version: {FORMAT_VERSION}",
        f"embedder_fingerprint: {catalog.embedder_fingerprint}",
        f"base_fingerprint: {catalog.base_fingerprint.hex()}",
        f"num_experts: {catalog.K}",
        f"adapter_bytes: {sizes[0]}",
    ]
    lines += [f"expert: {rec.cluster_size} {rec.checksum}" for rec in catalog.records]
    path = catalog.root / MANIFEST_NAME
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


HEADER_KEYS = ("embedder_fingerprint", "base_fingerprint", "num_experts", "adapter_bytes")
CHECKSUM_HEX = re.compile(r"[0-9a-f]{16}")
CENTROID_NORM_TOL = 1e-5


def load_catalog(root: str | Path) -> ExpertCatalog:
    """Read and check the manifest (line 1 this format's catalog_version, each
    other line a header key given once or a two-field expert line), then
    centroids.npy, one finite float32 (K, d) matrix of rows within
    CENTROID_NORM_TOL of unit norm. Any fault raises ValueError naming the file."""
    root = Path(root)
    path = root / MANIFEST_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ValueError(f"manifest {path}: cannot read it ({exc})") from exc

    def bad(problem: str) -> ValueError:
        return ValueError(f"manifest {path}: {problem}")

    lines = text.splitlines() or [""]
    key, _, version = lines[0].partition(": ")
    if key != "catalog_version":
        raise bad(f"line 1 is not catalog_version: <n> ({lines[0]!r})")
    if version != str(FORMAT_VERSION):
        raise bad(f"unsupported catalog version {version}")
    header: dict[str, str] = {}
    experts: list[list[str]] = []
    for n, line in enumerate(lines[1:], 2):
        key, sep, value = line.partition(": ")
        if sep and key == "expert" and len(fields := value.split(" ")) == 2:
            experts.append(fields)
        elif sep and key in HEADER_KEYS and key not in header:
            header[key] = value
        else:
            raise bad(
                f"line {n} is not a header key given once or "
                f"expert: <cluster size> <checksum> ({line!r})"
            )
    try:
        num_experts = int(header["num_experts"])
        adapter_bytes = int(header["adapter_bytes"])
        embedder_fingerprint = header["embedder_fingerprint"]
        base_fingerprint = bytes.fromhex(header["base_fingerprint"])
        records = [
            ExpertRecord(k, int(size), adapter_bytes, checksum)
            for k, (size, checksum) in enumerate(experts)
        ]
    except KeyError as exc:
        raise bad(f"header has no {exc.args[0]}") from exc
    except ValueError as exc:
        raise bad(f"unparsable field ({exc})") from exc
    if len(base_fingerprint) != 32:
        raise bad("base_fingerprint is not 32 bytes")
    if len(records) != num_experts:
        raise bad(f"num_experts is {num_experts} but there are {len(records)} expert lines")
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
    return ExpertCatalog(
        root=root,
        records=records,
        centroids=centroids,
        embedder_fingerprint=embedder_fingerprint,
        base_fingerprint=base_fingerprint,
    )


def save_base(base: lm.BaseParams, root: str | Path) -> None:
    root = Path(root)
    weights = [getattr(base, name) for name in lm.DENSE_NAMES]
    np.save(root / BASE_NAME, np.concatenate(weights), allow_pickle=False)
    (root / VOCAB_NAME).write_text(base.vocab.symbols[2:], encoding="utf-8")


def load_base(root: str | Path) -> lm.BaseParams:
    """The base model in vocab.txt and base.npy, one (2V+2h, h) float32 array
    of the rows of embed_table (V), block0 (h), block1 (h) and out_proj (V).
    Any fault raises one ValueError naming the catalog and the file."""
    root = Path(root)
    try:
        vocab = lm.Vocab(lm.BOS + lm.EOS + (root / VOCAB_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"catalog {root}: cannot read {VOCAB_NAME} ({exc})") from exc
    rows = read_array(root / BASE_NAME, np.float32, (None, None))
    v, (n, h) = vocab.size, rows.shape
    try:
        if n != 2 * (v + h):
            raise ValueError(f"{n} rows, expected 2(V+h) = {2 * (v + h)}")
        b1, out = v + h, v + 2 * h  # the first rows of block1 and out_proj
        return lm.BaseParams(vocab, rows[:v], rows[v:b1], rows[b1:out], rows[out:])
    except ValueError as exc:
        raise ValueError(f"catalog {root}: cannot read {BASE_NAME} ({exc})") from exc


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

