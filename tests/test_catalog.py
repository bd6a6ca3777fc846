import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertmerge import catalog as cat
from expertmerge import model as lm
from expertmerge.routing import MergeWeights, RoutingConfig


@pytest.fixture
def fingerprint(small_base):
    return small_base.fingerprint()


@pytest.fixture
def adapter(small_base):
    cfg = lm.TrainConfig(learning_rate=5e-3, epochs=1, seed=7)
    return lm.train_adapter(small_base, ["abcd", "efgh"], cfg, rank=2)


def test_roundtrip_bitwise(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    loaded = cat.load_adapter(path, fingerprint)
    assert loaded.rank == adapter.rank
    assert loaded.alpha == pytest.approx(adapter.alpha)
    assert set(loaded.factors) == set(adapter.factors)
    for name in adapter.factors:
        assert np.array_equal(loaded.factors[name][0], adapter.factors[name][0])
        assert np.array_equal(loaded.factors[name][1], adapter.factors[name][1])


def test_byte_count_formula(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    written = cat.save_adapter(adapter, path, fingerprint)
    # independent size computation from the format description
    expected = 4 + 2 + 32 + 4 + 8
    for name, (a, b) in adapter.factors.items():
        expected += 4 + len(name.encode()) + 12 + 4 + 4 * a.size + 4 * b.size
    assert written == expected
    assert path.stat().st_size == expected


def test_truncated_file_rejected(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="corrupt adapter"):
        cat.load_adapter(path)


def test_single_bit_flip_rejected(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 3] ^= 0x10
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="checksum mismatch"):
        cat.load_adapter(path)


def test_wrong_fingerprint_rejected(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    other = bytes(32)
    with pytest.raises(ValueError, match="different base"):
        cat.load_adapter(path, other)


def test_trailing_bytes_rejected(tmp_path, adapter, fingerprint):
    path = tmp_path / "e.adapter"
    cat.save_adapter(adapter, path, fingerprint)
    payload = path.read_bytes()[:-8] + b"\x00"
    path.write_bytes(payload + struct.pack("<Q", cat._checksum64(payload)))
    with pytest.raises(ValueError, match="trailing bytes"):
        cat.load_adapter(path)


def test_non_finite_adapter_rejected(tmp_path, adapter, fingerprint):
    # both pass the checksum: the writer stored them faithfully
    path = tmp_path / "e.adapter"
    nan_alpha = adapter.copy()
    nan_alpha.alpha = float("nan")
    cat.save_adapter(nan_alpha, path, fingerprint)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        cat.load_adapter(path, fingerprint)
    inf_factor = adapter.copy()
    inf_factor.factors["out_proj"][1][0, 0] = np.inf
    cat.save_adapter(inf_factor, path, fingerprint)
    with pytest.raises(ValueError, match="non-finite entries in adapter factors"):
        cat.load_adapter(path, fingerprint)


def _matrix_record(name, dims, alpha, data, name_len):
    length = len(name) if name_len is None else name_len
    return struct.pack("<I", length) + name + struct.pack("<IIIf", *dims, alpha) + data


_u32 = st.integers(0, 2**32 - 1)
_dim = st.integers(0, 4) | _u32
_matrix = st.builds(
    _matrix_record,
    st.binary(max_size=6),
    st.tuples(_dim, _dim, _dim),
    st.floats(width=32),
    st.binary(max_size=96),
    st.none() | _u32,
)
_body = st.binary(max_size=256) | st.builds(
    lambda count, records, tail: struct.pack("<I", count) + b"".join(records) + tail,
    st.integers(0, 3) | _u32,
    st.lists(_matrix, max_size=3),
    st.binary(max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(body=_body)
def test_malformed_body_raises_value_error(tmp_path_factory, body):
    # valid magic, version and checksum around arbitrary matrix bytes
    payload = cat.MAGIC + struct.pack("<H", cat.FORMAT_VERSION) + bytes(32) + body
    path = tmp_path_factory.getbasetemp() / "fuzz.adapter"
    path.write_bytes(payload + struct.pack("<Q", cat._checksum64(payload)))
    try:
        cat.load_adapter(path)
    except ValueError:
        pass


def build_catalog_dir(tmp_path, base, n_experts, docs):
    root = tmp_path / "catalog"
    (root / cat.ADAPTER_DIR).mkdir(parents=True)
    fp = base.fingerprint()
    rng = np.random.default_rng(0)
    records = []
    for k in range(n_experts):
        cfg = lm.TrainConfig(learning_rate=5e-3, epochs=1, seed=100 + k)
        adapter = lm.train_adapter(base, docs, cfg, rank=2)
        rel = f"{cat.ADAPTER_DIR}/expert_{k:03d}.adapter"
        size = cat.save_adapter(adapter, root / rel, fp)
        checksum = (root / rel).read_bytes()[-8:].hex()
        c = rng.standard_normal(16)
        records.append(
            cat.ExpertRecord(
                expert_id=k,
                centroid=(c / np.linalg.norm(c)).astype(np.float32),
                cluster_size=5 + k,
                adapter_path=rel,
                byte_size=size,
                checksum=checksum,
            )
        )
    catalog = cat.ExpertCatalog(
        root=root, records=records, embedder_fingerprint="emb-test", base_fingerprint=fp
    )
    cat.save_manifest(catalog)
    return catalog


def test_manifest_roundtrip(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 4, ["abcd", "efgh"])
    loaded = cat.load_catalog(catalog.root)
    assert loaded.K == 4
    assert loaded.embedder_fingerprint == "emb-test"
    assert loaded.base_fingerprint == catalog.base_fingerprint
    for orig, got in zip(catalog.records, loaded.records):
        assert got.expert_id == orig.expert_id
        assert got.cluster_size == orig.cluster_size
        assert got.byte_size == orig.byte_size
        assert got.checksum == orig.checksum
        # centroids round-trip bit-exactly through the text manifest
        assert np.array_equal(got.centroid, orig.centroid)
    # the load stacked and checked the centroid matrix once; routing reuses it
    assert loaded._centroid_cache is not None
    assert np.array_equal(loaded.centroid_matrix(), catalog.centroid_matrix())


def _first_centroid(text: str, edit) -> str:
    """`text` with the first centroid's values replaced by edit(values)."""
    head, _, rest = text.partition("centroid: ")
    line, _, tail = rest.partition("\n")
    return head + "centroid: " + " ".join(edit(line.split())) + "\n" + tail


def _drop_line(key: str):
    return lambda text: re.sub(rf"^{key}: .*\n", "", text, count=1, flags=re.M)


def _set_field(key: str, value: str):
    return lambda text: re.sub(rf"^{key}: .*$", f"{key}: {value}", text, count=1, flags=re.M)


BAD_MANIFESTS = {
    "no num_experts": (_drop_line("num_experts"), "header has no num_experts"),
    "no base_fingerprint": (_drop_line("base_fingerprint"), "header has no base_fingerprint"),
    "no checksum": (_drop_line("checksum"), "record 0 has no checksum"),
    "no centroid": (_drop_line("centroid"), "record 0 has no centroid"),
    "nan centroid entry": (
        lambda t: _first_centroid(t, lambda v: ["nan"] + v[1:]),
        "non-finite",
    ),
    "inf centroid entry": (
        lambda t: _first_centroid(t, lambda v: v[:-1] + ["inf"]),
        "non-finite",
    ),
    "short centroid": (lambda t: _first_centroid(t, lambda v: v[:-1]), "differ in length"),
    "empty centroid": (lambda t: _first_centroid(t, lambda v: []), "differ in length"),
    "centroid not unit norm": (
        lambda t: _first_centroid(t, lambda v: [repr(1.001 * float(x)) for x in v]),
        "centroid 0 has norm",
    ),
    "centroid entry not a number": (
        lambda t: _first_centroid(t, lambda v: ["0.1x"] + v[1:]),
        "unparsable",
    ),
    "byte_size not an int": (_set_field("byte_size", "12x"), "unparsable"),
    "expert_id not an int": (_set_field("expert_id", "one"), "unparsable"),
    "num_experts not an int": (_set_field("num_experts", "4.0"), "unparsable"),
    "base_fingerprint not hex": (_set_field("base_fingerprint", "zz"), "unparsable"),
    "base_fingerprint short": (_set_field("base_fingerprint", "ab" * 31), "not 32 bytes"),
    "checksum not hex": (_set_field("checksum", "x" * 16), "not 16 hex digits"),
    "other catalog version": (_set_field("catalog_version", "2"), "unsupported catalog version"),
    "count mismatch": (_set_field("num_experts", "5"), "num_experts is 5"),
    "ids not dense": (_set_field("expert_id", "7"), "dense"),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_load_catalog_checks_manifest(tmp_path, small_base, case):
    catalog = build_catalog_dir(tmp_path, small_base, 4, ["abcd", "efgh"])
    edit, message = BAD_MANIFESTS[case]
    manifest = catalog.root / cat.MANIFEST_NAME
    text = manifest.read_text()
    manifest.write_text(edit(text))
    assert manifest.read_text() != text
    with pytest.raises(ValueError, match=rf"manifest .*manifest\.txt: .*{message}"):
        cat.load_catalog(catalog.root)


def test_catalog_dense_id_validation(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 2, ["abcd"])
    records = list(catalog.records)
    records[1].expert_id = 5
    with pytest.raises(ValueError, match="dense"):
        cat.ExpertCatalog(
            root=catalog.root,
            records=records,
            embedder_fingerprint="x",
            base_fingerprint=catalog.base_fingerprint,
        )


def test_load_active_reads_only_support(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 6, ["abcd", "efgh"])
    w = MergeWeights(entries={1: 0.5, 4: 0.5})
    before = cat.ADAPTER_READS
    adapters, report = cat.load_active(catalog, w)
    assert cat.ADAPTER_READS - before == 2
    assert sorted(adapters) == [1, 4]
    expected_bytes = catalog.records[1].byte_size + catalog.records[4].byte_size
    assert report.bytes_loaded == expected_bytes
    assert report.n_active == 2
    assert report.load_duration >= 0.0


def test_load_active_missing_expert(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 2, ["abcd"])
    with pytest.raises(KeyError, match="not in catalog"):
        cat.load_active(catalog, MergeWeights(entries={7: 1.0}))
    catalog.adapter_file(0).unlink()
    with pytest.raises(FileNotFoundError, match="adapter file missing"):
        cat.load_active(catalog, MergeWeights(entries={0: 1.0}))


def test_load_active_rejects_swapped_adapter_files(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 2, ["abcd", "efgh"])
    first, second = catalog.adapter_file(0), catalog.adapter_file(1)
    blob0, blob1 = first.read_bytes(), second.read_bytes()
    first.write_bytes(blob1)
    second.write_bytes(blob0)
    for k in (0, 1):
        with pytest.raises(ValueError, match=rf"expert_00{k}\.adapter .*manifest checksum"):
            cat.load_active(catalog, MergeWeights(entries={k: 1.0}))
        # the file itself is intact; only the manifest record tells them apart
        cat.load_adapter(catalog.adapter_file(k), catalog.base_fingerprint)


def test_timed_route_merge(tmp_path, small_base):
    catalog = build_catalog_dir(tmp_path, small_base, 5, ["abcd", "efgh"])
    query = catalog.records[2].centroid
    merged, report = cat.timed_route_merge(catalog, query, RoutingConfig(beta=1e-3, tau=0.0))
    assert merged.provenance.argmax() == 2
    assert report.n_active >= 1
    assert report.select_duration >= 0.0
    assert report.load_duration >= 0.0
    assert report.merge_duration >= 0.0
    assert report.bytes_loaded > 0


def test_base_roundtrip(tmp_path, small_base):
    cat.save_base(small_base, tmp_path)
    loaded = cat.load_base(tmp_path)
    assert loaded.vocab.symbols == small_base.vocab.symbols
    for name in ("embed_table", "block0", "block1", "out_proj"):
        assert np.array_equal(getattr(loaded, name), getattr(small_base, name))
    assert loaded.fingerprint() == small_base.fingerprint()
