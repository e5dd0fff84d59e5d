import bz2
import hashlib
import http.server
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessavg.cli import cli_dispatch
from hessavg.data import (
    MANIFESTS,
    ChecksumMismatch,
    DatasetManifest,
    DatasetUnavailable,
    LibsvmParseError,
    _download,
    fetch_dataset,
    load_dataset,
    parse_libsvm,
    train_split,
)

SAMPLE = "+1 1:0.5 3:2.0\n-1 2:1 4:-0.25\n\n+1 1:1\n"


def serialize_libsvm(x, y):
    """Inverse of :func:`parse_libsvm`: each row's label and nonzero features."""

    def fmt(val):
        return str(int(val)) if val == int(val) else repr(val)

    lines = []
    for label, row in zip(y.tolist(), x):
        cols = np.flatnonzero(row)
        toks = [fmt(label)] + [f"{j + 1}:{fmt(val)}" for j, val in zip(cols.tolist(), row[cols].tolist())]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


class TestParse:
    def test_basic_row(self):
        x, y = parse_libsvm("+1 1:0.5 3:2.0\n")
        assert x.shape == (1, 3)
        assert y[0] == 1.0
        assert np.array_equal(x[0], [0.5, 0.0, 2.0])

    def test_label_map(self):
        x, y = parse_libsvm("2 4:1\n", label_map={1: 1, 2: -1})
        assert y[0] == -1.0
        assert x.shape[1] == 4

    def test_blank_lines_skipped(self):
        x, y = parse_libsvm(SAMPLE)
        assert x.shape[0] == len(y) == 3

    def test_dim_override(self):
        assert parse_libsvm("+1 1:1\n", dim=22)[0].shape == (1, 22)

    def test_malformed_token_reports_line(self):
        with pytest.raises(LibsvmParseError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 2:abc\n")

    def test_nonmonotone_indices(self):
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm("+1 3:1 2:1\n")

    def test_bad_label(self):
        with pytest.raises(LibsvmParseError, match="label"):
            parse_libsvm("cat 1:1\n")

    def test_unmapped_label(self):
        with pytest.raises(LibsvmParseError, match="label"):
            parse_libsvm("3 1:1\n", label_map={1: 1, 2: -1})

    # A NaN label raised a bare ValueError and an infinite one an
    # OverflowError, neither naming the line; non-finite values were kept.
    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("label_map", [None, {1: 1, 2: -1}], ids=["unmapped", "mapped"])
    def test_non_finite_label_reports_line(self, label, label_map):
        with pytest.raises(LibsvmParseError, match=f"line 2: non-finite label '{label}'"):
            parse_libsvm(f"1 1:1\n{label} 1:1\n", label_map=label_map)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_reports_line(self, value):
        with pytest.raises(LibsvmParseError, match=f"line 2: non-finite value in '1:{value}'"):
            parse_libsvm(f"+1 1:1\n-1 1:{value}\n")

    @pytest.mark.parametrize(
        "text, kwargs, match",
        [
            ("+1 1:1 3:2\n", {"dim": 2}, "^feature index 3 exceeds declared dim 2$"),
            ("1 1:1\n2 1:1\n", {"label_map": {1: 1, 2: 0}}, r"^line 2: label 0.0 not in \{-1, \+1\}$"),
        ],
        ids=["index_above_dim", "mapped_label_not_a_sign"],
    )
    def test_a_file_its_manifest_does_not_describe_is_refused(self, text, kwargs, match):
        with pytest.raises(LibsvmParseError, match=match):
            parse_libsvm(text, **kwargs)

    def test_non_finite_label_through_the_cli_is_a_usage_error(self, tmp_path, capsys):
        # fetch_dataset reuses a cached file, so nothing is downloaded
        cached = tmp_path / "data" / "mushrooms" / "mushrooms"
        cached.parent.mkdir(parents=True)
        cached.write_text("1 1:1\ninf 1:1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"kind": "logistic", "dataset": "mushrooms"},
            "method": {"name": "sgd"},
            "sampling": {"grad": {"mode": "fixed", "size": 1}},
            "schedules": {"alpha": {"kind": "constant", "alpha": 0.1}},
        }))
        assert cli_dispatch(["run", str(cfg), "--data-dir", str(tmp_path / "data")]) == 1
        assert "line 2: non-finite label 'inf'" in capsys.readouterr().err

    def test_roundtrip(self):
        x, y = parse_libsvm(SAMPLE)
        x_again, y_again = parse_libsvm(serialize_libsvm(x, y))
        assert np.array_equal(x_again, x)
        assert np.array_equal(y_again, y)

    def test_indices_within_dim(self):
        # the largest index in SAMPLE is 4, and each of its 5 entries has a column
        x, _ = parse_libsvm(SAMPLE)
        assert x.shape[1] == 4
        assert np.count_nonzero(x) == 5
        assert x[1, 3] == -0.25

    def test_parse_fills_dense_matrix(self):
        x, y = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1\n")
        np.testing.assert_allclose(x, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(y, [1.0, -1.0])

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([-1, 1]),
                st.dictionaries(st.integers(1, 9), st.floats(-1e3, 1e3, allow_nan=False)),
            ),
            max_size=12,
        )
    )
    def test_parse_matches_a_per_entry_loop(self, rows):
        text = "".join(
            " ".join([str(label)] + [f"{idx}:{val!r}" for idx, val in sorted(entries.items())]) + "\n"
            for label, entries in rows
        )
        x, y = parse_libsvm(text, dim=9)
        expected = np.zeros((len(rows), 9))
        for i, (_, entries) in enumerate(rows):
            for idx, val in entries.items():
                expected[i, idx - 1] = val
        assert np.array_equal(x, expected)
        assert np.array_equal(y, [label for label, _ in rows])
        x_again, y_again = parse_libsvm(serialize_libsvm(x, y), dim=9)
        assert np.array_equal(x_again, x) and np.array_equal(y_again, y)


class TestTrainSplit:
    def _dataset(self, n=20):
        text = "".join(f"{(-1) ** i} 1:{i}\n" for i in range(n))
        return parse_libsvm(text)

    def test_full_split_leaves_nothing(self):
        x, y = self._dataset()
        (x_train, y_train), (x_rest, y_rest) = train_split(x, y, len(y), seed=0)
        assert x_train.shape == x.shape and len(y_train) == len(y)
        assert x_rest.shape == (0, 1) and len(y_rest) == 0

    def test_deterministic(self):
        x, y = self._dataset()
        (x1, y1), _ = train_split(x, y, 7, seed=42)
        (x2, y2), _ = train_split(x, y, 7, seed=42)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)

    def test_seed_changes_split(self):
        x, y = self._dataset()
        (x1, _), _ = train_split(x, y, 7, seed=1)
        (x2, _), _ = train_split(x, y, 7, seed=2)
        assert not np.array_equal(x1, x2)

    def test_partition(self):
        x, y = self._dataset()
        (x_train, _), (x_rest, _) = train_split(x, y, 12, seed=3)
        values = sorted(np.concatenate([x_train[:, 0], x_rest[:, 0]]))
        assert values == sorted(x[:, 0])

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            train_split(*self._dataset(), 21, seed=0)


@pytest.fixture()
def http_dir(tmp_path):
    """Serve tmp_path/www over localhost HTTP."""
    root = tmp_path / "www"
    root.mkdir()

    class Handler(http.server.SimpleHTTPRequestHandler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, directory=str(root), **kwargs)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield root, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()


class TestFetch:
    PAYLOAD = b"+1 1:0.5\n-1 1:-0.5\n"

    def _manifest(self, url, sha=True):
        digest = hashlib.sha256(self.PAYLOAD).hexdigest() if sha else None
        return DatasetManifest(name="tiny", url=url, sha256=digest, n=2, dim=1)

    def test_fresh_fetch_and_cache(self, http_dir, tmp_path):
        root, base = http_dir
        (root / "tiny.txt").write_bytes(self.PAYLOAD)
        manifest = self._manifest(f"{base}/tiny.txt")
        out = fetch_dataset(manifest, tmp_path / "cache")
        assert out.read_bytes() == self.PAYLOAD
        # second call must not touch the network
        (root / "tiny.txt").unlink()
        again = fetch_dataset(manifest, tmp_path / "cache")
        assert again == out

    def test_download_copies_a_file_url(self, tmp_path):
        source = tmp_path / "tiny.txt"
        source.write_bytes(self.PAYLOAD)
        dest = tmp_path / "copy.txt"
        _download(source.as_uri(), dest, timeout=2.0)
        assert dest.read_bytes() == self.PAYLOAD

    def test_cached_file_never_downloads(self, tmp_path):
        manifest = self._manifest("http://nowhere.invalid/tiny.txt")
        target = tmp_path / "tiny" / "tiny.txt"
        target.parent.mkdir(parents=True)
        target.write_bytes(self.PAYLOAD)

        def poisoned(url, dest, timeout):
            raise AssertionError("network touched despite valid cache")

        out = fetch_dataset(manifest, tmp_path, downloader=poisoned)
        assert out == target

    def test_checksum_mismatch_removes_file(self, tmp_path):
        manifest = self._manifest("http://nowhere.invalid/tiny.txt")
        target = tmp_path / "tiny" / "tiny.txt"
        target.parent.mkdir(parents=True)
        target.write_bytes(b"corrupted")
        with pytest.raises(ChecksumMismatch):
            fetch_dataset(manifest, tmp_path, downloader=lambda *a: None)
        assert not target.exists()

    def test_download_checksum_mismatch(self, http_dir, tmp_path):
        root, base = http_dir
        (root / "tiny.txt").write_bytes(b"tampered content")
        manifest = self._manifest(f"{base}/tiny.txt")
        with pytest.raises(ChecksumMismatch):
            fetch_dataset(manifest, tmp_path / "cache")
        assert not (tmp_path / "cache" / "tiny" / "tiny.txt").exists()

    def test_unreachable_host(self, tmp_path):
        manifest = self._manifest("http://nowhere.invalid/tiny.txt")
        with pytest.raises(DatasetUnavailable):
            fetch_dataset(manifest, tmp_path, timeout=2.0)

    def test_sidecar_pins_unpinned_manifest(self, http_dir, tmp_path):
        root, base = http_dir
        (root / "tiny.txt").write_bytes(self.PAYLOAD)
        manifest = self._manifest(f"{base}/tiny.txt", sha=False)
        out = fetch_dataset(manifest, tmp_path / "cache")
        sidecar = out.with_suffix(out.suffix + ".sha256")
        assert sidecar.read_text().strip() == hashlib.sha256(self.PAYLOAD).hexdigest()
        # tamper: the sidecar digest now protects the cache
        out.write_bytes(b"evil")
        with pytest.raises(ChecksumMismatch):
            fetch_dataset(manifest, tmp_path / "cache")


class TestManifests:
    def test_known_datasets_registered(self):
        assert MANIFESTS["ijcnn1"].dim == 22
        assert MANIFESTS["ijcnn1"].train_size == 35000
        assert MANIFESTS["mushrooms"].dim == 112
        assert MANIFESTS["mushrooms"].train_size == 5500
        assert MANIFESTS["mushrooms"].label_map == {1: 1, 2: -1}

    def test_sha256_shape_enforced(self):
        with pytest.raises(ValueError):
            DatasetManifest(name="x", url="http://x/y", n=1, sha256="zz")


class TestLoad:
    """A manifest's cached file loads as its ``compression`` says, to its ``rows``."""

    ROWS = b"+1 1:0.5\n-1 2:1\n+1 1:-1 2:2\n"

    def _load(self, monkeypatch, tmp_path, manifest, payload):
        target = tmp_path / manifest.name / manifest.filename
        target.parent.mkdir(parents=True)
        target.write_bytes(payload)
        monkeypatch.setitem(MANIFESTS, manifest.name, manifest)
        return load_dataset(manifest.name, tmp_path)

    def test_a_bz2_manifest_loads_its_file_decompressed(self, monkeypatch, tmp_path):
        # the path ijcnn1 loads through
        manifest = DatasetManifest(name="tiny", url="http://nowhere.invalid/tiny.tr.bz2", n=3, dim=2, compression="bz2")
        x, y = self._load(monkeypatch, tmp_path, manifest, bz2.compress(self.ROWS))
        assert y.tolist() == [1, -1, 1] and x.tolist() == [[0.5, 0], [0, 1], [-1, 2]]

    def test_a_manifest_without_compression_reads_its_file_as_is(self, monkeypatch, tmp_path):
        # a file name ending in .bz2 was decompressed whatever its manifest said
        manifest = DatasetManifest(name="tiny", url="http://nowhere.invalid/tiny.bz2", n=3, dim=2)
        _, y = self._load(monkeypatch, tmp_path, manifest, self.ROWS)
        assert y.tolist() == [1, -1, 1]

    def test_an_unknown_dataset_is_refused_before_any_fetch(self, tmp_path):
        with pytest.raises(KeyError, match="unknown dataset 'nope'"):
            load_dataset("nope", tmp_path)
        assert not any(tmp_path.iterdir())

    def test_a_dataset_loads_to_its_manifests_rows(self, monkeypatch, tmp_path):
        manifest = DatasetManifest(name="tiny", url="http://nowhere.invalid/tiny", n=3, dim=2, train_size=2)
        x, y = self._load(monkeypatch, tmp_path, manifest, self.ROWS)
        assert len(y) == x.shape[0] == manifest.rows == 2
        assert [m.rows for m in (MANIFESTS["ijcnn1"], MANIFESTS["mushrooms"])] == [35000, 5500]
