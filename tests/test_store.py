import json
import os

from k3hilb import store


def test_get_on_empty_store(tmp_path):
    assert store.cache_get({"kind": "x"}, directory=str(tmp_path)) is None


def test_put_get_round_trip(tmp_path):
    key = {"kind": "psi_block", "weight": 3}
    payload = {"rows": [["1", "0"], ["5", "-2"]]}
    store.cache_put(key, payload, directory=str(tmp_path))
    assert store.cache_get(key, directory=str(tmp_path)) == payload
    # idempotent for identical payloads
    store.cache_put(key, payload, directory=str(tmp_path))
    assert store.cache_get(key, directory=str(tmp_path)) == payload


def test_huge_integers_round_trip(tmp_path):
    big = str(7**12000)
    assert len(big) > 10000
    key = {"kind": "bignum"}
    store.cache_put(key, {"value": big}, directory=str(tmp_path))
    assert store.cache_get(key, directory=str(tmp_path))["value"] == big


def test_version_mismatch_reads_as_absent(tmp_path):
    key = {"kind": "v"}
    store.cache_put(key, {"a": 1}, directory=str(tmp_path))
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    entry = json.loads(path.read_text())
    entry["version"] = store.SCHEMA_VERSION + 1
    path.write_text(json.dumps(entry))
    assert store.cache_get(key, directory=str(tmp_path)) is None


def test_corrupt_payload_reads_as_absent(tmp_path):
    key = {"kind": "c"}
    store.cache_put(key, {"a": 1}, directory=str(tmp_path))
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    entry = json.loads(path.read_text())
    entry["payload"] = {"a": 2}  # checksum no longer matches
    path.write_text(json.dumps(entry))
    assert store.cache_get(key, directory=str(tmp_path)) is None
    path.write_text("not json at all")
    assert store.cache_get(key, directory=str(tmp_path)) is None


def test_distinct_keys_do_not_collide(tmp_path):
    store.cache_put({"kind": "a", "n": 1}, {"v": 1}, directory=str(tmp_path))
    store.cache_put({"kind": "a", "n": 2}, {"v": 2}, directory=str(tmp_path))
    assert store.cache_get({"kind": "a", "n": 1}, directory=str(tmp_path)) == {"v": 1}
    assert store.cache_get({"kind": "a", "n": 2}, directory=str(tmp_path)) == {"v": 2}


def test_cached_helper_and_configure(tmp_path):
    store.configure(str(tmp_path))
    try:
        calls = []

        def compute():
            calls.append(1)
            return [[1, 2], [3, 4]]

        key = {"kind": "helper"}
        first = store.cached(
            key, compute, encode=store.encode_int_matrix, decode=store.decode_int_matrix
        )
        second = store.cached(
            key, compute, encode=store.encode_int_matrix, decode=store.decode_int_matrix
        )
        assert first == second == [[1, 2], [3, 4]]
        assert len(calls) == 1
    finally:
        store.configure(None)


def test_cached_without_directory_only_computes():
    store.configure(None)
    value = [[1, 2], [3, 4]]

    def refuse(_):
        raise AssertionError("encode/decode called with caching disabled")

    assert store.cached({"kind": "off"}, lambda: value, encode=refuse, decode=refuse) is value


def test_sym_power_matrix_served_from_disk(tmp_path, monkeypatch):
    from k3hilb import analysis

    fresh = analysis.sym_power_matrix(2, 2)
    store.configure(str(tmp_path))
    try:
        first = analysis.sym_power_matrix(2, 2)  # computes and writes the entry

        def refuse(*args):
            raise AssertionError("matrix recomputed despite a cache entry")

        monkeypatch.setattr(analysis, "_assemble", refuse)
        second = analysis.sym_power_matrix(2, 2)
    finally:
        store.configure(None)
    assert len(os.listdir(tmp_path)) == 1
    assert first == second == fresh


def test_cached_results_equal_fresh_results(tmp_path):
    # spot-check: a cached base-change block equals the freshly computed one
    from k3hilb import symfunc

    fresh = symfunc._build_block(5)
    store.configure(str(tmp_path))
    try:
        symfunc._weight_block.cache_clear()
        warm = symfunc._weight_block(5)  # writes the cache
        symfunc._weight_block.cache_clear()
        cached = symfunc._weight_block(5)  # reads it back
    finally:
        store.configure(None)
        symfunc._weight_block.cache_clear()
    assert warm == fresh
    assert cached == fresh


def test_no_tmp_files_left_behind(tmp_path):
    store.cache_put({"kind": "t"}, {"v": 0}, directory=str(tmp_path))
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
