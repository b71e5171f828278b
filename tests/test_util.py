from scanfisher.util import canonical_json, sha256_bytes, sha256_file


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_sha256_file_matches_bytes(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"hello")
    assert sha256_file(path) == sha256_bytes(b"hello")
    assert sha256_file(path).startswith("sha256:")
