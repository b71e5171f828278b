import pytest

from scanfisher.util import canonical_json, sha256_bytes, sha256_file


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_rejects_non_finite_floats(value):
    with pytest.raises(ValueError):
        canonical_json({"x": value})


def test_sha256_file_matches_bytes(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"hello")
    assert sha256_file(path) == sha256_bytes(b"hello")
    assert sha256_file(path).startswith("sha256:")
