"""The one canonical encoder and the signing sites that use it."""

import pytest

from repro.canonical import canonical_json
from repro.comms.crypto.certificates import Certificate
from repro.comms.messages import Message
from repro.groundstation.codec import GsMessage, encode

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def test_sorted_keys_no_whitespace_ascii_escapes():
    value = {"b": [1.5, None, True], "a": "é"}
    assert canonical_json(value) == '{"a":"\\u00e9","b":[1.5,null,true]}'


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_number_raises(value):
    with pytest.raises(ValueError):
        canonical_json({"t": value})


@pytest.mark.parametrize("value", NON_FINITE)
def test_signed_and_hashed_bytes_refuse_non_finite_numbers(value):
    with pytest.raises(ValueError):
        Message("a", "b", payload={"x": value}).encode()
    with pytest.raises(ValueError):
        Certificate("a", 5, "ca", 1, 0.0, value).tbs_bytes()
    with pytest.raises(ValueError):
        encode(GsMessage.make("gs/x", "a", 0, value, "status"), b"k" * 32)
