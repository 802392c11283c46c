"""The answer comparison of ``scripts/cli_identity.py``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import cli_identity  # noqa: E402


def test_largest_difference_over_numbers():
    a = {"value": 0.25, "terms": [1.0, -2.0, 0], "order": 3, "flipped": True}
    b = {"value": 0.25 + 2 ** -54, "terms": [1.0, -2.5, 0], "order": 3,
         "flipped": True}
    assert cli_identity.largest_difference(a, a) == 0.0
    assert cli_identity.largest_difference(a, b) == 0.5
    assert cli_identity.largest_difference(a, dict(b, terms=[1.0, -2.0, 0])) == 2 ** -54


def test_structure_differs():
    a = {"value": 0.25, "terms": [1.0, 2.0], "flipped": True}
    # a missing key, a list length, a flag, a number's type
    for b in ({"value": 0.25, "terms": [1.0, 2.0]}, dict(a, terms=[1.0]),
              dict(a, flipped=False), dict(a, value=None)):
        assert cli_identity.largest_difference(a, b) is None, b
    assert cli_identity.moved(b'{"x": 1}', b'{"x": 1.5}') == "largest |difference| 0.5"
    assert cli_identity.moved(b'{"x": 1}', b"") == "structure differs"
