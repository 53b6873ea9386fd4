"""Past n^2 > 2^31 tasks, int32 CSR indices must not wrap any pair key.

The CSR bundle stores its index arrays as int32; every ``u * n + v`` key
the fold, the coarsener and the refiner form from them is formed in intp.
Two mappings of graphs above 46,341 tasks are pinned to
``tests/data/large_index.json``, captured by
``tests/data/capture_large_index.py`` while the bundle was still intp.
"""

import json
from pathlib import Path

import pytest

from tests.data import capture_large_index as pinned


@pytest.mark.parametrize("label", sorted(pinned.INSTANCES))
def test_large_mappings_match_the_intp_bundle(label):
    golden = json.loads(Path(pinned.HERE, "large_index.json").read_text())
    assert pinned.capture_instance(label) == golden[label]
