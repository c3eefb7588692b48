"""Training bits pinned against a committed record.

`data/train_bits.json` holds `float.hex` of every step loss and of the
final metrics row of three short seeded `train` runs (mlp `on_aug`, mlp
`on`, smallconv `on_aug`). A change that claims to keep the training bits
must reproduce them exactly. Regenerate the file only for a change that
moves the bits on purpose:

    PYTHONPATH=src python tests/test_train_bits.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from normaug import datagen, training
from normaug.model import ModelConfig, init_model
from normaug.training import METRICS_COLUMNS, TrainConfig

RECORD = Path(__file__).parent / "data" / "train_bits.json"

CASES = {
    "mlp_on_aug": dict(backbone="mlp", use_aug=True),
    "mlp_on": dict(backbone="mlp", use_aug=False),
    "smallconv_on_aug": dict(backbone="smallconv", use_aug=True, hidden_sizes=(8, 8, 4)),
}


def run_bits(case: str) -> dict[str, list[str]]:
    """`float.hex` of each step loss and of the final metrics row of the
    seeded run `case`."""
    ds, _ = datagen.generate(num_classes=5, num_domains=4, per_cell=40, feature_dim=16,
                             seed=11)
    model = init_model(ModelConfig(input_dim=16, **CASES[case]), seed=12)
    losses = []
    step = training.train_step

    def recording_step(*args, **kwargs):
        losses.append(step(*args, **kwargs))
        return losses[-1]

    training.train_step = recording_step
    try:
        result = training.train(model, ds, 3, TrainConfig(epochs=2, iters_per_epoch=12,
                                                          seed=13))
    finally:
        training.train_step = step
    return {"losses": [float(v).hex() for v in losses],
            "final": [float(result.final[c]).hex() for c in METRICS_COLUMNS]}


@pytest.mark.parametrize("case", list(CASES))
def test_training_bits_match_the_record(case):
    want = json.loads(RECORD.read_text())[case]
    got = run_bits(case)
    assert len(got["losses"]) == 24
    assert got == want


if __name__ == "__main__":
    RECORD.write_text(json.dumps({c: run_bits(c) for c in CASES}, indent=1) + "\n")
    sys.exit(0)
