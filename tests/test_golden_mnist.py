"""The tier-1 case of the MNIST-scale byte check in ``golden_mnist.py``: one
5-iteration run at one BLAS thread must write its recorded ``trial_00.csv``."""

import json

from golden_mnist import GOLDEN, SMOKE, csv_sha256, key


def test_smoke_case_keeps_its_recorded_bytes():
    assert csv_sha256(*SMOKE) == json.loads(GOLDEN.read_text())[key(*SMOKE)]
