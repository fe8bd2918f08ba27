"""Clean twin of ``bad_weight_leak.py``: counts and released values only.

Expected findings: none.
"""

import logging

logger = logging.getLogger(__name__)


class WeightedDataset:
    """Stub protected type; the analyzer keys on the class name."""


class NoisyCountResult:
    """Stub release object: its construction is the sanctioned release."""

    def __init__(self, value):
        self.value = value


def safe_messages(dataset: WeightedDataset):
    print("records:", len(dataset))
    logger.info("%d records", len(dataset.to_dict()))


def released(dataset: WeightedDataset):
    answer = NoisyCountResult(dataset.total_weight())
    logger.info("released %r", answer)


def weight_math(weight, factor):
    # Using a weight in computation (not output) is the whole point.
    return weight * factor
