"""R010 fixture: protected weights reaching print, a logger and an exception.

Expected findings: exactly four R010, one per function — the weight
printed, logged, formatted into an exception message, and logged again
after a copy into a local whose name says nothing about weights.
"""

import logging

logger = logging.getLogger(__name__)


class WeightedDataset:
    """Stub protected type; the analyzer keys on the class name."""


def leak_by_print(dataset: WeightedDataset):
    print("record weight is", dataset.weight("alice"))


def leak_by_log(dataset: WeightedDataset):
    logger.info("charging %s", dataset.total_weight())


def leak_by_fstring(dataset: WeightedDataset):
    raise ValueError(f"first weight: {dataset.weight('alice')}")


def leak_laundered(dataset: WeightedDataset):
    snapshot = dataset.to_dict()
    logger.info("state %s", snapshot)
