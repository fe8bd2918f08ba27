"""R010 fixture: protected values laundered through renames and helpers.

Every sink here receives a value derived from protected records/weights
with no sanctioned release in between — and none of the variable names
mention "weight", so no name-matching rule could see any of them.

Expected findings: exactly four R010 —
* ``log_value``: the weight reaches ``log.info`` via a rename and a
  formatting helper;
* ``raise_total``: the total weight lands in an exception message;
* ``dump_records``: the raw records are pickled;
* ``reply``: the records are written to the HTTP response body.
"""

import pickle


class WeightedDataset:
    """Stub protected type; the analyzer keys on the class name."""


def _format(value):
    return f"session state: {value}"


def log_value(dataset: WeightedDataset, log):
    value = dataset.weight("alice")
    message = _format(value)
    log.info(message)


def raise_total(dataset: WeightedDataset):
    total = dataset.total_weight()
    raise ValueError(f"inconsistent total {total}")


def dump_records(dataset: WeightedDataset):
    return pickle.dumps(dataset.records())


def reply(dataset: WeightedDataset, handler):
    body = str(dataset.records())
    handler.wfile.write(body)
