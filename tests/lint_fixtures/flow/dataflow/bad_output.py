"""R010 fixture: ``dataflow`` is a release package.

``PrivacySession(executor="dataflow")`` evaluates protected data in
``repro.dataflow``, so a protected output printed there is a leak.
Expected findings: exactly one R010, the ``print`` in ``output``.
"""


class WeightedDataset:
    """Stub protected type; the analyzer keys on the class name."""


class OutputCollector:
    def current(self) -> WeightedDataset:
        return WeightedDataset()


def output(collector: OutputCollector) -> WeightedDataset:
    result = collector.current()
    print(result.to_dict())
    return result
