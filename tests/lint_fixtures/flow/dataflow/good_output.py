"""Clean twin of ``bad_output.py``: only the output's size is printed.

Expected findings: none.
"""


class WeightedDataset:
    """Stub protected type; the analyzer keys on the class name."""


class OutputCollector:
    def current(self) -> WeightedDataset:
        return WeightedDataset()


def output(collector: OutputCollector) -> WeightedDataset:
    result = collector.current()
    print(len(result))
    return result
