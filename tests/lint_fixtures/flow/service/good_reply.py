"""Clean twin of ``bad_reply.py``: the same one-write reply, sanctioned.

The payload carries a released ``NoisyCountResult`` and a record count.
Expected findings: none.
"""

import json


class WeightedDataset:
    """Stub protected type; the analyzer keys on the class name."""


class NoisyCountResult:
    """Stub release object; its name sanctions the wrapped value."""

    def __init__(self, value):
        self.value = value


class Connection:
    def _send(self, payload, status):
        body = json.dumps(payload).encode("utf-8")
        head = f"HTTP/1.1 {status} OK\r\nContent-Length: {len(body)}\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + body)

    def reply_release(self, dataset: WeightedDataset):
        released = NoisyCountResult(dataset.weight("alice"))
        self._send({"released": released, "records": len(dataset.records())}, 200)
