"""R010 fixture: a protected value in a keep-alive loop's one-write reply.

The reply is built the way ``service/http.py`` builds it — the JSON body
joined to the status line and headers, then one ``self.wfile.write`` — and
the payload reaches it through a helper method.

Expected findings: exactly one R010, at the call that hands the protected
weight to ``_send``.
"""

import json


class WeightedDataset:
    """Stub protected type; the analyzer keys on the class name."""


class Connection:
    def _send(self, payload, status):
        body = json.dumps(payload).encode("utf-8")
        head = f"HTTP/1.1 {status} OK\r\nContent-Length: {len(body)}\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + body)

    def reply_weight(self, dataset: WeightedDataset):
        self._send({"weight": dataset.weight("alice")}, 200)
