"""The serving front end: an asyncio HTTP service over one engine session.

::

    from repro.serve import QueryServer, ServeConfig, ServeHandle

    engine = Engine(workload.schema, registry)
    with ServeHandle(engine, ServeConfig(max_concurrent=8)) as handle:
        status, body = asyncio.run(
            protocol.request_json(handle.url, "POST", "/query",
                                  {"query": "q(X) <- w0_r(X, Y)"})
        )

``python -m repro serve`` runs it as a process; the one load harness is
the end-to-end benchmark (``benchmarks/e2e/``), outside the package.  See
:mod:`repro.serve.server` for the endpoint contract and
:mod:`repro.serve.admission` for the admission gates.
"""

from repro.serve.admission import AdmissionController, Rejection, TokenBucket
from repro.serve.metrics import LatencyHistogram, ServerMetrics, SourceHealthBoard
from repro.serve.server import QueryServer, ServeConfig, ServeHandle, serve_forever

__all__ = [
    "AdmissionController",
    "LatencyHistogram",
    "QueryServer",
    "Rejection",
    "ServeConfig",
    "ServeHandle",
    "ServerMetrics",
    "SourceHealthBoard",
    "TokenBucket",
    "serve_forever",
]
