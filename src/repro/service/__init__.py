"""The multi-tenant top-k query service (base-station deployment).

One process hosts many concurrent :class:`~repro.query.engine.TopKEngine`
sessions over a registry of shared topologies.  The layer splits into:

- :mod:`repro.service.messages` — the wire protocol's message types:
  frozen request/reply dataclasses;
- :mod:`repro.service.wire` — the binary wire protocol the socket
  speaks and the messages' one codec: the hello/accept preamble,
  length-prefixed struct-packed frames, zero-copy numpy payloads;
- :mod:`repro.service.cache` — :class:`SharedPlanCache`, the
  cross-session pool of compiled parametric LPs and replan-cache
  blocks, keyed by content fingerprint;
- :mod:`repro.service.session` — one tenant's engine plus its
  lifecycle (open → expired/closed) and per-session backpressure;
- :mod:`repro.service.server` — :class:`TopKService` (the sync,
  transport-agnostic core) and the thread-per-connection socket
  front end;
- :mod:`repro.service.client` — in-process and socket clients behind
  one :class:`SessionHandle` surface, with request pipelining
  (``submit_nowait``/``stream``/``drain``);
- :mod:`repro.service.artifacts` — the cross-process compiled-artifact
  store (mmap-backed directory of spilled parametric forms);
- :mod:`repro.service.shard` — :class:`ShardedService` (N worker
  processes, rendezvous-hash routed) and :class:`ShardedClient`.

The stable entry points are re-exported by :mod:`repro.api`.
"""

from repro.service.artifacts import ArtifactStore
from repro.service.cache import SharedPlanCache
from repro.service.client import InProcessClient, SessionHandle, SocketClient
from repro.service.server import (
    ServiceConfig,
    ServiceServer,
    ServiceThread,
    TopKService,
    serve,
)
from repro.service.shard import ShardedClient, ShardedService

__all__ = [
    "ArtifactStore",
    "InProcessClient",
    "ServiceConfig",
    "ServiceServer",
    "ServiceThread",
    "SessionHandle",
    "ShardedClient",
    "ShardedService",
    "SharedPlanCache",
    "SocketClient",
    "TopKService",
    "serve",
]
