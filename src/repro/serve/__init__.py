"""Simulation-as-a-service: the ``repro serve`` daemon and its clients.

The package turns the :mod:`repro.api` facade into a long-running HTTP
service with a shared evaluation cache:

* :mod:`repro.serve.daemon`   -- the :class:`ServeDaemon` (admission,
  warm cache, completion) and :class:`ServeConfig`;
* :mod:`repro.serve.jobs`     -- the bounded, fair :class:`JobQueue`
  and the request :class:`Coalescer`;
* :mod:`repro.serve.pool`     -- the :class:`ShardPool` of shard threads
  that pull jobs from the queue into replaceable workers, and the
  picklable job executors;
* :mod:`repro.serve.limiter`  -- per-client :class:`TokenBucket` rate
  limiting;
* :mod:`repro.serve.client`   -- :class:`ServeClient` / :class:`ServeError`;
* :mod:`repro.serve.loadtest` -- the seeded traffic harness behind
  ``repro loadtest``.

See ``docs/serving.md`` for endpoints, coalescing semantics and the
loadtest methodology.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.jobs import Coalescer, Job, JobQueue, QueueClosed
from repro.serve.limiter import TokenBucket
from repro.serve.loadtest import run_loadtest
from repro.serve.pool import ShardPool, execute_job

__all__ = ["Coalescer", "Job", "JobQueue", "QueueClosed", "ServeClient",
           "ServeConfig", "ServeDaemon", "ServeError", "ShardPool",
           "TokenBucket", "execute_job", "run_loadtest"]
