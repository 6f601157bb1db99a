"""The cluster interconnect.

* :mod:`~repro.net.sim_transport` — the modeled network used by all
  experiments: reliable, *rendezvous* (blocking) point-to-point links
  over a star topology, with wire time (latency + bandwidth) and
  per-endpoint message-handling overhead (serialization, TCP/MPI
  connection work).  Every transfer is accounted against both
  endpoints' communication-time and idle-time statistics — these are
  exactly the "communication overhead" and wait times the paper's
  Figures 9–14 report.
* :mod:`~repro.net.thread_transport` — real queue-based rendezvous
  channels for the wall-clock backend.
* :mod:`~repro.net.proc_transport` — the buffered socket data plane
  of the process and tcp backends; :mod:`~repro.net.tcp_transport`
  connects its mesh over TCP.

Rendezvous semantics are the heart of the paper's Section III argument:
a receive blocks until the sender is scheduled to send (and vice
versa), which is why the algorithm must follow a fixed communication
schedule.
"""

from repro.net.sim_transport import SimEndpoint, SimTransport
from repro.net.thread_transport import ThreadEndpoint, ThreadTransport

__all__ = ["SimTransport", "SimEndpoint", "ThreadTransport", "ThreadEndpoint"]
