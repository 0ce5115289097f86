"""Page loads over QUIC.

Reuses the HTTP exchange driver of :mod:`repro.web.pageload` — both
transport endpoints expose the same ``write``/``on_data``/
``on_established`` surface — so the only difference between a TCP and
a QUIC visit of the same page is the transport, which is exactly what
the TCP-vs-QUIC fingerprinting comparison needs.  QUIC visit (site,
sample) draws the same page and path as TCP visit (site, sample).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.capture.dataset import Dataset
from repro.capture.trace import Trace, TraceObserver
from repro.experiments.runner import PageLoadTrial, run_trials
from repro.quic.endpoint import QuicConfig, make_quic_flow
from repro.simnet.engine import Simulator
from repro.stob.controller import StobController
from repro.web.objects import SiteProfile
from repro.web.pageload import PageLoadConfig, PageLoadResult, run_visit


@dataclass
class _QuicFlowAdapter:
    """Shape-compatible stand-in for :class:`repro.stack.host.TcpFlow`."""

    client: object
    server: object

    def connect(self) -> None:
        self.client.connect()


def load_page_quic_result(
    profile: SiteProfile,
    config: Optional[PageLoadConfig] = None,
    rng: Optional[np.random.Generator] = None,
    server_controller: Optional[StobController] = None,
    watchdog: Optional[Callable[[], None]] = None,
) -> PageLoadResult:
    """Simulate one QUIC visit; ``completed=False`` marks a stall."""
    config = config or PageLoadConfig()
    rng = rng or np.random.default_rng(0)
    sim = Simulator()
    path = config.sample_path(rng)
    observer = TraceObserver()
    client, server, _fwd, _rev = make_quic_flow(
        sim,
        path,
        QuicConfig(cc=config.cc),
        QuicConfig(cc=config.cc),
        rng=np.random.default_rng(int(rng.integers(0, 2**63))),
        client_tap=observer.tap_outgoing,
        server_tap=observer.tap_incoming,
    )
    if server_controller is not None:
        server.segment_controller = server_controller
    flow = _QuicFlowAdapter(client=client, server=server)
    return run_visit(sim, flow, observer, profile.sample_page(rng), config,
                     path.rtt, watchdog)


def load_page_quic(
    profile: SiteProfile,
    config: Optional[PageLoadConfig] = None,
    rng: Optional[np.random.Generator] = None,
    server_controller: Optional[StobController] = None,
) -> Trace:
    """Simulate one QUIC visit and return the observed trace."""
    return load_page_quic_result(profile, config, rng, server_controller).trace


def collect_quic_dataset(
    n_samples: int = 100,
    sites: Optional[List[str]] = None,
    config: Optional[PageLoadConfig] = None,
    seed: int = 0,
    enforce: bool = False,
    workers: int = 1,
) -> Dataset:
    """A closed-world dataset of QUIC page loads (stalls dropped);
    ``enforce`` installs the split+delay Stob controller on the server."""
    return run_trials(
        PageLoadTrial(config or PageLoadConfig(), quic=True, enforce=enforce),
        n_samples, sites, seed, workers=workers,
    )
