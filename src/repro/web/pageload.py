"""Page loads over the simulated stack.

:func:`load_page` plays one visit of a site through the full host-stack
model: TCP handshake, pipelined HTTP/1.1-style request/response rounds
with server think times and client parse times, captured by a
:class:`~repro.capture.trace.TraceObserver` on the client's access
link — the same vantage point as the paper's tcpdump capture.

A load that does not finish inside ``config.max_duration`` simulated
seconds is a *stall*, not a shorter page: :func:`load_page_result`
reports ``completed=False`` with diagnostics, and strict callers (the
resilient experiment runner) get a structured :class:`PageLoadStalled`
instead of a silently truncated trace.

:func:`collect_dataset` repeats this for every site and sample count
through the trial executor of :mod:`repro.experiments.runner`, with
per-visit path jitter (RTT and bandwidth vary between visits the way
consecutive real fetches do), producing the raw dataset the Table-2
pipeline sanitises.  Stalled visits are dropped and counted — partial
traces never enter a dataset.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.capture.dataset import Dataset
from repro.capture.trace import Trace, TraceObserver
from repro.errors import TrialError
from repro.obs import runtime as _obs_runtime
from repro.simnet.engine import Simulator
from repro.simnet.faults import FaultSpec
from repro.simnet.path import NetworkPath
from repro.stack.host import TcpFlow, make_flow
from repro.stack.tcp import TcpConfig
from repro.stob.controller import StobController
from repro.units import mbps, msec
from repro.web.objects import PageSample, SiteProfile
from repro.web.sites import SITE_CATALOG


@dataclass(frozen=True)
class PageLoadConfig:
    """Parameters of one page-load simulation.

    Frozen: derive variants with :func:`dataclasses.replace` (e.g. the
    adverse-network experiment swapping in a ``fault_spec``).  The
    canonical :meth:`to_dict` form feeds both CLI output and
    :mod:`repro.cache` capture-key derivation.
    """

    #: Access-path parameters (means; jittered per visit).
    rate_mbps: float = 50.0
    rtt_ms: float = 30.0
    rate_jitter: float = 0.15
    rtt_jitter: float = 0.20
    buffer_bdp: float = 1.5
    loss_rate: float = 0.0
    #: TCP config applied to both ends.
    cc: str = "cubic"
    #: Hard cap on simulated seconds per load (stall guard).
    max_duration: float = 60.0
    #: How many requests are pipelined back-to-back in one round.
    pipeline_depth: int = 6
    #: Optional fault processes injected on both path directions.
    fault_spec: Optional[FaultSpec] = None

    def to_dict(self) -> dict:
        """Canonical JSON-safe dict (stable key order)."""
        from repro.cache.canonical import jsonable
        from dataclasses import fields

        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}

    def sample_path(self, rng: np.random.Generator) -> NetworkPath:
        """Draw this visit's path (rate/RTT jittered)."""
        rate = self.rate_mbps * (
            1.0 + float(rng.uniform(-self.rate_jitter, self.rate_jitter))
        )
        rtt = self.rtt_ms * (
            1.0 + float(rng.uniform(-self.rtt_jitter, self.rtt_jitter))
        )
        return NetworkPath(
            rate=mbps(max(rate, 1.0)),
            rtt=msec(max(rtt, 1.0)),
            buffer_bdp=self.buffer_bdp,
            loss_rate=self.loss_rate,
            fault_spec=self.fault_spec,
        )


@dataclass
class PageLoadResult:
    """Outcome of one simulated visit.

    ``completed`` distinguishes a real page load from one truncated at
    the ``max_duration`` guard; the remaining fields are the stall
    diagnostics an operator (or the resilient runner's failure log)
    needs to tell *where* a load got stuck.
    """

    trace: Trace
    completed: bool
    sim_time: float
    rounds_completed: int
    total_rounds: int
    bytes_received: int
    events_processed: int

    def stall_summary(self) -> str:
        """One-line diagnostic used in failure logs."""
        return (
            f"round {self.rounds_completed}/{self.total_rounds}, "
            f"{self.bytes_received} B received, "
            f"sim_time={self.sim_time:.1f}s, "
            f"events={self.events_processed}"
        )


class PageLoadStalled(TrialError):
    """A page load hit its deadline without completing.

    Carries the partial :class:`PageLoadResult` so callers can log
    structured diagnostics without ever treating the truncated trace
    as a valid sample.  A :class:`~repro.errors.TrialError`: stalls
    are trial-intrinsic and worth a reseeded retry (still a
    ``RuntimeError`` subclass through that base, for old callers).
    """

    def __init__(self, site: str, result: PageLoadResult) -> None:
        super().__init__(f"page load of {site!r} stalled: {result.stall_summary()}")
        self.site = site
        self.result = result

    def __reduce__(self):
        # Stalls travel home from pool workers with the trial outcome.
        return (PageLoadStalled, (self.site, self.result))


class _PageLoadSession:
    """Drives the request/response rounds of one visit."""

    def __init__(
        self,
        sim: Simulator,
        flow: TcpFlow,
        page: PageSample,
        pipeline_depth: int,
        on_complete: Callable[[], None],
    ) -> None:
        self._sim = sim
        self._flow = flow
        self._page = page
        self._depth = max(1, pipeline_depth)
        self._on_complete = on_complete
        self._round = -1
        # Server request-processing queue: (request_bytes, response
        # bytes, think seconds), FIFO per arrival order.
        self._server_queue: List[tuple] = []
        self._server_received = 0
        self._server_consumed = 0
        # Client download bookkeeping for the active round.
        self._round_remaining = 0
        self._client_received = 0
        self._client_consumed = 0
        self.completed = False

        flow.server.on_data(self._server_data)
        flow.client.on_data(self._client_data)
        flow.client.on_established = self._start
        flow.connect()

    @property
    def rounds_completed(self) -> int:
        """Fully downloaded request/response rounds."""
        return max(0, self._round if not self.completed else len(self._page.rounds))

    @property
    def bytes_received(self) -> int:
        """Application bytes the client has received so far."""
        return self._client_received

    @property
    def total_rounds(self) -> int:
        return len(self._page.rounds)

    # -- client side ------------------------------------------------------------

    def _start(self) -> None:
        self._next_round()

    def _next_round(self) -> None:
        self._round += 1
        if self._round >= len(self._page.rounds):
            self.completed = True
            self._on_complete()
            return
        parse = self._page.parse_times[self._round]
        self._sim.schedule(parse, self._issue_round)

    def _issue_round(self) -> None:
        r = self._round
        responses = self._page.rounds[r]
        requests = self._page.request_sizes[r]
        thinks = self._page.think_times[r]
        self._round_remaining = len(responses)
        # Pipeline requests in batches of `depth`; the server queue
        # preserves ordering, so batching only affects upstream timing.
        for i, (req, resp, think) in enumerate(zip(requests, responses, thinks)):
            delay = (i // self._depth) * 0.001
            self._server_queue.append((req, resp, think))
            self._sim.schedule(delay, self._make_request_sender(req))

    def _make_request_sender(self, req: int) -> Callable[[], None]:
        def send() -> None:
            self._flow.client.write(req)

        return send

    def _client_data(self, nbytes: int) -> None:
        self._client_received += nbytes
        # Responses complete in FIFO order; compare against the running
        # total of expected response bytes for this round.
        while self._round_remaining > 0:
            responses = self._page.rounds[self._round]
            done = len(responses) - self._round_remaining
            threshold = self._client_consumed + responses[done]
            if self._client_received < threshold:
                break
            self._client_consumed = threshold
            self._round_remaining -= 1
        if self._round_remaining == 0 and not self.completed:
            self._next_round()

    # -- server side -------------------------------------------------------------

    def _server_data(self, nbytes: int) -> None:
        self._server_received += nbytes
        while self._server_queue:
            req, resp, think = self._server_queue[0]
            if self._server_received - self._server_consumed < req:
                break
            self._server_consumed += req
            self._server_queue.pop(0)
            self._sim.schedule(think, self._make_response_sender(resp))

    def _make_response_sender(self, resp: int) -> Callable[[], None]:
        def send() -> None:
            self._flow.server.write(resp)

        return send


def load_page_result(
    profile: SiteProfile,
    config: Optional[PageLoadConfig] = None,
    rng: Optional[np.random.Generator] = None,
    server_controller: Optional[StobController] = None,
    client_controller: Optional[StobController] = None,
    watchdog: Optional[Callable[[], None]] = None,
    on_flow: Optional[Callable[[TcpFlow], None]] = None,
) -> PageLoadResult:
    """Simulate one visit and return the full :class:`PageLoadResult`.

    ``server_controller``/``client_controller`` optionally install Stob
    on either endpoint, producing *stack-enforced* defended traces (as
    opposed to the paper's post-hoc trace emulation).

    ``watchdog`` is called between simulation slices; it may raise
    (e.g. a wall-clock deadline in the resilient runner) to abort a
    load that is burning real time.

    ``on_flow`` receives the built :class:`~repro.stack.host.TcpFlow`
    before the simulation starts; callers that must audit post-run
    stack state — the fuzzer's invariant oracle checking link
    conservation, TCP sequence sanity and pacer gaps — keep the
    reference and inspect it after this function returns.
    """
    config = config or PageLoadConfig()
    rng = rng or np.random.default_rng(0)
    sim = Simulator()
    path = config.sample_path(rng)
    link_rng = np.random.default_rng(int(rng.integers(0, 2**63)))
    flow = make_flow(
        sim,
        path,
        client_config=TcpConfig(cc=config.cc),
        server_config=TcpConfig(cc=config.cc),
        rng=link_rng,
    )
    if server_controller is not None:
        flow.server.segment_controller = server_controller
    if client_controller is not None:
        flow.client.segment_controller = client_controller

    observer = TraceObserver()
    flow.client_host.nic.add_tap(observer.tap_outgoing)
    flow.server_host.nic.add_tap(observer.tap_incoming)
    if on_flow is not None:
        on_flow(flow)

    return run_visit(sim, flow, observer, profile.sample_page(rng), config,
                     path.rtt, watchdog)


def run_visit(
    sim: Simulator,
    flow,
    observer: TraceObserver,
    page: PageSample,
    config: PageLoadConfig,
    rtt: float,
    watchdog: Optional[Callable[[], None]] = None,
) -> PageLoadResult:
    """Drive one visit's request/response rounds over a built flow.

    Runs until the page completes (then drains trailing ACKs for four
    RTTs) or ``config.max_duration`` simulated seconds pass.  Shared by
    the TCP and QUIC loaders: ``flow`` only needs ``client``/``server``
    endpoints with the stream-socket surface and a ``connect()``.
    """
    done = {"flag": False}

    def finish() -> None:
        done["flag"] = True

    session = _PageLoadSession(sim, flow, page, config.pipeline_depth, finish)
    step = 0.1
    while not done["flag"] and sim.now < config.max_duration:
        if watchdog is not None:
            watchdog()
        sim.run(until=min(sim.now + step, config.max_duration))
    if done["flag"]:
        # Drain trailing ACKs/retransmissions.
        sim.run(until=sim.now + 4 * rtt)
    result = PageLoadResult(
        trace=observer.trace(),
        completed=done["flag"],
        sim_time=sim.now,
        rounds_completed=session.rounds_completed,
        total_rounds=session.total_rounds,
        bytes_received=session.bytes_received,
        events_processed=sim.processed_events,
    )
    obs = _obs_runtime.session()
    if obs is not None:
        registry = obs.registry
        registry.counter("pageload.loads").add(1)
        registry.counter("pageload.bytes_received").add(result.bytes_received)
        if not result.completed:
            registry.counter("pageload.stalls").add(1)
        obs.emit(
            "pageload.done" if result.completed else "pageload.stall",
            "pageload",
            sim_time=round(result.sim_time, 6),
            events=result.events_processed,
            bytes=result.bytes_received,
            rounds=result.rounds_completed,
        )
    return result


def load_page(
    profile: SiteProfile,
    config: Optional[PageLoadConfig] = None,
    rng: Optional[np.random.Generator] = None,
    server_controller: Optional[StobController] = None,
    client_controller: Optional[StobController] = None,
) -> Trace:
    """Simulate one visit and return the observed trace.

    Thin compatibility wrapper over :func:`load_page_result`; callers
    that must distinguish completed from deadline-truncated loads use
    the result API (or :func:`load_page_strict`).
    """
    return load_page_result(
        profile, config, rng, server_controller, client_controller
    ).trace


def load_page_strict(
    profile: SiteProfile,
    site: str,
    config: Optional[PageLoadConfig] = None,
    rng: Optional[np.random.Generator] = None,
    server_controller: Optional[StobController] = None,
    client_controller: Optional[StobController] = None,
    watchdog: Optional[Callable[[], None]] = None,
) -> Trace:
    """Like :func:`load_page` but raises :class:`PageLoadStalled`
    instead of returning a deadline-truncated trace."""
    result = load_page_result(
        profile, config, rng, server_controller, client_controller, watchdog
    )
    if not result.completed:
        raise PageLoadStalled(site, result)
    return result.trace


def visit_seed_rng(
    seed: int, label: str, sample: int, attempt: int = 0
) -> np.random.Generator:
    """The canonical per-visit generator: derived from the visit's
    *identity* ``(seed, label, sample)``, never from how many visits
    ran before it.

    Deriving from the coordinate tuple makes each visit's trace a pure
    function of (seed, label, sample): subsetting sites or extending
    sample counts leaves all other visits bit-identical, and every
    collection path (plain, resilient, parallel, enforced, QUIC) draws
    the same visit for the same coordinates.  The label enters through
    its CRC-32 so the derivation is independent of the site
    catalogue's size or ordering.  Retry ``attempt`` k > 0 of a trial
    appends k to the seed tuple; attempt 0 is the visit itself.
    """
    key = [seed, zlib.crc32(label.encode("utf-8")), sample]
    if attempt:
        key.append(attempt)
    return np.random.default_rng(key)


def collect_dataset(
    n_samples: int = 100,
    sites: Optional[List[str]] = None,
    config: Optional[PageLoadConfig] = None,
    seed: int = 0,
    progress: Optional[Callable[[str, int], None]] = None,
    stall_log: Optional[List[PageLoadStalled]] = None,
    workers: int = 1,
    cache=None,
    supervisor=None,
) -> Dataset:
    """Collect ``n_samples`` visits of each site (the paper's 100).

    The no-retry, no-checkpoint call of the trial executor
    (:func:`repro.experiments.runner.run_trials`): visit (site, sample)
    draws :func:`visit_seed_rng` ``(seed, site, sample)``.  Stalled
    loads are dropped — a deadline-truncated trace is not a shorter
    page load and would poison the dataset — and each stall is
    appended to ``stall_log`` (when given) in grid order.

    ``workers > 1`` fans the (site x sample) grid out over a supervised
    process pool (``supervisor`` overrides its
    :class:`~repro.supervise.SupervisorConfig`); the dataset is
    bit-identical for any worker count.  ``workers=0`` uses one process
    per core.

    ``cache`` (a :class:`repro.cache.ArtifactStore`) memoises the
    collected dataset under its capture key — (pageload config, sites,
    n_samples, seed); ``workers`` stays out of the key because output
    is worker-count invariant.  On a warm hit no visit is simulated, so
    ``progress``/``stall_log`` see nothing.
    """
    config = config or PageLoadConfig()
    labels = sites or sorted(SITE_CATALOG)
    if cache is not None:
        from repro.cache import capture_key, cached_dataset

        return cached_dataset(
            cache,
            capture_key(config, labels, n_samples, seed),
            lambda: collect_dataset(
                n_samples=n_samples,
                sites=labels,
                config=config,
                seed=seed,
                progress=progress,
                stall_log=stall_log,
                workers=workers,
                supervisor=supervisor,
            ),
        )
    # Imported here: the runner and the supervisor stay off the import
    # path of every module that only loads pages.
    from repro.experiments.runner import PageLoadTrial, run_trials

    return run_trials(
        PageLoadTrial(config), n_samples, labels, seed, workers=workers,
        supervisor=supervisor, progress=progress, stall_log=stall_log,
    )
