"""One trial executor, one seed derivation.

Every collection path — plain, checkpointed, parallel, Stob-enforced,
QUIC — runs its (site, sample) grid through the runner core, and visit
(site, sample) draws ``visit_seed_rng(seed, site, sample)`` in all of
them.  So the same coordinates give the same bytes whichever entry
point collected them, and two conditions collected with one seed are
paired on the same pages and paths.
"""

import pytest

from repro.cli import main
from repro.experiments.enforcement import collect_enforced_dataset
from repro.experiments.runner import ResilientRunner, RunnerConfig
from repro.quic.pageload import collect_quic_dataset
from repro.web.objects import SiteProfile
from repro.web.pageload import PageLoadConfig, collect_dataset
from repro.web.sites import SITE_CATALOG
from tests.experiments.test_runner import synthetic_trial_fn

SITES = ["bing.com", "wikipedia.org"]


def test_collect_bytes_identical_with_checkpoint_and_workers(tmp_path, capsys):
    base = ["collect", "--samples", "2", "--seed", "9"]
    runs = {
        "plain": [],
        "checkpoint": ["--checkpoint", str(tmp_path / "run.ckpt")],
        "workers": ["--workers", "2"],
    }
    for name, extra in runs.items():
        assert main(base + ["--out", str(tmp_path / f"{name}.npz")] + extra) == 0
    plain = (tmp_path / "plain.npz").read_bytes()
    for name in ("checkpoint", "workers"):
        assert (tmp_path / f"{name}.npz").read_bytes() == plain, name


def test_version_one_checkpoint_is_refused(tmp_path):
    """A checkpoint written under the old per-trial seeds must never be
    resumed into a run that seeds visits differently."""

    class VersionOneRunner(ResilientRunner):
        CHECKPOINT_VERSION = 1

    checkpoint = str(tmp_path / "old.ckpt.npz")
    config = RunnerConfig(checkpoint_path=checkpoint)
    VersionOneRunner(config).collect(SITES, 1, synthetic_trial_fn, master_seed=0)
    with pytest.raises(ValueError, match="different run configuration"):
        ResilientRunner(config).collect(
            SITES, 1, synthetic_trial_fn, master_seed=0, resume=True
        )


@pytest.fixture
def visit_draws(monkeypatch):
    """Record every visit's path and page, in the order drawn."""
    draws = []
    sample_path = PageLoadConfig.sample_path
    sample_page = SiteProfile.sample_page

    def path(self, rng):
        chosen = sample_path(self, rng)
        draws.append(("path", chosen.rate, chosen.rtt))
        return chosen

    def page(self, rng):
        chosen = sample_page(self, rng)
        draws.append(("page", self.name, repr(chosen.rounds)))
        return chosen

    monkeypatch.setattr(PageLoadConfig, "sample_path", path)
    monkeypatch.setattr(SiteProfile, "sample_page", page)
    return draws


@pytest.mark.parametrize(
    "collect",
    [
        pytest.param(collect_enforced_dataset, id="enforced"),
        pytest.param(collect_quic_dataset, id="quic"),
    ],
)
def test_visit_draws_same_page_and_path_as_original(collect, visit_draws):
    collect_dataset(n_samples=1, seed=9)
    original = list(visit_draws)
    visit_draws.clear()
    collect(n_samples=1, seed=9)
    assert len(original) == 2 * len(SITE_CATALOG)
    assert visit_draws == original


@pytest.mark.parametrize(
    "collect",
    [
        pytest.param(collect_enforced_dataset, id="enforced"),
        pytest.param(collect_quic_dataset, id="quic"),
    ],
)
def test_stalled_visits_are_dropped_not_truncated(collect):
    dataset = collect(
        n_samples=1, seed=4, config=PageLoadConfig(max_duration=0.05)
    )
    assert dataset.num_traces == 0
