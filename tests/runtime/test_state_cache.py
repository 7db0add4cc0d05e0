"""Differential lockdown of the DPOR state cache.

The cache (``docs/performance.md``) folds subtrees rooted at
already-expanded states instead of re-executing them; a buggy
fingerprint would *silently drop counterexamples*.  This tier pins the
only acceptable behaviour: cache-on and cache-off produce the same
deterministic outcome -- same verdict, same
``ExplorationStats.deterministic_view``, same ddmin-shrunk
counterexample -- on every registry scenario and on a seeded slice of
the generative sweep.  The final test proves the harness has teeth: an
intentionally-colliding fingerprint stub makes the differential fail
(and, on ``broken-demo``, makes the cache miss a real violation).
"""

import pytest

from repro.generative.generator import generate_config
from repro.runtime import CounterexampleFound, Fingerprinter
from repro.runtime.dpor import explore_dpor
from repro.scenarios import build_scenario, check_scenarios

pytestmark = pytest.mark.cache

#: The seeded generative slice: explorable configurations drawn from
#: this seed, scanning tape indices in order until the slice is full.
GENERATIVE_SEED = 17
GENERATIVE_SLICE = 100

SCENARIOS = check_scenarios(n=3)


def _outcome(sc, state_cache, fingerprinter=None):
    """The deterministic observable outcome of one exploration.

    Verdict, ``deterministic_view``, the exact run and sleep-set
    counts, and (for a violation) the ddmin-shrunk counterexample.
    Counts are compared too: the cache's no-op-plant hit rule makes
    reuse exact, not merely sound, so even ``total_runs`` and
    ``sleep_checks`` must agree bit-for-bit.
    """
    try:
        stats = explore_dpor(sc.build, sc.check,
                             crash_plan_factory=sc.crash_plan_factory,
                             max_steps=sc.max_steps,
                             max_runs=sc.max_runs,
                             state_cache=state_cache,
                             fingerprinter=fingerprinter)
    except CounterexampleFound as exc:
        cex = exc.counterexample
        stats = exc.stats
        return ("violation",
                stats.deterministic_view() if stats is not None else None,
                (list(cex.prefix), list(cex.tail), list(cex.schedule)))
    return ("passed", stats.deterministic_view(),
            (stats.total_runs, stats.complete_runs, stats.truncated_runs,
             stats.pruned_runs, stats.max_depth_seen, stats.sleep_checks,
             stats.sleep_hits, stats.peak_frontier))


class TestRegistryDifferential:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_cache_is_outcome_invisible(self, name):
        sc = SCENARIOS[name]
        assert _outcome(sc, state_cache=True) \
            == _outcome(sc, state_cache=False)

    def test_expected_verdicts_unchanged(self):
        # The differential alone would pass if *both* modes broke the
        # same way; pin the absolute verdicts as well.
        for name, sc in SCENARIOS.items():
            verdict = _outcome(sc, state_cache=True)[0]
            expected = "violation" if sc.expect_violation else "passed"
            assert verdict == expected, name

    def test_identical_ddmin_counterexample(self):
        sc = SCENARIOS["broken-demo"]
        on = _outcome(sc, state_cache=True)
        off = _outcome(sc, state_cache=False)
        assert on[0] == off[0] == "violation"
        # The shrunk prefix/tail and the original schedule all agree.
        assert on[2] == off[2]


class TestGenerativeSliceDifferential:
    def test_seeded_slice_agrees(self):
        compared = 0
        index = 0
        while compared < GENERATIVE_SLICE:
            config = generate_config(GENERATIVE_SEED, index)
            name = f"generated:{GENERATIVE_SEED}:{index}"
            index += 1
            if not config.explorable:
                continue
            sc = build_scenario(name)
            assert _outcome(sc, state_cache=True) \
                == _outcome(sc, state_cache=False), name
            compared += 1
        assert compared == GENERATIVE_SLICE


class _CollidingFingerprinter(Fingerprinter):
    """Maximally unsound stub: every state shares one fingerprint."""

    def fingerprint(self, system):
        return ("collide-everything",)


class TestHarnessCatchesUnsoundCaching:
    def test_colliding_stub_diverges(self):
        # The differential harness must flag a fingerprint that merges
        # distinct states; if this stub ever agrees with cache-off, the
        # tier has lost its teeth.
        sc = SCENARIOS["safe-agreement"]
        stub = _outcome(sc, state_cache=True,
                        fingerprinter=_CollidingFingerprinter())
        assert stub != _outcome(sc, state_cache=False)

    def test_colliding_stub_drops_a_real_counterexample(self):
        # The concrete catastrophe the tier guards against: with every
        # state merged, broken-demo's genuine violation is skipped as
        # "already expanded" and the sweep reports a pass.
        sc = SCENARIOS["broken-demo"]
        stub = _outcome(sc, state_cache=True,
                        fingerprinter=_CollidingFingerprinter())
        off = _outcome(sc, state_cache=False)
        assert off[0] == "violation"
        assert stub[0] == "passed"
