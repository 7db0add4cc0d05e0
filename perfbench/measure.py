"""Summary statistics the benchmark reports, with their reporting rules.

* A percentile is reported only when at least :data:`MIN_BEYOND`
  samples lie beyond it, and always together with its sample count;
  otherwise the highest percentile the samples do support is reported,
  under its own name.
* ``failed_frac`` counts a check as failed when its verdict or its
  deterministic statistics differ from the pinned values, or when it
  raised.  Failures are counted, never retried.
"""

import math

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles tried, highest first, when the wanted one is unsupported.
LADDER = (99, 98, 95, 90, 75, 50)


def percentile(samples, p):
    """Nearest-rank ``p``-th percentile as ``(value, n, beyond)``.

    ``beyond`` is how many samples rank above the reported one.  Returns
    None when fewer than :data:`MIN_BEYOND` samples would lie beyond it.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1], n, beyond


def highest_supported(samples, wanted):
    """The ``wanted`` percentile, or the highest lower one on
    :data:`LADDER` the samples support, as ``(p, value, n, beyond)``;
    None when not even the median is supported."""
    for p in (wanted,) + tuple(q for q in LADDER if q < wanted):
        found = percentile(samples, p)
        if found is not None:
            return (p,) + found
    return None


class FailureTally:
    """Attempted and failed checks of one run (``failed_frac``)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def compare(self, key, observed, pinned):
        """Count one finished check against its pinned record."""
        self.attempted += 1
        if observed != pinned:
            self.failed += 1
            self.reasons.append(f"{key}: observed {observed!r}, "
                                f"pinned {pinned!r}")

    def raised(self, key, exc):
        """Count one check that raised instead of returning a verdict."""
        self.attempted += 1
        self.failed += 1
        self.reasons.append(f"{key}: raised {type(exc).__name__}: {exc}")

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0
