"""Hypothesis profiles. Tier-1 runs `tier-1`; a property that leaves
its example count to the profile (the stale-rebuild property in test_cli.py)
runs at length under `--hypothesis-profile ci`."""

from hypothesis import settings

settings.register_profile("tier-1", max_examples=20)
settings.register_profile("ci", max_examples=300)
settings.load_profile("tier-1")
