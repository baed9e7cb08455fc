"""Fixtures shared by every test module."""

import pytest

from octaq import quartic


@pytest.fixture(autouse=True)
def cold_frobenius_caches():
    """Every test starts with the irreducibility and least-split-prime
    caches of quartic empty, so a test that spies on or caps the Frobenius
    scan sees the scan run, whatever ran before it."""
    quartic._irreducible_scan.cache_clear()
    quartic._least_split_prime.cache_clear()
