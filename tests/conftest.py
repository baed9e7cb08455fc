"""Fixtures shared by every test module."""

import pytest

from octaq import gl2f9, quartic


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with the irreducibility and split-prime caches of
    quartic and the H_{j,k} closures of gl2f9 empty, so a test that spies on
    or caps the Frobenius scan sees the scan run, and one that rebinds
    gl2f9.mat_mul or counts products sees every closure, whatever ran
    before it."""
    quartic._irreducible.cache_clear()
    quartic._split_prime.cache_clear()
    gl2f9._h_jk.cache_clear()
