"""Versioned in-memory cache over the de-normalized summary storage."""

from repro.cache.summary_cache import (
    DEFAULT_CACHE_BYTES,
    CacheInvalidator,
    SummaryCache,
)

__all__ = ["DEFAULT_CACHE_BYTES", "CacheInvalidator", "SummaryCache"]
