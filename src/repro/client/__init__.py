"""Client-side result processing (Algorithm 3)."""

from repro.client.expansion import ExpansionResult, expand_rin
from repro.client.filtering import (
    ClientFilter,
    FilterIndex,
    FilterResult,
    filter_candidates,
)

__all__ = [
    "expand_rin",
    "ExpansionResult",
    "ClientFilter",
    "FilterIndex",
    "filter_candidates",
    "FilterResult",
]
