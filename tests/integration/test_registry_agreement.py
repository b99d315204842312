"""Integration: the publication state and its materialised ROA table agree.

An owner that never published is invisible to origin validation: both the
publication state and the validated-ROA table it materialises must answer
NOT_FOUND for a hijack of its space, even though full publication would
show the announcement is wrong.
"""

import pytest

from repro.prefixes.addressing import AddressPlan
from repro.registry.publication import PublicationState
from repro.registry.roa import ValidationState


@pytest.fixture(scope="module")
def plan() -> AddressPlan:
    weights = {asn: float((asn * 37) % 91 + 1) for asn in range(1, 61)}
    return AddressPlan.build(weights, seed=13)


@pytest.fixture(scope="module")
def publication(plan) -> PublicationState:
    return PublicationState.with_participants(
        plan, [asn for asn in plan.all_asns() if asn % 3 != 0]
    )


def test_unpublished_owner_is_not_found_everywhere(plan, publication):
    unpublished = next(
        asn for asn in plan.all_asns() if not publication.has_published(asn)
    )
    prefix = plan.primary_prefix(unpublished)
    hijacker = next(a for a in plan.all_asns() if a != unpublished)
    assert publication.validate(prefix, hijacker) is ValidationState.NOT_FOUND
    assert publication.table().validate(prefix, hijacker) is ValidationState.NOT_FOUND
    assert (
        PublicationState.full(plan).validate(prefix, hijacker) is ValidationState.INVALID
    )
