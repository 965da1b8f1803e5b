import pytest

from maas_market import ValidationError, build_sioux_falls
from maas_market.fixtures import BUS_OPERATOR, RAIL_OPERATOR
from maas_market._sioux_falls_data import LINKS


def test_dimensions():
    network, demand = build_sioux_falls(transfer_cost=0.0)
    assert len(network.links) == 98       # 76 service + 22 transfer links
    assert len(network.nodes) == 35       # 24 road + 11 station nodes
    assert len(demand.entries) == 528     # positive cells of the OD matrix


def test_known_link_parameters():
    network, _ = build_sioux_falls(transfer_cost=0.0)
    link = network.by_arc[(119, 117)]
    assert link.capacity == 4824
    assert link.travel_cost == 2 and link.operating_cost == 2
    assert link.owner == RAIL_OPERATOR


def test_transfer_links():
    network, _ = build_sioux_falls(transfer_cost=2.0)
    transfer = network.by_arc[(1, 101)]
    assert transfer.owner == 0
    assert transfer.travel_cost == 2.0 and transfer.operating_cost == 0.0
    transfers = [l for l in network.links if l.owner == 0]
    assert len(transfers) == 22
    assert all((l.tail >= 100) != (l.head >= 100) for l in transfers)


def test_ownership_rule():
    network, _ = build_sioux_falls(transfer_cost=0.0)
    for link in network.links:
        if link.tail >= 100 and link.head >= 100:
            assert link.owner == RAIL_OPERATOR
        elif link.tail < 100 and link.head < 100:
            assert link.owner == BUS_OPERATOR
        else:
            assert link.owner == 0


def test_rail_link_count_matches_data():
    network, _ = build_sioux_falls(transfer_cost=0.0)
    expected = sum(1 for t, h, _, _ in LINKS if t >= 100 and h >= 100)
    assert len(network.operator_links(RAIL_OPERATOR)) == expected


def test_demand_scaling_and_utility():
    _, demand = build_sioux_falls(transfer_cost=0.0, utility=40.0)
    entry = next(entry for entry in demand.entries if entry.od == (1, 10))
    assert entry.demand == 1300.0         # matrix cell 13, x100
    assert entry.utility == 40.0
    assert demand.total_demand() == 360600.0


def test_capacity_scale():
    base, _ = build_sioux_falls(transfer_cost=0.0)
    scaled, _ = build_sioux_falls(transfer_cost=0.0, capacity_scale=10 / 3)
    assert scaled.by_arc[(10, 16)].capacity == \
        pytest.approx(base.by_arc[(10, 16)].capacity * 10 / 3)


def test_negative_transfer_cost_rejected():
    with pytest.raises(ValidationError):
        build_sioux_falls(transfer_cost=-1.0)
