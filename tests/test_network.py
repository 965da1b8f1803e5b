import io

import pytest

from maas_market import (DemandEntry, DemandTable, Link, Network,
                         ValidationError, dump_demand, dump_network,
                         load_demand, load_network)

LINK_CSV = """tail,head,travel_cost,operating_cost,capacity,owner
1,2,3.5,10,100,1
"""


def test_load_smallest_network():
    network = load_network(io.StringIO(LINK_CSV))
    assert len(network.links) == 1
    assert network.nodes == frozenset({1, 2})
    link = network.by_arc[(1, 2)]
    assert link.travel_cost == 3.5 and link.owner == 1


def test_zero_capacity_rejected():
    doc = "tail,head,travel_cost,operating_cost,capacity,owner\n1,2,1,1,0,1\n"
    with pytest.raises(ValidationError):
        load_network(io.StringIO(doc))


def test_duplicate_link_rejected():
    doc = ("tail,head,travel_cost,operating_cost,capacity,owner\n"
           "1,2,1,1,5,1\n1,2,2,2,5,2\n")
    with pytest.raises(ValidationError):
        load_network(io.StringIO(doc))


def test_negative_cost_rejected():
    doc = "tail,head,travel_cost,operating_cost,capacity,owner\n1,2,-1,1,5,1\n"
    with pytest.raises(ValidationError):
        load_network(io.StringIO(doc))


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        Network(nodes=frozenset({1}),
                links=(Link(1, 1, 1, 1, 1, 1),))


def test_dangling_endpoint_rejected():
    with pytest.raises(ValidationError):
        Network(nodes=frozenset({1, 2}),
                links=(Link(1, 3, 1, 1, 1, 1),))


def test_bad_header_rejected():
    with pytest.raises(ValidationError):
        load_network(io.StringIO("a,b,c\n1,2,3\n"))


def test_operator_partition():
    network = load_network(io.StringIO(
        "tail,head,travel_cost,operating_cost,capacity,owner\n"
        "1,2,1,1,5,1\n2,3,1,1,5,2\n3,4,1,1,5,0\n"))
    assert network.operators == frozenset({0, 1, 2})
    total = sum(len(network.operator_links(f)) for f in network.operators)
    assert total == len(network.links)


def test_round_trip_idempotent():
    doc = ("tail,head,travel_cost,operating_cost,capacity,owner\n"
           "2,3,1.5,0,7,2\n1,2,1,1,5,1\n")
    network = load_network(io.StringIO(doc))
    out1 = io.StringIO()
    dump_network(network, out1)
    out2 = io.StringIO()
    dump_network(load_network(io.StringIO(out1.getvalue())), out2)
    assert out1.getvalue() == out2.getvalue()


def test_load_demand():
    doc = "origin,destination,demand,utility\n1,3,1000,20\n1,4,500,20\n"
    table = load_demand(io.StringIO(doc))
    by_od = {entry.od: entry for entry in table.entries}
    assert by_od[(1, 3)].demand == 1000
    assert by_od[(1, 4)].utility == 20
    assert table.total_demand() == 1500


def test_empty_demand_table():
    table = load_demand(io.StringIO("origin,destination,demand,utility\n"))
    assert table.entries == ()


def test_duplicate_od_rejected():
    doc = "origin,destination,demand,utility\n1,3,10,5\n1,3,20,5\n"
    with pytest.raises(ValidationError):
        load_demand(io.StringIO(doc))


def test_nonpositive_demand_rejected():
    with pytest.raises(ValidationError):
        DemandEntry(origin=1, destination=2, demand=0, utility=1).validate()


def test_demand_round_trip():
    table = DemandTable(entries=(
        DemandEntry(1, 3, 1000, 20), DemandEntry(1, 4, 500, 20)))
    out = io.StringIO()
    dump_demand(table, out)
    again = load_demand(io.StringIO(out.getvalue()))
    assert again == table


def test_demand_unknown_node_detected():
    network = load_network(io.StringIO(LINK_CSV))
    table = DemandTable(entries=(DemandEntry(1, 9, 10, 5),))
    with pytest.raises(ValidationError):
        table.validate_against(network)


def test_network_and_demand_hold_their_rows_in_order():
    links = (Link(1, 2, 1, 1, 5, 1), Link(1, 3, 1, 1, 5, 1), Link(2, 3, 1, 1, 5, 2))
    nodes = frozenset({1, 2, 3})
    network = Network(nodes=nodes, links=links[::-1])
    assert network == Network(nodes=nodes, links=links)
    assert network.links == links
    entries = (DemandEntry(1, 3, 10, 5), DemandEntry(2, 1, 10, 5), DemandEntry(2, 3, 10, 5))
    table = DemandTable(entries=entries[::-1])
    assert table == DemandTable(entries=entries)
    assert table.entries == entries


def test_error_names_the_physical_line_after_a_blank_line():
    doc = "origin,destination,demand,utility\n1,3,10,5\n\n1,4,x,5\n"
    with pytest.raises(ValidationError, match="^line 4: "):
        load_demand(io.StringIO(doc))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_file_loads_with_any_line_ending(tmp_path, newline):
    path = tmp_path / "network.csv"
    path.write_bytes(newline.join(LINK_CSV.splitlines() + [""]).encode())
    assert load_network(path) == load_network(io.StringIO(LINK_CSV))
