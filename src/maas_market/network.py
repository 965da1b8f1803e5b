"""Network and demand data model, validation, and delimited-text ingestion.

Operator 0 is reserved for the platform itself: it owns transfer and
outside-option links, pays no operating cost in practice, and is exempt from
stability conditions downstream.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import ValidationError

DUMMY_OPERATOR = 0

LINK_HEADER = ["tail", "head", "travel_cost", "operating_cost", "capacity", "owner"]
DEMAND_HEADER = ["origin", "destination", "demand", "utility"]


@dataclass(frozen=True)
class Link:
    """A directed, capacitated, operator-owned service link."""

    tail: int
    head: int
    travel_cost: float
    operating_cost: float
    capacity: float
    owner: int

    @property
    def arc(self) -> tuple[int, int]:
        return (self.tail, self.head)

    def validate(self) -> None:
        if self.tail == self.head:
            raise ValidationError(f"self-loop link {self.arc} is not allowed")
        for name in ("travel_cost", "operating_cost", "capacity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"link {self.arc}: {name} must be finite")
        if self.travel_cost < 0 or self.operating_cost < 0:
            raise ValidationError(f"link {self.arc}: costs must be non-negative")
        if self.capacity <= 0:
            raise ValidationError(f"link {self.arc}: capacity must be positive")
        if self.owner < 0:
            raise ValidationError(f"link {self.arc}: owner must be a non-negative id")


@dataclass(frozen=True)
class Network:
    """Immutable directed network of operator-owned links."""

    nodes: frozenset[int]
    links: tuple[Link, ...]

    def __post_init__(self):
        seen = set()
        for link in self.links:
            link.validate()
            if link.arc in seen:
                raise ValidationError(f"duplicate link {link.arc}")
            seen.add(link.arc)
            if link.tail not in self.nodes or link.head not in self.nodes:
                raise ValidationError(f"link {link.arc} references an undeclared node")

    @cached_property
    def by_arc(self) -> dict[tuple[int, int], Link]:
        return {link.arc: link for link in self.links}

    @cached_property
    def operators(self) -> frozenset[int]:
        """All operator ids; the dummy operator 0 always exists."""
        return frozenset({link.owner for link in self.links} | {DUMMY_OPERATOR})

    def operator_links(self, operator: int) -> tuple[Link, ...]:
        return tuple(link for link in self.links if link.owner == operator)

    def replace_links(self, links: Iterable[Link]) -> "Network":
        links = tuple(sorted(links, key=lambda l: l.arc))
        nodes = frozenset(self.nodes) | {n for l in links for n in l.arc}
        return Network(nodes=nodes, links=links)


@dataclass(frozen=True)
class DemandEntry:
    origin: int
    destination: int
    demand: float
    utility: float

    @cached_property
    def od(self) -> tuple[int, int]:
        # one tuple per entry, shared by every model and system keyed on it
        return (self.origin, self.destination)

    def validate(self) -> None:
        if self.origin == self.destination:
            raise ValidationError(f"OD {self.od}: origin equals destination")
        if not (self.demand > 0) or not math.isfinite(self.demand):
            raise ValidationError(f"OD {self.od}: demand must be positive and finite")
        if self.utility < 0 or not math.isfinite(self.utility):
            raise ValidationError(f"OD {self.od}: utility must be non-negative")


@dataclass(frozen=True)
class DemandTable:
    entries: tuple[DemandEntry, ...]

    def __post_init__(self):
        seen = set()
        for entry in self.entries:
            entry.validate()
            if entry.od in seen:
                raise ValidationError(f"duplicate OD pair {entry.od}")
            seen.add(entry.od)

    @property
    def ods(self) -> list[tuple[int, int]]:
        return [entry.od for entry in self.entries]

    def total_demand(self) -> float:
        return sum(entry.demand for entry in self.entries)

    def validate_against(self, network: Network) -> None:
        for entry in self.entries:
            for node in entry.od:
                if node not in network.nodes:
                    raise ValidationError(f"OD {entry.od}: node {node} not in network")


def _read_rows(source, header: list[str]):
    if hasattr(source, "read"):
        handle = source
    else:
        handle = open(source, newline="")
    with handle if handle is not source else io.StringIO(handle.read()) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != header:
            raise ValidationError(
                f"expected header {','.join(header)!r}, got {reader.fieldnames}"
            )
        for lineno, row in enumerate(reader, start=2):
            if any(v is None or v.strip() == "" for v in row.values()):
                raise ValidationError(f"line {lineno}: malformed row {row}")
            yield lineno, row


def load_network(source) -> Network:
    """Read a link table (``tail,head,travel_cost,operating_cost,capacity,owner``)."""
    links = []
    for lineno, row in _read_rows(source, LINK_HEADER):
        try:
            links.append(
                Link(
                    tail=int(row["tail"]),
                    head=int(row["head"]),
                    travel_cost=float(row["travel_cost"]),
                    operating_cost=float(row["operating_cost"]),
                    capacity=float(row["capacity"]),
                    owner=int(row["owner"]),
                )
            )
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    nodes = frozenset(n for link in links for n in link.arc)
    return Network(nodes=nodes, links=tuple(sorted(links, key=lambda l: l.arc)))


def write_csv(target, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``target``: an open text handle, left
    open, or a path, opened and closed here."""
    with (nullcontext(target) if hasattr(target, "write")
          else open(target, "w", newline="")) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def dump_network(network: Network, target) -> None:
    """Write a link table; one normalization pass (sorted by arc) is applied."""
    write_csv(target, LINK_HEADER,
              ([link.tail, link.head, _fmt(link.travel_cost),
                _fmt(link.operating_cost), _fmt(link.capacity), link.owner]
               for link in sorted(network.links, key=lambda l: l.arc)))


def load_demand(source) -> DemandTable:
    """Read an OD table (``origin,destination,demand,utility``)."""
    entries = []
    for lineno, row in _read_rows(source, DEMAND_HEADER):
        try:
            entries.append(
                DemandEntry(
                    origin=int(row["origin"]),
                    destination=int(row["destination"]),
                    demand=float(row["demand"]),
                    utility=float(row["utility"]),
                )
            )
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    return DemandTable(entries=tuple(sorted(entries, key=lambda e: e.od)))


def dump_demand(table: DemandTable, target) -> None:
    write_csv(target, DEMAND_HEADER,
              ([entry.origin, entry.destination, _fmt(entry.demand), _fmt(entry.utility)]
               for entry in sorted(table.entries, key=lambda e: e.od)))


def _fmt(value: float) -> str:
    # decimal text, no exponent; integers stay integral
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
