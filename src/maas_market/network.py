"""Network and demand data model, validation, and delimited-text ingestion.

Operator 0 is reserved for the platform itself: it owns transfer and
outside-option links, pays no operating cost in practice, and is exempt from
stability conditions downstream.
"""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import ValidationError

DUMMY_OPERATOR = 0


def require_priced(operators, setting: str, error=ValueError) -> None:
    """``error`` when ``operators`` holds the platform operator: it carries
    no price variable, so ``setting`` means nothing for it."""
    if DUMMY_OPERATOR in operators:
        raise error(f"{setting}: operator {DUMMY_OPERATOR} is the platform, which has no prices")


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
    """Immutable directed network of operator-owned links, held in arc
    order whatever order they are given in."""

    nodes: frozenset[int]
    links: tuple[Link, ...]

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(sorted(self.links, key=lambda l: l.arc)))
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
        links = tuple(links)
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
    """Immutable OD table, held in OD order whatever order it is given in."""

    entries: tuple[DemandEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries, key=lambda e: e.od)))
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


def _read_rows(source, header: list[str], types):
    """Yield the rows after ``header`` in an open text handle or a CSV file,
    each field converted by its entry in ``types``; blank lines are skipped.
    A bad header, a row of the wrong width, an empty field, a failed
    conversion or bytes that are not UTF-8 raise ``ValidationError`` naming
    the physical line."""
    if hasattr(source, "read"):
        lines = source
    else:  # split at universal newlines, then decoded line by line
        with open(source, "rb") as handle:
            lines = (line.decode() for line in handle.read().splitlines(keepends=True))
    reader = csv.reader(lines)
    try:
        first = next(reader, None)
        if first is None or [f.strip() for f in first] != header:
            raise ValidationError(f"expected header {','.join(header)!r}, got {first}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(types) or any(not v.strip() for v in row):
                raise ValidationError(f"line {reader.line_num}: malformed row {row}")
            yield [convert(v) for convert, v in zip(types, row)]
    except UnicodeDecodeError as exc:  # raised before its line is counted
        raise ValidationError(f"line {reader.line_num + 1}: {exc}") from exc
    except (ValueError, csv.Error) as exc:
        raise ValidationError(f"line {reader.line_num}: {exc}") from exc


def load_network(source) -> Network:
    """Read a link table (``tail,head,travel_cost,operating_cost,capacity,owner``)."""
    rows = _read_rows(source, LINK_HEADER, (int, int, float, float, float, int))
    links = tuple(Link(*row) for row in rows)
    return Network(nodes=frozenset(n for link in links for n in link.arc), links=links)


def write_csv(target, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``target``: an open text handle, left
    open, or a path, opened and closed here."""
    with (nullcontext(target) if hasattr(target, "write")
          else open(target, "w", newline="")) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def dump_network(network: Network, target) -> None:
    """Write a link table, one row per link in arc order."""
    write_csv(target, LINK_HEADER,
              ([link.tail, link.head, _fmt(link.travel_cost),
                _fmt(link.operating_cost), _fmt(link.capacity), link.owner]
               for link in network.links))


def load_demand(source) -> DemandTable:
    """Read an OD table (``origin,destination,demand,utility``)."""
    rows = _read_rows(source, DEMAND_HEADER, (int, int, float, float))
    return DemandTable(entries=tuple(DemandEntry(*row) for row in rows))


def dump_demand(table: DemandTable, target) -> None:
    write_csv(target, DEMAND_HEADER,
              ([entry.origin, entry.destination, _fmt(entry.demand), _fmt(entry.utility)]
               for entry in table.entries))


def _fmt(value: float) -> str:
    # decimal text, no exponent; integers stay integral
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
