"""Scenario edits: ordered transformations of a network plus policy flags.

A scenario is a list of edits applied left to right.  Structural edits
(capacity, costs, link add/remove, operator merges) rewrite the network;
policy edits (objective modes, fixed fares, subsidies) accumulate into
annotations consumed by the outcomes module.  Scenarios are loaded from a
JSON document: a list of objects, each with an ``edit`` key naming the type.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

from .errors import ScenarioError, ValidationError
from .network import DUMMY_OPERATOR, DemandTable, Link, Network


@dataclass(frozen=True)
class SetCapacity:
    arc: tuple[int, int]
    capacity: float


@dataclass(frozen=True)
class ScaleCosts:
    """Scale operating costs of one operator's links."""
    operator: int
    factor: float


@dataclass(frozen=True)
class ScaleTravel:
    """Scale travel costs of one operator's links, or all links if None."""
    operator: int | None
    factor: float


@dataclass(frozen=True)
class Surcharge:
    """Additive operating-cost increase on every link of an operator."""
    operator: int
    delta: float


@dataclass(frozen=True)
class Subsidy:
    arc: tuple[int, int]
    gamma: float


@dataclass(frozen=True)
class AddLinks:
    links: tuple[Link, ...]


@dataclass(frozen=True)
class RemoveLinks:
    arcs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MergeOperators:
    sources: tuple[int, ...]
    target: int


@dataclass(frozen=True)
class SetObjectivePolicy:
    operator: int
    mode: str  # revenue_max | welfare_max


@dataclass(frozen=True)
class SetFixedFare:
    operator: int
    flag: bool


@dataclass(frozen=True)
class Scenario:
    edits: tuple = ()


@dataclass
class PolicyAnnotations:
    objective_modes: dict = field(default_factory=dict)   # operator -> mode
    fixed_fare_operators: set = field(default_factory=set)
    subsidies: dict = field(default_factory=dict)         # arc -> gamma


def apply_scenario(network: Network, demand: DemandTable,
                   scenario: Scenario) -> tuple[Network, DemandTable, PolicyAnnotations]:
    """Apply edits in order; pure, the inputs are never mutated."""
    annotations = PolicyAnnotations()
    for capacities, run in itertools.groupby(
            scenario.edits, key=lambda edit: isinstance(edit, SetCapacity)):
        if capacities:
            network = _set_capacities(network, run)
            continue
        for edit in run:
            network = _apply_edit(network, annotations, edit)
    try:
        demand.validate_against(network)
    except ValidationError as exc:
        raise ScenarioError(f"scenario removed a demand node: {exc}") from exc
    # replace_links keeps nodes declared even when their last link is gone,
    # so check incidence separately
    incident = {n for l in network.links for n in l.arc}
    for entry in demand.entries:
        for node in entry.od:
            if node not in incident:
                raise ScenarioError(
                    f"scenario left demand node {node} with no links")
    for arc, gamma in annotations.subsidies.items():
        link = network.by_arc.get(arc)
        if link is None:
            raise ScenarioError(f"subsidized link {arc} no longer exists")
        if gamma > link.operating_cost + 1e-12:
            raise ScenarioError(
                f"subsidy on {arc} exceeds its operating cost after edits")
    return network, demand, annotations


def _require_operator(network, operator):
    if operator not in network.operators:
        raise ScenarioError(f"edit references unknown operator {operator}")


def _set_capacities(network, edits):
    """Apply a run of ``SetCapacity`` edits with one ``replace_links``.

    Each edit is checked in order, as one ``replace_links`` per edit would
    check it: a missing link raises ``ScenarioError``, and an invalid
    capacity the ``ValidationError`` of its link.
    """
    changed = {}
    for edit in edits:
        arc = tuple(edit.arc)
        link = network.by_arc.get(arc)
        if link is None:
            raise ScenarioError(f"set_capacity: no link {edit.arc}")
        changed[arc] = replace(link, capacity=edit.capacity)
        changed[arc].validate()
    return network.replace_links([changed.get(l.arc, l) for l in network.links])


def _apply_edit(network, annotations, edit):
    if isinstance(edit, ScaleCosts):
        _require_operator(network, edit.operator)
        return network.replace_links(
            [replace(l, operating_cost=l.operating_cost * edit.factor)
             if l.owner == edit.operator else l for l in network.links])
    if isinstance(edit, ScaleTravel):
        if edit.operator is not None:
            _require_operator(network, edit.operator)
        return network.replace_links(
            [replace(l, travel_cost=l.travel_cost * edit.factor)
             if edit.operator is None or l.owner == edit.operator else l
             for l in network.links])
    if isinstance(edit, Surcharge):
        _require_operator(network, edit.operator)
        return network.replace_links(
            [replace(l, operating_cost=l.operating_cost + edit.delta)
             if l.owner == edit.operator else l for l in network.links])
    if isinstance(edit, Subsidy):
        arc = tuple(edit.arc)
        link = network.by_arc.get(arc)
        if link is None:
            raise ScenarioError(f"subsidy: no link {arc}")
        if not 0 <= edit.gamma <= link.operating_cost + 1e-12:
            raise ScenarioError(
                f"subsidy on {arc} must lie in [0, operating cost]")
        annotations.subsidies[arc] = edit.gamma
        return network
    if isinstance(edit, AddLinks):
        for link in edit.links:
            if link.arc in network.by_arc:
                raise ScenarioError(f"add_links: link {link.arc} already exists")
        return network.replace_links(list(network.links) + list(edit.links))
    if isinstance(edit, RemoveLinks):
        arcs = {tuple(a) for a in edit.arcs}
        missing = arcs - set(network.by_arc)
        if missing:
            raise ScenarioError(f"remove_links: no links {sorted(missing)}")
        annotations.subsidies = {a: g for a, g in annotations.subsidies.items()
                                 if a not in arcs}
        return network.replace_links(
            [l for l in network.links if l.arc not in arcs])
    if isinstance(edit, MergeOperators):
        if edit.target == DUMMY_OPERATOR or DUMMY_OPERATOR in edit.sources:
            raise ScenarioError("merge cannot involve the platform operator")
        for f in edit.sources:
            _require_operator(network, f)
        sources = set(edit.sources)
        modes = annotations.objective_modes
        for f in sorted(sources & set(modes)):
            modes.setdefault(edit.target, modes[f])
            if f != edit.target:
                del modes[f]
        if sources & annotations.fixed_fare_operators:
            annotations.fixed_fare_operators -= sources
            annotations.fixed_fare_operators.add(edit.target)
        return network.replace_links(
            [replace(l, owner=edit.target) if l.owner in sources else l
             for l in network.links])
    if isinstance(edit, SetObjectivePolicy):
        _require_operator(network, edit.operator)
        if edit.mode not in ("revenue_max", "welfare_max"):
            raise ScenarioError(f"unknown objective mode {edit.mode!r}")
        annotations.objective_modes[edit.operator] = edit.mode
        return network
    if isinstance(edit, SetFixedFare):
        _require_operator(network, edit.operator)
        if edit.flag:
            annotations.fixed_fare_operators.add(edit.operator)
        else:
            annotations.fixed_fare_operators.discard(edit.operator)
        return network
    raise ScenarioError(f"unknown edit {edit!r}")


_EDIT_PARSERS = {}


def _id(value) -> int:
    """A node or operator id read from JSON: an integer, an integral float
    or a string ``int()`` reads; ValueError for a boolean or any other
    number, which ``int()`` would truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer id")
    return int(value)


def _parser(name):
    def wrap(fn):
        _EDIT_PARSERS[name] = fn
        return fn
    return wrap


@_parser("set_capacity")
def _(obj):
    return SetCapacity(arc=(_id(obj["tail"]), _id(obj["head"])),
                       capacity=float(obj["capacity"]))


@_parser("scale_costs")
def _(obj):
    return ScaleCosts(operator=_id(obj["operator"]), factor=float(obj["factor"]))


@_parser("scale_travel")
def _(obj):
    operator = obj.get("operator")
    return ScaleTravel(operator=None if operator is None else _id(operator),
                       factor=float(obj["factor"]))


@_parser("surcharge")
def _(obj):
    return Surcharge(operator=_id(obj["operator"]), delta=float(obj["delta"]))


@_parser("subsidy")
def _(obj):
    return Subsidy(arc=(_id(obj["tail"]), _id(obj["head"])),
                   gamma=float(obj["gamma"]))


@_parser("add_links")
def _(obj):
    links = tuple(
        Link(tail=_id(l["tail"]), head=_id(l["head"]),
             travel_cost=float(l["travel_cost"]),
             operating_cost=float(l["operating_cost"]),
             capacity=float(l["capacity"]), owner=_id(l["owner"]))
        for l in obj["links"])
    return AddLinks(links=links)


@_parser("remove_links")
def _(obj):
    return RemoveLinks(arcs=tuple((_id(a["tail"]), _id(a["head"]))
                                  for a in obj["links"]))


@_parser("merge_operators")
def _(obj):
    return MergeOperators(sources=tuple(_id(f) for f in obj["sources"]),
                          target=_id(obj["target"]))


@_parser("set_objective_policy")
def _(obj):
    return SetObjectivePolicy(operator=_id(obj["operator"]), mode=str(obj["mode"]))


@_parser("set_fixed_fare")
def _(obj):
    flag = obj.get("flag", True)
    if not isinstance(flag, bool):
        raise ValueError(f"flag {flag!r} is not a boolean")
    return SetFixedFare(operator=_id(obj["operator"]), flag=flag)


def load_scenario(source) -> Scenario:
    """Parse a scenario from a JSON list of edit objects (order preserved)."""
    if hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    if not isinstance(doc, list):
        raise ScenarioError("scenario document must be a JSON list of edits")
    edits = []
    for i, obj in enumerate(doc):
        kind = obj.get("edit") if isinstance(obj, dict) else None
        parser = _EDIT_PARSERS.get(kind)
        if parser is None:
            raise ScenarioError(f"entry {i}: unknown edit type {kind!r}")
        try:
            edits.append(parser(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"entry {i}: malformed {kind} edit: {exc}") from exc
    return Scenario(edits=tuple(edits))
