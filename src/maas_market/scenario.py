"""Scenario edits: ordered transformations of a network plus policy flags.

A scenario is a list of edits applied left to right.  Structural edits
(capacity, costs, link add/remove, operator merges) rewrite one link map,
copied from the network, and one network is built from it after the last
edit; policy edits (objective modes, fixed fares, subsidies) accumulate into
annotations consumed by the outcomes module.  Scenarios are loaded from a
JSON document: a list of objects, each with an ``edit`` key naming the type
and no key beyond those ``_EDITS`` lists for it.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from .errors import ScenarioError, ValidationError
from .network import DUMMY_OPERATOR, LINK_HEADER, DemandTable, Link, Network, require_priced


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
    """Apply edits in order to one copy of the network's link map, then build
    one network from it; pure, the inputs are never mutated.  Each edit
    validates the links it changes, so the first faulty edit decides the error."""
    annotations = PolicyAnnotations()
    links = dict(network.by_arc)
    for edit in scenario.edits:
        _apply_edit(links, annotations, edit)
    network = network.replace_links(links.values())
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
    # every subsidized link still exists: removing a link drops its subsidy
    for arc, gamma in annotations.subsidies.items():
        if gamma > network.by_arc[arc].operating_cost + 1e-12:
            raise ScenarioError(
                f"subsidy on {arc} exceeds its operating cost after edits")
    return network, demand, annotations


def _require_operators(links, operators):
    owners = {link.owner for link in links.values()}
    for f in operators:
        if f != DUMMY_OPERATOR and f not in owners:
            raise ScenarioError(f"edit references unknown operator {f}")


def _put(links, link):
    link.validate()
    links[link.arc] = link


def _rewrite(links, operators, change):
    """Replace each link owned by one of ``operators``, or every link when
    ``operators`` is None, by ``change(link)``."""
    if operators is not None:
        _require_operators(links, operators)
    for link in list(links.values()):
        if operators is None or link.owner in operators:
            _put(links, change(link))


def _apply_edit(links, annotations, edit):
    if isinstance(edit, SetCapacity):
        link = links.get(tuple(edit.arc))
        if link is None:
            raise ScenarioError(f"set_capacity: no link {edit.arc}")
        _put(links, replace(link, capacity=edit.capacity))
    elif isinstance(edit, ScaleCosts):
        _rewrite(links, (edit.operator,),
                 lambda l: replace(l, operating_cost=l.operating_cost * edit.factor))
    elif isinstance(edit, ScaleTravel):
        _rewrite(links, None if edit.operator is None else (edit.operator,),
                 lambda l: replace(l, travel_cost=l.travel_cost * edit.factor))
    elif isinstance(edit, Surcharge):
        _rewrite(links, (edit.operator,),
                 lambda l: replace(l, operating_cost=l.operating_cost + edit.delta))
    elif isinstance(edit, Subsidy):
        link = links.get(tuple(edit.arc))
        if link is None:
            raise ScenarioError(f"subsidy: no link {tuple(edit.arc)}")
        if not 0 <= edit.gamma <= link.operating_cost + 1e-12:
            raise ScenarioError(
                f"subsidy on {link.arc} must lie in [0, operating cost]")
        annotations.subsidies[link.arc] = edit.gamma
    elif isinstance(edit, AddLinks):
        for link in edit.links:
            if link.arc in links:
                raise ScenarioError(f"add_links: link {link.arc} already exists")
            _put(links, link)
    elif isinstance(edit, RemoveLinks):
        arcs = {tuple(a) for a in edit.arcs}
        missing = arcs - set(links)
        if missing:
            raise ScenarioError(f"remove_links: no links {sorted(missing)}")
        for arc in arcs:
            del links[arc]
        annotations.subsidies = {a: g for a, g in annotations.subsidies.items()
                                 if a not in arcs}
    elif isinstance(edit, MergeOperators):
        require_priced((edit.target, *edit.sources), "merge_operators", ScenarioError)
        _rewrite(links, edit.sources, lambda l: replace(l, owner=edit.target))
        sources = set(edit.sources)
        modes = annotations.objective_modes
        for f in sorted(sources & set(modes)):
            modes.setdefault(edit.target, modes[f])
            if f != edit.target:
                del modes[f]
        if sources & annotations.fixed_fare_operators:
            annotations.fixed_fare_operators -= sources
            annotations.fixed_fare_operators.add(edit.target)
    elif isinstance(edit, SetObjectivePolicy):
        require_priced((edit.operator,), "set_objective_policy", ScenarioError)
        _require_operators(links, (edit.operator,))
        if edit.mode not in ("revenue_max", "welfare_max"):
            raise ScenarioError(f"unknown objective mode {edit.mode!r}")
        annotations.objective_modes[edit.operator] = edit.mode
    elif isinstance(edit, SetFixedFare):
        require_priced((edit.operator,), "set_fixed_fare", ScenarioError)
        _require_operators(links, (edit.operator,))
        if edit.flag:
            annotations.fixed_fare_operators.add(edit.operator)
        else:
            annotations.fixed_fare_operators.discard(edit.operator)
    else:
        raise ScenarioError(f"unknown edit {edit!r}")


def _id(value) -> int:
    """A node or operator id read from JSON: an integer, an integral float
    or a string ``int()`` reads; ValueError for a boolean or any other
    number, which ``int()`` would truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer id")
    return int(value)


def _number(value) -> float:
    """A number read from JSON: what ``float()`` reads, save a boolean."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"flag {value!r} is not a boolean")
    return value


def _only(obj, keys):
    """``obj`` itself, a JSON object holding no key outside ``keys``;
    ValueError naming the stray keys otherwise."""
    if not isinstance(obj, dict):
        raise TypeError(f"{obj!r} is not an object")
    stray = sorted(set(obj) - set(keys))
    if stray:
        raise ValueError(f"unknown keys {stray}")
    return obj


def _unique_keys(pairs) -> dict:
    """A JSON object; ValueError on a repeated key, of which json keeps the last."""
    keys = [k for k, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated keys {sorted({k for k in keys if keys.count(k) > 1})}")
    return dict(pairs)


def _arc(obj) -> tuple[int, int]:
    return _id(obj["tail"]), _id(obj["head"])


def _link(obj) -> Link:
    _only(obj, LINK_HEADER)
    return Link(*_arc(obj), _number(obj["travel_cost"]), _number(obj["operating_cost"]),
                _number(obj["capacity"]), _id(obj["owner"]))


# JSON edit name -> (the keys its object may hold besides "edit", its builder)
_EDITS = {
    "set_capacity": (("tail", "head", "capacity"),
                     lambda o: SetCapacity(_arc(o), _number(o["capacity"]))),
    "scale_costs": (("operator", "factor"),
                    lambda o: ScaleCosts(_id(o["operator"]), _number(o["factor"]))),
    "scale_travel": (("operator", "factor"),
                     lambda o: ScaleTravel(None if o.get("operator") is None
                                           else _id(o["operator"]), _number(o["factor"]))),
    "surcharge": (("operator", "delta"),
                  lambda o: Surcharge(_id(o["operator"]), _number(o["delta"]))),
    "subsidy": (("tail", "head", "gamma"),
                lambda o: Subsidy(_arc(o), _number(o["gamma"]))),
    "add_links": (("links",),
                  lambda o: AddLinks(tuple(_link(l) for l in o["links"]))),
    "remove_links": (("links",),
                     lambda o: RemoveLinks(tuple(_arc(_only(a, ("tail", "head")))
                                                 for a in o["links"]))),
    "merge_operators": (("sources", "target"),
                        lambda o: MergeOperators(tuple(_id(f) for f in o["sources"]),
                                                 _id(o["target"]))),
    "set_objective_policy": (("operator", "mode"),
                             lambda o: SetObjectivePolicy(_id(o["operator"]),
                                                          str(o["mode"]))),
    "set_fixed_fare": (("operator", "flag"),
                       lambda o: SetFixedFare(_id(o["operator"]),
                                              _flag(o.get("flag", True)))),
}


def load_scenario(source) -> Scenario:
    """Parse a scenario from a JSON list of edit objects (order preserved):
    an open text handle, left open, or a path, opened here and read as UTF-8."""
    with (nullcontext(source) if hasattr(source, "read")
          else open(source, encoding="utf-8")) as handle:
        try:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:  # also bytes that are not UTF-8
            raise ScenarioError(f"scenario is not a JSON document: {exc}") from exc
    if not isinstance(doc, list):
        raise ScenarioError("scenario document must be a JSON list of edits")
    edits = []
    for i, obj in enumerate(doc):
        kind = obj.get("edit") if isinstance(obj, dict) else None
        spec = _EDITS.get(kind) if isinstance(kind, str) else None
        if spec is None:
            raise ScenarioError(f"entry {i}: unknown edit type {kind!r}")
        keys, build = spec
        try:
            edits.append(build(_only(obj, ("edit", *keys))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"entry {i}: malformed {kind} edit: {exc}") from exc
    return Scenario(edits=tuple(edits))
