"""The scenario key table (`scenario._TABLE`): every default set and
taken by a scenario we ship, the README reference written from it, and
builds of bundled scenarios mutated along it.

The census is the scenario-file twin of test_settable_values.py.  Each key
with a default is listed twice, with a bundled scenario or seed-201
benchmark input: in SET_BY with one that sets it to another value (for a
default of none: that gives it at all), and in TAKEN_BY with one that
leaves it out where the key table reads it.  A default that no shipped
scenario sets is a constant of the code, not a key; one that none takes
is a required key.  No shipped file writes a key at its default, so a
default's takers are the files that rely on it.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptco import timegain
from dptco.errors import ScenarioError
from dptco.scenario import _GAIN, _GAINS, _REQUIRED, _TABLE, _TERM, Scenario

from conftest import BUNDLED, ROOT, SCEN_DIR, shipped_scenarios

# dotted key -> the scenario that sets it to another value, or None
SET_BY = {
    "clock.guard_frac": "example1",
    "gains.acknowledge_criteria_override": "example1",
    "agents.controller": "example1",
    "agents.offsets": "example1",
    "solver.method": "example2",
    "solver.rel_tol": "ring",
    "solver.abs_tol": "ring",
    "monitors.tracking.tol": "example1",
    "monitors.chain_decay": "example1",
    "monitors.invariant_set": "example2",
    "monitors.sf_decay": "example2",
    "monitors.theta_hat_envelope": "example2",
}

# dotted key -> a scenario that leaves it out, and so takes its default
TAKEN_BY = {
    "clock.guard_frac": "ring",
    "gains.acknowledge_criteria_override": "ring",
    "agents.controller": "ring",
    "agents.offsets": "example2",
    "solver.method": "ring",
    "solver.rel_tol": "example2",
    "solver.abs_tol": "example2",
    "monitors.tracking.tol": "ring",
    "monitors.chain_decay": "ring",
    "monitors.invariant_set": "ring",
    "monitors.sf_decay": "ring",
    "monitors.theta_hat_envelope": "ring",
}

# the keys no scenario sets to another value: none, and none may come back
OPEN_AT_MOST = 0


def _tables():
    """(dotted prefix, table) of every table of the file: the sections,
    each controller's gains, and each table below them."""
    todo = [("name" if s == "top level" else s, t) for s, t in _TABLE.items()]
    todo += [("gains", t) for t in _GAINS.values()]
    seen = set()
    while todo:
        prefix, table = todo.pop(0)
        if id(table) in seen:
            continue
        seen.add(id(table))
        yield prefix, table
        for key, (kind, _) in table.items():
            if kind[0] == "object":
                todo.append((f"{prefix}.{key}", kind[1]))
            elif kind[0] == "tag":
                todo += [(prefix, t) for t in kind[2].values()]
            elif kind[0] == "costs":
                todo.append((f"{prefix}.{key}", _TERM))


def defaulted_keys() -> dict:
    """Dotted key -> default, for every key that is not required."""
    out = {}
    for prefix, table in _tables():
        for key, (kind, default) in table.items():
            if default != _REQUIRED and kind[0] != "section":
                out[key if prefix == "name" else f"{prefix}.{key}"] = default
    return out


def _walk(raw: dict):
    """(path, dotted key, kind, value) of every key that the key table
    reads in raw, path None where the file leaves the key out: each
    section against its table, and below it each object the file gives
    and each cost term, a tag's keys by its value or its default."""
    controller = raw["agents"].get("controller",
                                    _TABLE["agents"]["controller"][1])

    def walk(path, prefix, obj, table):
        for key, (kind, default) in table.items():
            dotted = f"{prefix}.{key}" if prefix else key
            if key not in obj:
                yield None, dotted, kind, None
                if kind[0] == "tag" and default != _REQUIRED:
                    yield from walk(path, prefix, obj, kind[2][default])
                continue
            here, v = path + (key,), obj[key]
            yield here, dotted, kind, v
            if kind[0] == "object" and isinstance(v, dict):
                yield from walk(here, dotted, v, kind[1])
            elif kind[0] == "tag" and v in kind[2]:
                yield from walk(path, prefix, obj, kind[2][v])
            elif kind[0] == "costs":
                for i, c in enumerate(v):
                    for j, term in enumerate(c if isinstance(c, list)
                                             else [c]):
                        where = here + ((i, j) if isinstance(c, list)
                                        else (i,))
                        yield from walk(where, dotted, term, _TERM)

    yield from walk((), "", raw, _TABLE["top level"])
    for section, table in _TABLE.items():
        if section != "top level":
            yield from walk((section,), section, raw[section], {
                **table, **_GAINS[controller]} if section == "gains"
                else table)


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory) -> dict:
    """Name -> raw JSON of each bundled scenario and seed-201 benchmark
    input."""
    return shipped_scenarios(tmp_path_factory.mktemp("workloads"))


@pytest.fixture(scope="module")
def census(scenarios) -> dict:
    """Dotted key -> its "set", "taken" and "restated" lists: the scenarios
    that give it another value than its default, that leave it out, and
    that write it at its default."""
    defaults = defaulted_keys()
    out = {key: {"set": [], "taken": [], "restated": []} for key in defaults}
    for name, raw in scenarios.items():
        for path, key, _, v in _walk(raw):
            if key in defaults:
                use = ("taken" if path is None else "restated"
                       if v == defaults[key] else "set")
                if name not in out[key][use]:
                    out[key][use].append(name)
    return out


def test_every_defaulted_key_is_listed():
    assert sorted(SET_BY) == sorted(defaulted_keys())
    assert sorted(TAKEN_BY) == sorted(defaulted_keys())


def test_each_listed_scenario_sets_its_key(census):
    wrong = {key: (name, census[key]["set"]) for key, name in SET_BY.items()
             if name is not None and name not in census[key]["set"]}
    assert wrong == {}


def test_open_keys_are_set_by_no_scenario(census):
    # a key a scenario now sets must name it in SET_BY
    set_now = {key: census[key]["set"] for key, name in SET_BY.items()
               if name is None and census[key]["set"]}
    assert set_now == {}


def test_open_keys_do_not_grow():
    assert sum(v is None for v in SET_BY.values()) <= OPEN_AT_MOST


def test_each_listed_scenario_takes_its_key(census):
    # a default that no shipped scenario takes is a required key
    wrong = {key: (name, census[key]["taken"])
             for key, name in TAKEN_BY.items()
             if name not in census[key]["taken"]}
    assert wrong == {}


def test_no_shipped_scenario_restates_a_default(census):
    restated = {key: uses["restated"] for key, uses in census.items()
                if uses["restated"]}
    assert restated == {}


# --- the README reference ---------------------------------------------------

def _kind_text(kind) -> str:
    name = kind[0]
    if name == "tag":
        return "one of " + ", ".join(f"`{v}`" for v in kind[2])
    if name == "names":
        return "list of " + ", ".join(f"`{v}`" for v in kind[2])
    if name == "limit":
        return "number > 0"
    if name == "object" and kind[1] is _GAIN[1]:
        return "gain"
    return {"number": "number", "finite": "finite number",
            "count": "whole number", "bool": "true or false",
            "text": "string", "numbers": "numbers",
            "finites": "finite numbers", "section": "object",
            "costs": "list of cost terms", "object": "object"}[name]


def _default_text(default) -> str:
    if default in (_REQUIRED, None):
        return {None: "none"}.get(default, default)
    return f"`{json.dumps(default)}`"


def reference() -> str:
    """The README's table of scenario keys, written from the key table:
    each object's keys, then the objects below them."""
    rows = ["| object | key | kind | default |", "| --- | --- | --- | --- |"]
    seen = set()

    def add(title, table):
        if id(table) in seen:  # the gain's table, once
            return
        seen.add(id(table))
        rows.extend(f"| {title} | `{key}` | {_kind_text(kind)} | "
                    f"{_default_text(default)} |"
                    for key, (kind, default) in table.items())
        for key, (kind, _) in table.items():
            if kind[0] == "object":
                add("gain" if kind[1] is _GAIN[1] else f"{title}: {key}",
                    kind[1])
            elif kind[0] == "tag":
                for sub in {id(t): t for t in kind[2].values()}.values():
                    values = ", ".join(f"`{v}`" for v, t in kind[2].items()
                                       if t is sub)
                    add(f"{title}, {key} {values}", sub)
            elif kind[0] == "costs":
                add("cost term", _TERM)

    for section, table in _TABLE.items():
        add(section, table)
        if section == "gains":
            for controller, extra in _GAINS.items():
                add(f"gains, controller `{controller}`", extra)
    return "\n".join(rows)


def test_gain_families_are_the_library_families():
    assert set(_GAIN[1]["family"][0][2]) == set(timegain._RANGES)


def test_readme_reference_matches_the_table():
    readme = (ROOT / "README.md").read_text()
    assert reference() in readme, (
        "rewrite the README's table of scenario keys from reference()")


# --- builds of mutated bundled scenarios -------------------------------------

# a value of each kind; a retyped key takes one its kind does not read
SAMPLES = {"number": 1.5, "count": 3, "bool": True, "text": "x",
           "array": [[1.0, 2.0]], "object": {}, "null": None}
READS = {"number": ("number", "count"), "finite": ("number", "count"),
         "limit": ("number", "count"), "count": ("count",),
         "bool": ("bool",), "text": ("text",),
         "numbers": ("number", "count", "array"),
         "finites": ("number", "count", "array"), "object": ("object",),
         "section": ("object",)}


def _mutate(raw: dict, path: tuple, kind, how: str, draw) -> None:
    parent = raw
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if how == "drop":
        del parent[key]
    elif how == "misspell":
        parent[key + "x"] = parent.pop(key)
    elif how == "retype":
        parent[key] = copy.deepcopy(SAMPLES[draw(st.sampled_from(sorted(
            set(SAMPLES) - set(READS.get(kind[0], ())))))])
    else:  # reshape an array: one entry fewer, wrapped once more, or its
        # first entry
        v = parent[key]
        parent[key] = draw(st.sampled_from(
            [v[:-1], [v], v[0]] if isinstance(v, list) and v else [[v]]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", BUNDLED)
def test_mutated_scenario_builds_or_is_refused_in_its_section(name, data):
    raw = json.loads((SCEN_DIR / f"{name}.json").read_text())
    paths = sorted(((path, kind) for path, _, kind, _ in _walk(raw)
                    if path is not None), key=str)
    path, kind = data.draw(st.sampled_from(paths))
    shapeable = kind[0] in ("numbers", "finites", "costs")
    how = data.draw(st.sampled_from(
        ["drop", "misspell", "retype"] + ["reshape"] * shapeable))
    _mutate(raw, path, kind, how, data.draw)
    try:
        Scenario(raw, "mutated.json").build()
    except ScenarioError as exc:
        msg = str(exc)
        # the growth criteria weigh the network and the costs against the
        # gains, and fail at gains, where the override is
        located = [f"mutated.json: {path[0]}", "mutated.json: gains: growth"]
        if len(path) == 1:  # a section itself, or the name
            located.append("mutated.json: top level")
        assert msg.startswith(tuple(located)), (path, how, msg)
