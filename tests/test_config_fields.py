"""Every config field the CLI declares refuses every malformed value.

The bad values are built from the declarations themselves
(`randamp.cli.CONFIG_FIELDS` and `SIMULATE_OPTIONS`): each wrong JSON kind,
1e400 and NaN, values out of the declared range (10**30 among them), a
missing required field and an unknown sibling key.  Each must exit 2 with
one `config error:` line naming the field, raise nothing and write no file.
The README's config fields are checked against the same declarations.
"""

import json
import math
import re
from pathlib import Path

import pytest

import randamp.sv
from randamp.cli import CONFIG_FIELDS, REQUIRED, SIMULATE_OPTIONS, _object, main

HUGE = "<1e400>"  # written into the config file as the JSON literal 1e400
WRONG_KINDS = {"string": "x", "bool": True, "null": None, "list": [], "object": {}}
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def sample(field):
    """A value the field accepts."""
    if field.kind == "object":
        return accepted(field.fields)
    if field.kind == "choice":
        return next(iter(field.fields))
    entry = max(field.low, 1) if field.kind in ("integer", "integers", "uses") else 0.5
    return {"integers": [entry], "uses": [entry], "numbers": [entry], "table": [[entry]],
            "flag": False}.get(field.kind, entry)


def accepted(fields, picks=None):
    """The least object the fields accept: each required field at a sample
    value, each choice at its value in picks, else (if required) its first."""
    obj, pending = {}, list(fields.items())
    for name, field in pending:
        if field.kind == "choice" and (name in (picks or {}) or field.default is REQUIRED):
            obj[name] = (picks or {}).get(name, next(iter(field.fields)))
            pending.extend(field.fields[obj[name]].items())
        elif field.default is REQUIRED:
            obj[name] = sample(field)
    return obj


def objects(fields, path=""):
    """(path, fields in force, accepted object) for the root and every
    nested object, once for each value of a choice that adds fields."""
    adding = [(name, value) for name, field in fields.items() if field.kind == "choice"
              for value, extra in field.fields.items() if extra]
    for picks in [{name: value} for name, value in adding] or [{}]:
        in_force = dict(fields)
        for name, value in picks.items():
            in_force.update(fields[name].fields[value])
        yield path, in_force, accepted(fields, picks)
        for name, field in in_force.items():
            if field.kind == "object":
                yield from objects(field.fields, f"{path}{name}.")


def out_of_range(field):
    values = [] if field.low == -math.inf else [field.low - 1]
    if field.high != math.inf:
        values += [field.high + 1] + ([10**30] if field.high < 10**30 else [])
    return values


def bad_values(field):
    """Values of every JSON kind and range the field refuses."""
    kind = field.kind
    right = {"flag": "bool", "object": "object"}.get(kind)  # a JSON kind the field takes, so not a wrong one
    if kind in ("integers", "uses", "numbers", "table") and not field.nonempty:
        right = "list"
    wrong = [v for name, v in WRONG_KINDS.items() if name != right] + [HUGE, math.nan]
    if kind == "integer":
        return wrong + [1.5] + out_of_range(field)
    if kind == "number":
        return wrong + [10**400] + out_of_range(field)
    if kind in ("integers", "uses"):
        entries = ["x", True, None, 1.5, HUGE, math.nan] + out_of_range(field)
        return wrong + [[v] for v in entries] + ([1.5] + out_of_range(field) if kind == "uses" else [])
    if kind == "numbers":
        return wrong + [[v] for v in ("x", True, None, [0.5], {}, HUGE, math.nan, *out_of_range(field))]
    if kind == "table":
        return wrong + [[[v]] for v in ("x", True, None, {}, HUGE, math.nan)] + [[None]]
    return wrong + (["garbage"] if kind == "choice" else [0, 1] if kind == "flag" else [])


def cases():
    """(command, field path, a config the declarations accept, [(that
    config with one fault, what the message must hold)])."""
    for command, root in CONFIG_FIELDS.items():
        base = accepted(root.fields)
        for path, fields, obj in objects(root.fields):
            def config(inner, path=path):
                if not path:
                    return inner
                head = path[:-1]
                rest = {k: v for k, v in base.items() if root.fields[k].instead != head}
                return {**rest, head: inner}

            yield command, f"{path}<unknown>", config(obj), [(config({**obj, "bogus": 1}), f"'{path}bogus'")]
            for name, field in fields.items():
                bad = [({**obj, name: v}, f"'{path}{name}") for v in bad_values(field)]
                if field.default is REQUIRED:
                    missing = {k: v for k, v in obj.items() if k != name}
                    bad.append((missing, f"missing field '{path}{name}'"))
                if field.instead:
                    both = {**obj, name: sample(field), field.instead: sample(fields[field.instead])}
                    bad.append((both, f"'{path}{name}' and '{path}{field.instead}'"))
                yield command, path + name, config(obj), [(config(cfg), named) for cfg, named in bad]


CASES = list(cases())


def write(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace(json.dumps(HUGE), "1e400"))
    return str(path)


def refuse(argv, out, named, capsys):
    assert main([*argv, "--out", str(out)]) == 2, argv
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1, captured.err
    assert named in captured.err, (named, captured.err)
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(("command", "field", "good", "bad"), CASES, ids=[f"{c}:{f}" for c, f, _, _ in CASES])
def test_every_malformed_value_is_a_config_error(tmp_path, capsys, command, field, good, bad):
    _object(good, CONFIG_FIELDS[command], "")  # so each fault below is the only one
    for cfg, named in bad:
        refuse([command, "--config", write(tmp_path, cfg)], tmp_path / "out", named, capsys)


@pytest.mark.parametrize("option", SIMULATE_OPTIONS)
def test_simulate_options_out_of_range(tmp_path, capsys, option):
    cfg = write(tmp_path, accepted(CONFIG_FIELDS["simulate"].fields))
    values = out_of_range(SIMULATE_OPTIONS[option])
    assert values
    for value in values:
        refuse(["simulate", "--config", cfg, f"--{option}", str(value)], tmp_path / "out", f"option '--{option}'",
               capsys)


def test_the_cases_cover_every_declared_field():
    declared = set()
    for command, root in CONFIG_FIELDS.items():
        for path, fields, _ in objects(root.fields):
            declared |= {(command, path + name) for name in fields}
    covered = {(command, field) for command, field, _, bad in CASES if len(bad) >= 3}
    assert declared <= covered
    assert {("simulate", "device.table"), ("simulate", "sv.setting"), ("definetti", "schedule.k")} <= declared


def test_readme_config_fields_match_the_declarations():
    """The README's "config fields" column lists each command's declared
    top-level fields, no more and no fewer, and every nested field or
    choice it names (`device.table`, `sv.bias`, ...) is declared."""
    for command, root in CONFIG_FIELDS.items():
        row = re.search(rf"^\| `{re.escape(command)}` \|.*\| ([^|]*) \|$", README, re.M)
        assert row, command
        assert set(re.findall(r"`(\w+)`", row.group(1))) == set(root.fields), command
    nested = {}
    for root in CONFIG_FIELDS.values():
        for path, fields, _ in objects(root.fields):
            if path:
                nested.setdefault(path[:-1], set()).update(fields)
                nested[path[:-1]].update(v for f in fields.values() if f.kind == "choice" for v in f.fields)
    assert set(nested) == {"device", "sv", "system", "schedule"}
    for parent, name in re.findall(r"`(device|sv|system|schedule)\.(\w+)`", README):
        if not (parent == "sv" and hasattr(randamp.sv, name)):  # `sv.code_law` is the module's
            assert name in nested[parent], (parent, name)
    for parent, names in nested.items():
        for name in names:
            assert f"`{name}`" in README or f"`{parent}.{name}`" in README, (parent, name)
