"""The package's module layout: what each module imports and defines."""

import ast
from pathlib import Path

import memnet_sim
from memnet_sim import config as cf
from memnet_sim import harness as h

PACKAGE = Path(memnet_sim.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
TREES = {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) for name in MODULES}


def package_imports(tree) -> set[str]:
    """The package modules a module's import statements name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("memnet_sim"):
            found.add(node.module.partition(".")[2] or "memnet_sim")
        elif isinstance(node, ast.Import):
            names = (a.name for a in node.names if a.name.startswith("memnet_sim."))
            found |= {name.partition(".")[2] for name in names}
    return found


def ruled_dataclasses(tree) -> list[str]:
    """Classes with a field whose default is a ``ruled(...)`` call."""
    def is_ruled(value) -> bool:
        func = value.func if isinstance(value, ast.Call) else None
        return getattr(func, "attr", getattr(func, "id", None)) == "ruled"

    return [
        cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(s, ast.AnnAssign) and is_ruled(s.value) for s in cls.body)
    ]


def top_level_names(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def test_all_lists_every_module():
    assert sorted(memnet_sim.__all__) == MODULES


def test_rules_is_a_leaf_that_only_config_and_optics_import():
    assert package_imports(TREES["rules"]) == set()
    importers = sorted(name for name, tree in TREES.items() if "rules" in package_imports(tree))
    assert importers == ["config", "optics"]


def test_config_classes_live_in_config():
    owners = {name: ruled_dataclasses(tree) for name, tree in TREES.items()}
    assert {name for name, classes in owners.items() if classes} == {"config"}
    configs = {"NodeConfig", "DetectorConfig", "TimingConfig", "ExperimentConfig"}
    assert set(owners["config"]) == configs


def test_config_input_left_the_physics_modules():
    checker = {"Rule", "check", "check_fields", "ruled", "read_text"}
    assert not checker & top_level_names(TREES["quantum"])
    assert package_imports(TREES["detection"]) == set()
    assert not {"node", "detection"} & package_imports(TREES["config"])


def names_and_texts(tree) -> set[str]:
    """Every name, attribute and string constant a module's code holds."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_scenario_input_is_checked_in_config_alone():
    found = names_and_texts(TREES["harness"])
    assert "SCENARIO_PARAMS" not in found
    for text in ("unknown scenario_params", "needs at least"):
        assert not [s for s in found if text in s], text
    assert "SCENARIO_PARAMS" in names_and_texts(TREES["config"])


def test_every_scenario_has_a_runner_and_a_parameter_table():
    assert set(cf.SCENARIO_PARAMS) == set(h._RUNNERS)
