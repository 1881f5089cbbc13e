"""The package's re-exports: each name is its home module's object, and is
imported from there only when first used."""

import importlib

import pytest

import fusecast

from conftest import run_python

#: Each name README documents under "Library use" and the demos import.
HOMES = {
    "Compass": "model",
    "Condition": "model",
    "ForecastError": "errors",
    "build_theory": "tournament",
    "classify": "lexicon",
    "conclusions": "reasoner",
    "extract_scenario": "bulletin",
    "render_document": "bulletin",
    "render_sharp": "bulletin",
    "render_smooth": "bulletin",
    "serialize_theory": "theory",
}


def test_all_names_the_documented_exports():
    assert sorted(fusecast.__all__) == sorted(HOMES)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"fusecast.{HOMES[name]}")
    assert getattr(fusecast, name) is getattr(home, name)


def test_star_import_yields_every_export():
    namespace = {}
    exec("from fusecast import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == HOMES.keys()
    assert all(value is getattr(fusecast, name) for name, value in namespace.items())


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fusecast.no_such_name


def test_bare_import_loads_no_stage_module():
    """`import fusecast` loads the package alone; one export loads its home
    module and what that imports, and no other stage."""
    done = run_python(["-c", "import sys, fusecast; print(*sorted(sys.modules)); "
                             "fusecast.conclusions; print(*sorted(sys.modules))"])
    assert done.returncode == 0, done.stderr
    bare, after_conclusions = ({name for name in line.split() if name.startswith("fusecast")}
                               for line in done.stdout.splitlines())
    assert bare == {"fusecast"}
    assert after_conclusions == {"fusecast", "fusecast.errors", "fusecast.inputs",
                                 "fusecast.model", "fusecast.theory", "fusecast.reasoner"}
