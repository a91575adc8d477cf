"""Public API surface and documentation-coverage checks.

Deliverable guards: every name re-exported at the top level exists, is
importable, and carries a docstring; every module in the package has a
module docstring; the README's advertised entry points work.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import api


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":
            continue  # executes the CLI on import
        yield importlib.import_module(info.name)


class TestApiSurface:
    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted_and_unique(self):
        names = list(repro.__all__)
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "name",
        [
            "Job",
            "Organization",
            "Workload",
            "RefScheduler",
            "RandScheduler",
            "DirectContributionScheduler",
            "FairShareScheduler",
            "StrategyProofUtility",
            "SchedulingGame",
            "shapley_exact",
            "avg_delay",
            "make_trace",
            "load_swf",
        ],
    )
    def test_headline_names_present(self, name):
        assert name in repro.__all__


class TestDocumentation:
    def test_every_module_has_docstring(self):
        for mod in _walk_modules():
            assert mod.__doc__ and mod.__doc__.strip(), mod.__name__

    def test_every_public_export_has_docstring(self):
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__ and obj.__doc__.strip(), name

    def test_public_methods_of_core_classes_documented(self):
        for cls in (
            repro.Workload,
            repro.ClusterEngine,
            repro.Schedule,
            repro.RefScheduler,
            repro.RandScheduler,
        ):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    assert member.__doc__, f"{cls.__name__}.{name}"


class TestSubpackages:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.utility",
            "repro.shapley",
            "repro.algorithms",
            "repro.workloads",
            "repro.analysis",
            "repro.sim",
            "repro.experiments",
            "repro.extensions",
            "repro.viz",
            "repro.cli",
        ],
    )
    def test_importable(self, module):
        importlib.import_module(module)

    def test_subpackage_alls_resolve(self):
        for mod in _walk_modules():
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), f"{mod.__name__}.{name}"


def _modules_after(statement: str) -> "set[str]":
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(json.loads(out.stdout))


def _loaded(modules: "set[str]", package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


class TestLazyImports:
    """A process imports only what it runs (counts, no clock)."""

    @pytest.mark.parametrize("statement", ["import repro", "from repro import api"])
    def test_top_level_loads_only_the_facade(self, statement):
        ours = {m for m in _modules_after(statement) if _loaded({m}, "repro")}
        assert ours == {"repro", "repro.api"}

    def test_gateway_worker_skips_unused_layers(self):
        modules = _modules_after("import repro.gateway.worker")
        assert "repro.gateway.worker" in modules
        for package in ("networkx", "repro.experiments", "repro.approx", "repro.sim"):
            assert not _loaded(modules, package), package

    def test_names_resolve_to_their_definitions(self):
        from repro.algorithms.ref import RefScheduler
        from repro.service.service import ClusterService

        assert repro.RefScheduler is RefScheduler
        assert api.ClusterService is ClusterService

    @pytest.mark.parametrize("module", [repro, api], ids=["repro", "api"])
    def test_star_import_and_dir_cover_all(self, module):
        assert set(module.__all__) <= set(dir(module))
        namespace: dict = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= namespace.keys()

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope  # noqa: B018
        assert not hasattr(api, "nope")
