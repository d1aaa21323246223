"""Tests for the top-level package surface and lazy exports."""

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_eager_exports(self):
        assert repro.DataFlowGraph is not None
        assert repro.ResourceLibrary is not None
        assert callable(repro.paper_library)

    def test_lazy_core_exports(self):
        # these import repro.core on first access
        assert callable(repro.find_design)
        assert callable(repro.baseline_design)
        assert callable(repro.combined_design)
        assert repro.DesignResult is not None

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.frobnicate

    def test_exception_hierarchy(self):
        assert issubclass(repro.DFGError, repro.ReproError)
        assert issubclass(repro.LibraryError, repro.ReproError)
        assert issubclass(repro.SchedulingError, repro.ReproError)
        assert issubclass(repro.BindingError, repro.ReproError)
        assert issubclass(repro.NoSolutionError, repro.ReproError)
        assert issubclass(repro.CharacterizationError, repro.ReproError)

    def test_docstring_quickstart_runs(self):
        # the snippet in the package docstring must actually work
        from repro import paper_library, find_design
        from repro.bench import fir16

        design = find_design(fir16(), paper_library(),
                             latency_bound=11, area_bound=8)
        assert 0 < design.reliability < 1
        assert design.area <= 8
        assert design.latency <= 11

    def test_cli_and_find_design_load_no_third_party_module(self):
        # the synthesis flow runs on the standard library alone (numpy
        # is optional, for Monte Carlo's vectorized campaign); a fresh
        # interpreter keeps every import honest.  ``__mp_main__`` is
        # multiprocessing's alias of ``__main__``, not a package.  Process
        # pools are not loaded either: only parallel sweeps import them.
        import subprocess
        import sys

        code = ("import sys; before = set(sys.modules); import repro.cli; "
                "from repro.core import find_design; "
                "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
                "print(sorted(loaded - set(sys.stdlib_module_names)"
                " - {'repro', '__mp_main__'}), "
                "'repro.parallel' in sys.modules, "
                "'concurrent.futures.process' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[] False False"

    def test_import_and_library_load_no_numpy(self):
        # no import path of the package or its library loads numpy
        import subprocess
        import sys

        code = ("import sys; import repro; "
                "from repro.library import paper_library; paper_library(); "
                "print('numpy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_subpackages_import(self):
        import repro.bench
        import repro.charlib
        import repro.core
        import repro.dfg
        import repro.experiments
        import repro.hls
        import repro.library
        import repro.reliability

        for module in (repro.bench, repro.charlib, repro.core, repro.dfg,
                       repro.experiments, repro.hls, repro.library,
                       repro.reliability):
            assert module.__doc__

    def test_every_all_name_resolves(self):
        # a stale `__all__` entry breaks only `from module import *`,
        # which no ordinary import exercises
        import importlib
        import pkgutil

        stale = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith(".__main__"):
                continue
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", ()):
                if not hasattr(module, name):
                    stale.append(f"{info.name}.{name}")
        assert stale == []
