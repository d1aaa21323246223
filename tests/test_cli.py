"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.dfg import DFGBuilder
from repro.dfg import textio
from repro.library import io as library_io
from repro.library import paper_library


class TestSynth:
    def test_ours(self, capsys):
        assert main(["synth", "diffeq", "-l", "6", "-a", "11"]) == 0
        out = capsys.readouterr().out
        assert "reliability" in out
        assert "find_design" in out

    def test_baseline(self, capsys):
        assert main(["synth", "fir", "-l", "10", "-a", "9",
                     "--method", "baseline"]) == 0
        assert "baseline-nmr" in capsys.readouterr().out

    def test_schedule_flag(self, capsys):
        assert main(["synth", "diffeq", "-l", "6", "-a", "11",
                     "--schedule"]) == 0
        assert "Step" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["synth", "diffeq", "-l", "6", "-a", "11",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"] == "diffeq"
        assert 0 < payload["reliability"] < 1

    def test_infeasible_returns_2(self, capsys):
        assert main(["synth", "fir", "-l", "3", "-a", "9"]) == 2
        assert "no solution" in capsys.readouterr().err

    def test_unknown_benchmark_returns_1(self, capsys):
        assert main(["synth", "aes", "-l", "5", "-a", "9"]) == 1
        assert "error" in capsys.readouterr().err

    def test_graph_from_file(self, tmp_path, capsys):
        builder = DFGBuilder("mini")
        a = builder.adder()
        builder.mul(deps=[a])
        path = tmp_path / "mini.dfg"
        textio.save(builder.build(), path)
        assert main(["synth", str(path), "-l", "6", "-a", "8"]) == 0
        assert "mini" in capsys.readouterr().out

    def test_library_from_file(self, tmp_path, capsys):
        path = tmp_path / "lib.json"
        library_io.save(paper_library(), path)
        assert main(["synth", "diffeq", "-l", "6", "-a", "11",
                     "--library", str(path)]) == 0

    def test_versions_area_model(self, capsys):
        assert main(["synth", "fir", "-l", "11", "-a", "8",
                     "--area-model", "versions"]) == 0


class TestBench:
    def test_list(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        for name in ("fir", "ew", "diffeq"):
            assert name in out

    def test_inspect(self, capsys):
        assert main(["bench", "fir"]) == 0
        out = capsys.readouterr().out
        assert "operations: 23" in out


class TestCharacterize:
    def test_calibrated_only(self, capsys):
        assert main(["characterize", "--calibrated-only"]) == 0
        out = capsys.readouterr().out
        assert "0.98702" in out  # predicted Kogge-Stone point

    def test_full(self, capsys):
        assert main(["characterize", "--bits", "4"]) == 0
        assert "characterized" in capsys.readouterr().out


class TestExperiment:
    def test_fig5(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        assert "0.82783" in capsys.readouterr().out

    def test_table2c(self, capsys):
        assert main(["experiment", "table2c"]) == 0
        assert "0.70723" in capsys.readouterr().out

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table9"])


class TestExplore:
    def test_sweep(self, capsys):
        assert main(["explore", "diffeq", "--latencies", "5", "6",
                     "--areas", "11"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out


class TestEngineFlags:
    def test_synth_stats(self, capsys):
        assert main(["synth", "diffeq", "-l", "6", "-a", "11",
                     "--stats"]) == 0
        captured = capsys.readouterr()
        assert "engine statistics" in captured.err
        assert "evaluations requested" in captured.err
        assert "engine statistics" not in captured.out  # stdout stays clean

    def test_explore_stats(self, capsys):
        assert main(["explore", "diffeq", "--latencies", "5", "6",
                     "--areas", "11", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "Pareto frontier" in captured.out
        assert "engine statistics" in captured.err

    def test_explore_workers_matches_serial(self, capsys):
        assert main(["explore", "diffeq", "--latencies", "5", "6",
                     "--areas", "11"]) == 0
        serial = capsys.readouterr().out
        assert main(["explore", "diffeq", "--latencies", "5", "6",
                     "--areas", "11", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_experiment_workers(self, capsys):
        assert main(["experiment", "fig5", "--workers", "2"]) == 0
        assert "Figure 5" in capsys.readouterr().out


class TestCacheDir:
    def _snapshot_file(self, tmp_path):
        from repro.core import cache_store

        return cache_store.snapshot_path(str(tmp_path))

    def test_synth_writes_and_reuses_a_snapshot(self, tmp_path, capsys):
        import os

        from repro.core import EvaluationEngine, cache_store, find_design
        from repro.core import merge_snapshot
        from repro.bench import diffeq
        from repro.library import paper_library

        args = ["synth", "diffeq", "-l", "6", "-a", "11",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        path = self._snapshot_file(tmp_path)
        assert os.path.exists(path)
        # the saved snapshot must carry real cache entries that answer
        # an equivalent search from memory
        engine = EvaluationEngine()
        assert merge_snapshot(engine, cache_store.load(path)) > 0
        find_design(diffeq(), paper_library(), 6, 11, engine=engine)
        assert engine.stats.hits > 0
        # and a second CLI run against the cache prints the same design
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_infeasible_synth_still_persists_exploration(self, tmp_path,
                                                         capsys):
        import os

        assert main(["synth", "fir", "-l", "3", "-a", "9",
                     "--cache-dir", str(tmp_path)]) == 2
        capsys.readouterr()
        assert os.path.exists(self._snapshot_file(tmp_path))

    def test_corrupted_snapshot_warns_and_runs_cold(self, tmp_path,
                                                    capsys):
        assert main(["synth", "diffeq", "-l", "6", "-a", "11",
                     "--cache-dir", str(tmp_path)]) == 0
        good = capsys.readouterr().out
        path = self._snapshot_file(tmp_path)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        assert main(["synth", "diffeq", "-l", "6", "-a", "11",
                     "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == good
        assert "ignoring engine cache" in captured.err
        assert "integrity" in captured.err

    def test_version_mismatch_warns_and_runs_cold(self, tmp_path, capsys):
        from repro.core import cache_store

        path = self._snapshot_file(tmp_path)
        with open(path, "wb") as fh:
            fh.write(cache_store.MAGIC + b" v999\ndeadbeef\npayload")
        assert main(["synth", "diffeq", "-l", "6", "-a", "11",
                     "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "reliability" in captured.out
        assert "ignoring engine cache" in captured.err
        assert "999" in captured.err

    @staticmethod
    def _write_payload(path, version, payload):
        """A digest-valid snapshot file of format *version*."""
        import hashlib
        import pickle

        from repro.core import cache_store

        data = pickle.dumps({"version": version, **payload})
        with open(path, "wb") as fh:
            fh.write(cache_store.MAGIC + b" v%d\n" % version
                     + hashlib.sha256(data).hexdigest().encode("ascii")
                     + b"\n" + data)

    def test_v1_snapshot_is_ignored_and_rewritten(self, tmp_path, capsys):
        """A snapshot from before probes held latencies (format v1),
        before the latency-path layer (format v2), before schedule
        points dropped their bindings (format v3) or with keys in
        content form (format v4) is a version mismatch: the run goes
        cold and saves a current file."""
        from repro.core import cache_store

        args = ["synth", "fir", "-l", "11", "-a", "8"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        for version in (1, 2, 3, 4):
            cache_dir = tmp_path / f"v{version}"
            cache_dir.mkdir()
            path = self._snapshot_file(cache_dir)
            self._write_payload(path, version, {"layers": {"probes": []}})
            assert main(args + ["--cache-dir", str(cache_dir)]) == 0
            captured = capsys.readouterr()
            assert captured.out == cold
            assert "ignoring engine cache" in captured.err
            assert f"format version {version}" in captured.err
            with open(path, "rb") as fh:
                assert fh.read().startswith(
                    cache_store.MAGIC
                    + b" v%d\n" % cache_store.SNAPSHOT_VERSION)
            layers = cache_store.load(path).layers
            assert layers["probes"] and layers["paths"]

    def test_v5_snapshot_is_reported_and_ignored(self, tmp_path, capsys):
        """A snapshot in the format-5 layout (evaluation keys with a
        trailing ``stop_at_area`` slot, timing values holding ASAP
        starts and the latency) is a version mismatch: the run prints
        what a cold run prints and saves a current file."""
        from repro.bench import fir16
        from repro.core import EvaluationEngine, cache_store, find_design
        from repro.library import paper_library

        args = ["synth", "fir", "-l", "11", "-a", "8"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        engine = EvaluationEngine()
        find_design(fir16(), paper_library(), 11, 8, engine=engine)
        state = engine.cache_state()
        layers = state["layers"]
        layers["evaluations"] = {key + (None,): value for key, value
                                 in layers["evaluations"].items()}
        layers["timing"] = {key: ({}, latency) for key, latency
                            in layers["timing"].items()}
        path = self._snapshot_file(tmp_path)
        self._write_payload(path, 5, state)
        assert main(args + ["--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert "ignoring engine cache" in captured.err
        assert "format version 5" in captured.err
        restored = cache_store.load(path)
        assert restored.version == cache_store.SNAPSHOT_VERSION
        assert all(type(latency) is int
                   for latency in restored.layers["timing"].values())

    def test_inconsistent_key_tables_warn_and_run_cold(self, tmp_path,
                                                       capsys):
        """A digest-valid current-format file whose graph key table
        gives two graphs one id is ignored, and a good file replaces
        it."""
        from repro.core import EvaluationEngine, cache_store, merge_snapshot

        args = ["synth", "fir", "-l", "11", "-a", "8"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        path = self._snapshot_file(tmp_path)
        self._write_payload(path, cache_store.SNAPSHOT_VERSION, {
            "graph_keys": {("a",): 0, ("b",): 0}, "version_codes": {},
            "layers": {}})
        assert main(args + ["--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert "ignoring engine cache" in captured.err
        assert "inconsistent graph key table" in captured.err
        assert merge_snapshot(EvaluationEngine(), cache_store.load(path)) > 0

    def test_explore_cache_dir_output_is_stable(self, tmp_path, capsys):
        args = ["explore", "diffeq", "--latencies", "5", "6",
                "--areas", "11", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_experiment_workers_cache_dir(self, tmp_path, capsys):
        import os

        assert main(["experiment", "fig5", "--workers", "2",
                     "--cache-dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert "Figure 5" in first
        assert os.path.exists(self._snapshot_file(tmp_path))
        assert main(["experiment", "fig5", "--workers", "2",
                     "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("command", [
        ["experiment", "fig8", "--workers", "2"],
        ["explore", "diffeq", "--latencies", "5", "6", "--areas", "11",
         "--workers", "2"],
    ], ids=["experiment", "explore"])
    def test_all_tasks_in_workers_leave_the_snapshot_alone(
            self, tmp_path, capsys, command):
        """When every task runs in a worker, nothing reads the parent's
        snapshot: the run neither loads nor re-saves it, and says so."""
        import os

        assert main(["synth", "diffeq", "-l", "6", "-a", "11",
                     "--cache-dir", str(tmp_path)]) == 0
        path = self._snapshot_file(tmp_path)
        with open(path, "rb") as fh:
            before = fh.read()
        mtime = os.stat(path).st_mtime_ns
        capsys.readouterr()
        assert main(command + ["--cache-dir", str(tmp_path)]) == 0
        assert "--cache-dir" in capsys.readouterr().err
        assert os.stat(path).st_mtime_ns == mtime
        with open(path, "rb") as fh:
            assert fh.read() == before

    def test_checkpoints_skip_suites_run_in_workers(self, tmp_path,
                                                    monkeypatch, capsys):
        """`experiment all --workers 2 --cache-dir` saves after each of
        the six one-task suites run in-process, never after the four
        suites sent out to workers, which leave the parent's engine as
        it was.  Suite results are stubbed: only the saves count."""
        from repro.core import cache_store
        from repro.experiments import runner

        class Table:
            def as_text(self):
                return "table"

        monkeypatch.setattr(runner, "run_tasks",
                            lambda tasks, workers=None: [Table()] * len(tasks))
        saves = []
        monkeypatch.setattr(cache_store, "save",
                            lambda snapshot, path: saves.append(path))
        assert main(["experiment", "all", "--workers", "2",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(saves) == 6

    def test_experiment_all_flushes_between_tables(self, tmp_path,
                                                   monkeypatch, capsys):
        """`experiment all --cache-dir` must persist after *each*
        table/figure, so a crash mid-run keeps the earlier work.  A
        driver that dies on the second suite proves it: the first
        suite's snapshot is already on disk."""
        import os

        from repro import experiments

        path = self._snapshot_file(tmp_path)
        seen = {}

        def boom():
            # observed *at crash time*: the previous suites must have
            # flushed already (an exit-time save cannot explain this)
            seen["snapshot_exists"] = os.path.exists(path)
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(experiments, "run_fig7", boom, raising=True)
        with pytest.raises(RuntimeError, match="simulated crash"):
            main(["experiment", "all", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert seen["snapshot_exists"], \
            "no snapshot persisted before the crash"
        from repro.core import EvaluationEngine, cache_store, merge_snapshot

        engine = EvaluationEngine()
        assert merge_snapshot(engine, cache_store.load(path)) > 0

