"""Tests for the trace dump tool and the study CLI."""

import re

import pytest

from repro.fp.formats import float_to_bits64 as b64
from repro.fpspy import fpspy_env
from repro.isa.instruction import CodeLayout, FPInstruction
from repro.kernel.kernel import Kernel
from repro.study.cli import (
    build_parser,
    layer_self_times,
    main as cli_main,
    render_layer_table,
)
from repro.trace.dump import dump_individual, dump_vfs, format_record


def traced_kernel():
    layout = CodeLayout()
    div = layout.site("divsd")

    def main():
        for _ in range(5):
            yield FPInstruction(div, ((b64(1.0), b64(0.0)),))

    k = Kernel()
    k.exec_process(main, env=fpspy_env("individual"), name="dumptest")
    k.run()
    return k


class TestDump:
    def test_dump_individual_renders_rows(self):
        k = traced_kernel()
        (path,) = [p for p in k.vfs.listdir() if p.endswith(".ind")]
        text = dump_individual(k.vfs.read(path))
        assert "divsd" in text
        assert "DivideByZero" in text
        assert text.count("\n") == 6  # header + 5 rows, newline-terminated

    def test_dump_limit_elides(self):
        k = traced_kernel()
        (path,) = [p for p in k.vfs.listdir() if p.endswith(".ind")]
        text = dump_individual(k.vfs.read(path), limit=2)
        assert "3 more records" in text

    def test_dump_vfs_includes_meta(self):
        k = traced_kernel()
        text = dump_vfs(k.vfs)
        assert "fpspy-meta" in text
        assert "dumptest" in text

    def test_format_record_handles_undecodable_insn(self):
        from repro.trace.records import IndividualRecord

        rec = IndividualRecord(
            seq=0, time=0.0, rip=0, rsp=0, mxcsr=0, sicode=0, codes=1,
            insn=b"\xde\xad\xbe\xef\x00",
        )
        assert "deadbeef" in format_record(rec)


class TestCLI:
    def test_parser_subcommands(self):
        p = build_parser()
        args = p.parse_args(["figures", "--only", "fig08"])
        assert args.command == "figures" and args.only == ["fig08"]
        args = p.parse_args(["spy", "miniaero", "--mode", "individual"])
        assert args.app == "miniaero"

    def test_figures_fig08_only(self, capsys):
        assert cli_main(["figures", "--only", "fig08"]) == 0
        out = capsys.readouterr().out
        assert "Source code analysis" in out
        assert "GROMACS" in out

    def test_figures_written_to_directory(self, tmp_path, capsys):
        assert cli_main(
            ["figures", "--only", "fig08", "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "fig08.txt").exists()

    def test_spy_unknown_app(self, capsys):
        assert cli_main(["spy", "nonexistent"]) == 2

    def test_spy_runs_app(self, capsys):
        assert cli_main(["spy", "moose", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "moose" in out and "simulated wall time" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli_main([])

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf", "abc"])
    @pytest.mark.parametrize("argv", [
        ["spy", "miniaero"],
        ["telemetry", "run", "miniaero"],
        ["trace", "record", "miniaero"],
        ["figures"],
        ["report"],
        ["overhead"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_scale_must_be_finite_and_positive(self, argv, scale, capsys):
        """Every ``--scale`` obeys the campaign spec's rule: exit 2 with
        a message, before anything runs."""
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--scale", scale])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid scale {scale!r}" in err


class TestTelemetryCLI:
    def test_run_dumps_table_and_snapshot(self, tmp_path, capsys):
        out_json = tmp_path / "snap.json"
        assert cli_main(
            ["telemetry", "run", "moose", "--scale", "0.2",
             "--out", str(out_json)]
        ) == 0
        out = capsys.readouterr().out
        assert "fpspy-telemetry enabled" in out
        assert "kernel.sched.slices" in out
        assert out_json.exists()

    def test_run_unknown_app(self, capsys):
        assert cli_main(["telemetry", "run", "nonexistent"]) == 2

    def test_run_profile_prints_table(self, capsys):
        assert cli_main(
            ["telemetry", "run", "moose", "--scale", "0.2", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        table = out[out.index("layer "):].splitlines()[2:]
        rows = {line.split()[0]: float(line.split()[1]) for line in table}
        for layer in ("fp", "machine", "total"):
            assert layer in rows
        total = rows.pop("total")
        # Rows print rounded to the microsecond.
        assert sum(rows.values()) == pytest.approx(total, abs=1e-3 * len(rows))

    def test_layer_self_times_partition_the_total(self):
        import os

        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        stats = {
            (os.path.join(root, "fp", "softfloat.py"), 10, "add"):
                (3, 3, 0.25, 0.5, {}),
            (os.path.join(root, "fp", "fastpath.py"), 20, "mul"):
                (1, 1, 0.125, 0.125, {}),
            (os.path.join(root, "machine", "cpu.py"), 30, "step"):
                (5, 5, 0.5, 1.5, {}),
            ("~", 0, "<built-in method math.frexp>"): (9, 9, 0.0625, 0.0625, {}),
        }
        times = layer_self_times(stats)
        assert times == {"fp": 0.375, "machine": 0.5, "python": 0.0625}
        assert sum(times.values()) == sum(v[2] for v in stats.values())
        table = render_layer_table(times).splitlines()
        assert [line.split()[0] for line in table[2:]] == [
            "machine", "fp", "python", "total"]
        assert table[-1].split()[1] == "937.500"

    def test_diff_identical_snapshots_exits_zero(self, tmp_path, capsys):
        snap = tmp_path / "a.json"
        assert cli_main(
            ["telemetry", "run", "moose", "--scale", "0.2",
             "--out", str(snap)]
        ) == 0
        assert cli_main(
            ["telemetry", "diff", str(snap), str(snap)]
        ) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_regression_exits_nonzero(self, tmp_path, capsys):
        import json

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"cycles": 1, "scopes": {
            "cpu": {"site_cache.hits": 90, "site_cache.misses": 10}}}))
        b.write_text(json.dumps({"cycles": 1, "scopes": {
            "cpu": {"site_cache.hits": 50, "site_cache.misses": 50}}}))
        assert cli_main(["telemetry", "diff", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression" in captured.err
        # The same drop passes under a looser threshold.
        assert cli_main(
            ["telemetry", "diff", str(a), str(b), "--threshold", "0.5"]
        ) == 0


class TestTraceCLI:
    """``repro.study trace``: record, sampling and offline stats."""

    @staticmethod
    def _trees(out: str) -> int:
        return int(re.search(r"trees (\d+)", out).group(1))

    def test_record_keeps_every_tree_by_default(self, tmp_path, capsys):
        from repro.telemetry.tracing import from_chrome_json

        b, j = tmp_path / "run.spans.bin", tmp_path / "run.trace.json"
        assert cli_main(["trace", "record", "miniaero", "--scale", "0.2",
                         "--bin", str(b), "--json", str(j)]) == 0
        trees = self._trees(capsys.readouterr().out)
        roots = [s for s in from_chrome_json(j.read_text())
                 if s.parent_id == 0]
        # Every completed tree is retained (nothing discarded), so each
        # one left its fp_fault root, labeled with why it was kept.
        faults = [s for s in roots if s.name == "fp_fault"]
        assert trees > 0 and len(faults) == trees
        assert all(s.args["keep"] for s in faults)
        assert cli_main(["trace", "stats", str(b)]) == 0
        assert self._trees(capsys.readouterr().out) == len(roots)

    def test_record_assembles_spans_once(self, tmp_path, monkeypatch,
                                         capsys):
        """``--bin`` and ``--json`` share one tree assembly of the ring."""
        from repro.telemetry.tracing import TraceRecorder, spans_from_binary

        calls = []
        spans = TraceRecorder.spans

        def counted(self):
            calls.append(1)
            return spans(self)

        monkeypatch.setattr(TraceRecorder, "spans", counted)
        b, j = tmp_path / "n.spans.bin", tmp_path / "n.trace.json"
        assert cli_main(["trace", "record", "nanchain",
                         "--bin", str(b), "--json", str(j)]) == 0
        assert len(calls) == 1
        n = len(spans_from_binary(b.read_bytes()))
        assert f"({n} packed spans)" in capsys.readouterr().out

    def test_sampled_record_discards_and_replays(self, capsys):
        argv = ["trace", "record", "miniaero", "--scale", "0.2",
                "--sample", "4", "--seed", "1", "--limit", "0"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert int(re.search(r"discarded (\d+)", first).group(1)) > 0
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first

    def test_stats_names_the_truncated_file(self, tmp_path, capsys):
        from repro.campaign import CampaignSpec, RunSpec, run_campaign

        spec = CampaignSpec(name="traced", runs=tuple(
            RunSpec(app="Miniaero", mode=mode, scale=0.1, tracing=True)
            for mode in ("aggregate", "sampled")))
        result = run_campaign(spec, out_dir=tmp_path, execution="inprocess")
        assert not result.failed
        bad = tmp_path / "traces" / "run0001.spans.bin"
        data = bad.read_bytes()
        assert data
        bad.write_bytes(data[:-1])
        assert cli_main(["trace", "stats", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert str(bad) in captured.err
        assert captured.out == ""
