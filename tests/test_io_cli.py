import gc
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tvgkit import cli
from tvgkit.core import Lifetime, build_tvg
from tvgkit.synth import generate_trace
from tvgkit.trace_io import TraceFormatError, parse_trace, write_trace

from oracles import random_tvg


TRACE = """u,v,start,end
a,b,0,5
b,c,3,7
a,c,6,9
"""

#: a self-loop on line 3
BAD_RECORD_TRACE = "u,v,start,end\na,b,0,5\nb,b,1,2\nb,c,3,7\n"

#: a quoted name on line 3 longer than the csv module's field size limit
LONG_FIELD_TRACE = 'u,v,start,end\na,b,0,2\n"' + "x" * 140_000 + '",c,1,3\nb,c,4,6\n'


class TestParseTrace:
    def test_basic_intervals(self):
        res = parse_trace(TRACE)
        assert res.names == ["a", "b", "c"]
        assert res.graph.lifetime == Lifetime(0, 9)
        assert res.graph.presence[0].intervals == [(0, 5)]

    def test_punctual_contact(self):
        res = parse_trace("u,v,start\na,b,7\n")
        assert res.graph.presence[0].intervals == [(7, 8)]

    def test_label_column(self):
        res = parse_trace("u,v,start,end,label\na,b,0,2,x\na,b,4,6,y\n")
        assert len(res.graph.edges) == 2
        assert {e.label for e in res.graph.edges} == {"x", "y"}

    def test_name_interning_first_appearance(self):
        res = parse_trace("u,v,start\nzeta,alpha,0\nalpha,beta,1\n")
        assert res.names == ["zeta", "alpha", "beta"]
        assert res.name_to_id["beta"] == 2

    def test_inverted_interval_reports_line(self):
        with pytest.raises(TraceFormatError, match="line 2.*inverted"):
            parse_trace("u,v,start,end\na,b,5,2\n")

    def test_line_numbers_count_quoted_newlines(self):
        # the quoted name spans lines 2 and 3, so the next record is on line 4
        text = 'u,v,start,end\n"a\nb",c,1,2\nx,y,5,3\n'
        with pytest.raises(TraceFormatError, match=r"^line 4: inverted interval \[5,3\)$"):
            parse_trace(text)
        assert parse_trace(text, strict=False).skipped == [(4, "inverted interval [5,3)")]
        # a record spanning lines is reported on the line where it starts
        with pytest.raises(TraceFormatError, match=r"^line 2: inverted"):
            parse_trace('u,v,start,end\n"a\nb",c,5,3\n')

    def test_bad_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            parse_trace("from,to,when\na,b,0\n")

    def test_empty_input(self):
        with pytest.raises(TraceFormatError, match="empty"):
            parse_trace("")

    def test_lenient_mode_collects_skips(self):
        text = "u,v,start,end\na,b,0,2\na,b,oops,3\nc,c,1,2\nb,c,4,6\n"
        res = parse_trace(text, strict=False)
        assert len(res.graph.edges) == 2
        assert [line for line, _ in res.skipped] == [3, 4]

    def test_empty_names_are_not_a_self_loop(self):
        text = "u,v,start\na,b,1\n,,5\n"
        with pytest.raises(TraceFormatError, match=r"^line 3: empty node name$"):
            parse_trace(text)
        assert parse_trace(text, strict=False).skipped == [(3, "empty node name")]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("u,v,start\na,b\nb,c,1\n", "expected at least 3 fields, got 2"),
            ("u,v,start,end\na,b,1,x\nb,c,1,2\n", "non-integer end 'x'"),
        ],
        ids=["two-fields", "non-integer-end"],
    )
    def test_malformed_record_reports_its_line(self, text, message):
        with pytest.raises(TraceFormatError, match=rf"^line 2: {message}$"):
            parse_trace(text)
        assert parse_trace(text, strict=False).skipped == [(2, message)]

    def test_lenient_mode_still_needs_one_record(self):
        with pytest.raises(TraceFormatError, match="no valid records"):
            parse_trace("u,v,start\na,a,1\n", strict=False)

    def test_blank_lines_ignored(self):
        res = parse_trace("u,v,start,end\n\na,b,0,2\n\n")
        assert len(res.graph.edges) == 1

    def test_directed_flag(self):
        res = parse_trace("u,v,start\nb,a,0\n", directed=True)
        e = res.graph.edges[0]
        assert (res.names[e.u], res.names[e.v]) == ("b", "a")

    @pytest.mark.parametrize(
        "header, wide",
        [
            ("u,v,start", "a,b,1,5"),
            ("u,v,start,end", "b,c,2,3,bus"),
            ("u,v,start,end,label", "b,c,2,3,bus,x"),
        ],
    )
    def test_rows_wider_than_the_header_are_malformed(self, header, wide):
        message = f"{wide.count(',') + 1} fields, but the header has {header.count(',') + 1}"
        text = f"{header}\na,b,1\n{wide}\nb,c,4\n"
        with pytest.raises(TraceFormatError, match=rf"^line 3: {message}$"):
            parse_trace(text)
        res = parse_trace(text, strict=False)
        assert res.skipped == [(3, message)]
        assert res.graph == parse_trace(f"{header}\na,b,1\nb,c,4\n").graph

    def test_rows_narrower_than_the_header_are_punctual(self):
        res = parse_trace("u,v,start,end,label\na,b,1\nb,c,2,4\n")
        assert res.skipped == []
        assert [p.intervals for p in res.graph.presence] == [[(1, 2)], [(2, 4)]]

    @pytest.mark.parametrize("strict", [True, False])
    def test_byte_order_mark_before_the_header_is_dropped(self, strict):
        def parsed(text):
            try:
                res = parse_trace(text, strict=strict)
            except TraceFormatError as exc:
                return str(exc)
            return res.graph, res.names, res.skipped

        for text in (TRACE, "\n" + TRACE, BAD_RECORD_TRACE):
            assert parsed("\ufeff" + text) == parsed(text)
        # the later malformed record keeps its line number
        bad = parsed("\ufeff" + BAD_RECORD_TRACE)
        if strict:
            assert bad == "line 3: self-loop on 'b'"
        else:
            assert bad[1:] == (["a", "b", "c"], [(3, "self-loop on 'b'")])

    @pytest.mark.parametrize("strict", [True, False])
    def test_over_long_field_reports_its_line(self, strict):
        # the reader cannot resume after it, so lenient mode raises too
        with pytest.raises(TraceFormatError, match=r"^line 3: field larger than field limit"):
            parse_trace(LONG_FIELD_TRACE, strict=strict)


class TestCollectorPause:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_build_tvg_restores_the_collector(self, collector):
        build_tvg(3, False, Lifetime(0, 10), [(0, 1, 0, 4), (1, 2, 5, 9)])
        assert gc.isenabled() is collector
        with pytest.raises(ValueError, match="inverted"):
            build_tvg(3, False, Lifetime(0, 10), [(0, 1, 0, 4), (1, 2, 9, 5)])
        assert gc.isenabled() is collector

    def test_parse_trace_restores_the_collector(self, collector):
        parse_trace(TRACE)
        assert gc.isenabled() is collector
        with pytest.raises(TraceFormatError, match="inverted"):
            parse_trace("u,v,start,end\na,b,5,2\n")
        assert gc.isenabled() is collector
        with pytest.raises(TraceFormatError, match="field limit"):
            parse_trace(LONG_FIELD_TRACE, strict=False)
        assert gc.isenabled() is collector

    def test_parsed_presence_is_left_untracked(self):
        g = parse_trace(generate_trace("uniform-random", seed=1, nodes=20, ticks=60)).graph
        gc.collect()
        assert not any(
            gc.is_tracked(p._starts) or gc.is_tracked(p._ends) for p in g.presence
        )


class TestWriteTrace:
    def test_round_trip_preserves_presence_by_name(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_tvg(rng)
            names = [f"n{i}" for i in range(g.n)]
            res = parse_trace(write_trace(g, names))
            # compare edge presence keyed by node names; parse may relabel
            def table(graph, nm):
                return {
                    tuple(sorted((nm[e.u], nm[e.v]))): p.intervals
                    for e, p in zip(graph.edges, graph.presence)
                }

            assert table(res.graph, res.names) == table(g, names)

    @pytest.mark.parametrize(
        "text",
        [
            "u,v,start,end,label\n"
            '"a,b",c,1,3,"x,y"\n'
            'c,"d ""q""",2,4\n'
            '"e\nf","d ""q""",0,2,"two\nlines"\n',
            'u,v,start,end\n"a\rb",c,1,3\nc,d,2,4\n',
        ],
        ids=["comma-quote-newline", "carriage-return"],
    )
    def test_round_trip_quotes_names_and_labels(self, text):
        res = parse_trace(text)
        out = write_trace(res.graph, res.names)
        back = parse_trace(out)
        assert (back.names, back.graph) == (res.names, res.graph)
        assert write_trace(back.graph, back.names) == out

    def test_output_is_canonical_and_stable(self):
        g = build_tvg(
            3, False, Lifetime(0, 9), [(1, 0, 4, 6), (0, 1, 0, 2), (1, 2, 3, 7)]
        )
        text = write_trace(g)
        assert text == "u,v,start,end\n0,1,0,2\n0,1,4,6\n1,2,3,7\n"
        assert write_trace(parse_trace(text).graph, parse_trace(text).names) == text


class TestGenerate:
    def test_deterministic_for_seed(self):
        a = generate_trace("uniform-random", seed=5)
        b = generate_trace("uniform-random", seed=5)
        c = generate_trace("uniform-random", seed=6)
        assert a == b != c

    @pytest.mark.parametrize("kind", ["phase-transition", "uniform-random", "star-burst"])
    def test_output_parses(self, kind):
        res = parse_trace(generate_trace(kind, seed=1))
        assert res.graph.n >= 2
        assert len(res.graph.edges) > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_trace("scale-free")


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(TRACE)
        return str(path)

    def test_query_reachable(self, trace_file, capsys):
        assert self.run("query", trace_file, "--from", "a", "--to", "c", "--at", "0") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "3"
        assert out[1] == "(a,b)@0 (b,c)@3"

    def test_query_unreachable(self, trace_file, capsys):
        assert self.run("query", trace_file, "--from", "b", "--to", "a", "--at", "8") == 0
        assert capsys.readouterr().out.strip() == "unreachable"

    @pytest.mark.parametrize("kind", ["shortest", "foremost", "fastest"])
    def test_query_prints_distance_from_one_search(self, kind, capsys, monkeypatch):
        import tvgkit.journeys as jr

        path = str(Path(__file__).parent / "data" / "contacts.csv")
        res = parse_trace(Path(path).read_text())
        g = res.graph
        expected = {
            (u, v, t): jr.distance_map(g, u, t, kind).get(v)
            for u in range(g.n)
            for v in range(g.n)
            for t in range(g.lifetime.start, g.lifetime.end, 3)
        }
        searches = []
        witness = cli.witness_journey

        def counting_witness(*args):
            searches.append(args)
            return witness(*args)

        monkeypatch.setattr(cli, "witness_journey", counting_witness)
        runs = []  # the searches, of any kind, each query ran
        for k, search in list(jr._SEARCHES.items()):
            def counting_search(*args, k=k, search=search):
                runs[-1].append(k)
                return search(*args)

            monkeypatch.setitem(jr._SEARCHES, k, counting_search)
        for (u, v, t), d in expected.items():
            argv = ["query", path, "--from", res.names[u], "--to", res.names[v],
                    "--at", str(t), "--kind", kind]
            runs.append([])
            assert self.run(*argv) == 0
            first = capsys.readouterr().out.splitlines()[0]
            assert first == ("unreachable" if d is None else str(d))
        # one witness per query, reachable or not, and one search, which
        # the printed distance reads too
        assert len(searches) == len(expected)
        assert runs == [[kind]] * len(expected)
        assert None in expected.values() and 0 in expected.values()

    def test_query_unknown_node_is_data_error(self, trace_file, capsys):
        assert self.run("query", trace_file, "--from", "z", "--to", "a", "--at", "0") == 2

    def test_query_time_outside_lifetime(self, trace_file):
        assert self.run("query", trace_file, "--from", "a", "--to", "b", "--at", "99") == 2

    def test_evolve_csv(self, trace_file, capsys):
        code = self.run(
            "evolve", trace_file, "--window", "3", "--indicators", "density"
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "window_start,window_end,density"
        assert len(lines) == 4  # [0,3) [3,6) [6,9)

    def test_evolve_json(self, trace_file, capsys):
        code = self.run(
            "evolve", trace_file, "--window", "9",
            "--indicators", "density,diameter", "--format", "json",
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["window_start"] == 0
        assert set(rows[0]) == {"window_start", "window_end", "density", "diameter"}

    def test_evolve_unknown_indicator_is_usage_error(self, trace_file):
        assert self.run("evolve", trace_file, "--window", "3", "--indicators", "xx") == 1

    def test_evolve_bad_stride_is_usage_error(self, trace_file):
        assert (
            self.run("evolve", trace_file, "--window", "3", "--stride", "5") == 1
        )

    def test_missing_file_is_data_error(self):
        assert self.run("footprint", "/no/such/file.csv") == 2

    def test_malformed_trace_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("u,v,start,end\na,b,5,2\n")
        assert self.run("footprint", str(bad), "--strict") == 2

    def test_row_wider_than_the_header_is_data_error(self, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        wide.write_text("u,v,start\na,b,1\nb,c,2,3\n")
        assert self.run("footprint", str(wide), "--strict") == 2
        err = capsys.readouterr().err
        assert err == "tvgkit: data error: line 3: 4 fields, but the header has 3\n"
        # lenient mode skips the row, and with it the only b-c contact
        assert self.run("footprint", str(wide)) == 0
        assert capsys.readouterr().out == "u,v\na,b\n"

    @pytest.mark.parametrize(
        "argv", [["footprint"], ["evolve", "--window", "2"]], ids=["footprint", "evolve"]
    )
    def test_lenient_mode_reports_skipped_records(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.csv"
        bad.write_text("u,v,start\na,b,1\nb,c,2,3\nc,d,x\na,c,2\n")
        assert self.run(argv[0], str(bad), *argv[1:]) == 0
        out, err = capsys.readouterr()
        assert out
        assert err == (
            "tvgkit: warning: skipped 2 malformed record(s); "
            "first at line 3: 4 fields, but the header has 3\n"
        )

    def test_clean_trace_leaves_stderr_empty(self, trace_file, capsys):
        assert self.run("footprint", trace_file) == 0
        assert self.run("evolve", trace_file, "--window", "3") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flags", [[], ["--strict"]], ids=["lenient", "strict"])
    def test_over_long_field_is_data_error(self, tmp_path, capsys, flags):
        bad = tmp_path / "long.csv"
        bad.write_text(LONG_FIELD_TRACE)
        assert self.run("evolve", str(bad), "--window", "2", *flags) == 2
        assert capsys.readouterr().err.startswith("tvgkit: data error: line 3: field larger")

    def test_non_utf8_trace_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"u,v,start\na,b,1\n\xe9,c,2\n")
        assert self.run("footprint", str(bad)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"tvgkit: data error: cannot read {bad}: 'utf-8' codec can't decode "
            "byte 0xe9 in position 16: invalid continuation byte\n"
        )

    @pytest.mark.parametrize("command", ["evolve", "generate", "footprint"])
    def test_unwritable_output_is_usage_error(self, trace_file, tmp_path, capsys, command):
        args = {
            "evolve": [trace_file, "--window", "3"],
            "generate": ["uniform-random"],
            "footprint": [trace_file],
        }[command]
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert self.run(command, *args, "--output", str(target)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"tvgkit: error: cannot write {target}: ")

    @pytest.mark.parametrize(
        "start,message",
        [("5", "empty or inverted window [5, 5)"), ("-5", "window [-5,5) outside lifetime")],
        ids=["empty", "outside-lifetime"],
    )
    def test_footprint_bad_window_is_data_error(self, trace_file, capsys, start, message):
        assert self.run("footprint", trace_file, "--start", start, "--end", "5") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"tvgkit: data error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evolve", "--window", "3", "--indicators", ","], "no indicators requested"),
            (
                ["generate", "phase-transition", "--nodes", "5"],
                "phase-transition needs nodes >= 20, window >= 2, phase_windows >= 1",
            ),
            (
                ["generate", "uniform-random", "--nodes", "1"],
                "uniform-random needs nodes >= 2, ticks >= 1, 0 <= p <= 1",
            ),
            (
                ["generate", "star-burst", "--leaves", "0"],
                "star-burst needs positive leaves, ticks, period, burst",
            ),
        ],
        ids=["no-indicators", "phase-transition", "uniform-random", "star-burst"],
    )
    def test_bad_arguments_are_usage_errors(self, trace_file, capsys, argv, message):
        if argv[0] == "evolve":
            argv = [argv[0], trace_file, *argv[1:]]
        assert self.run(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"tvgkit: error: {message}\n"

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert self.run() == 1

    def test_footprint_window(self, trace_file, capsys):
        assert self.run("footprint", trace_file, "--start", "0", "--end", "3") == 0
        assert capsys.readouterr().out == "u,v\na,b\n"

    def test_footprint_json(self, trace_file, capsys):
        assert self.run("footprint", trace_file, "--format", "json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["window"] == [0, 9]
        assert data["edges"] == [["a", "b"], ["a", "c"], ["b", "c"]]

    def test_generate_to_file_and_reuse(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        assert self.run("generate", "uniform-random", "--seed", "2",
                        "--output", str(out)) == 0
        assert self.run("evolve", str(out), "--window", "20") == 0
        assert capsys.readouterr().out.startswith("window_start")

    def test_limit_exceeded_exit_code(self, trace_file, monkeypatch):
        from tvgkit.static_metrics import LimitExceededError

        def boom(args):
            raise LimitExceededError("synthetic cap")

        monkeypatch.setitem(cli._COMMANDS, "footprint", boom)
        assert self.run("footprint", trace_file) == 3


class TestStdin:
    """``-`` reads the trace from fd 0, decoded as a trace file is; each
    test runs the CLI in a fresh interpreter, which owns its stdin."""

    ROOT = Path(__file__).resolve().parent.parent

    def tvgkit(self, *argv, **kwargs):
        path = os.pathsep.join(filter(None, [str(self.ROOT / "src"), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "tvgkit.cli", *argv],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            **kwargs,
        )

    def test_non_utf8_stdin_is_data_error(self):
        proc = self.tvgkit("footprint", "-", input=b"u,v,start\na,b,1\n\xe9,c,2\n")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (
            b"tvgkit: data error: cannot read -: 'utf-8' codec can't decode "
            b"byte 0xe9 in position 16: invalid continuation byte\n"
        )

    def test_closed_stdin_is_data_error(self):
        proc = self.tvgkit(
            "footprint", "-", stdin=subprocess.DEVNULL, preexec_fn=lambda: os.close(0)
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"tvgkit: data error: cannot read -: ")

    @pytest.mark.parametrize("flags", [[], ["--strict"]], ids=["lenient", "strict"])
    def test_byte_order_mark_reads_like_the_trace_without_it(self, tmp_path, capsys, flags):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(BAD_RECORD_TRACE, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + BAD_RECORD_TRACE.encode())
        results = []
        for path in (plain, marked):
            code = cli.main(["footprint", str(path), *flags])
            results.append((code, *capsys.readouterr()))
        proc = self.tvgkit("footprint", "-", *flags, input=marked.read_bytes())
        results.append((proc.returncode, proc.stdout.decode(), proc.stderr.decode()))
        assert results[1] == results[2] == results[0]
        assert "line 3: self-loop on 'b'" in results[0][2]

    def test_stdin_reads_like_the_file(self):
        path = self.ROOT / "tests" / "data" / "contacts.csv"
        argv = ["--window", "3", "--indicators", "density,closeness"]
        from_file = self.tvgkit("evolve", str(path), *argv)
        from_stdin = self.tvgkit("evolve", "-", *argv, input=path.read_bytes())
        assert from_file.returncode == from_stdin.returncode == 0
        assert from_file.stderr == from_stdin.stderr == b""
        assert from_stdin.stdout == from_file.stdout
        assert from_file.stdout.count(b"\n") > 2


class TestBenchmarkHooks:
    def test_tracer_sees_registry_and_module_global_calls(self):
        """perfbench's tracer patches the indicator registries and module
        globals once tvgkit is imported; a registry filled at import or a
        call that bypasses a module global would hide work from it."""
        root = Path(__file__).resolve().parent.parent
        script = textwrap.dedent(
            """
            import contextlib, io, json, sys
            sys.path[:0] = ["perfbench", "src"]
            import tvgkit.cli
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            argv = ["evolve", "tests/data/contacts.csv", "--window", "4",
                    "--indicators", "density,closeness"]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = tvgkit.cli.main(argv)
            print(json.dumps({"rc": rc, "calls": tracer.calls}))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=root, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["rc"] == 0
        for span in (
            "parse_trace", "build_tvg", "density", "temporal_subgraph", "temporal_closeness"
        ):
            assert result["calls"].get(span, 0) > 0, span
