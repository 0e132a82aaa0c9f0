"""Tests for the command-line interface (python -m repro ...)."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_steps(self, capsys):
        assert main(["steps", "a<v> | a(x).x!"]) == 0
        out = capsys.readouterr().out
        assert "a<v>" in out and "v!" in out

    def test_steps_shadowing_restriction(self, capsys):
        assert main(["steps", "nu x nu x a<x>"]) == 0
        assert capsys.readouterr().out == "--nu x' a<x'>-->  nu x 0\n"

    def test_steps_quiescent(self, capsys):
        assert main(["steps", "a(x).0"]) == 0
        assert "quiescent" in capsys.readouterr().out

    def test_moves_includes_inputs(self, capsys):
        assert main(["moves", "a(x).x!", "--fresh", "1"]) == 0
        out = capsys.readouterr().out
        assert "a(a)" in out and "a(_f0)" in out

    def test_run(self, capsys):
        assert main(["run", "a!.b!", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "quiescent" in out and "final: 0" in out

    def test_eq_verdicts(self, capsys):
        assert main(["eq", "a?", "0"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out
        assert main(["eq", "a?", "0", "--relation", "congruence"]) == 1
        assert "DIFFERENT" in capsys.readouterr().out

    def test_eq_weak(self, capsys):
        assert main(["eq", "tau.a!", "a!", "--relation", "barbed",
                     "--weak"]) == 0

    def test_barb(self, capsys):
        assert main(["barb", "tau.tau.x!", "x"]) == 0
        assert "reachable" in capsys.readouterr().out
        assert main(["barb", "tau.y!", "x", "--max-states", "100"]) == 1

    def test_canon(self, capsys):
        assert main(["canon", "0 | a! | 0"]) == 0
        assert capsys.readouterr().out.strip() == "a!"

    def test_graph_dot(self, capsys):
        assert main(["graph", "a!.b!"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and "a<>" in out

    def test_graph_minimized(self, capsys):
        assert main(["graph", "tau.(a! | 0) + tau.(0 | a!)",
                     "--minimize"]) == 0
        assert "B0" in capsys.readouterr().out

    def test_graph_trip_on_the_root_prints_an_empty_graph(self, capsys):
        for flags in ([], ["--minimize"]):
            assert main(["graph", "a!", "--max-states", "0", *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out.startswith("digraph")
            assert "doublecircle" not in captured.out
            assert "truncated (max-states) at 0 states" in captured.err

    def test_bad_syntax_exits_2_with_caret(self, capsys):
        # parse failures are reported, not raised: message + caret excerpt
        # on stderr, exit status 2 (the "no verdict" code)
        assert main(["steps", "a! +"]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "line 1, column 5" in err
        assert "a! +" in err
        caret_line = err.splitlines()[-1]
        assert caret_line.strip() == "^"
        # the caret sits under the failing column (offset 4 in "a! +",
        # +2 for the stderr indent)
        assert caret_line.index("^") == 2 + 4

    def test_bad_syntax_multiline_points_at_line(self, capsys):
        assert main(["canon", "a!.b! |\nnu x (x! +"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "nu x (x! +" in err


class TestCliAdmission:
    """The engine commands take only processes: closed, guarded terms."""

    @pytest.mark.parametrize("argv, message", [
        (["eq", "rec X(). X", "0"], "unguarded"),
        (["eq", "X<a>", "a!"], "not a closed process"),
        (["barb", "X<a>", "a"], "not a closed process"),
    ])
    def test_ill_formed_term_exits_2_with_an_error(self, capsys, argv,
                                                   message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["steps", "moves", "run", "canon",
                                         "graph"])
    def test_every_engine_command_admits(self, capsys, command):
        for term in ("rec X(). X", "X<a>"):
            assert main([command, term]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_guarded_recursion_is_admitted(self, capsys):
        assert main(["eq", "rec X(x := a). x!.X<x>",
                     "rec Y(y := a). y!.Y<y>"]) == 0

    def test_lint_still_reports_unguarded_recursion(self, capsys):
        assert main(["lint", "rec X(). X"]) == 1
        assert "BP101" in capsys.readouterr().out


class TestCliLint:
    def test_clean_term_exits_0(self, capsys):
        assert main(["lint", "a(x).x!"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_1_with_excerpt(self, capsys):
        assert main(["lint", "nu x x!.0"]) == 1
        out = capsys.readouterr().out
        assert "BP201" in out and "deaf broadcast" in out
        assert "line 1, column 6" in out
        assert "^" in out          # caret excerpt rendered
        assert "1 warning" in out

    @pytest.mark.parametrize("subcommand", ["lint", "flow"])
    def test_parse_failure_exits_2_with_caret(self, capsys, subcommand):
        # lint and flow share the CLI's parse-error contract: message plus
        # caret excerpt on stderr, exit status 2
        assert main([subcommand, "a! +"]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "line 1, column 5" in err
        assert "a! +" in err
        caret_line = err.splitlines()[-1]
        assert caret_line.strip() == "^"
        assert caret_line.index("^") == 2 + 4

    def test_select_and_ignore(self, capsys):
        assert main(["lint", "nu x x!", "--select", "BP1"]) == 0
        capsys.readouterr()
        assert main(["lint", "nu x x!", "--ignore", "BP201,BP302"]) == 0

    def test_json_format(self, capsys):
        assert main(["lint", "--format", "json", "rec X(). X"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"] == {"BP101": 1}
        (diag,) = payload["diagnostics"]
        assert diag["severity"] == "error"
        assert diag["line"] == 1 and diag["excerpt"] == "X"
        assert set(payload["timings"]) == {
            "BP101", "BP102", "BP201", "BP202", "BP301", "BP302",
            "BP401", "BP402", "BP403", "BP404"}

    def test_corpus_is_clean(self, capsys):
        assert main(["lint", "--corpus"]) == 0
        out = capsys.readouterr().out
        assert "14/14 clean" in out.splitlines()[-1]

    def test_corpus_rejects_positional_term(self, capsys):
        assert main(["lint", "--corpus", "a!"]) == 2

    def test_missing_term_exits_2(self, capsys):
        assert main(["lint"]) == 2


class TestCliFlow:
    def test_capability_table_exits_0(self, capsys):
        assert main(["flow", "a<v> | a(x).x!"]) == 0
        out = capsys.readouterr().out
        assert "channel" in out and "broadcast" in out
        # mobility: x! may fire on v, so v gets a may-broadcast row
        assert any(line.startswith("v") and "yes" in line
                   for line in out.splitlines())

    def test_barb_proven_inert_exits_1(self, capsys):
        assert main(["flow", "nu x x!.0 | b!", "--closed",
                     "--barb", "a"]) == 1
        out = capsys.readouterr().out
        assert "proven inert" in out and "0 states explored" in out

    def test_barb_not_refutable_exits_0(self, capsys):
        assert main(["flow", "a!", "--closed", "--barb", "a"]) == 0
        assert "may be reachable" in capsys.readouterr().out

    def test_json_format_capabilities(self, capsys):
        assert main(["flow", "a<v> | a(x).x!", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["channels"]["a"]["may_broadcast"] is True
        assert "v" in payload["channels"]["a"]["may_carry"]

    def test_json_format_barb_refutation(self, capsys):
        assert main(["flow", "nu x x!.0 | b!", "--closed",
                     "--barb", "a", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"channel": "a", "refuted": True,
                           "evidence": payload["evidence"]}
        assert payload["evidence"]["kind"] == "barb-unreachable"

    def test_corpus_exits_0(self, capsys):
        assert main(["flow", "--corpus"]) == 0
        out = capsys.readouterr().out
        assert "free channels" in out

    def test_corpus_rejects_positional_term(self, capsys):
        assert main(["flow", "--corpus", "a!"]) == 2

    def test_missing_term_exits_2(self, capsys):
        assert main(["flow"]) == 2

    def test_barb_presolve_vs_no_presolve(self, capsys):
        # the pre-solver answers without exploring; --no-presolve forces
        # the explorer down the same (slower) path to the same verdict
        assert main(["barb", "nu x x!.0 | b!", "a"]) == 1
        fast = capsys.readouterr().out
        assert "not reachable (flow pre-solver, 0 states explored)" in fast
        assert main(["barb", "nu x x!.0 | b!", "a", "--no-presolve"]) == 1
        slow = capsys.readouterr().out
        assert "not reachable" in slow and "pre-solver" not in slow


class TestCliStore:
    def test_version_flag(self, capsys):
        import pytest
        from repro import __version__
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_eq_store_warm_hit(self, tmp_path, capsys):
        db = str(tmp_path / "v.sqlite")
        assert main(["eq", "a?", "0", "--store", db]) == 0
        assert "[store]" not in capsys.readouterr().out
        assert main(["eq", "a?", "0", "--store", db]) == 0
        assert "EQUIVALENT [store]" in capsys.readouterr().out

    def test_batch_text_and_warm_json(self, tmp_path, capsys):
        db = str(tmp_path / "v.sqlite")
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(
            '{"id": "t", "p": "a!", "q": "a!"}\n'
            '# comment\n'
            '{"id": "f", "p": "a!", "q": "b!"}\n')
        assert main(["batch", str(reqs), "--store", db]) == 0
        captured = capsys.readouterr()
        assert "t\ttrue\tcomputed" in captured.out
        assert "f\tfalse\tcomputed" in captured.out
        assert "2 requests" in captured.err
        assert main(["batch", str(reqs), "--store", db,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["store_hits"] == 2
        assert payload["summary"]["computed"] == 0
        assert [r["source"] for r in payload["results"]] == \
            ["store", "store"]

    def test_batch_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO('{"p": "a!", "q": "a!"}\n'))
        assert main(["batch", "-"]) == 0
        assert "true" in capsys.readouterr().out

    def test_batch_unknown_exits_2(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text('{"p": "rec X(). tau.(a! | X)", '
                        '"q": "rec Y(). tau.(a! | a! | Y)", '
                        '"strategy": "global", "max_states": 50}\n')
        assert main(["batch", str(reqs)]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_batch_malformed_exits_2(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text('{"p": "a!"}\n')
        assert main(["batch", str(reqs)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_deadline_trip_does_not_answer_a_duplicate(self, tmp_path,
                                                       capsys, monkeypatch):
        # A wall-clock trip is never a reusable answer: the same request
        # without the deadline is computed on both paths.
        import io
        text = ('{"p": "a!", "q": "b!", "max_states": 5000, "deadline": 0}\n'
                '{"p": "a!", "q": "b!", "max_states": 5000}\n')
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(text)
        assert main(["batch", str(reqs), "--format", "json"]) == 2
        batched = json.loads(capsys.readouterr().out)["results"]
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["serve"]) == 0
        served = [json.loads(ln)
                  for ln in capsys.readouterr().out.splitlines()]
        for first, second in (batched, served):
            assert (first["truth"], first["reason"]) == ("unknown",
                                                         "deadline")
            assert (second["truth"], second["source"]) == ("false",
                                                           "computed")

    def test_batch_answers_every_line_of_a_bad_file(self, tmp_path,
                                                    capsys):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text('{"id": "t", "p": "a!", "q": "a!"}\n'
                        '{"p": "X<a>", "q": "a!"}\n'
                        '{nope\n'
                        '{"id": "f", "p": "a!", "q": "b!"}\n')
        assert main(["batch", str(reqs)]) == 2
        captured = capsys.readouterr()
        assert "t\ttrue\tcomputed" in captured.out
        assert "f\tfalse\tcomputed" in captured.out
        assert "batch: line 2: TypeError: " in captured.err
        assert "batch: line 3: " in captured.err

    def test_batch_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_example_request_file_is_valid(self, capsys):
        from pathlib import Path
        example = Path(__file__).resolve().parent.parent \
            / "examples" / "batch_requests.jsonl"
        from repro.store import request_from_record
        reqs = [request_from_record(json.loads(line))
                for line in example.read_text().splitlines()
                if line.strip() and not line.startswith("#")]
        assert len(reqs) == 10
        ids = [r.id for r in reqs]
        assert len(set(ids)) == 10 and all(ids)

    def test_serve_cli(self, tmp_path, capsys, monkeypatch):
        import io
        db = str(tmp_path / "v.sqlite")
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"id": "s", "p": "a?", "q": "0"}\n'))
        assert main(["serve", "--store", db]) == 0
        captured = capsys.readouterr()
        answer = json.loads(captured.out)
        assert answer["truth"] == "true" and answer["id"] == "s"
        assert "answered 1 requests" in captured.err

    def test_serve_always_exits_0_errors_in_band(self, capsys, monkeypatch):
        # the documented contract (docs/service.md, `serve --help`):
        # serve exits 0 once stdin is drained; malformed requests become
        # {"error": ...} lines in the output stream — unlike `batch`,
        # which exits 2 on any non-definite outcome.
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            'this is not json\n{"id": "ok", "p": "a?", "q": "0"}\n'))
        assert main(["serve"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(ln) for ln in lines)
        assert "error" in first and first["line"] == 1
        assert second["id"] == "ok" and second["truth"] == "true"

    def test_serve_help_documents_exit_status(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["serve", "--help"])
        assert ei.value.code == 0
        text = capsys.readouterr().out.lower()
        assert "exit" in text and "always" in text and "0" in text
