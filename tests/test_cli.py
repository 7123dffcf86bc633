"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

import repro
from repro.cli import build_parser, main


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(
        "<site><regions><europe>"
        "<item><payment/></item><item/>"
        "</europe></regions></site>",
        encoding="utf-8",
    )
    return str(path)


class TestEvaluateCommand:
    def test_evaluate_xml_with_datalog_query(self, xml_file, capsys):
        exit_code = main(
            [
                "evaluate",
                "--tree",
                xml_file,
                "--query",
                "Q(i) <- item(i), Child(i, p), payment(p)",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "answers  : 1" in output
        assert "item" in output

    def test_evaluate_sexpr_with_xpath(self, capsys):
        exit_code = main(
            ["evaluate", "--sexpr", "(S (NP (NN)) (VP))", "--xpath", "//NP[NN]"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "answers  : 1" in output

    def test_evaluate_boolean_query(self, capsys):
        exit_code = main(
            ["evaluate", "--sexpr", "(A (B))", "--query", "Q <- A(x), Child(x, y), B(y)"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "answer   : true" in output

    def test_missing_tree_or_query_errors(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--query", "Q <- A(x)"])
        with pytest.raises(SystemExit):
            main(["evaluate", "--sexpr", "(A)"])

    def test_answer_limit(self, capsys):
        exit_code = main(
            ["evaluate", "--sexpr", "(A (A) (A) (A))", "--query", "Q(x) <- A(x)", "--limit", "2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "... 2 more" in output

    def test_engine_auto_picks_decomposition_for_cyclic_bounded_width(self, capsys):
        exit_code = main(
            [
                "evaluate",
                "--sexpr",
                "(A (B (C)) (B (C) (C)))",
                "--query",
                "Q(x) <- A(x), Child+(x, y), Child+(x, z), Following(y, z)",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine   : decomposition (propagator: semijoin)" in output
        assert "answers  : 1" in output

    def test_engine_override_forces_sql(self, capsys):
        exit_code = main(
            [
                "evaluate",
                "--sexpr",
                "(A (B (C)) (B (C) (C)))",
                "--query",
                "Q(x) <- A(x), Child+(x, y), Child+(x, z), Following(y, z)",
                "--engine",
                "sql",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine   : sql (forced) (propagator: semijoin, lowering: " in output
        assert "answers  : 1" in output

    @pytest.mark.parametrize("retired", ["xproperty", "acyclic", "backtracking"])
    def test_retired_engines_are_invalid_choices(self, retired, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["evaluate", "--sexpr", "(A)", "--query", "Q <- A(x)", "--engine", retired])
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert f"invalid choice: '{retired}'" in error
        assert "'auto', 'fixpoint', 'decomposition', 'sql'" in error

    @pytest.mark.parametrize(
        "query, propagator",
        [
            ("Q <- A(x), Child+(x, y), Child+(y, z), Child+(x, z)", "walk"),  # cyclic, tractable
            ("Q(x) <- A(x), Child(x, y), Following(y, z)", "semijoin"),  # forest
        ],
    )
    def test_explain_names_the_fixpoint_and_its_propagator(self, query, propagator, capsys):
        exit_code = main(["explain", "--sexpr", "(A (B (C)) (B (C) (C)))", "--query", query])
        assert exit_code == 0
        explained = json.loads(capsys.readouterr().out)
        assert (explained["engine"], explained["propagator"]) == ("fixpoint", propagator)
        plan = explained["explain"]
        assert (plan["engine"], plan["propagator"]) == ("fixpoint", propagator)

    def test_engine_overrides_agree_in_process(self, capsys):
        answer_lines = set()
        for engine in ("auto", "decomposition", "sql"):
            exit_code = main(
                [
                    "evaluate",
                    "--sexpr",
                    "(A (B (C)) (B (C) (C)))",
                    "--query",
                    "Q(y) <- B(y), Child+(x, y), Child+(x, z), Following(y, z)",
                    "--engine",
                    engine,
                ]
            )
            assert exit_code == 0
            output = capsys.readouterr().out
            answer_lines.add(output[output.index("answers") :])
        assert len(answer_lines) == 1

    def test_engine_rejects_unknown_value(self, capsys):
        # argparse validates the choice list.
        with pytest.raises(SystemExit):
            main(
                [
                    "evaluate",
                    "--sexpr",
                    "(A)",
                    "--query",
                    "Q <- A(x)",
                    "--engine",
                    "quantum",
                ]
            )
        assert "invalid choice" in capsys.readouterr().err

    def test_engine_inapplicable_combination_reports_cleanly(self, capsys):
        # Forcing the fixpoint engine on a query one fixpoint cannot answer
        # is a client error, not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "evaluate",
                    "--sexpr",
                    "(A (B) (B))",
                    "--query",
                    "Q(x) <- A(x), Child+(x, y), Child+(x, z), Following(y, z)",
                    "--engine",
                    "fixpoint",
                ]
            )
        assert "--engine fixpoint" in str(excinfo.value)
        assert "use the decomposition engine" in str(excinfo.value)

    def test_explain_refuses_a_forced_fixpoint_evaluation_refuses(self, capsys):
        # No plan describes a run that cannot happen: explain fails as evaluate does.
        argv = ["--sexpr", "(A (B) (B))", "--engine", "fixpoint"]
        argv += ["--query", "Q(x, y) <- A(x), Child(x, y)"]
        assert main(["explain", *argv]) == 1
        explained = json.loads(capsys.readouterr().out)
        assert "use the decomposition engine" in explained["error"]
        assert "explain" not in explained and explained["engine"] == "fixpoint"
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", *argv])
        assert str(excinfo.value) == f"--engine fixpoint: {explained['error']}"

    def test_negative_limit_is_rejected(self, capsys):
        argv = ["evaluate", "--sexpr", "(A (B) (B) (B))", "--limit", "-1"]
        with pytest.raises(SystemExit, match="'limit' must be a non-negative integer"):
            main(argv + ["--query", "Q(y) <- A(x), Child(x, y), B(y)"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evaluate", "--sexpr", "(A (B))", "--query", "Q <- A(x), Child(x"], "cannot parse"),
            (["evaluate", "--sexpr", "(A (B))", "--xpath", "//B["], "unbalanced predicate"),
            (["rewrite", "Q <- A(x), Child(x"], "cannot parse"),
            (["rewrite", "--xpath", "//B["], "unbalanced predicate"),
        ],
    )
    def test_malformed_query_exits_with_the_message(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            main(argv)


class TestEvaluateAccelDb:
    """``evaluate --accel-db``: write the tree once, reuse it, then query it accel-only."""

    SEXPR = "(A (B (C) (A)) (B) (C (B (A))))"
    QUERY = "Q(x, y) <- A(x), Child+(x, y), B(y)"

    @staticmethod
    def _answers(output: str) -> str:
        return output[output.index("answers  :") :]

    def test_round_trip_matches_the_resident_run(self, tmp_path, capsys):
        database = str(tmp_path / "accel.db")
        resident = ["evaluate", "--sexpr", self.SEXPR, "--query", self.QUERY]
        assert main(resident) == 0
        expected = self._answers(capsys.readouterr().out)
        accel = resident + ["--doc", "cold", "--accel-db", database]
        assert main(accel) == 0
        first = capsys.readouterr().out
        assert f"accel    : {database} (materialised doc 'cold')" in first
        assert "engine   : sql" in first
        assert self._answers(first) == expected
        assert main(accel) == 0
        second = capsys.readouterr().out
        assert f"accel    : {database} (reused doc 'cold')" in second
        assert self._answers(second) == expected
        # No tree source: the document is read from the database alone.
        cold_argv = ["evaluate", "--doc", "cold", "--query", self.QUERY, "--accel-db", database]
        assert main(cold_argv) == 0
        cold = capsys.readouterr().out
        assert f"accel    : {database} (accel-only doc 'cold')" in cold
        assert "engine   : sql (propagator: semijoin, lowering: tree)" in cold
        assert "tree     : 8 nodes" in cold
        # Without the tree there are no labels to print, only node ids.
        assert self._answers(cold) == re.sub(r"\([A-Z]+\)", "", expected)

    def test_sexpr_without_doc_id_is_reused_by_content(self, tmp_path, capsys):
        database = str(tmp_path / "accel.db")
        argv = ["evaluate", "--sexpr", self.SEXPR, "--query", self.QUERY]
        argv += ["--engine", "sql", "--accel-db", database]
        assert main(argv) == 0
        assert "materialised doc 'sexpr:" in capsys.readouterr().out
        assert main(argv) == 0
        assert "reused doc 'sexpr:" in capsys.readouterr().out

    def test_edited_tree_file_of_the_same_size_is_rematerialised(self, tmp_path, capsys):
        """The rows are reused by content, not by node count."""
        database = str(tmp_path / "accel.db")
        path = tmp_path / "doc.xml"
        argv = ["evaluate", "--tree", str(path), "--query", "Q(x) <- B(x)"]
        argv += ["--accel-db", database]
        path.write_text("<A><B/><C/></A>")
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(materialised doc" in first and "answers  : 1" in first
        assert main(argv) == 0
        assert "(reused doc" in capsys.readouterr().out
        path.write_text("<A><C/><C/></A>")  # same node count, different labels
        assert main(argv) == 0
        edited = capsys.readouterr().out
        assert "(materialised doc" in edited and "answers  : 0" in edited

    def test_unknown_accel_only_document_errors(self, tmp_path):
        database = str(tmp_path / "accel.db")
        with pytest.raises(SystemExit, match="'missing' is not in"):
            main(["evaluate", "--doc", "missing", "--query", self.QUERY, "--accel-db", database])


class TestClassifyCommand:
    def test_tractable_signature(self, capsys):
        assert main(["classify", "Child+, Child*"]) == 0
        output = capsys.readouterr().out
        assert "in P" in output
        assert "<pre" in output

    def test_np_hard_signature(self, capsys):
        assert main(["classify", "Child, Following"]) == 0
        output = capsys.readouterr().out
        assert "NP-hard" in output

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            main(["classify", "Sideways"])


class TestRewriteCommand:
    def test_rewrite_with_trace(self, capsys):
        assert (
            main(
                [
                    "rewrite",
                    "Q <- A(x), Child+(x, y), B(y), Child+(x, z), Child+(y, z)",
                    "--trace",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "acyclic disjunct" in output
        assert "apply-lifter" in output

    def test_rewrite_unsatisfiable(self, capsys):
        assert main(["rewrite", "Q <- Child+(x, y), Child+(y, x)"]) == 0
        output = capsys.readouterr().out
        assert "unsatisfiable" in output

    def test_rewrite_from_xpath(self, capsys):
        assert main(["rewrite", "--xpath", "//A[B]"]) == 0
        output = capsys.readouterr().out
        assert "output: 1 acyclic disjunct" in output


class TestEndToEndSmoke:
    """The ``python -m repro`` module entry and the ``cq-trees`` console script.

    These run the CLI in a real subprocess, covering ``__main__.py`` and the
    entry-point wiring that in-process ``main(...)`` calls never touch.
    """

    @staticmethod
    def _subprocess_env():
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_python_dash_m_repro_evaluate(self):
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "evaluate",
                "--sexpr",
                "(S (NP (NN)) (VP))",
                "--xpath",
                "//NP[NN]",
            ],
            capture_output=True,
            text=True,
            env=self._subprocess_env(),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "answers  : 1" in completed.stdout

    def test_python_dash_m_repro_prints_the_plans_propagator(self):
        # A cyclic body over a tractable signature: the plan walks.
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "evaluate",
                "--sexpr",
                "(A (B (C)))",
                "--query",
                "Q <- A(x), Child+(x, y), Child+(y, z), Child+(x, z), C(z)",
            ],
            capture_output=True,
            text=True,
            env=self._subprocess_env(),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "answer   : true" in completed.stdout
        assert "propagator: walk" in completed.stdout

    def test_python_dash_m_repro_bad_usage_fails(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True,
            text=True,
            env=self._subprocess_env(),
            timeout=120,
        )
        assert completed.returncode != 0

    def test_serve_still_accepts_the_async_flag(self):
        """``--async`` is a no-op kept for the end-to-end harness, which passes it."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--async", "--shards", "2", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self._subprocess_env(),
        )
        try:
            match = re.search(r"http://([\d.]+):(\d+)", process.stdout.readline())
            assert match, "no port announcement"
            url = f"http://{match.group(1)}:{match.group(2)}/healthz"
            with urllib.request.urlopen(url, timeout=30) as response:
                assert json.loads(response.read()) == {"status": "ok", "documents": 0}
        finally:
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=15)
        assert (process.returncode, stderr) == (0, "")

    def _orphans_after(self, signum: int, bound: float) -> list[int]:
        """Start ``serve --shards 2``, signal it, and return the shard workers
        still running ``bound`` seconds later."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--shards", "2"],
            stdout=subprocess.PIPE,
            text=True,
            env=self._subprocess_env(),
        )
        children: list[int] = []
        try:
            banner = process.stdout.readline()
            assert "serving on http://" in banner
            children_path = f"/proc/{process.pid}/task/{process.pid}/children"
            if not os.path.exists(children_path):
                pytest.skip("/proc children interface unavailable on this platform")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with open(children_path) as handle:
                    children = [int(pid) for pid in handle.read().split()]
                if len(children) >= 2:
                    break
                time.sleep(0.1)
            assert len(children) >= 2, "shard workers did not come up"
        finally:
            process.send_signal(signum)
            process.wait(timeout=15)
            process.stdout.close()

        def running(pid: int) -> bool:
            # Zombies count as gone: they are dead, just not yet reaped by
            # whatever pid 1 is in this container.
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
            except (OSError, IndexError):
                return False
            return state not in ("Z", "X")

        deadline = time.monotonic() + bound
        alive = children
        while time.monotonic() < deadline:
            alive = [pid for pid in alive if running(pid)]
            if not alive:
                break
            time.sleep(0.05)
        return alive

    def test_serve_sigterm_leaves_no_orphan_shard_workers(self):
        """Regression: SIGTERM (docker stop, ``process.terminate()``) used to
        kill ``serve --shards N`` without running ``executor.close()``,
        orphaning the shard worker processes forever."""
        alive = self._orphans_after(signal.SIGTERM, 15)
        assert not alive, f"orphaned shard worker processes: {alive}"

    def test_serve_sigkill_leaves_no_orphan_shard_workers(self):
        """A parent that dies without ``close()`` is an event at the workers
        (its sentinel wakes their one blocking wait), not something they poll for."""
        alive = self._orphans_after(signal.SIGKILL, 2)
        assert not alive, f"shard workers outlived a SIGKILLed parent by 2 s: {alive}"

    def test_console_script_entry_point_target(self):
        """The ``cq-trees = repro.cli:main`` target resolves and runs."""
        import importlib

        module_name, _, attribute = "repro.cli:main".partition(":")
        entry = getattr(importlib.import_module(module_name), attribute)
        assert entry(["classify", "Child+, Child*"]) == 0

    @pytest.mark.skipif(
        shutil.which("cq-trees") is None,
        reason="cq-trees console script not installed (pip install -e . in CI)",
    )
    def test_console_script_executable(self):
        completed = subprocess.run(
            ["cq-trees", "table1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "NP-hard" in completed.stdout

    def test_evaluate_engines_agree_in_process(self, xml_file, capsys):
        outputs = []
        for engine in ("auto", "fixpoint", "decomposition"):
            exit_code = main(
                [
                    "evaluate",
                    "--tree",
                    xml_file,
                    "--query",
                    "Q(i) <- item(i), Child(i, p), payment(p)",
                    "--engine",
                    engine,
                ]
            )
            assert exit_code == 0
            out = capsys.readouterr().out
            # Every engine runs the sweeps on this forest body: the plan's pick.
            assert "(propagator: semijoin)" in out, engine
            outputs.append(out[out.index("answers") :])
        assert len(set(outputs)) == 1

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_propagator_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--sexpr", "(A)", "--query", "Q <- A(x)", "--propagator", "walk"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --propagator walk" in capsys.readouterr().err


class TestBatchCommand:
    def test_jsonl_round_trip(self, tmp_path, xml_file):
        input_path = tmp_path / "requests.jsonl"
        output_path = tmp_path / "results.jsonl"
        lines = [
            {"op": "register", "doc": "site", "xml_file": xml_file},
            {"doc": "site", "query": "Q(i) <- item(i), Child(i, p), payment(p)"},
            {"doc": "site", "xpath": "//item", "limit": 1},
        ]
        input_path.write_text("\n".join(json.dumps(line) for line in lines))
        exit_code = main(
            ["batch", "--input", str(input_path), "--output", str(output_path)]
        )
        assert exit_code == 0
        results = [json.loads(line) for line in output_path.read_text().splitlines()]
        assert results[0]["ok"] and results[0]["doc"] == "site"
        assert results[1]["count"] == 1
        assert results[2]["truncated"] and results[2]["count"] == 2
        assert results[2]["propagator"] == "semijoin"

    def test_register_is_a_barrier_for_later_queries(self, tmp_path):
        input_path = tmp_path / "requests.jsonl"
        output_path = tmp_path / "results.jsonl"
        lines = [
            {"doc": "late", "query": "Q(x) <- B(x)"},  # doc not registered yet
            {"op": "register", "doc": "late", "sexpr": "(A (B))"},
            {"doc": "late", "query": "Q(x) <- B(x)"},
        ]
        input_path.write_text("\n".join(json.dumps(line) for line in lines))
        exit_code = main(
            ["batch", "--input", str(input_path), "--output", str(output_path)]
        )
        assert exit_code == 1  # the early query failed
        results = [json.loads(line) for line in output_path.read_text().splitlines()]
        assert "unknown document" in results[0]["error"]
        assert results[1]["ok"]
        assert results[2]["answers"] == [[1]]

    def test_unknown_op_is_reported_not_misrouted(self, tmp_path):
        input_path = tmp_path / "requests.jsonl"
        output_path = tmp_path / "results.jsonl"
        input_path.write_text(
            json.dumps({"op": "registre", "doc": "d", "xml": "<a/>"}) + "\n"
        )
        assert main(["batch", "--input", str(input_path), "--output", str(output_path)]) == 1
        result = json.loads(output_path.read_text().splitlines()[0])
        assert "unknown op 'registre'" in result["error"]

    def test_malformed_lines_reported_in_order(self, tmp_path):
        input_path = tmp_path / "requests.jsonl"
        output_path = tmp_path / "results.jsonl"
        input_path.write_text("this is not json\n")
        assert main(["batch", "--input", str(input_path), "--output", str(output_path)]) == 1
        results = [json.loads(line) for line in output_path.read_text().splitlines()]
        assert "line 1" in results[0]["error"]

    def test_document_preregistration_flag(self, tmp_path, xml_file):
        input_path = tmp_path / "requests.jsonl"
        output_path = tmp_path / "results.jsonl"
        input_path.write_text(json.dumps({"doc": "site", "xpath": "//payment"}) + "\n")
        exit_code = main(
            [
                "batch",
                "--document",
                f"site={xml_file}",
                "--input",
                str(input_path),
                "--output",
                str(output_path),
            ]
        )
        assert exit_code == 0
        result = json.loads(output_path.read_text().splitlines()[0])
        assert result["count"] == 1

    def test_bad_document_flag_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="--document expects"):
            main(["batch", "--document", "nonsense", "--input", "-"])
        with pytest.raises(SystemExit, match="cannot pre-register"):
            main(["batch", "--document", f"d={tmp_path / 'missing.xml'}", "--input", "-"])


class TestServeParser:
    def test_serve_arguments_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--port", "0", "--capacity", "4", "--workers", "2"]
        )
        assert args.command == "serve"
        assert args.port == 0 and args.capacity == 4 and args.workers == 2


class TestOtherCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "NP-hard (5.1)" in output

    def test_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["classify", "Child"])
        assert args.command == "classify"
        with pytest.raises(SystemExit):
            parser.parse_args(["unknown-command"])
