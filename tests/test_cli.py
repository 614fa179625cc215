import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import syncmonoid
from syncmonoid import cli, dixon, experiments, transform
from syncmonoid.cli import main
from syncmonoid.experiments import explore_maximal_nonsync
from syncmonoid.formats import parse_graph

DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture
def cerny_file(tmp_path):
    path = tmp_path / "cerny4.tm"
    path.write_text("# shift and a merge\n2 3 4 1\n2 2 3 4\n")
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge_n4.g"
    path.write_text("4 1\n1 2\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMapCommands:
    def test_sync(self, capsys, cerny_file):
        code, out, _ = run(capsys, ["sync", "--maps", cerny_file])
        assert code == 0
        assert json.loads(out) == {"synchronizing": True}

    def test_gr_null_graph(self, capsys, cerny_file):
        code, out, _ = run(capsys, ["gr", "--maps", cerny_file])
        assert code == 0
        assert out == "4 0\n"

    def test_gr_round_trips(self, capsys, tmp_path):
        path = tmp_path / "perm.tm"
        path.write_text("2 3 1\n")
        code, out, _ = run(capsys, ["gr", "--maps", str(path)])
        assert code == 0
        assert parse_graph(out).num_edges() == 3  # permutations separate everything

    def test_minrank(self, capsys, cerny_file):
        code, out, _ = run(capsys, ["minrank", "--maps", cerny_file])
        assert code == 0
        record = json.loads(out)
        assert record["rank"] == 1
        assert len(record["map"]) == 4

    def test_word_shortest(self, capsys, cerny_file):
        code, out, _ = run(capsys, ["word", "--maps", cerny_file, "--shortest"])
        record = json.loads(out)
        assert code == 0
        assert record["length"] == 9
        assert all(1 <= gi <= 2 for gi in record["word"])

    def test_word_shortest_cap(self, capsys):
        argv = ["word", "--maps", str(DATA / "cerny4.tm"), "--shortest"]
        code, out, err = run(capsys, argv + ["--cap", "3"])
        assert code == 1
        assert out == ""
        assert "exceeded cap (partial count: 4)" in err
        assert "Traceback" not in err
        # the default cap leaves the word as it was
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out) == {"length": 9, "word": [2, 1, 1, 1, 2, 1, 1, 1, 2]}

    def test_word_greedy_none_for_permutations(self, capsys, tmp_path):
        path = tmp_path / "perm.tm"
        path.write_text("2 3 1\n")
        code, out, _ = run(capsys, ["word", "--maps", str(path)])
        assert code == 0
        assert json.loads(out) == {"word": None, "length": None}


class TestParserReuse:
    """``main`` parses every call with the one parser ``build_parser`` keeps
    per process, so no call may leave state in it for the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_state(self, capsys, cerny_file, tmp_path):
        # on these two maps the greedy word, 2 1 2, is longer than the shortest, 1 2
        maps = tmp_path / "greedy_longer.tm"
        maps.write_text("3 4 4 3\n3 2 1 1\n")
        target = tmp_path / "result.json"
        sequence = [
            ["sync", "--maps", cerny_file, "--out", str(target)],
            ["sync", "--maps", cerny_file],
            ["word", "--maps", str(maps), "--shortest"],
            ["word", "--maps", str(maps)],
        ]
        shared = [run(capsys, argv) for argv in sequence]
        assert shared[0][1] == "" and json.loads(target.read_text()) == {"synchronizing": True}
        assert json.loads(shared[1][1]) == {"synchronizing": True}
        assert json.loads(shared[2][1]) == {"word": [1, 2], "length": 2}
        assert json.loads(shared[3][1]) == {"word": [2, 1, 2], "length": 3}
        # each call alone, on a parser built for it, gives the same output
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, argv))
        assert shared == fresh


class TestGraphCommands:
    def test_endos_count(self, capsys, edge_file):
        code, out, _ = run(capsys, ["endos", "--graph", edge_file, "--count-only"])
        assert code == 0
        assert json.loads(out) == {"count": "32"}

    def test_endos_listing_sorted(self, capsys, edge_file):
        code, out, _ = run(capsys, ["endos", "--graph", edge_file])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 32
        assert lines == sorted(lines)

    def test_endos_cap_ends_a_huge_count_at_once(self, capsys, tmp_path):
        # End of the null graph on 10 vertices has 10^10 maps
        path = tmp_path / "null10.g"
        path.write_text("10 0\n")
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["endos", "--graph", str(path), "--count-only", "--cap", "1000"]
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert "endomorphism count exceeded cap (partial count: 1001)" in err

    def test_endos_cap_bounds_the_pending_rows(self, tmp_path):
        # the null graph on 100 vertices: the child reports the peak RSS of
        # its own address space, VmHWM.  RUSAGE_CHILDREN would keep the
        # largest child of the whole test run, and on Linux RUSAGE_SELF keeps
        # the RSS that the forked child had before its exec, the test run's.
        if not Path("/proc/self/status").exists():
            pytest.skip("VmHWM is read from /proc/self/status")
        path = tmp_path / "null100.g"
        path.write_text("100 0\n")
        script = (
            "import sys\n"
            "from syncmonoid.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as status:\n"
            "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM'))\n"
            "print(peak, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(syncmonoid.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script, "endos", "--graph", str(path), "--count-only",
             "--cap", "1000"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        message, peak_kb = done.stderr.splitlines()
        assert (done.returncode, done.stdout) == (1, "")
        assert message == "error: endomorphism count exceeded cap (partial count: 1001)"
        assert int(peak_kb) < 100 * 1024

    def test_hull_round_trip(self, capsys, edge_file):
        code, out, _ = run(capsys, ["hull", "--graph", edge_file])
        assert code == 0
        assert out == "4 1\n1 2\n"

    def test_derived(self, capsys, tmp_path):
        path = tmp_path / "tri_pendant.g"
        path.write_text("4 4\n1 2\n1 3\n2 3\n3 4\n")
        code, out, _ = run(capsys, ["derived", "--graph", str(path)])
        assert code == 0
        assert out == "4 3\n1 2\n1 3\n2 3\n"

    def test_nearcon(self, capsys, edge_file):
        code, out, _ = run(capsys, ["nearcon", "--graph", edge_file])
        assert code == 0
        record = json.loads(out)
        assert record["passes"] is True
        assert record["omega"] == record["chi"] == 2


class TestExperimentsCommands:
    def test_exact(self, capsys):
        code, out, _ = run(capsys, ["exact", "--n", "3", "--perms", "0", "--maps-count", "1"])
        assert code == 0
        assert json.loads(out) == {"exact": "1/3"}

    def test_exact_guard_refuses_before_building_tables(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["exact", "--n", "8", "--perms", "0", "--maps-count", "2"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert "closed form" in err and "estimate" in err

    @pytest.mark.parametrize("perms, maps", [("1", "1"), ("0", "2")])
    def test_exact_refuses_huge_n_before_big_integers(self, capsys, perms, maps):
        # n! and n^n at n = 10^6 take seconds; the table check comes first
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["exact", "--n", "1000000", "--perms", perms, "--maps-count", maps]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert "table of T_1000000" in err and "Traceback" not in err

    def test_exact_one_permutation_twelve_points(self, capsys):
        code, out, err = run(capsys, ["exact", "--n", "12", "--perms", "1", "--maps-count", "0"])
        assert code == 0
        assert json.loads(out) == {"exact": "0/1"}
        assert "77 conjugacy classes" in err

    def test_exact_permutations_alone_answer_at_once(self, capsys):
        # the guard admits all p(94) cycle types; none of them is walked
        start = time.perf_counter()
        code, out, err = run(capsys, ["exact", "--n", "94", "--perms", "1", "--maps-count", "0"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out) == {"exact": "0/1"}
        assert "no element of rank 1" in err

    def test_exact_no_maps_answers_before_the_guard(self, capsys):
        # p(10000) cycle types are far past the guard; none is needed
        start = time.perf_counter()
        code, out, err = run(capsys, ["exact", "--n", "10000", "--perms", "1", "--maps-count", "0"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == '{"exact": "0/1"}\n'
        assert "conjugacy classes" not in err

    def test_python_dash_m(self):
        env = dict(os.environ, PYTHONPATH=str(Path(syncmonoid.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "syncmonoid", "exact", "--n", "3", "--perms", "0",
             "--maps-count", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert json.loads(done.stdout) == {"exact": "1/3"}

    def test_cli_loads_no_process_pool(self):
        # concurrent.futures.process is imported only for --threads > 1
        script = (
            "import sys\n"
            "import syncmonoid.cli as cli\n"
            "cli.build_parser()\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(syncmonoid.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stdout) == (0, "False\n")

    def test_estimate_deterministic_bytes(self, capsys):
        argv = ["estimate", "--n", "6", "--k", "2", "--trials", "300", "--seed", "9"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        record = json.loads(out1)
        assert record["r"] == 0 and record["s"] == 2

    def test_estimate_requires_generator_spec(self, capsys):
        code, _, err = run(capsys, ["estimate", "--n", "5", "--trials", "10", "--seed", "1"])
        assert code == 2
        assert "usage error" in err

    def test_estimate_requires_a_generator(self, capsys):
        code, _, err = run(
            capsys,
            ["estimate", "--n", "5", "--perms", "0", "--maps-count", "0",
             "--trials", "10", "--seed", "1"],
        )
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("command", ["exact", "sweep"])
    def test_exact_and_sweep_require_a_generator(self, capsys, command):
        argv = [command, "--n", "5", "--perms", "0", "--maps-count", "0"]
        if command == "sweep":
            argv += ["--trials", "10", "--seed", "1"]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "usage error" in err

    def test_sweep_json_lines(self, capsys):
        argv = [
            "sweep", "--n", "4,5", "--perms", "0", "--maps-count", "2",
            "--trials", "200", "--seed", "3",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in records] == [4, 5]

    def test_sweep_empty_n_list(self, capsys):
        argv = [
            "sweep", "--n", "", "--perms", "0", "--maps-count", "2",
            "--trials", "10", "--seed", "3",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == ""

    def test_explore(self, capsys):
        code, out, err = run(capsys, ["explore", "--n", "3"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 8
        assert "explore: 8 graphs, 4 classes" in err
        code, _, err = run(capsys, ["explore", "--n", "5", "--canonical"])
        assert "explore: 34 graphs, 34 classes" in err

    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("cap", [3, 20, None])
    def test_explore_stream_equals_encoded_records(self, capsys, canonical, cap):
        # the CLI splices each class's encoded text around every member's
        # edges; the per-graph dicts, encoded one by one, are its oracle
        skips = 0
        for n in range(1, 6):
            argv = ["explore", "--n", str(n)] + ["--canonical"] * canonical
            kwargs = {"canonical": canonical}
            if cap is not None:
                argv += ["--cap", str(cap)]
                kwargs["end_cap"] = cap
            records = list(explore_maximal_nonsync(n, **kwargs))
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert out == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
            assert records[0]["edges"] == []  # the null graph comes first
            skips += sum(len(r["skips"]) for r in records)
        assert (skips > 0) == (cap is not None)

    def test_explore_out_file_equals_encoded_records(self, capsys, tmp_path):
        path = tmp_path / "explore.jsonl"
        code, out, _ = run(capsys, ["explore", "--n", "4", "--cap", "3", "--out", str(path)])
        assert code == 0
        assert out == ""
        records = explore_maximal_nonsync(4, end_cap=3)
        assert path.read_text() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)

    def test_explore_rejects_big_n(self, capsys):
        code, _, err = run(capsys, ["explore", "--n", "7"])
        assert code == 2
        code, _, _ = run(capsys, ["explore", "--n", "8", "--canonical"])
        assert code == 2

    def test_dixon(self, capsys):
        code, out, _ = run(capsys, ["dixon", "--max-n", "4"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["c_n"] for r in rows] == ["3", "26", "426"]
        assert rows[2]["prob_transitive"] == "71/96"

    def test_dixon_refuses_past_its_bound_before_any_work(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("computed past the dixon bound")

        assert dixon.SUMMARY_MAX_N == 500
        monkeypatch.setattr(dixon, "transitive_pair_counts", never)
        code, out, err = run(capsys, ["dixon", "--max-n", "501"])
        assert code == 1
        assert out == ""
        assert "past the bound of 500" in err and "Traceback" not in err
        # the bound itself is admitted
        monkeypatch.undo()
        monkeypatch.setattr(dixon, "SUMMARY_MAX_N", 5)
        code, out, _ = run(capsys, ["dixon", "--max-n", "5"])
        assert code == 0 and out.count("\n") == 4
        assert run(capsys, ["dixon", "--max-n", "6"])[0] == 1

    @pytest.mark.parametrize("perms, maps", [(0, 1), (0, 2), (1, 1), (2, 1)])
    def test_output_does_not_depend_on_block_size(self, capsys, monkeypatch, perms, maps):
        # one lane per block, the old budget and a budget past every run,
        # each in one process and in two forked workers
        mix = ["--perms", str(perms), "--maps-count", str(maps), "--seed", "4"]
        commands = [["estimate", "--n", "9", "--trials", "300", *mix],
                    ["sweep", "--n", "3,7,12", "--trials", "150", *mix]]
        outputs = set()
        for budget, floor in [(1, 1), (2**15, 64), (2**20, 64)]:
            monkeypatch.setattr(transform, "LANE_BUDGET", budget)
            monkeypatch.setattr(transform, "LANE_FLOOR", floor)
            for threads in ("1", "2"):
                texts = []
                for argv in commands:
                    code, out, _ = run(capsys, [*argv, "--threads", threads])
                    assert code == 0
                    texts.append(out)
                outputs.add(tuple(texts))
        assert len(outputs) == 1


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["sync", "--maps", "/nonexistent/file.tm"])
        assert code == 1
        assert "error" in err

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.tm"
        path.write_text("1 2\n9 1\n")
        code, _, err = run(capsys, ["sync", "--maps", str(path)])
        assert code == 1
        assert "line 2" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["sync"])  # missing --maps
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "syncmonoid" in capsys.readouterr().out

    def test_out_flag_redirects_machine_output(self, capsys, cerny_file, tmp_path):
        target = tmp_path / "result.json"
        code, out, err = run(capsys, ["sync", "--maps", cerny_file, "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == {"synchronizing": True}
        assert "synchronizing: yes" in err

    def test_stderr_carries_summaries(self, capsys, edge_file):
        _, out, err = run(capsys, ["endos", "--graph", edge_file, "--count-only"])
        assert json.loads(out) == {"count": "32"}
        assert "32 endomorphisms" in err

    def test_failed_certificate_exits_3(self, capsys, monkeypatch):
        # an empty reset word; trials 0 and 100 are audited if they synchronize
        from syncmonoid import experiments

        monkeypatch.setattr(experiments, "_reset_word", lambda images: [])
        argv = ["estimate", "--n", "4", "--k", "2", "--trials", "101", "--seed", "77"]
        code, _, err = run(capsys, argv)
        assert code == 3
        assert err.startswith("internal error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "verdict, generators, message",
        [
            # trial 0, a permutation and a map, does not synchronize: its audit
            # is stuck (two permutations no longer reach the fixpoint)
            (True, ["--perms", "1", "--maps-count", "1"], "never collapsed"),
            # some trials of two maps synchronize: their stuck set is empty
            (False, ["--k", "2"], "non-synchronization certificate"),
        ],
    )
    def test_wrong_batched_verdict_exits_3(self, capsys, monkeypatch, verdict, generators,
                                           message):
        from syncmonoid import experiments

        monkeypatch.setattr(
            experiments, "_synchronizing_lanes",
            lambda n, tables: np.full((tables.shape[0], n * (n - 1) // 2), verdict),
        )
        argv = ["estimate", "--n", "4", *generators, "--trials", "50", "--seed", "77"]
        code, _, err = run(capsys, argv)
        assert code == 3
        assert err.startswith("internal error: ") and message in err
        assert "Traceback" not in err

    def test_unsound_cycle_filter_exits_3(self, capsys, monkeypatch):
        # trial 0 of seed 1 does not synchronize, and trial 0 is always audited
        from syncmonoid import experiments

        monkeypatch.setattr(
            experiments, "_synchronizing_on_cycles",
            lambda tables, r: np.ones(tables.shape[0], dtype=bool),
        )
        argv = ["estimate", "--n", "2", "--perms", "1", "--maps-count", "1", "--trials", "20",
                "--seed", "1"]
        code, _, err = run(capsys, argv)
        assert code == 3
        assert err.startswith("internal error: ") and "never collapsed" in err
        assert "Traceback" not in err

    def test_collapsible_pair_in_a_stuck_set_exits_3(self, capsys, monkeypatch):
        # one collapsed pair of one non-synchronizing lane marked stuck
        from syncmonoid import experiments

        decide = experiments._pair_mix_lanes
        marked = []

        def marking(tables, r):
            sync, lanes, stuck = decide(tables, r)
            lane, pair = np.nonzero(~stuck)
            if lane.size and not marked:
                stuck[lane[-1], pair[-1]] = True
                marked.append(lane[-1])
            return sync, lanes, stuck

        monkeypatch.setattr(experiments, "_pair_mix_lanes", marking)
        argv = ["estimate", "--n", "6", "--k", "2", "--trials", "300", "--seed", "9"]
        code, out, err = run(capsys, argv)
        assert marked and (code, out) == (3, "")
        assert err.startswith("internal error: ") and "non-synchronization certificate" in err

    def test_interrupt_exits_130_without_a_traceback(self, capsys, monkeypatch, tmp_path):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "estimate_sync_probability", interrupted)
        target = tmp_path / "out.json"
        code, out, err = run(capsys, ["estimate", "--n", "5", "--k", "1", "--trials", "5",
                                      "--seed", "1", "--out", str(target)])
        assert (code, out, err) == (130, "", "interrupted\n")
        assert target.read_text() == ""

    @pytest.mark.parametrize("pause", [0, 1])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ctrl_c_exits_130_at_once(self, tmp_path, threads, pause):
        # SIGINT to the process group, as Ctrl-C sends it, once main has
        # opened --out inside its try: at once, about when the workers fork,
        # or a second later, when they run.  A chunk of this run takes tens
        # of seconds, and no running chunk is waited for.
        target = tmp_path / "out.json"
        env = dict(os.environ, PYTHONPATH=str(Path(syncmonoid.__file__).parents[1]))
        argv = [sys.executable, "-m", "syncmonoid", "estimate", "--n", "2560", "--perms", "0",
                "--maps-count", "2", "--trials", "4000", "--seed", "1", "--threads", threads,
                "--out", str(target)]
        proc = subprocess.Popen(argv, stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not target.exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            time.sleep(pause)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=5)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert "Traceback" not in err and err.endswith("interrupted\n")

    def test_non_positive_n_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--n", "0", "--k", "1", "--trials", "5", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("perms, maps", [("0", "1"), ("0", "2"), ("1", "1"), ("2", "0")])
    @pytest.mark.parametrize("command, n", [("estimate", "5794"), ("sweep", "10,20000")])
    def test_pair_budget_refuses_before_any_array(self, capsys, monkeypatch, perms, maps,
                                                  command, n):
        def never(*args, **kwargs):
            raise AssertionError("built or ran past the pair budget")

        monkeypatch.setattr(experiments, "pair_arrays", never)
        monkeypatch.setattr(experiments, "estimate_sync_probability", never)
        monkeypatch.setattr(cli, "estimate_sync_probability", never)
        argv = [command, "--n", n, "--perms", perms, "--maps-count", maps,
                "--trials", "5", "--seed", "1"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "past the budget of 16777216" in err and "n <= 5793" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("message", ["Unable to allocate 6.40 GiB for an array", ""])
    def test_memory_error_exits_1_without_a_traceback(self, capsys, monkeypatch, message):
        def exhausted(*args, **kwargs):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(cli, "estimate_sync_probability", exhausted)
        code, out, err = run(capsys, ["estimate", "--n", "5", "--k", "1",
                                      "--trials", "5", "--seed", "1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: out of memory")
        assert message in err and "Traceback" not in err


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "bench" / "golden"
TESTS_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class TestGoldenOutputs:
    """The benchmark's Monte Carlo workloads at their default seeds, and its
    explore workload, with the same arguments as bench/workloads.py, must
    reproduce the committed golden output byte for byte.  So must
    ``explore --n 6 --canonical``, the first size with maximality verdicts
    that no bench workload runs; its copy lives in tests/golden/.  The
    labeled ``explore --n 6`` is pinned by its sha256."""

    def test_estimate_k1_seed7(self, capsys):
        argv = ["estimate", "--n", "30", "--k", "1", "--trials", "10000",
                "--seed", "7", "--threads", "1"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == (GOLDEN_DIR / "mc_k1.seed7.out").read_text()

    def test_sweep_pairs_seed99(self, capsys):
        out = ""
        for perms, maps_count in [("0", "2"), ("1", "1")]:
            argv = ["sweep", "--n", "10,20,40,80", "--perms", perms, "--maps-count", maps_count,
                    "--trials", "500", "--seed", "99", "--threads", "1"]
            code, text, _ = run(capsys, argv)
            assert code == 0
            out += text
        assert out == (GOLDEN_DIR / "mc_pairs.seed99.out").read_text()

    def test_explore_n5(self, capsys):
        code, out, _ = run(capsys, ["explore", "--n", "5"])
        assert code == 0
        assert out == (GOLDEN_DIR / "explore5.out").read_text()

    def test_explore_n6_labeled_digest(self, capsys):
        # 32,768 lines, too many for a golden file; pinned by digest instead
        code, out, _ = run(capsys, ["explore", "--n", "6"])
        assert code == 0
        assert out.count("\n") == 32768
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "665b7d675c17fe23caa32288b24bc458fd01b39c1a10538b3c4d1f02a396a89e"
        )

    def test_explore_n6_canonical(self, capsys):
        code, out, _ = run(capsys, ["explore", "--n", "6", "--canonical"])
        assert code == 0
        assert out == (TESTS_GOLDEN_DIR / "explore6_canonical.out").read_text()
