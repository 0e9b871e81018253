import csv
import errno
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dickelift", *args],
        capture_output=True,
        text=True,
    )


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestProb:
    def test_w_state_row(self):
        proc = run_cli("prob", "--n", "3", "--k", "1", "--A", "0.5")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == ["n", "k", "A", "P_folded", "P_raw_k", "P_raw_nk"]
        (row,) = rows
        assert float(row[3]) == pytest.approx(0.75, abs=1e-12)

    def test_separable_source(self):
        proc = run_cli("prob", "--n", "4", "--k", "2", "--A", "0")
        _, rows = parse_csv(proc.stdout)
        assert float(rows[0][3]) == 0.0

    def test_sweep_two_maxima(self):
        proc = run_cli("prob", "--n", "7", "--k", "2", "--sweep", "0", "1", "1000")
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        assert len(rows) == 1001
        weights = [float(r[2]) for r in rows]
        values = [float(r[3]) for r in rows]
        interior = [
            i
            for i in range(1, 1000)
            if values[i] > values[i - 1] and values[i] > values[i + 1]
        ]
        assert len(interior) == 2
        assert weights[interior[0]] + weights[interior[1]] == pytest.approx(1.0, abs=1e-9)

    def test_requires_exactly_one_mode(self):
        assert run_cli("prob", "--n", "3", "--k", "1").returncode == 2
        assert (
            run_cli("prob", "--n", "3", "--k", "1", "--A", "0.5", "--sweep", "0", "1", "5").returncode
            == 2
        )

    def test_invalid_spec_exits_2(self):
        for args in (
            ("--k", "5", "--A", "0.5"),
            ("--k", "1", "--sweep", "0", "1", "nan"),
            ("--k", "1", "--sweep", "0", "1", "inf"),
            ("--k", "1", "--sweep", "0", "1", "1e400"),
        ):
            proc = run_cli("prob", "--n", "3", *args)
            assert proc.returncode == 2, (args, proc.stderr)
            assert proc.stderr.strip()

    def test_rejects_sweep_above_limit(self, monkeypatch, capsys):
        import dickelift.cli as cli

        def refuse(*args):
            raise AssertionError("a probability was computed")

        monkeypatch.setattr(cli, "raw_outcome_prob", refuse, raising=False)
        monkeypatch.setattr(cli, "_prob_cols", refuse)
        assert cli.main(["prob", "--n", "3", "--k", "1", "--sweep", "0", "1", "100001"]) == 2
        assert "at most 100000" in capsys.readouterr().err

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sweep_weights_are_the_documented_grid(self, data):
        start = data.draw(st.one_of(st.just(-0.0), st.floats(0.0, 1.0)), label="start")
        end = data.draw(st.floats(max(start, 0.0), 1.0), label="end")
        steps = data.draw(st.integers(1, 10**5), label="steps")
        env = _handler_envelope("prob", "--n", "9", "--k", "2",
                                "--sweep", repr(start), repr(end), str(steps))
        assert [float.hex(row[2]) for row in env["rows"]] == \
            [float.hex(start + i * (end - start) / steps) for i in range(steps + 1)]


class TestBifurcation:
    def test_branch_counts_k1(self):
        proc = run_cli("bifurcation", "--k", "1", "--n", "3", "8")
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        by_n = {}
        for row in rows:
            by_n.setdefault(int(row[1]), []).append(row)
        assert {n: len(v) for n, v in by_n.items()} == {3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 2}

    def test_branch_counts_k2(self):
        proc = run_cli("bifurcation", "--k", "2", "--n", "6", "7")
        _, rows = parse_csv(proc.stdout)
        counts = {}
        for row in rows:
            counts[int(row[1])] = counts.get(int(row[1]), 0) + 1
        assert counts == {6: 1, 7: 2}

    def test_critical_k3(self):
        proc = run_cli("bifurcation", "--k", "3", "--n", "9", "9")
        _, rows = parse_csv(proc.stdout)
        (row,) = rows
        assert row[2] == "critical"
        assert float(row[4]) == 0.5

    def test_bad_range_exits_2(self):
        assert run_cli("bifurcation", "--k", "2", "--n", "3", "10").returncode == 2
        assert run_cli("bifurcation", "--k", "1", "--n", "8", "5").returncode == 2


class TestNSpanLimit:
    @pytest.fixture
    def cli(self, monkeypatch):
        import dickelift.cli as cli

        def refuse(*args):
            raise AssertionError("a probability was computed")

        monkeypatch.setattr(cli, "bifurcation_diagram", refuse)
        monkeypatch.setattr(cli, "_prob_cols", refuse)
        return cli

    @pytest.mark.parametrize("argv", [
        ["bifurcation", "--k", "1", "--n", "2", "100002"],
        ["bifurcation", "--k", "1", "--n", "2", "1000000000"],
        ["decay", "--k", "1", "--n-max", "100002", "--source", "epr"],
        ["decay", "--k", "3", "--n-max", "1000000000", "--source", "optimal"],
    ])
    def test_rejects_span_above_limit(self, cli, capsys, argv):
        assert cli.main(argv) == 2
        assert "at most 100000 values of n" in capsys.readouterr().err

    def test_accepts_span_at_limit(self, cli, monkeypatch):
        spans = []
        monkeypatch.setattr(cli, "bifurcation_diagram",
                            lambda k, n_min, n_max: spans.append(n_max - n_min + 1) or [])
        assert cli.main(["bifurcation", "--k", "1", "--n", "2", "100001"]) == 0
        assert cli.main(["decay", "--k", "1", "--n-max", "100001", "--source", "optimal"]) == 0
        assert spans == [100000, 100000]


class TestDecay:
    def test_epr_values(self):
        proc = run_cli("decay", "--k", "1", "--n-max", "5", "--source", "epr")
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        values = {int(r[0]): float(r[1]) for r in rows}
        assert values[3] == pytest.approx(0.75, abs=1e-12)
        assert values[4] == pytest.approx(0.5, abs=1e-12)
        assert values[5] == pytest.approx(0.3125, abs=1e-12)

    def test_optimal_tracks_asymptote(self):
        proc = run_cli("decay", "--k", "3", "--n-max", "40", "--source", "optimal")
        _, rows = parse_csv(proc.stdout)
        for row in rows:
            n, p, p_asymp = int(row[0]), float(row[1]), float(row[2])
            if n >= 26:
                assert abs(p - p_asymp) / p < 0.005

    def test_bad_range_exits_2(self):
        assert run_cli("decay", "--k", "1", "--n-max", "1", "--source", "epr").returncode == 2


class TestSimulate:
    def test_w_state_statistics(self):
        proc = run_cli("simulate", "--n", "3", "--A", "0.5", "--runs", "100000", "--seed", "7")
        assert proc.returncode == 0
        env = json.loads(proc.stdout)
        rows = {r[0]: r for r in env["rows"]}
        for k in range(4):
            assert abs(rows[k][4]) < 5  # z-score column
        w_rate = env["summary"]["dicke_produced"]["1"] / env["summary"]["runs"]
        assert w_rate == pytest.approx(0.75, abs=0.01)

    def test_all_failures(self):
        proc = run_cli("simulate", "--n", "2", "--A", "1", "--runs", "10", "--seed", "0")
        env = json.loads(proc.stdout)
        assert env["summary"]["failures"] == 10
        assert env["summary"]["pairs_per_dicke"] is None

    def test_determinism_up_to_timestamp(self):
        args = ("simulate", "--n", "4", "--A", "0.3", "--runs", "5000", "--seed", "0xDEADBEEF")
        env1 = json.loads(run_cli(*args).stdout)
        env2 = json.loads(run_cli(*args).stdout)
        env1["metadata"].pop("timestamp")
        env2["metadata"].pop("timestamp")
        assert json.dumps(env1, sort_keys=True) == json.dumps(env2, sort_keys=True)

    def test_hex_and_decimal_seeds_agree(self):
        a = json.loads(run_cli("simulate", "--n", "3", "--A", "0.5", "--runs", "100", "--seed", "0xff").stdout)
        b = json.loads(run_cli("simulate", "--n", "3", "--A", "0.5", "--runs", "100", "--seed", "255").stdout)
        assert a["rows"] == b["rows"]

    def test_seed_is_decimal_or_hex_only(self, tmp_path, capsys):
        import dickelift.cli as cli

        def simulate(seed, name):
            return cli.main(["simulate", "--n", "3", "--A", "0.5", "--runs", "100", "--seed", seed,
                             "--format", "csv", "--output", str(tmp_path / name)])

        # a leading zero stays decimal; binary and octal prefixes are not seeds
        assert simulate("007", "a.csv") == 0 and simulate("7", "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for seed in ("0b101", "0o17"):
            with pytest.raises(SystemExit) as exit_info:
                simulate(seed, "c.csv")
            assert exit_info.value.code == 2
            assert f"not a decimal or 0x-prefixed seed: '{seed}'" in capsys.readouterr().err

    def test_rejects_runs_above_limit(self, monkeypatch, capsys):
        import dickelift.cli as cli

        from dickelift import probabilities

        def refuse(*args):
            raise AssertionError("the outcome law was computed")

        monkeypatch.setattr(probabilities, "_raw_law", refuse)
        for runs in ("1000000001", "1000000000000000"):
            argv = ["simulate", "--n", "3", "--A", "0.5", "--runs", runs, "--seed", "1"]
            assert cli.main(argv) == 2
            assert "at most 1000000000" in capsys.readouterr().err

    def test_rejects_n_above_limit(self, monkeypatch, capsys):
        import dickelift.cli as cli
        from dickelift import probabilities

        def refuse(*args):
            raise AssertionError("the outcome law was computed")

        monkeypatch.setattr(probabilities, "_raw_law", refuse)
        for n in ("1000001", "1000000000000"):
            argv = ["simulate", "--n", n, "--A", "0.5", "--runs", "10", "--seed", "1"]
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == f"error: n must lie in [2, 1000000], got {n}\n"
        # n at the cap passes the check and reaches the refusing law
        assert cli.main(["simulate", "--n", "1000000", "--A", "0.5", "--runs", "10",
                         "--seed", "1"]) == 1
        assert "the outcome law was computed" in capsys.readouterr().err

    def test_rejects_oversized_seed(self):
        proc = run_cli("simulate", "--n", "3", "--A", "0.5", "--runs", "10", "--seed", str(2**64))
        assert proc.returncode == 2


class TestEntanglement:
    def test_bell_pair(self):
        proc = run_cli("entanglement", "--n", "2", "--k", "1", "--measure", "entropy")
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        (row,) = rows
        assert float(row[4]) == pytest.approx(1.0, abs=1e-12)

    def test_tangle_n100(self):
        proc = run_cli("entanglement", "--n", "100", "--k", "1", "--measure", "tangle")
        _, rows = parse_csv(proc.stdout)
        (row,) = rows
        assert float(row[4]) == pytest.approx(0.0396, abs=1e-6)
        assert row[6] == "true"

    def test_entropy_n20_k3(self):
        proc = run_cli("entanglement", "--n", "20", "--k", "3", "--measure", "entropy")
        _, rows = parse_csv(proc.stdout)
        assert rows[0][6] == "true"

    def test_invalid_spec(self):
        assert run_cli("entanglement", "--n", "3", "--k", "2", "--measure", "tangle").returncode == 2

    @pytest.mark.parametrize("measure", ["entropy", "tangle"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 100])
    def test_row_is_the_library_report(self, capsys, n, measure):
        import dickelift.cli as cli
        from dickelift import BipartiteMeasure, DickeSpec, check_locc_bound, tangle_decay_bound

        assert cli.main(["entanglement", "--n", str(n), "--k", "1", "--measure", measure]) == 0
        _, (row,) = parse_csv(capsys.readouterr().out)
        spec = DickeSpec(n, 1)
        report = check_locc_bound(spec, BipartiteMeasure(measure))
        assert [int(row[0]), int(row[1]), row[2], *map(float, row[3:6]), row[6], float(row[7])] == [
            n, 1, measure, report.lhs, report.dicke_value, report.rhs,
            "true" if report.holds else "false", tangle_decay_bound(spec)[0]]


class TestExitCodes:
    """Argument errors the library raises exit 2; any other error exits 1."""

    BIG = str(2**53 + 1)
    N_RANGE = f"n must lie in [2, {2**53}], got "

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["prob", "--n", "3", "--k", "1", "--A", "1.5"],
                     "p00 must lie in [0, 1], got 1.5", id="prob-p00"),
        pytest.param(["prob", "--n", BIG, "--k", "1", "--A", "0.5"], N_RANGE + BIG, id="prob-n"),
        pytest.param(["bifurcation", "--k", "0", "--n", "2", "5"],
                     "k must be at least 1, got 0", id="bifurcation-k"),
        pytest.param(["bifurcation", "--k", "1", "--n", BIG, BIG],
                     f"n_min must lie in [2, {2**53}], got {BIG}", id="bifurcation-n"),
        pytest.param(["decay", "--k", "0", "--n-max", "5", "--source", "epr"],
                     "k must lie in [1, 2], got 0", id="decay-k"),
        pytest.param(["decay", "--k", "1", "--n-max", BIG, "--source", "optimal"],
                     N_RANGE + BIG, id="decay-n"),
        pytest.param(["simulate", "--n", "3", "--A", "-0.5", "--runs", "10", "--seed", "1"],
                     "p00 must lie in [0, 1], got -0.5", id="simulate-p00"),
        pytest.param(["simulate", "--n", "1", "--A", "0.5", "--runs", "10", "--seed", "1"],
                     "n must lie in [2, 1000000], got 1", id="simulate-n"),
        pytest.param(["simulate", "--n", "3", "--A", "0.5", "--runs", "0", "--seed", "1"],
                     "runs must be at least 1, got 0", id="simulate-runs"),
        pytest.param(["simulate", "--n", "3", "--A", "0.5", "--runs", "10", "--seed", str(2**64)],
                     f"seed must lie in [0, {2**64 - 1}], got {2**64}", id="simulate-seed"),
        pytest.param(["entanglement", "--n", "3", "--k", "2", "--measure", "tangle"],
                     "k must lie in [1, 1], got 2", id="entanglement-k"),
        pytest.param(["entanglement", "--n", str(10**17), "--k", "1", "--measure", "tangle"],
                     N_RANGE + str(10**17), id="entanglement-n"),
    ])
    def test_library_argument_error_exits_2(self, capsys, argv, message):
        import dickelift.cli as cli

        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    @pytest.mark.parametrize("name, argv", [
        ("bifurcation_diagram", ["bifurcation", "--k", "1", "--n", "3", "8"]),
        ("_streamed_report",
         ["simulate", "--n", "3", "--A", "0.5", "--runs", "10", "--seed", "1"]),
    ])
    def test_other_error_exits_1(self, monkeypatch, capsys, name, argv, error):
        import dickelift.cli as cli

        def fail(*args):
            raise error("deliberate")

        monkeypatch.setattr(cli, name, fail)
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "internal error: deliberate\n"


class TestOutputAndFormats:
    def test_csv_json_value_parity(self):
        csv_proc = run_cli("prob", "--n", "6", "--k", "2", "--sweep", "0", "1", "20")
        json_proc = run_cli(
            "prob", "--n", "6", "--k", "2", "--sweep", "0", "1", "20", "--format", "json"
        )
        _, csv_rows = parse_csv(csv_proc.stdout)
        env = json.loads(json_proc.stdout)
        assert len(csv_rows) == len(env["rows"])
        for text_row, json_row in zip(csv_rows, env["rows"]):
            for text_cell, value in zip(text_row[2:], json_row[2:]):
                # round-trip parse equality, far tighter than 15 significant digits
                assert float(text_cell) == value

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.csv"
        proc = run_cli(
            "prob", "--n", "3", "--k", "1", "--A", "0.5", "--output", str(target)
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        header, rows = parse_csv(target.read_text())
        assert header[0] == "n" and len(rows) == 1
        assert not list(tmp_path.glob(".dickelift-*"))  # no temp leftovers

    def test_output_file_mode_is_that_of_open(self, tmp_path):
        # a new --output file, and one written over, get the mode open() gives
        script = """if True:
            import os, sys
            from dickelift.cli import main
            os.umask(0o022)
            target, reference = sys.argv[1:]
            open(reference, "w").close()
            argv = ["prob", "--n", "3", "--k", "1", "--A", "0.5", "--output", target]
            modes = []
            for _ in range(2):
                assert main(argv) == 0
                modes.append(os.stat(target).st_mode & 0o777)
            print(*modes, os.stat(reference).st_mode & 0o777)
        """
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.csv"),
                               str(tmp_path / "ref.csv")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(0o644)] * 3

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        import dickelift.cli as cli

        directory = tmp_path / "dir"
        directory.mkdir()
        for target in (tmp_path / "missing" / "out.csv", directory):
            assert cli.main(["prob", "--n", "3", "--k", "1", "--A", "0.5",
                             "--output", str(target)]) == 2
            assert f"--output {target}: " in capsys.readouterr().err
        assert not list(tmp_path.glob(".dickelift-*"))

    def test_write_error_exits_1(self, tmp_path, monkeypatch, capsys):
        import dickelift.cli as cli

        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli.os, "fdopen", lambda fd, mode: cli.os.close(fd) or FullDisk())
        assert cli.main(["prob", "--n", "3", "--k", "1", "--A", "0.5",
                         "--output", str(tmp_path / "out.csv")]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_json_envelope_fields(self):
        env = json.loads(
            run_cli("decay", "--k", "1", "--n-max", "4", "--source", "epr", "--format", "json").stdout
        )
        assert env["command"] == "decay"
        assert env["parameters"]["source"] == "epr"
        assert set(env["metadata"]) == {"version", "timestamp"}
        for row in env["rows"]:
            assert all(math.isfinite(v) for v in row if isinstance(v, float))

    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.returncode == 0 and proc.stdout.strip()


class TestLibraryParity:
    """Rows that cli.main writes equal the library's values exactly, CSV and JSON."""

    HALF_DOWN = math.nextafter(0.5, 0.0)
    HALF_UP = math.nextafter(0.5, 1.0)

    @staticmethod
    def rows(tmp_path, fmt, *argv):
        import dickelift.cli as cli

        path = tmp_path / f"out.{fmt}"
        assert cli.main([*argv, "--format", fmt, "--output", str(path)]) == 0
        if fmt == "json":
            return json.loads(path.read_text())["rows"]
        _, rows = parse_csv(path.read_text())
        return [[int(row[0]), *map(float, row[1:])] for row in rows]

    @staticmethod
    def prob_row(n, k, a):
        from dickelift import DickeSpec, folded_prob, raw_outcome_prob

        return [n, k, a, folded_prob(DickeSpec(n, k), a),
                raw_outcome_prob(n, k, a), raw_outcome_prob(n, n - k, a)]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n,k", [(7, 2), (8, 4), (10**6, 3), (10**6, 500000)])
    def test_prob_points(self, tmp_path, fmt, n, k):
        for a in (0.0, 1.0, 0.5, self.HALF_DOWN, self.HALF_UP, k / n):
            rows = self.rows(tmp_path, fmt, "prob", "--n", str(n), "--k", str(k), "--A", repr(a))
            assert rows == [self.prob_row(n, k, a)], a

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n,k,start,end,steps", [
        (7, 2, 0.0, 1.0, 40),
        (8, 4, HALF_DOWN, HALF_UP, 2),
        (10**6, 3, 0.0, 1e-5, 50),
        (10**6, 500000, 0.4999, 0.5001, 20),
    ])
    def test_prob_sweeps(self, tmp_path, fmt, n, k, start, end, steps):
        rows = self.rows(tmp_path, fmt, "prob", "--n", str(n), "--k", str(k),
                         "--sweep", repr(start), repr(end), str(steps))
        weights = [start + i * (end - start) / steps for i in range(steps + 1)]
        assert rows == [self.prob_row(n, k, a) for a in weights]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_decay_epr(self, tmp_path, fmt):
        from dickelift import DickeSpec, asymptotic_expansion, folded_prob

        rows = self.rows(tmp_path, fmt, "decay", "--k", "3", "--n-max", "500", "--source", "epr")
        specs = [DickeSpec(n, 3) for n in range(6, 501)]
        assert rows == [[spec.n, folded_prob(spec, 0.5), asymptotic_expansion(spec)]
                        for spec in specs]


def _reference_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def _reference_render(env: dict, fmt: str) -> str:
    """The per-cell renderer the row-at-a-time one must match byte for byte."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(env["columns"])
        for row in env["rows"]:
            writer.writerow([_reference_cell(v) for v in row])
        return buf.getvalue()
    return json.dumps(env, indent=2) + "\n"


def _contract_breaches(env: dict) -> list[str]:
    """The clauses of the table contract that env breaks; _render's CSV join relies on it.

    Each row has one cell per column; each cell is an int, float, str or bool; a column is
    all bool or holds none; and each str, column names included, is one csv writes bare:
    nonempty, with no ',', '"', '\r' or '\n'.
    """
    columns, rows = env["columns"], env["rows"]
    cells = [cell for row in rows for cell in row]
    strs = [cell for cell in [*columns, *cells] if type(cell) is str]
    mixed = [name for j, name in enumerate(columns)
             if len({type(row[j]) is bool for row in rows if j < len(row)}) > 1]
    return [breach for breach, holds in [
        ("a row is not len(columns) wide", all(len(row) == len(columns) for row in rows)),
        ("a cell is not an int, float, str or bool",
         {type(cell) for cell in cells} <= {int, float, str, bool}),
        (f"columns {mixed} mix bools with other cells", not mixed),
        ("a str is empty or holds a ',', '\"', '\\r' or '\\n'",
         all(s and not any(c in s for c in ',"\r\n') for s in strs)),
    ] if not holds]


def _formats(env: dict) -> tuple[str, ...]:
    """csv and json for a table the CSV join takes, else json alone."""
    return ("json",) if _contract_breaches(env) else ("csv", "json")


def _handler_envelope(*argv):
    import dickelift.cli as cli

    args = cli._build_parser().parse_args(argv)
    return args.handler(args)


class TestRender:
    HALF_DOWN = repr(math.nextafter(0.5, 0.0))
    HALF_UP = repr(math.nextafter(0.5, 1.0))

    ENVELOPES = {
        "prob_point": ("prob", "--n", "7", "--k", "2", "--A", HALF_DOWN),
        "prob_sweep": ("prob", "--n", "7", "--k", "2", "--sweep", "0", "1", "40"),
        "prob_sweep_half": ("prob", "--n", "8", "--k", "4", "--sweep", HALF_DOWN, HALF_UP, "2"),
        "bifurcation": ("bifurcation", "--k", "1", "--n", "3", "8"),
        "decay_epr": ("decay", "--k", "2", "--n-max", "12", "--source", "epr"),
        "decay_optimal": ("decay", "--k", "3", "--n-max", "20", "--source", "optimal"),
        "simulate": ("simulate", "--n", "5", "--A", "0.3", "--runs", "1000", "--seed", "7"),
        "simulate_all_fail": ("simulate", "--n", "5", "--A", "1", "--runs", "10", "--seed", "7"),
        "entanglement": ("entanglement", "--n", "20", "--k", "3", "--measure", "entropy"),
        # the size of the benchmark's sweeps
        "prob_sweep_5000": ("prob", "--n", "10", "--k", "3", "--sweep", "0", "1", "5000"),
    }

    SYNTHETIC = {
        "command": "synthetic",
        "parameters": {"label": 'say "hi", \u00e9\u00df\u20ac', "x": None, "flags": [True, 0.5]},
        "columns": ["a", "b", "c", "d", "e"],
        "rows": [
            [1, 0.0, -0.0, 5e-324, 1e308],
            [float("nan"), float("inf"), float("-inf"), -7, 2**70],
            ['quote "q", comma', "\u00fcnic\u00f6de", True, False, None],
            [0.1, None, "line\nbreak", "", 1.5],
        ],
        "summary": {"nested": {"1": 2}, "none": None, "list": []},
        "metadata": {"version": "0", "timestamp": "t"},
    }

    # int and float cells only: csv's str() of each, joined without csv.writer
    NUMERIC = {
        **SYNTHETIC,
        "rows": [
            [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324],
            [1e308, 2**70, -7, 0, -(2**70)],
            [0.1, -1.5e-300, 3, -0.0, 1e16],
        ],
    }

    # the second names are not bare, so csv would quote them: JSON only
    @pytest.mark.parametrize("columns", [["a", "b", "c", "d", "e"],
                                         ["a,b", 'say "c"', "d", "e", 'f,"g"']])
    def test_numeric_table_matches_reference(self, columns):
        import dickelift.cli as cli

        env = {**self.NUMERIC, "columns": columns}
        assert {type(v) for row in env["rows"] for v in row} == {int, float}
        assert ("csv" in _formats(env)) == (columns == self.NUMERIC["columns"])
        for fmt in _formats(env):
            assert cli._render(env, fmt) == _reference_render(env, fmt)

    # the CSV half checks the bare cells; no handler emits the others
    @pytest.mark.parametrize("cell", ["supercritical", " padded ", "\u00e9\u00df", ",", '"', "\r",
                                      "\n", "a,b", 'say "x"', "cr\rlf", ""])
    def test_str_cells_match_reference(self, cell):
        import dickelift.cli as cli

        env = {**self.NUMERIC, "columns": ["a", "b", "c"],
               "rows": [[1, cell, 0.5], [2, "critical", -0.0]]}
        for fmt in _formats(env):
            assert cli._render(env, fmt) == _reference_render(env, fmt)

    # only the third table keeps the contract and takes the CSV half
    @pytest.mark.parametrize("rows", [
        [[""]],
        [["x"], [""], [1.5]],
        [["x"], ["y"], [2]],
        [[1, 2.5], [3], [0.1, 4, "x"]],  # rows of different widths
    ])
    def test_narrow_and_ragged_rows_match_reference(self, rows):
        import dickelift.cli as cli

        env = {**self.NUMERIC, "columns": ["a"], "rows": rows}
        for fmt in _formats(env):
            assert cli._render(env, fmt) == _reference_render(env, fmt)

    @pytest.mark.parametrize("fmt", ["json"])
    def test_numpy_and_bool_cells_match_reference(self, fmt):
        import dickelift.cli as cli

        rows = [row[:] for row in self.NUMERIC["rows"]]
        rows[0][1:3] = np.float64(0.1), True
        env = {**self.NUMERIC, "rows": rows}
        text = cli._render(env, fmt)
        assert text == _reference_render(env, fmt)
        # a float subclass prints as the float it is, as in every other row
        assert "0.1" in text and "np.float64(" not in text

    def test_json_row_break_inside_strings(self):
        import dickelift.cli as cli

        env = {**self.SYNTHETIC, "rows": [
            ["],\n      [", "], [", 1.0, "]", "["],
            ["\n    ],\n    [\n      ", "],", 2, ",\n      [", "],\n      ["],
        ]}
        assert cli._render(env, "json") == _reference_render(env, "json")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(ENVELOPES))
    def test_subcommand_envelopes_match_reference(self, name, fmt):
        import dickelift.cli as cli

        env = _handler_envelope(*self.ENVELOPES[name])
        assert cli._render(env, fmt) == _reference_render(env, fmt)

    # every table a handler emits; bifurcation_k3 spans all three regimes
    TABLES = {
        **ENVELOPES,
        "bifurcation_k3": ("bifurcation", "--k", "3", "--n", "6", "12"),
        "entanglement_tangle": ("entanglement", "--n", "20", "--k", "3", "--measure", "tangle"),
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_handler_tables_keep_the_contract(self, name):
        env = _handler_envelope(*self.TABLES[name])
        assert _contract_breaches(env) == []
        if name == "bifurcation_k3":
            assert {row[2] for row in env["rows"]} == {"subcritical", "critical", "supercritical"}

    # JSON only: SYNTHETIC holds None, bools in mixed columns and strs csv would quote
    @pytest.mark.parametrize("fmt", ["json"])
    def test_synthetic_envelope_matches_reference(self, fmt):
        import dickelift.cli as cli

        assert cli._render(self.SYNTHETIC, fmt) == _reference_render(self.SYNTHETIC, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_rows_match_reference(self, fmt):
        import dickelift.cli as cli

        env = {**self.SYNTHETIC, "rows": []}
        text = cli._render(env, fmt)
        assert text == _reference_render(env, fmt)
        if fmt == "json":
            assert '"rows": []' in text


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import dickelift, sys; print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
