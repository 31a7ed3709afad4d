import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scanspread as ss
import scanspread.cli as cli
from scanspread.errors import InternalConsistencyError


def run_cli(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors and --version
        return int(exc.code or 0)


@pytest.fixture
def hosts_file(tmp_path):
    p = tmp_path / "hosts.txt"
    p.write_text(
        "# lab census\n"
        "10.0.0.1\n"
        "10.0.0.2\n"
        "\n"
        "10.255.0.1\n"
        "10.0.0.2\n"
        "192.168.1.1\n",
        encoding="utf-8",
    )
    return p


@pytest.fixture
def dist_file(tmp_path):
    p = tmp_path / "dist.csv"
    ss.GroupDistribution(8, [10, 192], [3, 1]).to_csv(p)
    return p


# -- analyze ---------------------------------------------------------------


def test_analyze_hosts_outputs(hosts_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("analyze", str(hosts_file), "--out-dir", str(out)) == 0
    msg = capsys.readouterr().out
    assert "4 hosts, 1 duplicates dropped, 2 lines ignored" in msg

    rows = dict(
        (int(r["l"]), float(r["beta"]))
        for r in csv.DictReader(open(out / "beta_profile.csv"))
    )
    assert rows[0] == 1.0
    assert rows[8] == 160.0
    assert set(rows) == set(range(17))
    assert (out / "shannon_profile.csv").exists()
    for l in (8, 16):
        assert (out / f"ccdf_l{l}.csv").exists()
        rep = json.loads((out / f"entropy_l{l}.json").read_text())
        assert set(rep) == {"l", "h0_support", "shannon", "h2", "h_inf", "beta"}
    rep8 = json.loads((out / "entropy_l8.json").read_text())
    assert rep8["l"] == 8
    assert rep8["h0_support"] == 1.0
    assert rep8["beta"] == 160.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(hosts_file) in manifest["inputs"]
    assert manifest["version"] == ss.__version__


def test_analyze_check_passes(hosts_file, tmp_path):
    assert run_cli("analyze", str(hosts_file), "--check", "--l-max", "12",
                   "--out-dir", str(tmp_path / "o")) == 0


def test_analyze_dist_input_skips_levels_beyond_resolution(dist_file, tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli("analyze", str(dist_file), "--report-l", "4", "--report-l", "16",
                   "--out-dir", str(out))
    assert code == 0
    assert "skipping l=16" in capsys.readouterr().err
    assert (out / "ccdf_l4.csv").exists()
    assert not (out / "ccdf_l16.csv").exists()
    rep4 = json.loads((out / "entropy_l4.json").read_text())
    assert rep4["beta"] == pytest.approx(16 * (9 + 1) / 16.0)


@pytest.mark.parametrize("text", [
    "#  l=4 N=10\ngroup_index,count\n0,1\n3,9\n",
    "#l=4 N=10\n0,1\n3,9\n",
    "\n\n#\tl=4   N=10 \ngroup_index,count\n0,1\n3,9\n",
    "group_index,count\n# l=4 N=10\n0,1\n3,9\n",
], ids=["two_spaces", "no_space", "blank_lines_and_tab", "column_row_first"])
def test_auto_detection_reads_every_header_from_csv_accepts(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text, encoding="utf-8")
    outs = {}
    for kind in ("auto", "dist"):
        outs[kind] = tmp_path / kind
        assert run_cli("analyze", str(p), "--kind", kind, "--report-l", "4", "--out-dir", str(outs[kind])) == 0
    names = sorted(f.name for f in outs["dist"].iterdir() if f.name != "manifest.json")
    assert names == sorted(f.name for f in outs["auto"].iterdir() if f.name != "manifest.json")
    assert "entropy_l4.json" in names
    assert all((outs["auto"] / n).read_bytes() == (outs["dist"] / n).read_bytes() for n in names)


def test_analyze_dist_matches_host_route(hosts_file, dist_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("analyze", str(hosts_file), "--l-max", "8", "--report-l", "8",
                   "--out-dir", str(a)) == 0
    assert run_cli("analyze", str(dist_file), "--report-l", "8",
                   "--out-dir", str(b)) == 0
    assert (a / "beta_profile.csv").read_bytes() == (b / "beta_profile.csv").read_bytes()
    assert (a / "ccdf_l8.csv").read_bytes() == (b / "ccdf_l8.csv").read_bytes()


# -- exit codes ------------------------------------------------------------


def test_bad_host_line_exits_3(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("10.0.0.1\n999.1.2.3\n", encoding="utf-8")
    assert run_cli("analyze", str(p)) == 3
    assert "bad.txt:2: not a valid IPv4 address" in capsys.readouterr().err


def test_an_octet_of_65537_digits_exits_3(tmp_path, capsys):
    p = tmp_path / "wide.txt"
    p.write_text("10.0.0.1\n" + "1" * 65537 + ".1.1.1\n", encoding="ascii")
    assert run_cli("analyze", str(p), "--out-dir", str(tmp_path / "o")) == 3
    assert "wide.txt:2: not a valid IPv4 address" in capsys.readouterr().err


def test_bad_dist_csv_exits_3(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# l=8 N=10\ngroup_index,count\nbogus,xyz\n", encoding="utf-8")
    assert run_cli("analyze", str(p)) == 3


def test_a_dist_csv_count_past_int64_exits_3(tmp_path, capsys):
    p = tmp_path / "big.csv"
    p.write_text(f"# l=8 N=5\ngroup_index,count\n1,{2**63 + 2}\n", encoding="ascii")
    assert run_cli("analyze", str(p), "--out-dir", str(tmp_path / "o")) == 3
    assert capsys.readouterr().err == f"error: {p}: counts must be integers in [-2**63, 2**63)\n"


def test_a_dist_csv_field_past_the_csv_size_limit_exits_3(tmp_path, capsys):
    # the vectorized reader leaves a field of over 18 digits to the csv loop,
    # whose module refuses fields longer than 131,072 characters
    p = tmp_path / "wide.csv"
    p.write_text("# l=8 N=5\ngroup_index,count\n1," + "0" * 200_000 + "5\n", encoding="ascii")
    with pytest.raises(ss.DistributionFormatError, match=r"wide\.csv:3: field larger than field limit"):
        ss.GroupDistribution.from_csv(p)
    assert run_cli("analyze", str(p), "--out-dir", str(tmp_path / "o")) == 3
    assert re.fullmatch(r"error: .*wide\.csv:3: field larger than field limit \(\d+\)\n", capsys.readouterr().err)


def test_missing_or_unreadable_input_exits_3(tmp_path, capsys):
    missing = tmp_path / "no" / "such.txt"
    assert run_cli("analyze", str(missing), "--out-dir", str(tmp_path / "a")) == 3
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"
    assert run_cli("analyze", str(tmp_path), "--out-dir", str(tmp_path / "b")) == 3  # a directory
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")
    assert run_cli("synth", "hosts", "--dist", str(missing), "--seed", "1",
                   "--out", str(tmp_path / "h.txt")) == 3
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("kind, data", [
    ("hosts", b"10.0.0.1\n10.0.\xff.2\n"),
    ("dist", b"# l=8 N=1\ngroup_index,count\n10,1\xff\n"),
    ("dist", b"# l=8 N=1\xff\ngroup_index,count\n10,1\n"),
    ("auto", b"\xff10.0.0.1\n"),
], ids=["hosts", "dist", "dist_header", "auto"])
def test_non_utf8_input_exits_3(tmp_path, capsys, kind, data):
    p = tmp_path / "bad.txt"
    p.write_bytes(data)
    assert run_cli("analyze", str(p), "--kind", kind, "--out-dir", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "can't decode byte 0xff" in err


@pytest.mark.parametrize("make, argv, culprit, reason", [
    ("file", ["defense", "pp", "--beta", "50", "--out-dir", "{target}/x"], "{target}/x", "Not a directory"),
    ("file", ["synth", "uniform", "--l", "8", "--groups", "2", "--per-group", "3", "--out", "{target}/d.csv"],
     "{target}", "File exists"),
    ("dir", ["synth", "uniform", "--l", "8", "--groups", "2", "--per-group", "3", "--out", "{target}"],
     "{target}", "Is a directory"),
], ids=["out_dir_under_a_file", "out_under_a_file", "out_is_a_directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, make, argv, culprit, reason):
    target = tmp_path / "target"
    if make == "dir":
        target.mkdir()
    else:
        target.write_text("")
    assert run_cli(*(a.format(target=target) for a in argv)) == 2
    assert capsys.readouterr().err == f"error: {culprit.format(target=target)}: {reason}\n"


@pytest.mark.parametrize("argv", [
    ["rates", "--s", "inf", "--N", "100"],
    ["rates", "--s", "1", "--N", "inf"],
    ["rates", "--s", "1", "--N", "nan"],
    ["rates", "--s", "1", "--N", "100", "--beta16", "nan", "--strategy", "is:l=16"],
    ["rates", "--s", "1", "--N", "100", "--beta", "16=inf", "--strategy", "is:l=16"],
    ["rates", "--s", "1", "--N", "100", "--maxp", "nan", "--strategy", "optis:l=8"],
    ["simulate", "early", "{dist}", "--strategy", "rs", "--s", "inf", "--scans", "10", "--runs", "5",
     "--seed", "1"],
    ["simulate", "epidemic", "{dist}", "--strategy", "rs:l=8", "--s", "inf", "--horizon", "3"],
    ["simulate", "epidemic", "{dist}", "--strategy", "rs:l=8", "--s", "1", "--tick", "inf", "--horizon", "3"],
    ["simulate", "epidemic", "{dist}", "--strategy", "optis:l=8", "--s", "1e308", "--horizon", "3"],
    ["defense", "pp", "--beta", "inf", "--d", "0.5"],
    ["defense", "pp", "--beta", "50", "--d", "0.5", "--s", "inf", "--N", "10"],
    ["defense", "ipv6", "--s", "1", "--N", "inf", "--beta32", "2"],
    ["defense", "ipv6", "--s", "1", "--N", "10", "--beta32", "inf"],
    ["rates", "--s", "1", "--N", "100", "--beta8", "2", "--beta16", "3", "--strategy", "2lls:pb=nan,pc=0.5"],
], ids=["rates_s", "rates_N_inf", "rates_N_nan", "rates_beta16", "rates_beta_entry", "rates_maxp", "early_s",
        "epidemic_s", "epidemic_tick", "epidemic_s_tick_N", "pp_beta", "pp_s", "ipv6_N", "ipv6_beta32",
        "rates_strategy_nan"])
def test_non_finite_numbers_exit_2(dist_file, tmp_path, capsys, argv):
    out = tmp_path / "o"
    argv = [str(dist_file) if a == "{dist}" else a for a in argv]
    assert run_cli(*argv, "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv, says", [
    (["defense", "ipv6", "--s", "1e300", "--N", "1e19", "--beta32", "2"], "the IPv6 rate is inf"),
    (["defense", "ipv6", "--s", "1", "--N", "1e20", "--beta32", "2"], "population N must be in [1, 2**64]"),
    (["defense", "ipv6", "--s", "1", "--N", "10", "--beta32", "1e10"], "beta32 must be in [1, 2**32]"),
    (["defense", "pp", "--beta", "50", "--d", "0.5", "--s", "1e308", "--N", "10"], "alpha_RS = s * N / omega is inf"),
    (["rates", "--s", "1e308", "--N", "4", "--beta16", "1e308", "--strategy", "is:l=16"],
     "beta(16) must be in [1, 2**16]"),
    (["rates", "--s", "1e308", "--N", "4"], "alpha_RS = s * N / omega is inf"),
    (["rates", "--s", "1", "--N", "4", "--beta16", "0.5", "--strategy", "ls:l=16,pa=0.5"], "beta(16) must be in"),
    (["rates", "--s", "1", "--N", "4", "--beta", "8=257", "--beta16", "2", "--strategy", "2lls:pb=0.5,pc=0.5"],
     "beta(8) must be in [1, 2**8], got 257.0"),
    (["rates", "--s", "1", "--N", "4", "--maxp", "0.001", "--strategy", "optis:l=8"],
     "max p at l=8 must be in [2**-8, 1]"),
    (["rates", "--s", "1", "--N", "4", "--beta", "40=3"], "override level must be in [0, 32], got 40"),
    (["defense", "pp", "--beta", "1e10", "--d", "0.5"], "beta must be in [1, 2**32], got 10000000000.0"),
    (["defense", "pp", "--beta", "4294967297", "--d-grid", "0.5:1:0.25"], "beta must be in [1, 2**32]"),
    (["defense", "pp", "--beta", "50", "--d", "0.5", "--s", "100"], "pp takes --s and --N together"),
    (["defense", "pp", "--beta", "50", "--d", "0.5", "--N", "10"], "pp takes --s and --N together"),
    # 30,000 hosts in one /16: the hit counts vary enough that s**2 times their variance overflows
    (["simulate", "early", "{dense}", "--strategy", "optis:l=16", "--s", "1e200", "--scans", "10", "--runs", "20",
      "--seed", "1"], "var_alpha is inf"),
    (["simulate", "early", "{dense}", "--strategy", "mss:l=16", "--s", "1e200", "--budgets", "10,1000000",
      "--runs", "20", "--seed", "1"], "var_alpha is inf"),
], ids=["ipv6_overflow", "ipv6_N_past_2_64", "ipv6_beta32", "pp_alpha_rs", "rates_beta16_huge",
        "rates_alpha_rs_overflow", "rates_beta_below_1", "rates_beta8_above", "rates_maxp_below", "rates_beta_level",
        "pp_beta_huge", "pp_beta_above_2_32", "pp_s_without_N", "pp_N_without_s", "early_variance_overflow",
        "mss_budgets_variance_overflow"])
def test_rates_that_overflow_or_rest_on_impossible_factors_exit_2(tmp_path, capsys, argv, says):
    dense = tmp_path / "dense.csv"
    ss.synth_uniform(1, 16, 30000).to_csv(dense)
    out = tmp_path / "o"
    assert run_cli(*(a.format(dense=dense) for a in argv), "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and says in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("scans", ["7", "1000", "0"])
def test_simulate_early_refuses_scans_with_budgets(dist_file, tmp_path, capsys, scans):
    # a budget sweep takes its scan counts from --budgets alone
    out = tmp_path / "o"
    assert run_cli("simulate", "early", str(dist_file), "--strategy", "mss:l=8", "--s", "1", "--seed", "1",
                   "--scans", scans, "--budgets", "10", "--out-dir", str(out)) == 2
    assert "argument --budgets: not allowed with argument --scans" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["analyze", "{dist}"], ["defense", "pp", "--beta", "50", "--d", "0.5"]],
                         ids=["analyze", "defense"])
def test_time_unit_is_refused_where_no_rate_is_written(dist_file, tmp_path, capsys, argv):
    out = tmp_path / "o"
    argv = [str(dist_file) if a == "{dist}" else a for a in argv]
    assert run_cli(*argv, "--time-unit", "minute", "--out-dir", str(out)) == 2
    assert "unrecognized arguments: --time-unit minute" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, stray", [
    (["defense", "ipv6", "--s", "1", "--N", "10", "--beta32", "2"], ["--d", "0.5"]),
    (["defense", "ipv6", "--s", "1", "--N", "10", "--beta32", "2"], ["--d-grid", "0.5:1:0.5", "--beta", "3"]),
    (["defense", "pp", "--beta", "3"], ["--beta32", "7"]),
    (["defense", "pp", "--beta", "3", "--d", "0.5"], ["--beta32", "7"]),
], ids=["ipv6_d", "ipv6_grid_beta", "pp_beta32", "pp_d_beta32"])
def test_defense_modes_refuse_each_others_options(tmp_path, capsys, argv, stray):
    out = tmp_path / "o"
    assert run_cli(*argv, *stray, "--out-dir", str(out)) == 2
    assert f"unrecognized arguments: {' '.join(stray)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, data", [
    (["rates", "--s", "100"], "rates.csv"),
    (["defense", "pp", "--beta", "50", "--d", "0.5", "--s", "100"], "defense.json"),
    (["defense", "ipv6", "--s", "1", "--beta32", "2"], "defense.json"),
], ids=["rates", "pp", "ipv6"])
def test_population_must_be_integral(tmp_path, capsys, argv, data):
    for bad in ["1.9", "2.9", "1e-3", "-0.5"]:
        out = tmp_path / bad
        assert run_cli(*argv, "--N", bad, "--out-dir", str(out)) == 2
        assert "argument --N: invalid integral number value" in capsys.readouterr().err
        assert not out.exists()
    written = []
    for good in ["448894", "4.48894e5"]:
        out = tmp_path / good
        assert run_cli(*argv, "--N", good, "--out-dir", str(out)) == 0
        written.append((out / data).read_bytes())
    assert written[0] == written[1]
    if argv[1] == "ipv6":
        assert json.loads(written[0])["N"] == 448894


HUGE = str(10**20)
EARLY = ["simulate", "early", "{dist}", "--s", "1", "--seed", "1", "--out-dir", "{out}"]
EPIDEMIC = ["simulate", "epidemic", "{dist}", "--strategy", "rs:l=8", "--s", "1", "--out-dir", "{out}"]


@pytest.mark.parametrize("argv, says", [
    (EARLY + ["--strategy", "rs", "--seed", "-1"], "seed must be >= 0, got -1"),
    (EARLY + ["--strategy", "rs", "--mat-seed", "-1"], "materialize_seed must be >= 0, got -1"),
    (["synth", "zipf", "--l", "8", "--exponent", "1", "--hosts", "10", "--seed", "-3", "--out", "{out}/d.csv"],
     "seed must be >= 0"),
    (["synth", "hosts", "--dist", "{dist}", "--seed", "-3", "--out", "{out}/h.txt"], "seed must be >= 0"),
    (EARLY + ["--strategy", "mss:l=8", "--budgets", "10,abc"], "bad --budgets '10,abc'"),
    (EARLY + ["--strategy", "rs", "--budgets", "10"], "--budgets needs an mss strategy, got rs"),
    (EPIDEMIC + ["--horizon", "3", "--initial", "abc"], "bad --initial 'abc'"),
    (EARLY + ["--strategy", "rs", "--scans", HUGE], "total_scans must be in [1, 2**32]"),
    (EARLY + ["--strategy", "rs", "--runs", HUGE], "runs must be in [2, 2**32]"),
    (EARLY + ["--strategy", "mss:l=8", "--scans", "99999999999999999999"], "total_scans must be in [1, 2**32]"),
    (EARLY + ["--strategy", "mss:l=8", "--budgets", "99999999999999999999"], "scan budget must be in [1, 2**32], got"),
    (EPIDEMIC + ["--horizon", HUGE], f"horizon must be in [1, 2**32], got {HUGE}"),
    (["synth", "uniform", "--l", "8", "--groups", "2", "--per-group", HUGE, "--out", "{out}/d.csv"],
     f"group 0 needs {HUGE} distinct hosts but a /8 block has 16777216 addresses"),
    (["synth", "zipf", "--l", "8", "--exponent", "1", "--hosts", HUGE, "--seed", "1", "--out", "{out}/d.csv"],
     "needs at least 390625000000000000 distinct hosts but a /8 block has 16777216 addresses"),
], ids=["early_seed", "early_mat_seed", "zipf_seed", "hosts_seed", "budgets_abc", "budgets_rs", "initial_abc",
        "scans_huge", "runs_huge", "mss_scans_huge", "mss_budgets_huge", "horizon_huge", "uniform_per_group_huge",
        "zipf_hosts_huge"])
def test_negative_seeds_and_out_of_range_integers_exit_2(dist_file, tmp_path, capsys, argv, says):
    out = tmp_path / "o"
    assert run_cli(*(a.format(dist=dist_file, out=out) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and says in err
    assert not out.exists() or not any(out.iterdir())


def test_out_of_memory_exits_2(dist_file, tmp_path, capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(cli, "cmd_rates", exhausted)
    out = tmp_path / "o"
    assert run_cli("rates", str(dist_file), "--s", "1", "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n")
    assert not (out / "manifest.json").exists()


def test_synth_exits_2_for_groups_over_capacity(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli("synth", "zipf", "--l", "16", "--exponent", "1", "--hosts", "100000000000",
                   "--seed", "1", "--out", str(out)) == 2
    assert "distinct hosts but a /16 block has 65536 addresses" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_distribution_csv_over_capacity_exits_3(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("# l=30 N=7\ngroup_index,count\n1,2\n5,5\n", encoding="utf-8")
    assert run_cli("rates", str(p), "--s", "1", "--out-dir", str(tmp_path / "o")) == 3
    assert capsys.readouterr().err == (
        f"error: {p}: group 5 needs 5 distinct hosts but a /30 block has 4 addresses\n")


def test_usage_errors_exit_2(dist_file, tmp_path):
    assert run_cli("rates", "--s", "100") == 2  # no input, no --N
    assert run_cli("rates", "--s", "100", "--N", "10", "--strategy", "foo:l=2") == 2
    assert run_cli("rates", "--s", "100", "--N", "10", "--nope") == 2
    assert run_cli("simulate", "epidemic", str(dist_file), "--strategy", "mss:l=8",
                   "--s", "1", "--horizon", "2", "--out-dir", str(tmp_path / "x")) == 2
    assert run_cli("simulate", "epidemic", str(dist_file), "--strategy", "rs:l=8",
                   "--s", "1", "--horizon", "2", "--pp", "0.5",
                   "--out-dir", str(tmp_path / "y")) == 2


def test_internal_error_exits_4(hosts_file, tmp_path, monkeypatch):
    def boom(parent, hosts, l):
        raise InternalConsistencyError("mismatch")

    monkeypatch.setattr(cli, "refine", boom)
    assert run_cli("analyze", str(hosts_file), "--check",
                   "--out-dir", str(tmp_path / "o")) == 4


def test_epidemic_invariant_violation_exits_4(dist_file, tmp_path, monkeypatch, capsys):
    # a protection factor below 0 makes infections shrink: n(t) decreases
    from scanspread import epidemic

    monkeypatch.setattr(epidemic, "pp_factor", lambda d, p: -0.5)
    out = tmp_path / "o"
    assert run_cli("simulate", "epidemic", str(dist_file), "--strategy", "is:l=8", "--s", "1e6",
                   "--horizon", "3", "--pp", "0.5,0.5", "--out-dir", str(out)) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and "n(t) decreased or exceeded N" in err
    assert not (out / "trace.csv").exists()


# Each subcommand's words and its options with their valid values ("": the
# positional argument; None: left out; an empty list: a flag).  A case takes
# a valid value for every option but one or two, which get an edge value or
# are left out.  No valid value is large, so that no case allocates much or
# runs long.
EDGES = [None, "0", "1", "-1", HUGE, "nan", "inf", "1e308", "", "abc", "{empty}", "{dir}"]
TOKENS = ["rs", "is:l=8", "optis:l=8", "ls:l=8,pa=0.5", "2lls:pb=0.25,pc=0.5", "mss:l=8"]
INPUTS = ["{dist}", "{hosts}"]
CONTRACT = {
    "analyze": (["analyze"], {"": INPUTS, "--kind": [None, "hosts", "dist"], "--l-max": [None, "8"],
                              "--report-l": [None, "8"], "--check": [], "--out-dir": ["{out}"]}),
    "rates": (["rates"], {"": [None, *INPUTS], "--strategy": TOKENS, "--s": ["100"], "--N": [None, "40"],
                          "--beta8": [None, "2"], "--beta16": [None, "3"], "--beta": [None, "16=3"],
                          "--maxp": [None, "0.5"], "--time-unit": [None, "minute"], "--out-dir": ["{out}"]}),
    "early": (["simulate", "early"], {"": INPUTS, "--strategy": TOKENS, "--s": ["100"], "--scans": [None, "10"],
                                      "--runs": ["3"], "--seed": ["1"], "--mat-seed": [None, "2"],
                                      "--threads": [None, "2"], "--budgets": [None, "5,10"],
                                      "--out-dir": ["{out}"]}),
    "epidemic": (["simulate", "epidemic"], {"": INPUTS, "--strategy": TOKENS[:5], "--s": ["100"],
                                            "--tick": [None, "0.5"], "--horizon": ["3"],
                                            "--initial": [None, "10"], "--pp": [None, "0.5,0.5"],
                                            "--per-subnet": [], "--out-dir": ["{out}"]}),
    "defense_pp": (["defense", "pp"], {"--beta": ["50"], "--d": [None, "0.5"], "--d-grid": [None, "0.5:1:0.25"],
                                       "--s": ["100"], "--N": ["40"], "--out-dir": ["{out}"]}),
    "defense_ipv6": (["defense", "ipv6"], {"--s": ["100"], "--N": ["40"], "--beta32": ["2"], "--out-dir": ["{out}"]}),
    "uniform": (["synth", "uniform"], {"--l": ["8"], "--groups": ["2"], "--per-group": ["3"], "--out": ["{out}"]}),
    "zipf": (["synth", "zipf"], {"--l": ["8"], "--exponent": ["1.5"], "--hosts": ["40"], "--seed": ["2"],
                                 "--out": ["{out}"]}),
    "hosts": (["synth", "hosts"], {"--dist": ["{dist}"], "--seed": ["5"], "--out": ["{out}"]}),
}


@st.composite
def command_lines(draw, command):
    words, options = CONTRACT[command]
    edited = draw(st.sets(st.sampled_from(list(options)), min_size=1, max_size=2))
    argv = list(words)
    for option, valid in options.items():
        if not valid:  # a flag
            argv += [option] if draw(st.booleans()) else []
            continue
        value = draw(st.sampled_from(EDGES if option in edited else valid))
        if value is not None:
            argv += [option, value] if option else [value]
    return argv


@pytest.mark.parametrize("command", list(CONTRACT))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_command_line_exits_0_2_or_3(dist_file, hosts_file, tmp_path, monkeypatch, capsys, command, data):
    argv = data.draw(command_lines(command))
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)  # "" and other relative outputs land here
    (work / "empty").touch()
    (work / "dir").mkdir()
    paths = dict(dist=dist_file, hosts=hosts_file, empty=work / "empty", dir=work / "dir", out=work / "out")
    code = run_cli(*(a.format(**paths) for a in argv))
    err = capsys.readouterr().err
    assert code in (0, 2, 3) and "Traceback" not in err
    assert code == 0 or "error:" in err


def test_module_entry_point_runs_as_a_process(dist_file, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(ss.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "scanspread", "simulate", "early", str(dist_file), "--strategy", "rs",
                          "--s", "1", "--seed", "-1", "--out-dir", str(tmp_path / "o")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: seed must be >= 0, got -1\n")


def test_version_flag():
    assert run_cli("--version") == 0


@pytest.mark.parametrize("argv, inputs, seed, threads", [
    (["analyze", "{hosts}"], ["{hosts}"], None, None),
    (["rates", "{dist}", "--s", "10"], ["{dist}"], None, None),
    (["rates", "--s", "10", "--N", "100"], [], None, None),
    (["simulate", "early", "{dist}", "--strategy", "rs", "--s", "1", "--scans", "10", "--runs", "5",
      "--seed", "7"], ["{dist}"], 7, 1),
    (["simulate", "early", "{dist}", "--strategy", "mss:l=8", "--s", "1", "--runs", "5", "--seed", "5",
      "--threads", "2", "--budgets", "10,100"], ["{dist}"], 5, 2),
    (["simulate", "epidemic", "{hosts}", "--strategy", "rs:l=8", "--s", "1", "--horizon", "3"],
     ["{hosts}"], None, None),
    (["defense", "pp", "--beta", "50"], [], None, None),
    (["defense", "ipv6", "--s", "1", "--N", "10", "--beta32", "2"], [], None, None),
    (["synth", "uniform", "--l", "8", "--groups", "2", "--per-group", "3"], [], None, None),
    (["synth", "zipf", "--l", "8", "--exponent", "1.0", "--hosts", "50", "--seed", "4"], [], 4, None),
    (["synth", "hosts", "--dist", "{dist}", "--seed", "9"], ["{dist}"], 9, None),
], ids=["analyze", "rates", "rates_no_input", "early", "early_budgets", "epidemic", "defense_pp",
        "defense_ipv6", "synth_uniform", "synth_zipf", "synth_hosts"])
def test_manifest_records_the_run(hosts_file, dist_file, tmp_path, argv, inputs, seed, threads):
    files = {"{hosts}": str(hosts_file), "{dist}": str(dist_file)}
    argv = [files.get(a, a) for a in argv]
    out = tmp_path / "o"
    if argv[0] == "synth":
        argv += ["--out", str(out / "data")]
        manifest = out / "data.manifest.json"
    else:
        argv += ["--out-dir", str(out)]
        manifest = out / "manifest.json"
    assert run_cli(*argv) == 0
    m = json.loads(manifest.read_text())
    assert set(m) == {"command", "inputs", "seed", "threads", "version", "runtime_seconds"}
    assert m["command"] == ["scanspread", *argv]
    assert m["inputs"] == {files[p]: hashlib.sha256(Path(files[p]).read_bytes()).hexdigest() for p in inputs}
    assert m["seed"] == seed
    assert m["threads"] == threads
    assert m["version"] == ss.__version__
    assert m["runtime_seconds"] >= 0


def test_manifest_hashes_an_input_before_the_command_overwrites_it(dist_file):
    digest = hashlib.sha256(dist_file.read_bytes()).hexdigest()
    assert run_cli("synth", "hosts", "--dist", str(dist_file), "--seed", "1", "--out", str(dist_file)) == 0
    manifest = json.loads(Path(f"{dist_file}.manifest.json").read_text())
    assert manifest["inputs"] == {str(dist_file): digest}
    assert ss.load_host_list(dist_file).hosts.N == 4  # the host list did replace the distribution


def test_every_public_name_resolves():
    # what `from scanspread import *` binds: a stale __all__ entry fails it
    namespace = {}
    exec("from scanspread import *", namespace)
    assert set(ss.__all__) <= namespace.keys()


def test_version_matches_pyproject():
    # one version string: pyproject.toml declares none of its own and has
    # setuptools read scanspread.__version__ (regexes, as tomllib is new in 3.11)
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'(?m)^dynamic = \["version"\]$', pyproject)
    assert re.search(r'(?m)^\[tool\.setuptools\.dynamic\]\nversion = \{attr = "scanspread\.__version__"\}$', pyproject)
    assert not re.search(r"(?m)^version = \"", pyproject)
    assert re.fullmatch(r"\d+\.\d+\.\d+", ss.__version__)


# -- rates -----------------------------------------------------------------


def read_rates(path):
    with open(path, newline="") as fh:
        return {row["strategy"]: row for row in csv.DictReader(fh)}


def test_rates_default_rs(tmp_path):
    out = tmp_path / "o"
    assert run_cli("rates", "--s", "100", "--N", "448894", "--out-dir", str(out)) == 0
    table = read_rates(out / "rates.csv")
    row = table["rs"]
    assert float(row["info_bits"]) == 0.0
    assert float(row["uncertainty_bits"]) == 16.0
    assert float(row["alpha_per_second"]) == pytest.approx(100 * 448894 / 2.0**32, rel=1e-12)


def test_rates_quoted_tokens_and_injection(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "rates", "--s", "100", "--N", "448894", "--beta16", "52.2",
        "--strategy", "is:l=16", "--strategy", "ls:l=16,pa=0.75",
        "--out-dir", str(out),
    )
    assert code == 0
    raw = (out / "rates.csv").read_text()
    assert '"ls:l=16,pa=0.75"' in raw
    table = read_rates(out / "rates.csv")
    base = 100 * 448894 / 2.0**32
    assert float(table["is:l=16"]["alpha_per_second"]) == pytest.approx(base * 52.2, rel=1e-12)
    assert float(table["ls:l=16,pa=0.75"]["alpha_per_second"]) == pytest.approx(
        base * (0.25 + 0.75 * 52.2), rel=1e-12)


def test_rates_minute_unit_header(tmp_path):
    out = tmp_path / "o"
    assert run_cli("rates", "--s", "358", "--N", "360000", "--time-unit", "minute",
                   "--out-dir", str(out)) == 0
    header = (out / "rates.csv").read_text().splitlines()[0]
    assert header.endswith("alpha_per_minute")


def test_rates_from_dist_input(dist_file, tmp_path):
    out = tmp_path / "o"
    assert run_cli("rates", str(dist_file), "--s", "10", "--strategy", "is:l=8",
                   "--out-dir", str(out)) == 0
    table = read_rates(out / "rates.csv")
    # N = 4 from the file, beta8 = 160
    assert float(table["is:l=8"]["alpha_per_second"]) == pytest.approx(
        10 * 4 / 2.0**32 * 160.0, rel=1e-12)


# -- simulate --------------------------------------------------------------


def test_simulate_early_json_and_rerun_identity(dist_file, tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    argv = ["simulate", "early", str(dist_file), "--strategy", "rs",
            "--s", "100", "--scans", "200", "--runs", "50", "--seed", "7",
            "--mat-seed", "3"]
    assert run_cli(*argv, "--out-dir", str(out1)) == 0
    assert run_cli(*argv, "--out-dir", str(out2)) == 0
    assert run_cli(*argv, "--threads", "3", "--out-dir", str(out3)) == 0
    blob = (out1 / "early.json").read_bytes()
    assert blob == (out2 / "early.json").read_bytes()
    assert blob == (out3 / "early.json").read_bytes()
    r = json.loads(blob)
    assert set(r) == {"strategy", "s", "total_scans", "runs", "seed", "mean_alpha", "var_alpha"}
    assert r["strategy"] == "rs"
    assert r["total_scans"] == 200
    assert r["runs"] == 50
    assert r["seed"] == 7


def test_simulate_early_mss_budgets(dist_file, tmp_path):
    out = tmp_path / "o"
    code = run_cli("simulate", "early", str(dist_file), "--strategy", "mss:l=8",
                   "--s", "100", "--runs", "40", "--seed", "5",
                   "--budgets", "10,100", "--out-dir", str(out))
    assert code == 0
    with open(out / "mss_budgets.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["total_scans"]) for r in rows] == [10, 100]
    assert all("mean_alpha_per_second" in r for r in rows)


@pytest.mark.parametrize("strategy", ["rs", "is:l=8", "mss:l=8"])
def test_a_distribution_input_scans_the_hosts_synth_hosts_draws(tmp_path, strategy):
    # simulate early draws a distribution input into hosts with --mat-seed, as
    # synth hosts does with --seed, so both inputs give the same early.json
    dist, hosts = tmp_path / "dist.csv", tmp_path / "hosts.txt"
    ss.synth_zipf(8, 1.0, 50000, seed=7).to_csv(dist)
    assert run_cli("synth", "hosts", "--dist", str(dist), "--seed", "11", "--out", str(hosts)) == 0
    argv = ["simulate", "early", "--strategy", strategy, "--s", "10", "--scans", "20000", "--runs", "50", "--seed", "3"]
    assert run_cli(*argv, str(dist), "--mat-seed", "11", "--out-dir", str(tmp_path / "d")) == 0
    assert run_cli(*argv, str(hosts), "--out-dir", str(tmp_path / "h")) == 0
    blob = (tmp_path / "d" / "early.json").read_bytes()
    assert blob == (tmp_path / "h" / "early.json").read_bytes()
    assert json.loads(blob)["mean_alpha"] > 0


def test_simulate_epidemic_outputs(dist_file, tmp_path):
    out = tmp_path / "o"
    code = run_cli("simulate", "epidemic", str(dist_file), "--strategy", "is:l=8",
                   "--s", "1000000", "--horizon", "40", "--tick", "0.5",
                   "--per-subnet", "--out-dir", str(out))
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("# strategy=is:l=8 ")
    assert "N=4" in lines[0]
    assert lines[1] == "t_second,n_t"
    assert len(lines) == 2 + 41
    t0, n0 = lines[2].split(",")
    assert float(t0) == 0.0 and float(n0) == 1.0
    assert float(lines[3].split(",")[0]) == 0.5

    sub_lines = (out / "per_subnet.csv").read_text().splitlines()
    assert sub_lines[0] == "t_second,m_10,m_192"
    assert len(sub_lines) == 1 + 41

    summary = json.loads((out / "epidemic_summary.json").read_text())
    assert summary["total_population"] == 4
    assert set(summary) == {"total_population", "t_second_to_0.5",
                            "t_second_to_0.9", "t_second_to_0.99"}
    for key in ("t_second_to_0.5", "t_second_to_0.9", "t_second_to_0.99"):
        assert summary[key] is None or summary[key] >= 0.0


def test_importance_above_the_dense_limit_runs(hosts_file, tmp_path):
    # is:l=24 needs no 2**24 array: Monte Carlo and dynamics both run
    hosts = ss.materialize_hosts(ss.synth_zipf(16, 1.0, 5000, seed=1), seed=2)
    ss.save_host_list(tmp_path / "h.txt", hosts)
    early, epi = tmp_path / "early", tmp_path / "epi"
    assert run_cli("simulate", "early", str(tmp_path / "h.txt"), "--strategy", "is:l=24", "--s", "100",
                   "--scans", "1000", "--runs", "2000", "--seed", "3", "--out-dir", str(early)) == 0
    r = json.loads((early / "early.json").read_text())
    want = ss.alpha_for(ss.parse_strategy("is:l=24"), ss.ScanContext(s=100.0, N=hosts.N, hosts=hosts)).alpha
    assert abs(r["mean_alpha"] - want) < 4 * math.sqrt(r["var_alpha"] / r["runs"])
    assert run_cli("simulate", "epidemic", str(tmp_path / "h.txt"), "--strategy", "is:l=24", "--s", "100",
                   "--horizon", "20", "--per-subnet", "--out-dir", str(epi)) == 0
    header = (epi / "per_subnet.csv").read_text().splitlines()[0].split(",")
    assert len(header) == 1 + ss.aggregate(hosts, 24).occupied


def test_simulate_epidemic_hosts_input_aggregates(hosts_file, dist_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    common = ["--strategy", "rs:l=8", "--s", "1000", "--horizon", "10"]
    assert run_cli("simulate", "epidemic", str(hosts_file), *common, "--out-dir", str(a)) == 0
    assert run_cli("simulate", "epidemic", str(dist_file), *common, "--out-dir", str(b)) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


# -- defense ---------------------------------------------------------------


def test_defense_pp_point_and_curve(tmp_path):
    out = tmp_path / "o"
    code = run_cli("defense", "pp", "--beta", "50", "--d", "1.0",
                   "--d-grid", "0.5:1.0:0.25", "--out-dir", str(out))
    assert code == 0
    rep = json.loads((out / "defense.json").read_text())
    assert rep["p_max"] == pytest.approx(0.02)
    assert rep["min_deployment_for_p0"] == pytest.approx(0.98)
    with open(out / "pp_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["d"]) for r in rows] == [0.5, 0.75, 1.0]
    assert float(rows[-1]["p_max"]) == pytest.approx(0.02)


def test_defense_pp_reports_alpha_rs_without_d(tmp_path):
    out = tmp_path / "o"
    assert run_cli("defense", "pp", "--beta", "50", "--s", "100", "--N", "10", "--out-dir", str(out)) == 0
    rep = json.loads((out / "defense.json").read_text())
    assert rep["alpha_rs"] == pytest.approx(100 * 10 / 2**32) and "p_max" not in rep


@pytest.mark.parametrize("grid", ["0.5:0.5:1e-13", "0.1:1.0:1e-13", "0.5:2:0.5"])
def test_defense_pp_grid_without_progress_exits_2(tmp_path, grid):
    out = tmp_path / "o"
    assert run_cli("defense", "pp", "--beta", "50", "--d-grid", grid, "--out-dir", str(out)) == 2
    assert not (out / "pp_curve.csv").exists()


def test_defense_ipv6(tmp_path):
    out = tmp_path / "o"
    code = run_cli("defense", "ipv6", "--s", "4000", "--N", "10000000",
                   "--beta32", "1e9", "--out-dir", str(out))
    assert code == 0
    rep = json.loads((out / "defense.json").read_text())
    want = 4000 * 1e7 / 2.0**64 * 1e9
    assert rep["alpha_per_second"] == pytest.approx(want, rel=1e-12)
    assert rep["code_red_alpha_per_second"] == pytest.approx(5.0e-4, rel=1e-2)
    assert rep["exceeds_code_red"] == (want > rep["code_red_alpha_per_second"])


def test_defense_missing_args_exit_2(tmp_path):
    assert run_cli("defense", "pp", "--out-dir", str(tmp_path)) == 2
    assert run_cli("defense", "ipv6", "--s", "1", "--out-dir", str(tmp_path)) == 2


# -- synth -----------------------------------------------------------------


def test_synth_uniform_round_trip(tmp_path):
    out = tmp_path / "u.csv"
    assert run_cli("synth", "uniform", "--l", "8", "--groups", "16",
                   "--per-group", "100", "--out", str(out)) == 0
    d = ss.GroupDistribution.from_csv(out)
    assert d.total == 1600
    assert d.occupied == 16
    assert ss.non_uniformity_factor(d).beta == pytest.approx(256 / 16)
    assert Path(str(out) + ".manifest.json").exists()


def test_synth_zipf_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["synth", "zipf", "--l", "8", "--exponent", "1.0",
            "--hosts", "5000", "--seed", "3"]
    assert run_cli(*argv, "--out", str(a)) == 0
    assert run_cli(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    d = ss.GroupDistribution.from_csv(a)
    assert d.total == 5000


def test_synth_hosts_materializes(dist_file, tmp_path):
    out = tmp_path / "hosts.txt"
    assert run_cli("synth", "hosts", "--dist", str(dist_file), "--seed", "9",
                   "--out", str(out)) == 0
    loaded = ss.load_host_list(out)
    assert loaded.hosts.N == 4
    got = ss.aggregate(loaded.hosts, 8)
    assert list(got.indices) == [10, 192]
    assert list(got.counts) == [3, 1]
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["seed"] == 9


# -- byte format -----------------------------------------------------------

# sha256 of the data files of a 40-host zipf /8 distribution: they pin the byte
# format of the tables.  Their numbers come from integer arithmetic, float
# division and math.log2, so their bytes do not depend on the machine.
GOLDEN_SHA256 = {
    "dist.csv": "784a38bc86f578fa5bacdc44cb3c957dd010a28e3894ac243403e50caef461ba",
    "a/beta_profile.csv": "efe15aff70275f20d8b928444b4c88481e91ae13f2ba31f994dcbd341b096caa",
    "a/shannon_profile.csv": "205dbd0436a164f7459f20249e43dddc72e7af7240d0dcb2255df1ee34a1d05e",
    "a/ccdf_l8.csv": "35eb23a5195cf4f5c289a4abcd2cbea02a814a630b7356c8ca8c062d801e9bf5",
    "r/rates.csv": "1acfa864f24ca9cf89e0b0e19469b034b47b4c088a35c0b47b4ce9decba37552",
    "d/pp_curve.csv": "f69dc8c923420b8d81eb386f2a27912dfd108e73539ea93339dbe8143d3a01df",
}


def test_data_files_keep_their_bytes(tmp_path):
    dist = str(tmp_path / "dist.csv")
    assert run_cli("synth", "zipf", "--l", "8", "--exponent", "1.5", "--hosts", "40", "--seed", "2",
                   "--out", dist) == 0
    assert run_cli("analyze", dist, "--report-l", "8", "--out-dir", str(tmp_path / "a")) == 0
    assert run_cli("rates", dist, "--s", "100", "--beta16", "40.25", "--strategy", "rs",
                   "--strategy", "is:l=8", "--strategy", "optis:l=8", "--strategy", "ls:l=8,pa=0.75",
                   "--strategy", "2lls:pb=0.25,pc=0.5", "--strategy", "mss:l=8",
                   "--strategy", "ls:l=8,pa=0.1234567", "--strategy", "2lls:pb=0.1,pc=0.2",
                   "--strategy", "2lls:pb=0.123456789,pc=0.333", "--out-dir", str(tmp_path / "r")) == 0
    assert run_cli("defense", "pp", "--beta", "50", "--d-grid", "0.9:1.0:0.05",
                   "--out-dir", str(tmp_path / "d")) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
    assert (tmp_path / "r/rates.csv").read_text().splitlines()[4] == (
        '"ls:l=8,pa=0.75",2.727603490962515,5.272396509037485,3.599561750888825e-05')


def test_epidemic_tables_keep_their_bytes(tmp_path):
    """trace.csv and per_subnet.csv hold what these per-row loops write for the
    same trace.  The trace's numbers come from numpy's log1p and expm1, whose
    last bit can differ between machines, so they are not hashed."""
    trace = _epidemic_tables_match_the_per_row_loops(tmp_path / "is", ss.synth_zipf(8, 1.5, 40, seed=2), "is:l=8")
    assert trace.per_class.shape[1] < trace.per_subnet.shape[1]
    # several classes in 10/8 and twins apart from each other: the writer's
    # runs of one class's column are short and interleaved
    groups = [(10 << 8) + g for g in (1, 2, 3, 9, 40)] + [(11 << 8) + 4, (200 << 8) + 7]
    dist = ss.GroupDistribution(16, groups, [5, 2, 5, 1, 2, 5, 40])
    trace = _epidemic_tables_match_the_per_row_loops(tmp_path / "2lls", dist, "2lls:pb=0.25,pc=0.5", (0.5, 0.25))
    last = trace.per_subnet[-1]
    assert trace.per_class.shape[1] == 5 and trace.n[-1] > 2  # three classes in 10/8, one in 11/8, the seed
    assert last[0] == last[2] != last[5] and last[1] == last[4] and len(set(last.tolist())) == 5


def _epidemic_tables_match_the_per_row_loops(tmp_path, dist, token, pp=None):
    tmp_path.mkdir()
    dist.to_csv(tmp_path / "dist.csv")
    out = tmp_path / "e"
    extra = [] if pp is None else ["--pp", ",".join(map(repr, pp))]
    assert run_cli("simulate", "epidemic", str(tmp_path / "dist.csv"), "--strategy", token,
                   "--s", "10000000", "--tick", "0.1", "--horizon", "6", "--per-subnet", *extra,
                   "--out-dir", str(out)) == 0
    trace = ss.propagate(ss.EpidemicConfig(ss.parse_strategy(token), dist, s=1e7, horizon=6,
                                           tick=0.1, pp=pp, record_per_subnet=True))
    want = f"# strategy={token} s=10000000.0 tick=0.1 N={dist.total}\nt_second,n_t\n"
    for k, n in enumerate(trace.n):
        want += f"{k * 0.1!r},{float(n)!r}\n"
    assert (out / "trace.csv").read_bytes() == want.encode()
    assert "\n0.30000000000000004," in want

    want = "t_second," + ",".join(f"m_{int(g)}" for g in dist.indices) + "\n"
    for k in range(7):
        want += f"{k * 0.1!r}," + ",".join(repr(float(v)) for v in trace.per_subnet[k]) + "\n"
    assert (out / "per_subnet.csv").read_bytes() == want.encode()
    return trace
