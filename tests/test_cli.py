import argparse
import json
import re
from pathlib import Path

import pytest

from filterlab import bloom
from filterlab.cli import (CONFIG_KEYS, DEFAULT_SEED, ConfigError, _out_path, _parse_scalar,
                           config_to_campaign, main, parse_config)
from filterlab.core import BuildError, FilterParams, ParamError
from filterlab.experiments import FILTERS, RESULT_COLUMNS, GameConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASIC_CONFIG = """\
# calibration campaign
[experiment]
trials = 100
seed = 7
fp_samples = 2000

[filter]
kind = baseline_bloom
n = 1000
eps = 0.015625
t = 0
u_bits = 32

[adversary]
kind = random_probe
"""


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_sections_and_lines(tmp_path):
    path = _write(tmp_path, BASIC_CONFIG)
    sections = parse_config(path)
    assert sections["experiment"]["trials"] == (100, 3)
    assert sections["filter"]["eps"] == (0.015625, 10)
    assert sections["adversary"]["kind"] == ("random_probe", 15)


def test_parse_config_power_of_two_shorthand(tmp_path):
    path = _write(tmp_path, "[x]\neps = 2^-6\n")
    assert parse_config(path)["x"]["eps"] == (0.015625, 2)


def test_parse_config_rejects_garbage_with_line(tmp_path):
    path = _write(tmp_path, "[x]\nnot a kv line\n")
    with pytest.raises(ConfigError, match=":2:"):
        parse_config(path)
    path2 = _write(tmp_path, "orphan = 1\n", name="c2.ini")
    with pytest.raises(ConfigError, match=":1:"):
        parse_config(path2)


def test_experiment_writes_csv_with_fixed_header(tmp_path, capsys):
    cfg = _write(tmp_path, BASIC_CONFIG)
    out = tmp_path / "results.csv"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 2
    row = dict(zip(RESULT_COLUMNS, lines[1].split(",")))
    assert row["filter"] == "baseline_bloom"
    assert row["adversary"] == "random_probe"
    assert row["trials"] == "100"
    assert float(row["success_rate"]) <= 0.1


def test_experiment_rejects_zero_trials(tmp_path, capsys):
    bad = BASIC_CONFIG.replace("trials = 100", "trials = 0")
    cfg = _write(tmp_path, bad)
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "trials must be >= 1" in capsys.readouterr().err


def test_experiment_reports_missing_section_and_bad_values(tmp_path, capsys):
    cfg = _write(tmp_path, "[experiment]\ntrials = 10\n")
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "missing required section" in capsys.readouterr().err

    bad_eps = BASIC_CONFIG.replace("eps = 0.015625", "eps = 3.0")
    cfg2 = _write(tmp_path, bad_eps, name="c3.ini")
    assert main(["experiment", "--config", cfg2, "--out", str(tmp_path / "o")]) == 2
    assert "eps must be a probability" in capsys.readouterr().err


def test_identical_runs_are_identical_outside_wall_time(tmp_path):
    # every column is reproducible from (config, seed); wall_time_ms is the
    # one physical measurement and is masked here
    cfg = _write(tmp_path, BASIC_CONFIG.replace("trials = 100", "trials = 30"))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["experiment", "--config", cfg, "--out", str(out2)]) == 0
    t_idx = RESULT_COLUMNS.index("wall_time_ms")

    def mask(path):
        rows = [r.split(",") for r in path.read_text().strip().splitlines()]
        for r in rows[1:]:
            r[t_idx] = "-"
        return rows

    assert mask(out1) == mask(out2)


def test_json_output(tmp_path):
    cfg = _write(tmp_path, BASIC_CONFIG.replace("trials = 100", "trials = 20"))
    out = tmp_path / "r.json"
    assert main(["experiment", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["columns"] == list(RESULT_COLUMNS)
    assert len(payload["records"]) == 1


def test_config_to_campaign_builds_game_config(tmp_path):
    cfg, trials, seed, fp_samples = config_to_campaign(_write(tmp_path, BASIC_CONFIG))
    assert trials == 100 and seed == 7 and fp_samples == 2000
    assert cfg.filter_kind == "baseline_bloom"
    assert cfg.params.n == 1000
    assert cfg.params.eps == 0.015625


def test_config_shielded_with_options(tmp_path):
    text = BASIC_CONFIG.replace("kind = baseline_bloom",
                                "kind = baseline_bloom\nshield = true\nm = 9592")
    text = text.replace("kind = random_probe",
                        "kind = seed_exposed\nexpose = full\ncandidate_budget = 5000")
    cfg, *_ = config_to_campaign(_write(tmp_path, text))
    assert cfg.shielded and cfg.bloom_bits == 9592
    assert cfg.expose == "full"
    assert cfg.adversary_opts == {"candidate_budget": 5000}


def test_unknown_filter_kind_rejected(tmp_path, capsys):
    bad = BASIC_CONFIG.replace("kind = baseline_bloom", "kind = quotient")
    assert main(["experiment", "--config", _write(tmp_path, bad),
                 "--out", "x"]) == 2
    assert "unknown filter kind" in capsys.readouterr().err


def _config_error(tmp_path, capsys, text):
    """Run `experiment` on a config text; return (exit code, stderr)."""
    rc = main(["experiment", "--config", _write(tmp_path, text, name="bad.ini"),
               "--out", str(tmp_path / "o.csv")])
    return rc, capsys.readouterr().err


def _line_of(text, prefix):
    return 1 + next(i for i, l in enumerate(text.splitlines()) if l.startswith(prefix))


@pytest.mark.parametrize("text", [BASIC_CONFIG + "\n[adversry]\nc = 5\n",
                                  BASIC_CONFIG.replace("[adversary]", "[adversry]"),
                                  "[adversry]\n" + BASIC_CONFIG],
                         ids=["extra", "misspelled", "empty-first"])
def test_unknown_section_reported_at_its_header(tmp_path, capsys, text):
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    assert err == (f"config error: {tmp_path / 'bad.ini'}:{_line_of(text, '[adversry]')}: "
                   "unknown section [adversry] (known: experiment, filter, adversary)\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("adversary", ["seed_exposed", "random_probe"])
def test_unknown_adversary_option_reported_at_its_line(tmp_path, capsys, adversary):
    text = BASIC_CONFIG.replace("kind = random_probe", f"kind = {adversary}\nbogus = 5")
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    assert f"bad.ini:{_line_of(text, 'bogus')}:" in err
    assert "Traceback" not in err


def test_bad_expose_reported_at_its_line(tmp_path, capsys):
    text = BASIC_CONFIG.replace("kind = random_probe", "kind = random_probe\nexpose = all")
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    assert f"bad.ini:{_line_of(text, 'expose')}: unknown exposure policy" in err


@pytest.mark.parametrize("u_bits", [65, 70])
def test_too_wide_universe_reported_at_its_line(tmp_path, capsys, u_bits):
    text = BASIC_CONFIG.replace("u_bits = 32", f"u_bits = {u_bits}")
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    assert f"bad.ini:{_line_of(text, 'u_bits')}:" in err and "u_bits must be <= 64" in err


UNPLAYABLE = [
    # 2^4 points cannot hold the 20 queries, the 4 members and a fresh guess
    ("t = ", BASIC_CONFIG.replace("n = 1000", "n = 4").replace("t = 0", "t = 20")
     .replace("u_bits = 32", "u_bits = 4"), "random_probe cannot play: universe 2^4 <= t + n"),
    # no expose line: the error sits at the adversary's kind line
    ("kind = consistency_search", BASIC_CONFIG.replace("kind = random_probe",
                                                       "kind = consistency_search"),
     "consistency_search needs expose = structure or full"),
    # no enumerator: the error sits at the filter's kind line
    ("kind = cuckoo_resilient", BASIC_CONFIG.replace("kind = baseline_bloom",
                                                     "kind = cuckoo_resilient")
     .replace("kind = random_probe", "kind = consistency_search\nexpose = structure"),
     "consistency_search cannot enumerate cuckoo_resilient"),
    # the standard sizing at n = 1000 is m = 8,657 bits
    ("kind = baseline_bloom", BASIC_CONFIG.replace(
        "kind = random_probe", "kind = consistency_search\nexpose = full"),
     "consistency_search cannot enumerate baseline_bloom"),
]


@pytest.mark.parametrize("prefix,text,message", UNPLAYABLE,
                         ids=["random_probe", "consistency_search", "cuckoo_space",
                              "wide_bloom_space"])
def test_unplayable_config_reported_at_its_line(tmp_path, capsys, prefix, text, message):
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    assert f"bad.ini:{_line_of(text, prefix)}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


TINY_UNIVERSE = """\
[experiment]
trials = 40
seed = 7
fp_samples = 100

[filter]
kind = {kind}
n = 2
eps = 0.25
t = 64
u_bits = 2
{m_line}
[adversary]
kind = consistency_search
expose = structure
"""


@pytest.mark.parametrize("kind", ["baseline_bloom", "exact_set"])
def test_consistency_search_concedes_a_covered_universe(tmp_path, capsys, kind):
    # the 8-point label sample usually covers the 2 non-members of the
    # 4-point universe; such a game ends in a loss, not a SamplingError
    out = tmp_path / "o.csv"
    m_line = "m = 4\n" if kind == "baseline_bloom" else ""  # m is the Bloom array's alone
    rc = main(["experiment", "--config",
               _write(tmp_path, TINY_UNIVERSE.format(kind=kind, m_line=m_line)),
               "--out", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    row = dict(zip(RESULT_COLUMNS, out.read_text().splitlines()[1].split(",")))
    assert row["trials"] == "40"
    if kind == "exact_set":
        assert float(row["success_rate"]) == 0.0


# adversary option -> an adversary that takes it
OPTION_OWNERS = {"c": "consistency_search", "strict": "consistency_search",
                 "candidate_budget": "seed_exposed"}


def _with_line(line):
    """BASIC_CONFIG with `line` in place of its key's line; for an adversary
    option, added to [adversary] under an adversary that takes it; for a
    [filter] key the basic config leaves at its default, added to [filter]."""
    key = line.split()[0]
    if re.search(rf"^{key} = ", BASIC_CONFIG, flags=re.M):
        return re.sub(rf"^{key} = .*$", line, BASIC_CONFIG, flags=re.M)
    if key in OPTION_OWNERS:
        return BASIC_CONFIG.replace("kind = random_probe",
                                    f"kind = {OPTION_OWNERS[key]}\n{line}")
    return BASIC_CONFIG.replace("kind = baseline_bloom", f"kind = baseline_bloom\n{line}")


@pytest.mark.parametrize("line,message", [
    ("eps = 3.0", "eps must be a probability"), ("t = -1", "t must be >= 0"),
    ("m = 0", "m must be >= 1"), ("eps = 1e-320", "1/eps overflows a float"),
])
def test_out_of_range_filter_value_reported_at_its_line(tmp_path, capsys, line, message):
    key = line.split()[0]
    text = _with_line(line)
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    assert f"bad.ini:{_line_of(text, key + ' ')}:" in err and message in err


def test_m_under_a_filter_without_an_array_reported_at_its_line(tmp_path, capsys):
    text = BASIC_CONFIG.replace("kind = baseline_bloom", "kind = cuckoo_resilient\nm = 16")
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    assert err == (f"config error: {tmp_path / 'bad.ini'}:{_line_of(text, 'm ')}: "
                   "m sizes the baseline_bloom array; kind = cuckoo_resilient has none\n")


@pytest.mark.parametrize("line,message", [
    ("seed = abc", "'seed' must be an integer"),
    ("fp_samples = lots", "'fp_samples' must be an integer"),
    ("fp_samples = 0", "fp_samples must be >= 1"),
    ("lambda_bits = x", "'lambda_bits' must be an integer"),
    ("shield = maybe", "'shield' must be true or false"),
    ("m = lots", "'m' must be an integer"),
    ("seed = -1", "seed must be in [0, 2^128), got -1"),
    (f"seed = {2 ** 128}", f"seed must be in [0, 2^128), got {2 ** 128}"),
    ("c = lots", "bad adversary options for consistency_search: 'c' must be int, got 'lots'"),
    ("strict = maybe",
     "bad adversary options for consistency_search: 'strict' must be bool, got 'maybe'"),
    ("candidate_budget = 2.5",
     "bad adversary options for seed_exposed: 'candidate_budget' must be int, got 2.5"),
    ("c = -1", "bad adversary options for consistency_search: 'c' must be >= 1, got -1"),
    ("c = 0", "bad adversary options for consistency_search: 'c' must be >= 1, got 0"),
    ("candidate_budget = 0",
     "bad adversary options for seed_exposed: 'candidate_budget' must be >= 1, got 0"),
])
def test_mistyped_value_reported_at_its_line(tmp_path, capsys, line, message):
    key = line.split()[0]
    text = _with_line(line)
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    assert f"bad.ini:{_line_of(text, key + ' ')}: {message}" in err
    assert "Traceback" not in err


def test_duplicate_key_reported_with_both_lines(tmp_path, capsys):
    # the bad first value must not vanish behind the later line
    text = BASIC_CONFIG.replace("seed = 7", "seed = abc\nseed = 7")
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    first = _line_of(text, "seed = abc")
    assert f"bad.ini:{first + 1}: duplicate key 'seed' in [experiment], " \
           f"first set at line {first}" in err


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.ini")))
def test_shipped_configs_parse(config):
    cfg, trials, seed, _ = config_to_campaign(str(CONFIGS / config))
    assert trials >= 1 and seed == 7


# every column of the shipped configs' records but wall_time_ms ("-"), pinned;
# cuckoo_adaptive.ini, at about 12 s, is not run here
SHIPPED_RECORDS = {
    "bloom_calibration.ini":
        "baseline_bloom,random_probe,1000,0.015625,0,2000,0.016000,0.005499,0.015990,9041,,-,7",
    "shield_vs_seed_exposed.ini":
        "baseline_bloom+shield,seed_exposed,1000,0.015625,1000,1000,0.015000,0.007534,0.015700,"
        "9169,,-,7",
}


@pytest.mark.parametrize("config", sorted(SHIPPED_RECORDS))
def test_shipped_config_records_are_pinned(tmp_path, config):
    out = tmp_path / "r.csv"
    assert main(["experiment", "--config", str(CONFIGS / config), "--out", str(out),
                 "--parallel", "2"]) == 0
    header, record = out.read_text().strip().splitlines()
    assert header == ",".join(RESULT_COLUMNS)
    row = record.split(",")
    row[RESULT_COLUMNS.index("wall_time_ms")] = "-"
    assert ",".join(row) == SHIPPED_RECORDS[config]


@pytest.mark.parametrize("command", ["experiment", "selftest"])
def test_unwritable_out_exits_2_before_the_run(tmp_path, capsys, command):
    out = str(tmp_path / "absent_dir" / "out.txt")
    argv = (["selftest", "--criteria", "9"] if command == "selftest" else
            ["experiment", "--config", _write(tmp_path, BASIC_CONFIG)])
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--out", out])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert f"--out: cannot write {out}: No such file or directory" in captured.err
    assert "Traceback" not in captured.err
    assert "criterion" not in captured.out and "record" not in captured.out


def test_out_check_truncates_nothing_and_leaves_nothing(tmp_path):
    kept = tmp_path / "kept.txt"
    kept.write_text("kept\n")
    assert _out_path(str(kept)) == str(kept) and kept.read_text() == "kept\n"
    assert _out_path(str(tmp_path / "new.csv")) == str(tmp_path / "new.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt"]
    with pytest.raises(argparse.ArgumentTypeError, match="Is a directory"):
        _out_path(str(tmp_path))


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "absent.ini")
    assert main(["experiment", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    assert f"{missing}: cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_parallel_below_one_rejected(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exit_:
        main(["experiment", "--config", _write(tmp_path, BASIC_CONFIG),
              "--out", str(tmp_path / "o"), "--parallel", workers])
    assert exit_.value.code == 2
    assert "--parallel: must be >= 1" in capsys.readouterr().err


def test_selftest_parallel_below_one_rejected(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["selftest", "--criteria", "9", "--parallel", "0"])
    assert exit_.value.code == 2
    assert "--parallel: must be >= 1" in capsys.readouterr().err


def test_selftest_parallel_runs(tmp_path):
    report = tmp_path / "report.txt"
    assert main(["selftest", "--criteria", "3", "--parallel", "2", "--out", str(report)]) == 0
    assert "PASS criterion  3" in report.read_text()


def test_audit_memory_rejects_bad_params(capsys):
    rc = main(["audit-memory", "--filter", "exact_set", "--n", "4", "--eps", "0.1",
               "--t", "1", "--u-bits", "70"])
    assert rc == 2
    assert "u_bits must be <= 64" in capsys.readouterr().err


def test_audit_memory_rejects_a_subnormal_eps(capsys):
    rc = main(["audit-memory", "--filter", "baseline_bloom", "--n", "4", "--eps", "1e-320",
               "--t", "1", "--u-bits", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "1/eps overflows a float" in err and "Traceback" not in err


def test_audit_memory_rejects_a_negative_seed(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["audit-memory", "--filter", "exact_set", "--n", "4", "--eps", "0.1",
              "--t", "1", "--u-bits", "8", "--seed", "-5"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--seed: seed must be in [0, 2^128), got -5" in err and "Traceback" not in err


def test_audit_memory_filter_choices_are_the_registry(capsys):
    with pytest.raises(SystemExit):
        main(["audit-memory", "--help"])
    choices = re.search(r"--filter \{([^}]*)\}", capsys.readouterr().out).group(1)
    assert choices.split(",") == list(FILTERS)


def test_selftest_single_fast_criterion(tmp_path, capsys):
    report = tmp_path / "report.txt"
    rc = main(["selftest", "--criteria", "9", "--out", str(report)])
    assert rc == 0
    text = report.read_text()
    assert "PASS criterion  9" in text
    assert "seed=" in text


def test_selftest_json_prints_one_object_a_criterion(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    rc = main(["selftest", "--criteria", "1", "--json", "--out", str(report)])
    assert rc == 0
    out, err = capsys.readouterr()
    (line,) = out.splitlines()
    record = json.loads(line)
    assert list(record) == ["number", "title", "measured", "threshold", "passed",
                            "seed", "runtime_s"]
    assert record["number"] == 1 and record["passed"] is True
    assert isinstance(record["seed"], int) and record["runtime_s"] >= 0
    assert report.read_text() == line + "\n"
    assert "all criteria passed" in err


def test_audit_memory_matches_serialization(tmp_path, capsys):
    rc = main(["audit-memory", "--filter", "cuckoo_random_query", "--n", "64",
               "--eps", "0.125", "--t", "256", "--u-bits", "12"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["match"] is True
    assert payload["declared_bits"] == payload["serialized_bits"]


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FILTERLAB_SEED", "31337")
    text = "\n".join(l for l in BASIC_CONFIG.splitlines() if not l.startswith("seed"))
    text = text.replace("trials = 100", "trials = 10")
    cfg, trials, seed, _ = config_to_campaign(_write(tmp_path, text))
    assert seed == 31337


@pytest.mark.parametrize("config_seed,option,used", [(7, None, 7), (None, "3", 3),
                                                    (7, "3", 3)])
def test_seed_env_is_read_only_as_the_fallback(tmp_path, monkeypatch, capsys,
                                               config_seed, option, used):
    monkeypatch.setenv("FILTERLAB_SEED", "abc")
    text = "\n".join(l for l in BASIC_CONFIG.splitlines() if not l.startswith("seed"))
    text = text.replace("trials = 100", "trials = 10")
    if config_seed is not None:
        text = text.replace("[experiment]", f"[experiment]\nseed = {config_seed}")
    path, out = _write(tmp_path, text), tmp_path / "o.csv"
    assert config_to_campaign(path, None if option is None else int(option))[2] == used
    argv = ["experiment", "--config", path, "--out", str(out)]
    assert main(argv + (["--seed", option] if option else [])) == 0
    row = dict(zip(RESULT_COLUMNS, out.read_text().splitlines()[1].split(",")))
    assert row["master_seed"] == str(used)
    assert "FILTERLAB_SEED" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["selftest", "experiment"])
def test_non_integer_seed_env_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("FILTERLAB_SEED", "abc")
    text = "\n".join(l for l in BASIC_CONFIG.splitlines() if not l.startswith("seed"))
    argv = (["selftest", "--criteria", "9"] if command == "selftest" else
            ["experiment", "--config", _write(tmp_path, text),
             "--out", str(tmp_path / "out.csv")])
    assert main(argv) == 2
    assert "FILTERLAB_SEED must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["selftest", "experiment"])
@pytest.mark.parametrize("env,option", [("-3", None), (None, "-1"), (None, str(2 ** 130))])
def test_out_of_range_seed_exits_2(tmp_path, monkeypatch, capsys, command, env, option):
    # split_seed packs a master seed into 16 unsigned bytes
    text = "\n".join(l for l in BASIC_CONFIG.splitlines() if not l.startswith("seed"))
    argv = (["selftest", "--criteria", "9"] if command == "selftest" else
            ["experiment", "--config", _write(tmp_path, text),
             "--out", str(tmp_path / "out.csv")])
    if env is not None:
        monkeypatch.setenv("FILTERLAB_SEED", env)
        assert main(argv) == 2
        message = f"FILTERLAB_SEED must be in [0, 2^128), got {env}"
    else:
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--seed", option])
        assert exit_.value.code == 2
        message = f"--seed: seed must be in [0, 2^128), got {option}"
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("criteria, message", [
    ("12", "no criterion 12"),
    ("x", "expected comma-separated criterion numbers"),
    ("9,0", "no criterion 0"),
])
def test_selftest_rejects_bad_criteria(capsys, criteria, message):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--criteria", criteria])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text,key,section", [
    (_with_line("sheild = true"), "sheild", "filter"),
    (BASIC_CONFIG.replace("seed = 7", "seed = 7\nfp_sample = 50"), "fp_sample", "experiment"),
], ids=["sheild", "fp_sample"])
def test_unknown_key_refused_at_its_line(tmp_path, capsys, text, key, section):
    # a misspelled key must not leave its setting at the default unnoticed
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    assert f"bad.ini:{_line_of(text, key + ' ')}: unknown key '{key}' in [{section}]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("cls,key", [(FilterParams, "nowhere"), (GameConfig, "nowhere"),
                                     (FilterParams, "lambda_bits"), (GameConfig, "shielded")])
def test_param_error_without_a_config_line_reported_at_the_file(tmp_path, capsys, monkeypatch,
                                                                 cls, key):
    # "nowhere" is no field; lambda_bits and shield are absent from the config
    def refuse(self):
        raise ParamError(key, "refused for the test")

    monkeypatch.setattr(cls, "__post_init__", refuse)
    rc, err = _config_error(tmp_path, capsys, BASIC_CONFIG)
    assert rc == 2
    assert err == "config error: " + str(tmp_path / "bad.ini") + ": refused for the test\n"


# a strict consistency search against a shielded toy Bloom filter finds no
# inner representation consistent with its labels in the first game
INCONSISTENT = """\
[experiment]
trials = 20
seed = 7

[filter]
kind = baseline_bloom
shield = true
m = 16
n = 4
eps = 2^-4
t = 51200
u_bits = 10

[adversary]
kind = consistency_search
expose = structure
"""


@pytest.mark.parametrize("error,parallel", [("InconsistentOracleError", 1),
                                            ("InconsistentOracleError", 2),
                                            ("BuildError", 1), ("BuildError", 2)])
def test_failed_game_ends_experiment_in_one_line(tmp_path, capsys, monkeypatch,
                                                 error, parallel):
    if error == "BuildError":
        def fail(*args, **kwargs):
            raise BuildError("placement failed")

        monkeypatch.setattr(bloom, "build_bloom", fail)  # workers fork with it
    out = tmp_path / "o.csv"
    rc = main(["experiment", "--config", _write(tmp_path, INCONSISTENT), "--out", str(out),
               "--parallel", str(parallel)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"experiment failed: {error}: ") and err.count("\n") == 1
    assert not out.exists()


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_result_columns_are_the_result_columns():
    listed = re.search(r"fixed columns: `([^`]*)`", README).group(1)
    assert [c.strip() for c in listed.split(",")] == list(RESULT_COLUMNS)


def test_readme_config_block_lists_every_config_key(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README, flags=re.S).group(1)
    shown: dict[str, dict[str, str]] = {}  # section -> key -> value, commented out or not
    for line in block.splitlines():
        if line.startswith("["):
            section = shown.setdefault(line.strip("[]"), {})
        elif m := re.match(r"#? ?(\w+) = (\S+)", line):
            section[m.group(1)] = m.group(2)
    assert shown.keys() == CONFIG_KEYS.keys()
    for name, keys in CONFIG_KEYS.items():
        assert set(keys) <= set(shown[name])
        if name != "adversary":  # every other [adversary] key is an option
            assert set(shown[name]) == set(keys)
        for key, (_, default, _, _) in keys.items():
            if default not in (..., None):  # an optional key is shown at its default
                assert _parse_scalar(shown[name][key]) == default, key
    assert f"else {DEFAULT_SEED}" in block
    # and the block itself is a valid config
    assert config_to_campaign(_write(tmp_path, block))[0].filter_kind == "baseline_bloom"
