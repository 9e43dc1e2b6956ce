import json
import re
from pathlib import Path

import pytest

from filterlab.cli import ConfigError, config_to_campaign, main, parse_config
from filterlab.experiments import FILTERS, RESULT_COLUMNS

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


def _with_line(line):
    """BASIC_CONFIG with `line` in place of its key's line, or, for a
    [filter] key the basic config leaves at its default, added to [filter]."""
    key = line.split()[0]
    if re.search(rf"^{key} = ", BASIC_CONFIG, flags=re.M):
        return re.sub(rf"^{key} = .*$", line, BASIC_CONFIG, flags=re.M)
    return BASIC_CONFIG.replace("kind = baseline_bloom", f"kind = baseline_bloom\n{line}")


@pytest.mark.parametrize("line,message", [
    ("eps = 3.0", "eps must be a probability"), ("t = -1", "t must be >= 0"),
    ("m = 0", "m must be >= 1"),
])
def test_out_of_range_filter_value_reported_at_its_line(tmp_path, capsys, line, message):
    key = line.split()[0]
    text = _with_line(line)
    rc, err = _config_error(tmp_path, capsys, text)
    assert rc == 2
    assert f"bad.ini:{_line_of(text, key + ' ')}:" in err and message in err


@pytest.mark.parametrize("line,message", [
    ("seed = abc", "'seed' must be an integer"),
    ("fp_samples = lots", "'fp_samples' must be an integer"),
    ("fp_samples = 0", "fp_samples must be >= 1"),
    ("lambda_bits = x", "'lambda_bits' must be an integer"),
    ("shield = maybe", "'shield' must be true or false"),
    ("m = lots", "'m' must be an integer"),
    ("seed = -1", "seed must be in [0, 2^128), got -1"),
    (f"seed = {2 ** 128}", f"seed must be in [0, 2^128), got {2 ** 128}"),
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
