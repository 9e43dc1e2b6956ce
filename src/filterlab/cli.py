"""Command-line harness.

Subcommands:
  experiment    run a configured Monte-Carlo campaign, write CSV or JSON
  selftest      run the acceptance criteria, write a report
  audit-memory  build one filter and print its exact bit accounting

The experiment config's sections and keys are those of `CONFIG_KEYS`: an
unknown section, or an unknown [experiment] or [filter] key, is refused at
its line, and any other [adversary] key is an option of the strategy.

Exit codes: 0 success, 1 criterion/experiment failure (a game's
InconsistentOracleError or BuildError, in one stderr line), 2 bad input.
The master seed is --seed, else the config's seed, else the FILTERLAB_SEED
environment variable (read only then), else DEFAULT_SEED.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import fields
from pathlib import Path

from . import acceptance, adversaries, experiments
from .core import BuildError, FilterParams, ParamError, sample_set
from .experiments import GameConfig, RESULT_COLUMNS

DEFAULT_SEED = acceptance.DEFAULT_SEED
SEED_LIMIT = 1 << 128  # split_seed packs a master seed into 16 unsigned bytes


class ConfigError(Exception):
    """Invalid experiment config; message carries file:line context."""


def _parse_scalar(raw: str):
    low = raw.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    try:
        return int(low, 0)
    except ValueError:
        pass
    try:
        return float(low)
    except ValueError:
        pass
    # powers of two are common for eps; accept the 2^-k shorthand
    if low.startswith("2^"):
        try:
            return 2.0 ** float(low[2:])
        except ValueError:
            pass
    return low


def parse_config(path: str, known: dict | None = None) -> dict[str, dict[str, tuple[object, int]]]:
    """Parse the key/typed-value section format, keeping line numbers.

    Sections are [name] headers, refused at their line when `known` is
    given and does not hold the name; entries are `key = value` lines; `#`
    and `;` start comments.  Values parse as bool, int, float, 2^k
    shorthand, or bare string.
    """
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config: {e.strerror}") from None
    sections: dict[str, dict[str, tuple[object, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if known is not None and current not in known:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}] "
                                  f"(known: {', '.join(known)})")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: entry outside any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}' in [{current}], "
                              f"first set at line {sections[current][key][1]}")
        sections[current][key] = (_parse_scalar(val), lineno)
    return sections


# section -> key -> (type, default, least value, the field it sets), where a
# default of `...` marks a required key; the fields are the campaign's own,
# FilterParams' and GameConfig's.  Any other [adversary] key is an option of
# the strategy, and any other [experiment] or [filter] key is refused.
CONFIG_KEYS = {
    "experiment": {
        "trials": (int, ..., 1, "trials"),
        "seed": (int, None, None, "seed"),  # None: see `master_seed`
        "fp_samples": (int, 10_000, 1, "fp_samples"),
    },
    "filter": {
        "kind": (str, ..., None, "filter_kind"),
        "n": (int, ..., None, "n"),
        "eps": (float, ..., None, "eps"),
        "t": (int, ..., None, "t"),
        "u_bits": (int, ..., None, "u_bits"),
        "lambda_bits": (int, 128, None, "lambda_bits"),
        "shield": (bool, False, None, "shielded"),
        "m": (int, None, None, "bloom_bits"),  # None: sized from n and eps
    },
    "adversary": {
        "kind": (str, ..., None, "adversary_kind"),
        "expose": (str, "none", None, "expose"),
    },
}

_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _check_seed(value: int, name: str) -> int:
    """value, if split_seed can pack it as a master seed; else a ConfigError."""
    if not 0 <= value < SEED_LIMIT:
        raise ConfigError(f"{name} must be in [0, 2^128), got {value}")
    return value


def master_seed(seed: int | None) -> int:
    """seed, else FILTERLAB_SEED (read and checked only then), else DEFAULT_SEED."""
    if seed is not None:
        return seed
    raw = os.environ.get("FILTERLAB_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"FILTERLAB_SEED must be an integer, got {raw!r}") from None
    return _check_seed(value, "FILTERLAB_SEED")


def config_to_campaign(path: str, seed: int | None = None) -> tuple[GameConfig, int, int, int]:
    """Validate a config file by `CONFIG_KEYS` into (game config, trials,
    master seed, fp_samples); a given seed (`--seed`) overrides the config's."""
    sections = parse_config(path, CONFIG_KEYS)
    values: dict[str, dict] = {}  # section -> field -> value
    lines: dict[str, int] = {}  # field -> line of the key that set it, 0 if none
    opts, opt_lines = {}, {}  # the strategy's options and their lines
    for name, keys in CONFIG_KEYS.items():
        if name not in sections:
            raise ConfigError(f"{path}: missing required section [{name}]")
        section, values[name] = sections[name], {}
        for key, (value, line) in section.items():
            if key not in keys and name != "adversary":
                raise ConfigError(f"{path}:{line}: unknown key '{key}' in [{name}] "
                                  f"(known: {', '.join(keys)})")
            if key not in keys:
                opts[key], opt_lines[key] = value, line
        for key, (kind, default, least, field) in keys.items():
            value, line = section.get(key, (default, 0))
            if value is ...:
                raise ConfigError(f"{path}: missing required key '{key}' in [{name}]")
            if line and not (type(value) is kind or kind is float and type(value) is int):
                raise ConfigError(f"{path}:{line}: '{key}' must be {_KIND_NAMES[kind]}")
            if line and least is not None and value < least:
                raise ConfigError(f"{path}:{line}: {key} must be >= {least}")
            values[name][field], lines[field] = value, line
    exp, game = values["experiment"], {**values["filter"], **values["adversary"]}
    if lines["seed"]:
        _check_seed(exp["seed"], f"{path}:{lines['seed']}: seed")
    seed = master_seed(exp["seed"] if seed is None else seed)
    lines["expose"] = lines["expose"] or lines["adversary_kind"]
    try:
        params = FilterParams(**{f.name: game.pop(f.name) for f in fields(FilterParams)})
        lines.update(opt_lines)  # from here on, an option's error sits at its line
        cfg = GameConfig(params=params, adversary_opts=opts, **game)
    except ParamError as e:
        line = lines.get(e.key)
        raise ConfigError(f"{path}:{line}: {e}" if line else f"{path}: {e}") from None
    return cfg, exp["trials"], seed, exp["fp_samples"]


def write_results(records: list[dict], out_path: str, fmt: str) -> None:
    if fmt == "json":
        payload = {"schema_version": 1, "columns": list(RESULT_COLUMNS),
                   "records": records}
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
        return
    rows = [RESULT_COLUMNS] + [[str(rec[c]) for c in RESULT_COLUMNS] for rec in records]
    Path(out_path).write_text("".join(",".join(row) + "\n" for row in rows))


def cmd_experiment(args: argparse.Namespace) -> int:
    try:
        cfg, trials, seed, fp_samples = config_to_campaign(args.config, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        res = experiments.run_campaign(cfg, trials, seed, parallel=args.parallel,
                                       fp_samples=fp_samples)
    except (adversaries.InconsistentOracleError, BuildError) as e:  # no config foresees these
        print(f"experiment failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    rec = experiments.result_record(res)
    write_results([rec], args.out, args.format)
    print(f"wrote 1 record to {args.out} "
          f"(success_rate={res.success_rate:.4f} +- {res.ci_half_width:.4f})")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    try:
        seed = master_seed(args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    line = _json_line if args.json else acceptance.CriterionResult.line
    # with --json, standard output holds the JSON lines alone
    summary = sys.stderr if args.json else sys.stdout
    lines, failed = [], []
    for n in args.criteria or sorted(acceptance.CRITERIA):
        res = acceptance.run_criterion(n, seed, parallel=args.parallel)
        lines.append(line(res))
        print(lines[-1], flush=True)
        if not res.passed:
            failed.append(res.number)
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"report written to {args.out}", file=summary)
    if failed:
        print(f"FAILED criteria: {failed}", file=summary)
        return 1
    print("all criteria passed", file=summary)
    return 0


JSON_KEYS = ("number", "title", "measured", "threshold", "passed", "seed", "runtime_s")


def _json_line(res: acceptance.CriterionResult) -> str:
    """One criterion's result as a JSON object on one line."""
    return json.dumps({key: getattr(res, key) for key in JSON_KEYS})


def cmd_audit_memory(args: argparse.Namespace) -> int:
    try:
        params = FilterParams(n=args.n, eps=args.eps, t=args.t, u_bits=args.u_bits,
                              lambda_bits=args.lambda_bits)
    except ValueError as e:
        print(f"audit-memory: {e}", file=sys.stderr)
        return 2
    # the audit plays no game; seed_exposed needs no room in the universe
    cfg = GameConfig(filter_kind=args.filter, adversary_kind="seed_exposed",
                     params=params, shielded=args.shield)
    rng = random.Random(args.seed)
    S = sample_set(params, rng)
    rep = experiments.build_filter(cfg, S, params, rng.getrandbits(63))
    audit = experiments.audit_memory(rep)
    print(json.dumps({
        "filter": args.filter + ("+shield" if args.shield else ""),
        "params": {"n": params.n, "eps": params.eps, "t": params.t,
                   "u_bits": params.u_bits, "lambda_bits": params.lambda_bits},
        **audit,
    }, indent=2))
    return 0 if audit["match"] else 1


def _seed(raw: str) -> int:
    try:
        return _check_seed(int(raw), "seed")
    except (ValueError, ConfigError) as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _out_path(raw: str) -> str:
    """raw, once an open for append shows that it can be written before
    anything runs: that truncates nothing, and a file it creates is removed."""
    existed = os.path.lexists(raw)
    try:
        open(raw, "a").close()
    except OSError as e:
        raise argparse.ArgumentTypeError(f"cannot write {raw}: {e.strerror}") from None
    if not existed:
        os.remove(raw)
    return raw


def _criteria(raw: str) -> list[int]:
    try:
        numbers = sorted(int(x) for x in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated criterion numbers, got {raw!r}") from None
    unknown = [n for n in numbers if n not in acceptance.CRITERIA]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"no criterion {unknown[0]}; they run 1 to {max(acceptance.CRITERIA)}")
    return numbers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="filterlab",
        description="membership filters under adaptive adversaries: "
                    "experiments, self-tests, memory audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run a configured campaign")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True, type=_out_path)
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.add_argument("--seed", type=_seed, default=None)
    p_exp.add_argument("--parallel", type=_positive_int, default=1)
    p_exp.set_defaults(fn=cmd_experiment)

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument("--out", type=_out_path, default=None)
    p_self.add_argument("--criteria", type=_criteria, default=None,
                        help="comma-separated criterion numbers (default all)")
    p_self.add_argument("--seed", type=_seed, default=None)
    p_self.add_argument("--parallel", type=_positive_int, default=1,
                        help="worker processes for the game-counting criteria "
                             "3, 4, 5 and 10 (results do not change)")
    p_self.add_argument("--json", action="store_true",
                        help="one JSON object a criterion, with its runtime_s "
                             "(the report too); the summary goes to stderr")
    p_self.set_defaults(fn=cmd_selftest)

    p_audit = sub.add_parser("audit-memory", help="bit-exact memory accounting")
    p_audit.add_argument("--filter", required=True,
                         choices=experiments.FILTERS)
    p_audit.add_argument("--shield", action="store_true")
    p_audit.add_argument("--n", type=int, required=True)
    p_audit.add_argument("--eps", type=float, required=True)
    p_audit.add_argument("--t", type=int, required=True)
    p_audit.add_argument("--u-bits", dest="u_bits", type=int, required=True)
    p_audit.add_argument("--lambda-bits", dest="lambda_bits", type=int, default=128)
    p_audit.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_audit.set_defaults(fn=cmd_audit_memory)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
