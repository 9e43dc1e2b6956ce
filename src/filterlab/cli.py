"""Command-line harness.

Subcommands:
  experiment    run a configured Monte-Carlo campaign, write CSV or JSON
  selftest      run the acceptance criteria, write a report
  audit-memory  build one filter and print its exact bit accounting

Exit codes: 0 success, 1 criterion/experiment failure, 2 bad input.
The FILTERLAB_SEED environment variable overrides the default master seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from . import acceptance, experiments
from .core import FilterParams, ParamError, sample_set
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


def parse_config(path: str) -> dict[str, dict[str, tuple[object, int]]]:
    """Parse the key/typed-value section format, keeping line numbers.

    Sections are [name] headers; entries are `key = value` lines; `#` and
    `;` start comments.  Values parse as bool, int, float, 2^k shorthand,
    or bare string.
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


_KIND_NAMES = {int: "an integer", bool: "true or false", str: "a string"}


def _require(section: dict, name: str, key: str, path: str, kind=None):
    if key not in section:
        raise ConfigError(f"{path}: missing required key '{key}' in [{name}]")
    value, lineno = section[key]
    if kind is not None and (not isinstance(value, kind)
                             or (kind is int and isinstance(value, bool))):
        raise ConfigError(f"{path}:{lineno}: '{key}' must be {_KIND_NAMES[kind]}")
    return value, lineno


def _check_seed(value: int, name: str) -> int:
    """value, if split_seed can pack it as a master seed; else a ConfigError."""
    if not 0 <= value < SEED_LIMIT:
        raise ConfigError(f"{name} must be in [0, 2^128), got {value}")
    return value


def _env_seed() -> int:
    """The master seed when none is given: FILTERLAB_SEED, else DEFAULT_SEED."""
    raw = os.environ.get("FILTERLAB_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"FILTERLAB_SEED must be an integer, got {raw!r}") from None
    return _check_seed(value, "FILTERLAB_SEED")


def _optional(section: dict, name: str, key: str, path: str, kind, default):
    """A key checked like `_require`, or (default, 0) when it is absent."""
    if key not in section:
        return default, 0
    return _require(section, name, key, path, kind)


def config_to_campaign(path: str) -> tuple[GameConfig, int, int, int]:
    """Validate a config file into (game config, trials, seed, fp_samples)."""
    sections = parse_config(path)
    for required in ("experiment", "filter", "adversary"):
        if required not in sections:
            raise ConfigError(f"{path}: missing required section [{required}]")
    exp, flt, adv = sections["experiment"], sections["filter"], sections["adversary"]

    trials, trials_line = _require(exp, "experiment", "trials", path, int)
    if trials < 1:
        raise ConfigError(f"{path}:{trials_line}: trials must be >= 1")
    seed, seed_line = _optional(exp, "experiment", "seed", path, int, _env_seed())
    _check_seed(seed, f"{path}:{seed_line}: seed")
    fp_samples, fp_line = _optional(exp, "experiment", "fp_samples", path, int, 10_000)
    if fp_samples < 1:
        raise ConfigError(f"{path}:{fp_line}: fp_samples must be >= 1")

    kind, kind_line = _require(flt, "filter", "kind", path, str)
    n, _ = _require(flt, "filter", "n", path, int)
    eps_val, eps_line = _require(flt, "filter", "eps", path)
    if not isinstance(eps_val, (int, float)):
        raise ConfigError(f"{path}:{eps_line}: eps must be a probability in (0,1)")
    t, t_line = _require(flt, "filter", "t", path, int)
    u_bits, _ = _require(flt, "filter", "u_bits", path, int)
    lambda_bits, _ = _optional(flt, "filter", "lambda_bits", path, int, 128)
    try:
        params = FilterParams(n=n, eps=float(eps_val), t=t, u_bits=u_bits,
                              lambda_bits=lambda_bits)
    except ParamError as e:
        line = flt.get(e.key, (None, 0))[1]
        raise ConfigError(f"{path}:{line}: [filter] {e}" if line else
                          f"{path}: [filter] {e}") from None

    shielded, _ = _optional(flt, "filter", "shield", path, bool, False)
    bloom_bits, m_line = _optional(flt, "filter", "m", path, int, None)
    if bloom_bits is not None and bloom_bits < 1:
        raise ConfigError(f"{path}:{m_line}: m must be >= 1")
    adv_kind, adv_line = _require(adv, "adversary", "kind", path, str)
    expose, expose_line = adv.get("expose", ("none", adv_line))
    adv_opts = {k: v for k, (v, _) in adv.items() if k not in ("kind", "expose")}
    try:
        cfg = GameConfig(
            filter_kind=kind, adversary_kind=adv_kind, params=params,
            shielded=shielded, bloom_bits=bloom_bits, expose=str(expose),
            adversary_opts=adv_opts,
        )
    except ParamError as e:
        fields = {"filter_kind": kind_line, "adversary_kind": adv_line,
                  "expose": expose_line, "t": t_line}
        line = adv[e.key][1] if e.key in adv_opts else fields[e.key]
        raise ConfigError(f"{path}:{line}: {e}") from None
    return cfg, trials, seed, fp_samples


def write_results(records: list[dict], out_path: str, fmt: str) -> None:
    if fmt == "json":
        payload = {"schema_version": 1, "columns": list(RESULT_COLUMNS),
                   "records": records}
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
        return
    lines = [",".join(RESULT_COLUMNS)]
    for rec in records:
        lines.append(",".join(str(rec[c]) for c in RESULT_COLUMNS))
    Path(out_path).write_text("\n".join(lines) + "\n")


def cmd_experiment(args: argparse.Namespace) -> int:
    try:
        cfg, trials, seed, fp_samples = config_to_campaign(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.seed is not None:
        seed = args.seed
    res = experiments.run_campaign(cfg, trials, seed, parallel=args.parallel,
                                   fp_samples=fp_samples)
    rec = experiments.result_record(res)
    write_results([rec], args.out, args.format)
    print(f"wrote 1 record to {args.out} "
          f"(success_rate={res.success_rate:.4f} +- {res.ci_half_width:.4f})")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    try:
        seed = args.seed if args.seed is not None else _env_seed()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    results = []
    for n in args.criteria or sorted(acceptance.CRITERIA):
        res = acceptance.run_criterion(n, seed, parallel=args.parallel)
        print(res.line(), flush=True)
        results.append(res)
    report = "\n".join(r.line() for r in results) + "\n"
    if args.out:
        Path(args.out).write_text(report)
        print(f"report written to {args.out}")
    failed = [r.number for r in results if not r.passed]
    if failed:
        print(f"FAILED criteria: {failed}")
        return 1
    print("all criteria passed")
    return 0


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
