"""Command-line entry point.

Subcommands:
  run             execute a JSON experiment config, write one report per scenario
  sample          draw weighted-average samples to CSV
  verify-theorem  statistical suite for one alpha matrix
  verify-moments  expansion vs closed-form moment equality over a fixture grid
  stieltjes       one-scenario `run` of the derivative identity, CSV of its points

Exit codes: 0 all checks passed, 1 at least one statistical/numerical check
failed, 2 configuration or I/O error, a non-finite number, a non-converging
quadrature or more draws than memory holds.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, load_config, parse_config
from .runner import run_config, run_scenario, write_report
from .rwa import sample_rwa_direct_batch, theorem_scenario
from .distributions import RngStream
from .stieltjes import QuadratureError, equation3_terms


def _parse_matrix(text: str) -> list:
    """--alphas: rows separated by ';', entries by ',': "1,2,3;4,5,6"."""
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError as e:
        raise ConfigError(f"bad --alphas {text!r}: {e}") from e
    if len({len(row) for row in rows}) > 1:
        raise ConfigError(f"bad --alphas {text!r}: rows of different lengths")
    return rows


def _parse_grid(text: str) -> list:
    """--grid: z values separated by ',': "1.5,2,3"."""
    try:
        return [float(z) for z in text.split(",")]
    except ValueError as e:
        raise ConfigError(f"bad --grid {text!r}: {e}") from e


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg = load_config(args.config)
    return run_config(cfg, out_dir=args.out, workers=args.workers,
                      on_report=lambda report: print(_verdict(report)))


# Rows per formatted block of the sample CSV: the arrays of one block (32
# bytes a value) are all that formatting holds at once, whatever n_samples.
# Arrays this small are reused by the allocator and stay in the CPU caches.
CSV_BLOCK_ROWS = 2048

# One value's field in the sample CSV: its text right-aligned behind NUL bytes
# in the first 24 bytes, then a word of 8 bytes for the separator.
_FIELD = np.dtype("V32")


def _text_field(text: bytes) -> np.void:
    return np.void(text.rjust(24, b"\0").ljust(32, b"\0"))


# The fields of the values that _exact_fields does not cover, at 0 for a
# %.17g directive, at 1 for exactly 1.0 and at 2 for +0.0, which "%.17g"
# prints as "1" and "0".
_OTHER_FIELDS = np.array([_text_field(b"%.17g"), _text_field(b"1"), _text_field(b"0")])
# Dekker's exact product splits each factor into two halves of 26 bits with
# Veltkamp's constant.
_SPLIT = 2.0**27 + 1
_POW10 = np.array([1e20, 1e19, 1e18, 1e17])  # 10**(16 - X) for X = -4..-1; exact doubles
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# "0." + (3 - e) zeros + the leading digit, right-aligned in 8 bytes, at e * 10 + digit.
_HEAD = np.frombuffer(b"".join(("0." + "0" * (3 - e) + str(digit)).encode().rjust(8, b"\0")
                               for e in range(4) for digit in range(10)), np.uint64)


@functools.cache
def _digit_words() -> tuple:
    """The ASCII digits of 0000..9999 as one 4-byte word each, and the same
    words with their trailing zeros as NUL bytes; read-only.  Built on first
    use, so that the commands that write no sample CSV do not pay for them."""
    digits = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
              + ord("0")).astype(np.uint8)
    not_trailing = np.cumsum(digits[:, ::-1] != ord("0"), axis=1)[:, ::-1] > 0
    trailing = np.where(not_trailing, digits, 0).astype(np.uint8)
    words = digits.view(np.uint32).ravel(), trailing.view(np.uint32).ravel()
    for table in words:
        table.flags.writeable = False
    return words


def _exact_fields(v: np.ndarray) -> np.ndarray:
    """The _FIELD of each v in [1e-4, 1): the bytes of "%.17g" % v, computed
    in bulk, and an empty separator word.

    With X = floor(log10 v) in -4..-1, "%.17g" prints "0.", -X - 1 zeros and
    D = v * 10**(16 - X) rounded half to even, 17 digits without their
    trailing zeros."""
    # e = X + 4, exactly: the doubles 1e-3, 1e-2 and 1e-1 each lie above their
    # power of ten and the double before each lies below it.
    e = (v >= 1e-3).astype(np.intp)
    e += v >= 1e-2
    e += v >= 1e-1
    # Dekker (1971): v * 10**(16 - X) == hi + lo exactly.  numpy rounds each
    # product and sum on its own, with no fused multiply-add.
    scale, scale_hi, scale_lo = _POW10[e], _POW10_HI[e], _POW10_LO[e]
    hi = v * scale
    vh = v * _SPLIT
    vh -= vh - v
    vl = v - vh
    lo = vh * scale_hi - hi
    lo += vh * scale_lo
    lo += vl * scale_hi
    lo += vl * scale_lo
    # 10**16 <= hi + lo < 10**17, where doubles are even integers, so adding
    # lo rounded half to even rounds hi + lo half to even.  No double lies
    # within half a unit of the 17th digit below 1e-3, 1e-2 or 1e-1, so the
    # rounding never carries into the next decade.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    lead = d // 10**16
    d -= lead * 10**16
    upper = d // 10**8
    lower = d - upper * 10**8
    groups = []
    for half in (upper, lower):
        high = half // 10**4
        groups += [high, half - high * 10**4]
    digits4, trailing4 = _digit_words()
    words = np.zeros((len(v), 8), np.uint32)
    words.view(np.uint64)[:, 0] = _HEAD[e * 10 + lead]
    for col, group in enumerate(groups[:3], start=2):
        words[:, col] = digits4[group]
    words[:, 5] = trailing4[groups[3]]
    # where the last group is all zeros, the trailing zeros go on into the
    # group before it, and so on
    rows = np.flatnonzero(groups[3] == 0)
    for col in (4, 3, 2):
        group = groups[col - 2][rows]
        words[rows, col] = trailing4[group]
        rows = rows[group == 0]
    return words.view(_FIELD)[:, 0]


def _write_csv_rows(fh, z: np.ndarray) -> None:
    """Write the rows of z as CSV lines, each value as "%.17g" (the bytes of
    _fmt), one block of CSV_BLOCK_ROWS rows at a time.

    The values in [1e-4, 1) take their text from _exact_fields, and 1.0 and
    +0.0 a constant field; every other value (-0.0, a tiny or subnormal
    value, anything > 1) takes a %.17g directive, which one % call over the
    block fills in.  Each field gets its "," or "\\n", and dropping the NUL
    bytes joins the fields into lines."""
    k = z.shape[1]
    ends = np.frombuffer(b",".ljust(8, b"\0") * (k - 1) + b"\n".ljust(8, b"\0"), np.uint64)
    for start in range(0, len(z), CSV_BLOCK_ROWS):
        v = z[start:start + CSV_BLOCK_ROWS].ravel()
        exact = (v >= 1e-4) & (v < 1.0)
        fields = np.empty(len(v), _FIELD)
        fields[exact] = _exact_fields(v[exact])
        other = v[~exact]
        kind = (other == 1.0) + 2 * ((other == 0.0) & ~np.signbit(other))
        fields[~exact] = _OTHER_FIELDS[kind]
        fields.view(np.uint64).reshape(-1, k, 4)[:, :, 3] = ends
        text = fields.tobytes().translate(None, b"\0").decode("ascii")
        deferred = other[kind == 0]
        fh.write(text % tuple(deferred.tolist()) if len(deferred) else text)


def _cmd_sample(args) -> int:
    if args.n_samples < 0:
        raise ConfigError(f"--n-samples must be >= 0, got {args.n_samples}")
    sc = theorem_scenario(_parse_matrix(args.alphas))
    out = Path(args.out)
    # opened before sampling, so that a bad path fails before the sampling
    # cost; a sampling or write that fails leaves no partial CSV behind
    fh = open(out, "w", encoding="utf-8", newline="\n")
    written = 0

    def write_rows(z, stop):
        # rows are written as they become final, while the sampler draws the
        # next blocks; a sampler block is a whole number of CSV blocks, so the
        # CSV is formatted in the blocks of one write of all of z
        nonlocal written
        _write_csv_rows(fh, z[written:stop])
        written = stop

    try:
        with fh:
            fh.write(",".join(f"z_{j + 1}" for j in range(sc.k)) + "\n")
            sample_rwa_direct_batch(sc, args.n_samples, RngStream(args.seed, 1),
                                    on_rows=write_rows)
    except BaseException:
        out.unlink(missing_ok=True)
        raise
    print(f"wrote {args.n_samples} samples to {out}")
    return 0


def _scenario(sid: str, kind: str, seed: int, **params) -> ScenarioConfig:
    # Built through parse_config so that it is validated exactly as in `run`.
    scenario = {"id": sid, "kind": kind, "seed": seed, **params}
    raw = {"format_version": 1, "output_dir": ".", "scenarios": [scenario]}
    return parse_config(raw).scenarios[0]


def _verdict(report: dict) -> str:
    """One line: "<id>: PASS|FAIL (<passed>/<total> checks)"."""
    n_pass = sum(1 for t in report["tests"] if t["pass"])
    n_total = len(report["tests"])
    verdict = "PASS" if report["overall_pass"] else "FAIL"
    return f"{report['scenario_id']}: {verdict} ({n_pass}/{n_total} checks)"


def _print_summary(report: dict) -> None:
    print(_verdict(report))
    for t in report["tests"]:
        if not t["pass"]:
            print(f"  failed: {t['kind']} ({t['path']}): value {_fmt(t['value'])}"
                  f" not {t['compare']} bound {_fmt(t['bound'])}")
    for note in report["notes"]:
        print(f"  note: {note}")


def _run_single(sc: ScenarioConfig, out_dir) -> int:
    report = run_scenario(sc, config_hash="adhoc")
    _print_summary(report)
    if out_dir:
        path = write_report(report, out_dir)
        print(f"report written to {path}")
    return 0 if report["overall_pass"] else 1


def _cmd_verify_theorem(args) -> int:
    sc = _scenario("verify-theorem", "theorem", args.seed,
                   alphas=_parse_matrix(args.alphas), n_samples=args.n_samples)
    return _run_single(sc, args.out)


def _cmd_verify_moments(args) -> int:
    sc = _scenario("verify-moments", "moments", args.seed, max_total_order=args.max_order)
    return _run_single(sc, args.out)


def _cmd_stieltjes(args) -> int:
    # The one-scenario `run` of this order and grid; the CSV lists every point.
    grid = _parse_grid(args.grid)
    sc = _scenario("stieltjes", "stieltjes", 0, orders=[args.n], grid=grid)
    report = run_scenario(sc, config_hash="adhoc")
    lhs, rhs, resid = equation3_terms(args.n, grid)
    lines = ["n,z,lhs,rhs,residual"]
    for z, left, right, r in zip(grid, lhs, rhs, resid):
        lines.append(f"{args.n},{_fmt(z)},{_fmt(left)},{_fmt(right)},{_fmt(float(r))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote residual table to {args.out}")
    else:
        sys.stdout.write(text)
    _print_summary(report)
    return 0 if report["overall_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-rwa",
        description="Weighted averages of Dirichlet vectors: sampling and verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a JSON experiment config")
    p.add_argument("--config", required=True, help="path to the experiment JSON")
    p.add_argument("--out", default=None, help="report directory (overrides config)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sample", help="draw z samples to CSV")
    p.add_argument("--alphas", required=True, help="matrix, e.g. '1,2;3,4'")
    p.add_argument("--n-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify-theorem", help="statistical suite for one alpha matrix")
    p.add_argument("--alphas", required=True)
    p.add_argument("--n-samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="report directory")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("verify-moments", help="expansion vs closed-form equality")
    p.add_argument("--max-order", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="report directory")
    p.set_defaults(func=_cmd_verify_moments)

    p = sub.add_parser("stieltjes", help="derivative-identity residual table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", default="1.5,2,3,5", help="comma-separated z values")
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(func=_cmd_stieltjes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, MemoryError, ValueError, OverflowError, QuadratureError) as e:
        # a bare MemoryError has no message
        print(f"error: {e or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
