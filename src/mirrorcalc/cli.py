"""Command-line interface: bundle-spec parsing, presets, verification
commands, and exact output emission in text, json or csv.

Exit codes: 0 success (all checks passing), 1 check failures in
verification mode, 2 usage or parse errors or an unwritable output, 3
an internal error (a failed internal identity or any other defect).
Rationals are never printed as floating point; an optional --decimal
column adds an exact decimal expansion for display.  ``compute`` runs
the pipeline on every call: nothing is cached, and --cache is accepted,
ignored and warned about until it is removed.
"""

import argparse
import io
import os
import re
import sys

from .bundles import CRITICAL_BUNDLES, SplittingType
from .pipeline import run_pipeline, unsupported_reason

EMIT_CHOICES = ("kd", "nd", "mirror-map", "f-series", "checks")
FORMAT_CHOICES = ("text", "json", "csv")
VERIFY_FORMATS = ("text", "json")
CONFIG_KEYS = ("order", "format", "emit", "dmax", "decimal")
DEFAULT_EMIT = ("kd", "nd", "mirror-map", "checks")
# largest --order of compute and --dmax of verify, from a flag or a
# config; compute --preset quintic takes 0.16 s at --order 100 (run_pipeline
# 1.3 s at 200), verify linking on the quintic 0.16 s at --dmax 6, 0.21 s at 8
MAX_ORDER = 100
MAX_DMAX = 6
# largest --decimal of compute, from a flag or a config; K_d has <= 324 integer
# digits at --order 100, and CPython converts ints of <= 4300 digits to str
MAX_DECIMAL = 1000
# largest number sum(l*dmax + 1) + sum(k*dmax - 1) of linear factors of
# P_dmax in verify, with or without --with-x.  Every check acts on the
# factors.  Fresh-process runs of each check on P^12 at --dmax 6, O(-11)
# (65 factors) and O(4)+O(1) with --with-x, take 0.09-0.24 s.
# The presets need at most 31.  It also bounds every bundle degree of
# verify; compute admits only the critical types, whose degrees are all <= 5.
MAX_LINEAR_FACTORS = 65
# largest --n of every command; it admits every critical type (n <= 7),
# and at the factor cap on P^12 no check takes 0.3 s (README, limits)
MAX_DIMENSION = 12
# key -> (lowest, largest) value of each integer flag and config key
BOUNDS = {"order": (1, MAX_ORDER), "dmax": (1, MAX_DMAX), "decimal": (0, MAX_DECIMAL)}

# preset name -> (n, bundle text, default order)
PRESETS = {
    "multicover": (1, "O(-1)+O(-1)", 10),
    "local-p2": (2, "O(-3)", 10),
    "p3-concavex": (3, "O(2)+O(-2)", 10),
    "p4-concavex": (4, "O(2)+O(2)+O(-1)", 10),
    "quintic": (4, "O(5)", 12),
}


class UsageError(ValueError):
    """Bad command-line or config input: one ``label: message`` line on
    stderr, exit 2."""

    def __init__(self, message, label="error"):
        super().__init__(message)
        self.label = label


class BundleParseError(ValueError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# one term of a bundle spec and the '+' after it, every piece optional;
# ASCII digits only
_TERM = re.compile(r"\s*(?P<O>[oO]?)\s*(?P<open>\(?)\s*(?P<sign>[+-]?)\s*"
                   r"(?P<degree>[0-9]*)\s*(?P<close>\)?)\s*(?P<plus>\+?)")
# the required pieces in the order they are checked, each with the
# message when it is empty
_EXPECTED = {"O": "expected 'O'", "open": "expected '('",
             "degree": "expected an integer degree", "close": "expected ')'"}


def parse_bundle(text, n):
    """Parse 'O(a)+O(b)+...' into a splitting type on P^n.

    Positive degrees are convex, negative concave; O(0) is rejected
    because the data's class would not be invertible.
    """
    if not text.strip():
        raise BundleParseError("empty bundle spec", len(text))
    convex, concave = [], []
    pos, plus = 0, "+"
    while plus:
        term = _TERM.match(text, pos)
        for piece, message in _EXPECTED.items():
            if not term[piece]:
                raise BundleParseError(message, term.start(piece))
            if piece == "degree":
                try:
                    degree = int(term[piece])
                except ValueError:  # more digits than CPython converts
                    raise BundleParseError("degree has too many digits",
                                           term.start(piece)) from None
                if not degree:
                    raise BundleParseError("O(0) not concavex", term.start(piece))
        (concave if term["sign"] == "-" else convex).append(degree)
        pos, plus = term.end(), term["plus"]
    if pos < len(text):
        raise BundleParseError("expected '+' between terms", pos)
    return SplittingType(n, tuple(convex), tuple(concave))


# ---------------------------------------------------------------------
# exact decimal display


def exact_decimal(value, digits):
    """Decimal expansion of a rational, correctly rounded, no floats."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    scaled = value * 10 ** digits
    whole = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        whole += 1
    text = str(whole).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _frac_json(value):
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------
# compute output


def _result_document(result, bundle_text, emit):
    doc = {
        "bundle": bundle_text,
        "n": result.splitting.n,
        "order": result.order,
        "case": result.case.value,
    }
    if "kd" in emit:
        doc["K"] = [_frac_json(k) for k in result.K]
    if "nd" in emit:
        doc["n_d"] = [{"d": d, "value": _frac_json(v), "integral": flag}
                      for d, v, flag in result.instanton]
    if "mirror-map" in emit:
        doc["mirror_g"] = [_frac_json(c) for c in result.mirror_shift.coeffs[1:]]
    if "checks" in emit:
        doc["checks"] = dict(sorted(result.checks.items()))
    if "f-series" in emit and result.f_basis is not None:
        doc["f_series"] = [
            {f"{d},{j}": _frac_json(c) for (d, j), c in sorted(f.terms.items())}
            for f in result.f_basis
        ]
    return doc


def _degree_rows(result, emit, decimal, header, flag_words):
    """The header, then the cells of each degree d: d, K_d and its
    decimal, n_d and its integrality flag, spelled flag_words = (integral,
    not integral); of these, the columns that emit and decimal ask for."""
    keep = (True, "kd" in emit, "kd" in emit and decimal is not None, "nd" in emit, "nd" in emit)
    rows = [header] + [[str(d), str(k), "" if decimal is None else exact_decimal(k, decimal),
                        str(v), flag_words[not flag]]
                       for (d, v, flag), k in zip(result.instanton, result.K)]
    return [[cell for cell, kept in zip(row, keep) if kept] for row in rows]


def _emit_text(result, bundle_text, emit, decimal, out):
    st = result.splitting
    out.write(f"bundle {bundle_text} on P^{st.n}  "
              f"(case {result.case.value}, order {result.order})\n")
    if "kd" in emit or "nd" in emit:
        rows = _degree_rows(result, emit, decimal, ["d", "K_d", f"K_d ({decimal} digits)",
                                                    "n_d", "integral"], ("yes", "NO"))
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        for r in rows:
            out.write("  ".join(cell.rjust(w) for cell, w in zip(r, widths)) + "\n")
    if "mirror-map" in emit:
        out.write(f"mirror map shift g: {result.mirror_shift}\n")
    if "f-series" in emit and result.f_basis is not None:
        for i, f in enumerate(result.f_basis):
            out.write(f"f_{i}: {f}\n")
    if "checks" in emit:
        out.write("checks: " + "; ".join(f"{name}=ok" for name in sorted(result.checks)) + "\n")


def _emit_csv(result, emit, decimal, out):
    rows = _degree_rows(result, emit, decimal, ["d", "K", "K_decimal", "n_d", "n_d_integral"],
                        ("true", "false"))
    for d, row in enumerate(rows):
        if "mirror-map" in emit:
            row.append(str(result.mirror_shift[d]) if d else "mirror_g")
        out.write(",".join(row) + "\n")


# ---------------------------------------------------------------------
# config file


def load_config(path, formats):
    """key=value defaults, '#' starting a comment, each line checked as its
    flag is: keys from CONFIG_KEYS, ints within BOUNDS, emit a tuple, and
    format one of formats, those of the command that reads the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read config {path}: not UTF-8 (byte {exc.start})") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key '{key}' "
                             f"(known: {', '.join(CONFIG_KEYS)})")
        values[key] = _parse(key, value.strip(), f"config value {key} =", formats)
    return values


def _integer(text, label):
    """The int spelled by a flag or config value, label naming it: ASCII
    digits, and a leading '-' that the option's lower bound then reports."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"{label} {text!r} is not an integer")
    try:
        return int(text)
    except ValueError:  # more digits than CPython converts
        raise UsageError(f"{label} {text[:12]}... has too many digits") from None


def _parse(key, text, label, formats):
    """The value of key that text spells, label naming it: one of formats,
    a tuple of EMIT_CHOICES, or an int within BOUNDS; empty text is none."""
    if key == "format":
        if text not in formats:
            raise UsageError(f"{label} {text!r} is not one of " + ", ".join(formats))
        return text
    if key == "emit":
        emit = tuple(tok.strip() for tok in text.split(",") if tok.strip())
        if not emit:
            raise UsageError(f"emit {text!r} names none of " + ", ".join(EMIT_CHOICES))
        for tok in emit:
            if tok not in EMIT_CHOICES:
                raise UsageError(f"unknown emit item '{tok}'")
        return emit
    value = _integer(text, label)
    low, high = BOUNDS[key]
    if value < low:
        raise UsageError(f"--{key} must be >= {low}")
    if value > high:
        raise UsageError(f"--{key} is limited to <= {high}")
    return value


def _option(args, config, key, default):
    """The flag of key parsed (argparse has limited --format to the
    command's formats), else the config value, else the default."""
    flag = getattr(args, key)
    if flag is None:
        return config.get(key, default)
    return _parse(key, flag, f"--{key}", FORMAT_CHOICES)


# ---------------------------------------------------------------------
# commands


def _build_parser(out, err):
    class Parser(argparse.ArgumentParser):  # --help to out, a usage error to err
        def print_help(self, file=None):
            super().print_help(file or out)

        def error(self, message):
            err.write(f"{self.format_usage()}{self.prog}: error: {message}\n")
            self.exit(2)

    parser = Parser(
        prog="mirrorcalc",
        description="Exact Gromov-Witten and instanton numbers for "
                    "concavex line-bundle sums on projective space.")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="run the full pipeline for a bundle")
    comp.add_argument("--preset", choices=sorted(PRESETS))
    comp.add_argument("--n", help="ambient projective dimension")
    comp.add_argument("--bundle", help="splitting type, e.g. 'O(2)+O(-2)'")
    comp.add_argument("--order", help="q-truncation order D")
    comp.add_argument("--format", choices=FORMAT_CHOICES)
    comp.add_argument("--emit", help="comma list from: " + ",".join(EMIT_CHOICES))
    comp.add_argument("--decimal", help="extra display column with this many digits")
    comp.add_argument("--cache", help=argparse.SUPPRESS)
    comp.add_argument("--config", help="key=value config file supplying defaults")

    ver = sub.add_parser("verify", help="symbolic verification of the data identities")
    ver.add_argument("check", choices=("gluing", "reciprocity", "linking", "degree-bound"))
    ver.add_argument("--n", required=True)
    ver.add_argument("--bundle", required=True)
    ver.add_argument("--dmax", help="verification degree bound (default 4)")
    ver.add_argument("--with-x", action="store_true", dest="with_x",
                     help="use the x-extended data")
    ver.add_argument("--format", choices=VERIFY_FORMATS)
    ver.add_argument("--config", help="key=value config file supplying defaults")

    sub.add_parser("list-critical", help="print the table of critical bundles") \
       .add_argument("--format", choices=FORMAT_CHOICES, default="text")
    return parser


def _read_bundle(text, n):
    """The splitting type of a bundle spec on P^n, n within the cap."""
    try:
        st = parse_bundle(text, n)
    except ValueError as exc:
        raise UsageError(str(exc), label="parse error") from None
    if n > MAX_DIMENSION:
        raise UsageError(f"--n is limited to <= {MAX_DIMENSION}")
    return st


def _cmd_compute(args, out, err):
    if args.cache is not None:
        err.write("warning: --cache is ignored: mirrorcalc no longer caches results\n")
    config = load_config(args.config, FORMAT_CHOICES) if args.config is not None else {}
    if args.preset:
        if args.bundle is not None or args.n is not None:
            raise UsageError("--preset conflicts with --n/--bundle")
        n, bundle_text, default_order = PRESETS[args.preset]
    else:
        if args.bundle is None or args.n is None:
            raise UsageError("need --preset or both --n and --bundle")
        n, bundle_text, default_order = _integer(args.n, "--n"), args.bundle, 10
    order = _option(args, config, "order", default_order)
    fmt = _option(args, config, "format", "text")
    emit = _option(args, config, "emit", DEFAULT_EMIT)
    if fmt == "csv" and "f-series" in emit:
        raise UsageError("csv carries the per-degree columns only; "
                         "use --format text or json for f-series")
    decimal = _option(args, config, "decimal", None)

    st = _read_bundle(bundle_text, n)
    reason = unsupported_reason(st)
    if reason:
        raise UsageError(reason)

    result = run_pipeline(st, order)
    if fmt == "json":
        import json  # only the JSON writers load json
        out.write(json.dumps(_result_document(result, bundle_text, emit), indent=2) + "\n")
    elif fmt == "csv":
        _emit_csv(result, emit, decimal, out)
    else:
        _emit_text(result, bundle_text, emit, decimal, out)
    err.write(f"note: values are exact and emitted through the truncation "
              f"order D={order}\n")
    return 0


def _cmd_verify(args, out, err):
    config = load_config(args.config, VERIFY_FORMATS) if args.config is not None else {}
    d_max = _option(args, config, "dmax", 4)
    fmt = _option(args, config, "format", "json")
    st = _read_bundle(args.bundle, _integer(args.n, "--n"))
    factors = st.linear_factors(d_max)
    if factors > MAX_LINEAR_FACTORS:
        # a count past CPython's 4300-digit int-to-str limit is not printed
        count = factors if factors <= 10 ** 20 else "more than 10^20"
        raise UsageError(f"{st} at --dmax {d_max} gives P_dmax {count} linear factors; "
                         f"verify is limited to <= {MAX_LINEAR_FACTORS}")
    # imported here, so that no other command loads the verifier
    from .eulerdata import (build_hypergeom_data, check_degree_bound, check_gluing,
                            check_mirror_linked, check_reciprocity, to_table)
    table = to_table(build_hypergeom_data(st, with_x=args.with_x), d_max)
    check = {"gluing": check_gluing, "reciprocity": check_reciprocity,
             "linking": check_mirror_linked, "degree-bound": check_degree_bound}[args.check]
    report = check(table)
    if fmt == "json":
        out.write(report.to_json(indent=2) + "\n")
    else:
        out.write(f"{report.check}: n={report.n} d_max={report.d_max} "
                  f"all_pass={report.all_pass} "
                  f"({len(report.failures)} failures, "
                  f"{len(report.inconclusive)} inconclusive)\n")
        for r in report.failures + report.inconclusive:
            out.write(f"  d={r.d} i={r.i} r={r.r} {r.status}: {r.witness}\n")
    return 0 if report.all_pass else 1


def _cmd_list_critical(args, out, err):
    rows = [(st.n, str(st)) for st in CRITICAL_BUNDLES]
    if args.format == "json":
        import json
        out.write(json.dumps([{"n": n, "bundle": b} for n, b in rows], indent=2) + "\n")
    elif args.format == "csv":
        out.write("n,bundle\n")
        for n, b in rows:
            out.write(f"{n},{b}\n")
    else:
        for n, b in rows:
            out.write(f"P^{n}: {b}\n")
    return 0


def run_command(argv, out=None, err=None):
    """Entry point used by the console script; returns the exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    text, notes = io.StringIO(), io.StringIO()  # out and err, written once the command returns
    try:
        args = _build_parser(text, notes).parse_args(argv)
        code = {"compute": _cmd_compute, "verify": _cmd_verify,
                "list-critical": _cmd_list_critical}[args.command](args, text, notes)
    except SystemExit as exc:  # argparse after --help (0) or a usage error (2)
        code = exc.code
    except UsageError as exc:
        err.write(f"{notes.getvalue()}{exc.label}: {exc}\n")
        return 2
    except Exception as exc:  # a defect, not bad input: exit 3, never a traceback
        err.write(f"{notes.getvalue()}internal error: {type(exc).__name__}: {exc}\n")
        return 3
    try:
        print(text.getvalue(), end="", file=out, flush=True)
    except OSError as exc:  # a full disk, say; a closed pipe ends main by SIGPIPE
        err.write(f"error: cannot write output: {exc.strerror or exc}\n")
        return 2
    err.write(notes.getvalue())
    return code


def main():
    # a closed stdout ends the process by SIGPIPE, as it ends cat; signal is
    # imported here so that importing this module does not load it
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = run_command(sys.argv[1:])
    try:  # a failed write leaves bytes in a buffered stdout that fail again at exit
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:  # so drop them: point fd 1 at the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
