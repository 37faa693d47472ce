"""Command-line surface: grammar, presets, formats, determinism,
exit codes and config handling."""

import errno
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from mirrorcalc.bundles import CRITICAL_BUNDLES, SplittingType
from mirrorcalc import cli, eulerdata
from mirrorcalc.cli import (FORMAT_CHOICES, MAX_DECIMAL, MAX_DIMENSION, MAX_DMAX,
                            MAX_LINEAR_FACTORS, MAX_ORDER, VERIFY_FORMATS, BundleParseError,
                            exact_decimal, parse_bundle, run_command)
from mirrorcalc.pipeline import PipelineError


def run(argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    old_env = {}
    env = env or {}
    for key, val in env.items():
        old_env[key] = os.environ.get(key)
        os.environ[key] = val
    try:
        code = run_command(argv, out=out, err=err)
    finally:
        for key, val in old_env.items():
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------
# grammar


def test_parse_bundle_basic():
    st = parse_bundle("O(5)", 4)
    assert st == SplittingType(4, (5,), ())
    st = parse_bundle("O(2)+O(-2)", 3)
    assert st == SplittingType(3, (2,), (2,))
    st = parse_bundle("  o( 2 ) +  O(+2)+O( -1 )", 4)
    assert st == SplittingType(4, (2, 2), (1,))


def test_parse_bundle_rejects_zero():
    with pytest.raises(BundleParseError) as exc:
        parse_bundle("O(0)", 2)
    assert "not concavex" in str(exc.value)


def test_parse_bundle_position_annotated():
    with pytest.raises(BundleParseError) as exc:
        parse_bundle("O(2)+Q(3)", 2)
    assert "position 5" in str(exc.value)


def scanner_parse_bundle(text, n):
    """The character scanner that parse_bundle replaced, kept as its
    oracle: on ASCII input both give the same splitting type, or the
    same message at the same position."""
    pos = 0
    length = len(text)

    def skip_ws(p):
        while p < length and text[p].isspace():
            p += 1
        return p

    convex, concave = [], []
    pos = skip_ws(pos)
    if pos == length:
        raise BundleParseError("empty bundle spec", pos)
    while True:
        pos = skip_ws(pos)
        if pos >= length or text[pos] not in "oO":
            raise BundleParseError("expected 'O'", pos)
        pos = skip_ws(pos + 1)
        if pos >= length or text[pos] != "(":
            raise BundleParseError("expected '('", pos)
        pos = skip_ws(pos + 1)
        sign = 1
        if pos < length and text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        start = pos
        while pos < length and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise BundleParseError("expected an integer degree", pos)
        degree = sign * int(text[start:pos])
        if degree == 0:
            raise BundleParseError("O(0) not concavex", start)
        pos = skip_ws(pos)
        if pos >= length or text[pos] != ")":
            raise BundleParseError("expected ')'", pos)
        pos = skip_ws(pos + 1)
        (convex if degree > 0 else concave).append(abs(degree))
        if pos == length:
            break
        if text[pos] != "+":
            raise BundleParseError("expected '+' between terms", pos)
        pos += 1
    return SplittingType(n, tuple(convex), tuple(concave))


def parse_outcome(parse, text):
    try:
        return parse(text, 3)
    except BundleParseError as exc:
        return str(exc), exc.position


NON_ASCII_DIGITS = "\u0663\u00b3"  # ARABIC-INDIC DIGIT THREE, SUPERSCRIPT THREE
SPEC_ALPHABET = "Oo()+- \tx0123456789" + NON_ASCII_DIGITS


blank = hs.sampled_from(["", " ", "\t "])
term = hs.tuples(blank, hs.sampled_from("Oo"), blank, blank, hs.sampled_from(["", "+", "-"]),
                 blank, hs.text("0123456789", min_size=1, max_size=3), blank, blank)


@hs.composite
def edited_specs(draw):
    """A well-formed spec of 1-3 terms, then up to 3 edits, each an
    insertion, a deletion or a replacement by a character of
    SPEC_ALPHABET, so that whole parses and every message occur."""
    text = "+".join("{}{}{}({}{}{}{}{}){}".format(*t)
                    for t in draw(hs.lists(term, min_size=1, max_size=3)))
    for _ in range(draw(hs.integers(0, 3))):
        at = draw(hs.integers(0, len(text)))
        text = (text[:at] + draw(hs.sampled_from(["", *SPEC_ALPHABET]))
                + text[at + draw(hs.integers(0, 1)):])
    return text


specs = hs.one_of(edited_specs(), hs.text(SPEC_ALPHABET, max_size=12))


@settings(max_examples=500)
@given(specs)
def test_parse_bundle_matches_the_scanner(text):
    if not any(c in text for c in NON_ASCII_DIGITS):
        assert parse_outcome(parse_bundle, text) == parse_outcome(scanner_parse_bundle, text)
        return
    # a non-ASCII digit never parses: it is an unexpected character, as
    # 'x' is, with a positioned message
    outcome = parse_outcome(parse_bundle, text)
    assert isinstance(outcome, tuple)
    ascii_text = text.translate({ord(c): "x" for c in NON_ASCII_DIGITS})
    assert outcome == parse_outcome(scanner_parse_bundle, ascii_text)


@pytest.mark.parametrize("bundle, message", [
    ("O(-\u0663)", "expected an integer degree (at position 3)"),
    ("O(-\u00b3)", "expected an integer degree (at position 3)"),
    ("O(1\u0663)", "expected ')' (at position 3)"),
    ("O(2)+O(\u0663)", "expected an integer degree (at position 7)"),
])
def test_non_ascii_digits_are_positioned_parse_errors(bundle, message, monkeypatch):
    refuse_builds(monkeypatch)
    assert run(["compute", "--n", "2", "--bundle", bundle]) == (2, "", f"parse error: {message}\n")


def test_render_parse_roundtrip():
    st = SplittingType(4, (2, 2), (1,))
    assert parse_bundle(str(st), 4) == st
    canonical = str(parse_bundle("O(-1)+O(4)+O(2)", 5))
    assert canonical == "O(2)+O(4)+O(-1)"
    assert str(parse_bundle(canonical, 5)) == canonical


def test_exact_decimal():
    from fractions import Fraction
    assert exact_decimal(Fraction(-45, 8), 3) == "-5.625"
    assert exact_decimal(Fraction(1, 3), 4) == "0.3333"
    assert exact_decimal(Fraction(2), 0) == "2"
    assert exact_decimal(Fraction(2, 3), 2) == "0.67"


# ---------------------------------------------------------------------
# compute command


def test_compute_preset_equals_explicit_flags():
    code1, out1, _ = run(["compute", "--preset", "p3-concavex", "--format", "csv"])
    code2, out2, _ = run(["compute", "--n", "3", "--bundle", "O(2)+O(-2)",
                          "--format", "csv"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_compute_deterministic():
    argv = ["compute", "--preset", "local-p2", "--order", "4", "--format", "json"]
    runs = [run(argv) for _ in range(2)]
    assert runs[0] == runs[1]


def test_compute_json_schema():
    code, out, _ = run(["compute", "--preset", "local-p2", "--order", "3",
                        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["bundle"] == "O(-3)" and doc["n"] == 2 and doc["order"] == 3
    assert doc["case"] == "CASE2"
    assert doc["K"] == ["3/1", "-45/8", "244/9"]
    assert doc["n_d"][0] == {"d": 1, "value": "3/1", "integral": True}
    assert doc["mirror_g"] == ["-6/1", "45/1", "-560/1"]
    assert all(isinstance(v, bool) for v in doc["checks"].values())
    assert list(doc["checks"]) == sorted(doc["checks"])
    # rationals are strings, never floats
    assert not any(isinstance(x, float) for x in doc["K"])


def test_compute_csv_rows():
    code, out, _ = run(["compute", "--preset", "p3-concavex", "--order", "10",
                        "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,K,n_d")
    assert len(lines) == 11
    assert lines[1].split(",")[1] == "-4"
    assert lines[3].split(",")[1] == "-328/27"


def test_compute_decimal_column():
    code, out, _ = run(["compute", "--preset", "local-p2", "--order", "2",
                        "--format", "csv", "--decimal", "3", "--emit", "kd"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,K,K_decimal"
    assert lines[2] == "2,-45/8,-5.625"


def test_compute_emit_selection():
    code, out, _ = run(["compute", "--preset", "multicover", "--order", "2",
                        "--format", "json", "--emit", "kd"])
    doc = json.loads(out)
    assert "K" in doc and "n_d" not in doc and "mirror_g" not in doc


def test_compute_f_series_emission():
    code, out, _ = run(["compute", "--preset", "quintic", "--order", "2",
                        "--format", "json", "--emit", "kd,f-series"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["f_series"]) == 4
    assert doc["f_series"][0]["0,0"] == "1/1"
    assert doc["f_series"][0]["1,0"] == "120/1"


def test_compute_csv_rejects_f_series():
    code, out, err = run(["compute", "--n", "4", "--bundle", "O(5)", "--order", "2",
                          "--emit", "f-series", "--format", "csv"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "f-series" in err


def refuse_builds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the build started")
    monkeypatch.setattr(eulerdata, "build_hypergeom_data", refuse)
    monkeypatch.setattr(cli, "run_pipeline", refuse)


@pytest.mark.parametrize("argv", [
    ["verify", "gluing", "--n", "1", "--bundle", "O(99999999999)", "--dmax", "1"],
    ["verify", "reciprocity", "--n", "2", "--bundle", "O(1)+O(-65)"],
    ["compute", "--n", "4", "--bundle", "O(99999999999)"],
])
def test_bundle_degree_cap(argv, monkeypatch):
    # no cap of its own bounds a bundle degree: verify refuses it through
    # the linear-factor cap, compute because the type is not critical
    refuse_builds(monkeypatch)
    code, out, err = run(argv)
    assert code == 2 and out == ""
    expected = "linear factors" if argv[0] == "verify" else "no K_d extraction"
    assert err.startswith("error: ") and err.count("\n") == 1 and expected in err


def test_bundle_degree_cap_admits_presets():
    # every critical type, so every compute input, has degrees <= 5; the
    # linear-factor cap admits O(64), its largest degree, at --dmax 1
    assert max(max(st.convex + st.concave) for st in CRITICAL_BUNDLES) == 5
    for n, bundle, _ in cli.PRESETS.values():
        assert parse_bundle(bundle, n) in CRITICAL_BUNDLES
    code, _, _ = run(["verify", "degree-bound", "--n", "1", "--bundle", "O(64)", "--dmax", "1"])
    assert code in (0, 1)
    code, _, err = run(["verify", "degree-bound", "--n", "1", "--bundle", "O(65)", "--dmax", "1"])
    assert code == 2 and "66 linear factors" in err


@pytest.mark.parametrize("argv, key, limit", [
    (["compute", "--preset", "quintic"], "order", MAX_ORDER),
    (["compute", "--n", "2", "--bundle", "O(-3)", "--format", "csv"], "order", MAX_ORDER),
    (["verify", "gluing", "--n", "2", "--bundle", "O(-3)"], "dmax", MAX_DMAX),
    (["verify", "linking", "--n", "4", "--bundle", "O(5)"], "dmax", MAX_DMAX),
    (["compute", "--preset", "local-p2", "--order", "2"], "decimal", MAX_DECIMAL),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_order_and_dmax_caps(argv, key, limit, source, tmp_path, monkeypatch):
    refuse_builds(monkeypatch)
    if source == "flag":
        argv = argv + [f"--{key}", str(limit + 1)]
    else:
        cfg = tmp_path / "big.conf"
        cfg.write_text(f"{key} = {limit + 1}\n")
        argv = argv + ["--config", str(cfg)]
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err == f"error: --{key} is limited to <= {limit}\n"


@pytest.mark.parametrize("text", ["1_0", "\u0662", "\u00b3", "+3", " 3", "3 ", "3.0", "0x3", "x", ""])
@pytest.mark.parametrize("argv, key", [
    (["verify", "gluing", "--bundle", "O(-1)+O(-1)", "--dmax", "2", "--n"], "n"),
    (["compute", "--bundle", "O(-1)+O(-1)", "--n"], "n"),
    (["verify", "gluing", "--n", "1", "--bundle", "O(-1)+O(-1)", "--dmax"], "dmax"),
    (["compute", "--preset", "local-p2", "--order"], "order"),
    (["compute", "--preset", "local-p2", "--decimal"], "decimal"),
])
def test_integer_flags_take_ascii_digits_only(argv, key, text, monkeypatch):
    # int() would read '1_0' as 10 and the Arabic-Indic two as 2; every
    # integer flag takes [0-9]+ (and a '-' its lower bound reports)
    refuse_builds(monkeypatch)
    assert run(argv + [text]) == (2, "", f"error: --{key} {text!r} is not an integer\n")


@pytest.mark.parametrize("text", ["1_0", "\u0662", "+3", "3.0", "x"])
@pytest.mark.parametrize("argv, key", [
    (["verify", "gluing", "--n", "1", "--bundle", "O(-1)+O(-1)"], "dmax"),
    (["compute", "--preset", "local-p2"], "order"),
    (["compute", "--preset", "local-p2"], "decimal"),
])
def test_integer_config_values_take_ascii_digits_only(argv, key, text, tmp_path, monkeypatch):
    refuse_builds(monkeypatch)
    cfg = tmp_path / "int.conf"
    cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
    assert run(argv + ["--config", str(cfg)]) == (
        2, "", f"error: config value {key} = {text!r} is not an integer\n")


@pytest.mark.parametrize("argv", [
    ["compute", "--preset", "local-p2", "--order"],
    ["compute", "--bundle", "O(-1)+O(-1)", "--n"],
    ["verify", "gluing", "--bundle", "O(1)", "--n"],
])
def test_integers_past_the_conversion_limit_exit_2(argv, tmp_path, monkeypatch):
    # int() refuses more than 4300 digits with a ValueError, which must
    # not reach the exit-3 handler, from a flag or from a config
    refuse_builds(monkeypatch)
    big = "9" * 5000
    assert run(argv + [big]) == (2, "", f"error: --{argv[-1][2:]} {big[:12]}... has too many digits\n")
    cfg = tmp_path / "big.conf"
    cfg.write_text(f"order = -{big}\n")
    assert run(["compute", "--preset", "local-p2", "--config", str(cfg)]) == (
        2, "", f"error: config value order = -{big[:11]}... has too many digits\n")


@pytest.mark.parametrize("sign", ["", "-"])
def test_bundle_degrees_past_the_conversion_limit_are_parse_errors(sign, monkeypatch):
    # the grammar admits ASCII digits only, so the 4300-digit limit is the
    # one way int() fails on a degree
    refuse_builds(monkeypatch)
    assert run(["verify", "gluing", "--n", "1", "--bundle", f"O({sign}{'9' * 5000})"]) == (
        2, "", f"parse error: degree has too many digits (at position {2 + len(sign)})\n")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_by_sigpipe():
    # the console entry writing to a pipe whose reader has gone ends as
    # cat does, by SIGPIPE, and reports no internal error
    read, write = os.pipe()
    os.close(read)
    src = Path(cli.__file__).resolve().parents[1]
    try:
        proc = subprocess.run([sys.executable, "-c", "from mirrorcalc.cli import main; main()",
                               "list-critical"], stdout=write, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, b"")


class FullDisk(io.StringIO):
    """A stdout whose write, or only whose flush, fails as a full disk does."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["list-critical"],
    ["compute", "--preset", "multicover", "--order", "2"],
    ["verify", "gluing", "--n", "1", "--bundle", "O(-1)+O(-1)", "--dmax", "1"],
])
def test_unwritable_output_exits_2(argv, failing):
    # compute's note says values were emitted, so it is not printed either
    out, err = FullDisk(failing), io.StringIO()
    assert run_command(argv, out=out, err=err) == 2
    assert err.getvalue() == "error: cannot write output: No space left on device\n"


def test_stderr_follows_stdout_and_precedes_an_error():
    # on one terminal the note comes after the table, as it is written after
    # the output; a warning is still printed before a usage error
    both = io.StringIO()
    argv = ["compute", "--preset", "multicover", "--order", "2", "--cache", "unused"]
    assert run_command(argv, out=both, err=both) == 0
    code, out, err = run(argv)
    assert both.getvalue() == out + err
    assert err.startswith("warning: --cache is ignored") and "\nnote: values" in err
    assert run(argv + ["--decimal", "-1"]) == (2, "", err.splitlines(True)[0]
                                               + "error: --decimal must be >= 0\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["list-critical"],
                                  ["compute", "--preset", "multicover", "--order", "2"],
                                  ["compute", "--help"]],
                         ids=["list-critical", "compute", "help"])
def test_full_disk_exits_2(argv, buffering):
    # buffered, the bytes that failed to write stay in stdout's buffer, and
    # a second failure at interpreter exit would turn exit 2 into 120
    src = Path(cli.__file__).resolve().parents[1]
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", "from mirrorcalc.cli import main; main()",
                               *argv], stdout=full, stderr=subprocess.PIPE,
                              env={**env, "PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stderr) == (
        2, b"error: cannot write output: No space left on device\n")


@pytest.mark.parametrize("argv, message", [
    (["compute", "--preset", "local-p2", "--order", "-1"], "--order must be >= 1"),
    (["compute", "--preset", "local-p2", "--decimal", "-1"], "--decimal must be >= 0"),
    (["verify", "gluing", "--n", "1", "--bundle", "O(1)", "--dmax", "-2"], "--dmax must be >= 1"),
])
def test_negative_integers_reach_the_bound(argv, message, monkeypatch):
    refuse_builds(monkeypatch)
    assert run(argv) == (2, "", f"error: {message}\n")


def test_integer_flags_read_ascii_digits():
    code, out, _ = run(["verify", "gluing", "--n", "01", "--bundle", "O(-1)+O(-1)",
                        "--dmax", "02", "--format", "text"])
    assert code == 0 and out.startswith("gluing: n=1 d_max=2 all_pass=True")


def test_order_and_dmax_caps_admit_presets_and_readme():
    assert max(order for _, _, order in cli.PRESETS.values()) <= MAX_ORDER
    assert MAX_DMAX >= 4  # the default --dmax
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for flag, limit in (("--order", MAX_ORDER), ("--dmax", MAX_DMAX)):
        values = [int(v) for v in re.findall(flag + r" (\d+)", readme)]
        assert values and max(values) <= limit, flag
    code, out, _ = run(["compute", "--preset", "multicover", "--order", str(MAX_ORDER),
                        "--emit", "kd"])
    assert code == 0 and len(out.splitlines()) == MAX_ORDER + 2


def test_decimal_cap_admits_the_largest_k_d():
    # the quintic at the --order cap has the longest K_d; at the --decimal
    # cap each expansion stays below the 4300-digit int-to-str limit
    code, out, _ = run(["compute", "--preset", "quintic", "--order", str(MAX_ORDER),
                        "--emit", "kd", "--format", "csv", "--decimal", str(MAX_DECIMAL)])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == MAX_ORDER
    assert max(len(expansion.split(".")[0].lstrip("-")) for _, _, expansion in rows) == 324


@pytest.mark.parametrize("argv, dmax, message", [
    (["verify", "gluing", "--n", "1", "--bundle", "O(64)"], 6,
     "O(64) at --dmax 6 gives P_dmax 385 linear factors"),
    (["verify", "reciprocity", "--n", "2", "--bundle", "O(-34)"], 2,
     "O(-34) at --dmax 2 gives P_dmax 67 linear factors"),
    # --with-x adds x to every factor, and the factors count as without it
    (["verify", "reciprocity", "--n", "12", "--bundle", "O(-12)", "--with-x"], 6,
     "O(-12) at --dmax 6 gives P_dmax 71 linear factors"),
    (["verify", "linking", "--n", "2", "--bundle", "O(-67)", "--with-x"], 1,
     "O(-67) at --dmax 1 gives P_dmax 66 linear factors"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_linear_factor_cap(argv, dmax, message, source, tmp_path, monkeypatch):
    refuse_builds(monkeypatch)
    if source == "flag":
        argv = argv + ["--dmax", str(dmax)]
    else:
        cfg = tmp_path / "dmax.conf"
        cfg.write_text(f"dmax = {dmax}\n")
        argv = argv + ["--config", str(cfg)]
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}; verify is limited to <= {MAX_LINEAR_FACTORS}\n"


@pytest.mark.parametrize("degree, dmax, count", [
    ("9" * 4300, 4, "more than 10^20"),   # 4 * (10^4300 - 1) + 1 factors
    ("-" + "9" * 4300, 4, "more than 10^20"),
    ("9" * 20, 1, str(10 ** 20)),           # the largest count printed
    ("9" * 21, 1, "more than 10^20"),
], ids=["4300-digits", "4300-digits-concave", "count-10^20", "count-past-10^20"])
def test_linear_factor_count_is_compared_before_it_is_printed(degree, dmax, count, monkeypatch):
    # a degree of 4300 digits still converts to an int, but its factor
    # count has more digits than CPython converts to a str
    refuse_builds(monkeypatch)
    argv = ["verify", "gluing", "--n", "1", "--bundle", f"O({degree})", "--dmax", str(dmax)]
    assert run(argv) == (2, "", f"error: O({degree}) at --dmax {dmax} gives P_dmax {count} "
                                f"linear factors; verify is limited to <= {MAX_LINEAR_FACTORS}\n")


def test_linear_factor_cap_admits_presets_and_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [(int(n), bundle) for n, bundle
                in re.findall(r'mirrorcalc verify \S+ --n (\d+) --bundle "([^"]+)"', readme)]
    assert len(examples) == 5
    bundles = [parse_bundle(bundle, n)
               for n, bundle in examples + [(n, b) for n, b, _ in cli.PRESETS.values()]]
    for st in bundles:
        assert st.linear_factors(MAX_DMAX) <= MAX_LINEAR_FACTORS, st
    # O(64), the largest degree the cap admits, still runs at --dmax 1
    assert SplittingType(1, (64,), ()).linear_factors(1) == MAX_LINEAR_FACTORS
    # the presets need at most 31 at --dmax 6, with or without --with-x
    presets = [parse_bundle(b, n) for n, b, _ in cli.PRESETS.values()]
    assert max(st.linear_factors(MAX_DMAX) for st in presets) == 31


@pytest.mark.parametrize("bundle, dmax, with_x", [
    ("O(-33)", 1, True),   # 32 factors
    ("O(-34)", 1, False),  # 33
    ("O(-11)", 3, True),   # 32
    ("O(5)", 6, True),     # the quintic at --dmax 6, 31
    # x counts once, so the cap admits as many factors with --with-x as without
    ("O(-11)", 6, True),   # 65
    ("O(-66)", 1, True),   # 65
    ("O(64)", 1, True),    # 65
])
def test_linear_factor_cap_admits_with_x(bundle, dmax, with_x, monkeypatch):
    refuse_builds(monkeypatch)
    argv = ["verify", "reciprocity", "--n", "4", "--bundle", bundle, "--dmax", str(dmax)]
    code, out, err = run(argv + ["--with-x"] * with_x)
    assert code == 3 and err == "internal error: AssertionError: the build started\n"


@pytest.mark.parametrize("n, dmax", [(12, 1), (10, 1), (6, 2), (5, 3), (5, 6), (10 ** 9, 1)])
def test_linking_term_cap(n, dmax, monkeypatch):
    # the (d_max+1)^n linking cap refused each of these; linking is now
    # checked at each binding, and only the dimension bound is left
    if n > MAX_DIMENSION:
        refuse_builds(monkeypatch)
    code, out, err = run(["verify", "linking", "--n", str(n), "--bundle", "O(1)",
                          "--dmax", str(dmax)])
    if n > MAX_DIMENSION:
        assert code == 2 and out == "" and err == f"error: --n is limited to <= {MAX_DIMENSION}\n"
    else:
        report = json.loads(out)
        assert code == 0 and err == "" and report["all_pass"]
        assert len(report["results"]) == dmax * (n + 1) * n


@pytest.mark.parametrize("check", ["gluing", "reciprocity", "degree-bound"])
def test_linking_term_cap_bounds_linking_only(check, monkeypatch):
    # the dimension bound covers every check, not linking only: P^12
    # reaches the build, P^13 exits 2 before it
    refuse_builds(monkeypatch)
    argv = ["verify", check, "--bundle", "O(1)", "--dmax", "1", "--n"]
    code, out, err = run(argv + [str(MAX_DIMENSION)])
    assert code == 3 and err == "internal error: AssertionError: the build started\n"
    code, out, err = run(argv + [str(MAX_DIMENSION + 1)])
    assert code == 2 and out == "" and err == f"error: --n is limited to <= {MAX_DIMENSION}\n"


@pytest.mark.parametrize("argv", [
    ["compute", "--n", "1000000000", "--bundle", "O(1)"],
    ["compute", "--n", str(MAX_DIMENSION + 1), "--bundle", "O(1)"],
    ["verify", "reciprocity", "--n", "1000", "--bundle", "O(-1)", "--dmax", "2"],
    ["verify", "linking", "--n", "1000000000", "--bundle", "O(1)", "--with-x"],
])
def test_dimension_cap(argv, monkeypatch):
    refuse_builds(monkeypatch)
    code, out, err = run(argv)
    assert code == 2 and out == "" and err == f"error: --n is limited to <= {MAX_DIMENSION}\n"


def test_linking_term_cap_admits_presets_and_readme():
    # the dimension bound admits every README example, preset and
    # critical type
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    dims = [int(n) for n in re.findall(r'mirrorcalc verify \S+ --n (\d+)', readme)]
    dims += [n for n, _, _ in cli.PRESETS.values()] + [st.n for st in CRITICAL_BUNDLES]
    assert len(dims) == 19
    assert max(dims) <= MAX_DIMENSION


def test_compute_rejects_unsupported_before_the_build(monkeypatch):
    refuse_builds(monkeypatch)
    for n, bundle in ((2, "O(2)+O(2)"), (2, "O(2)"), (3, "O(1)+O(-1)")):
        code, out, err = run(["compute", "--n", str(n), "--bundle", bundle])
        assert code == 2 and out == ""
        assert err.startswith("error: no K_d extraction") and "list-critical" in err


def fail_inside(exc):
    def raise_it(*args, **kwargs):
        raise exc
    return raise_it


@pytest.mark.parametrize("argv, target, exc", [
    (["compute", "--preset", "local-p2"], "mirrorcalc.cli.run_pipeline",
     PipelineError("t-constant block disagrees first at q^3")),
    (["compute", "--preset", "quintic", "--format", "json"], "mirrorcalc.cli.run_pipeline",
     ZeroDivisionError("Fraction(1, 0)")),
    (["verify", "gluing", "--n", "2", "--bundle", "O(-3)", "--dmax", "2"],
     "mirrorcalc.eulerdata.check_gluing", KeyError((2, 0))),
], ids=["pipeline-identity", "compute-defect", "verify-defect"])
def test_internal_errors_exit_3(argv, target, exc, monkeypatch):
    monkeypatch.setattr(target, fail_inside(exc))
    code, out, err = run(argv)
    assert code == 3 and out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_failed_multicover_round_trip_exits_3(fmt, monkeypatch):
    import mirrorcalc.pipeline as pipeline

    invert = pipeline.invert_multicover

    def perturbed(K):
        out = invert(K)
        d, v, _ = out[1]
        out[1] = (d, v + 1, True)
        return out

    monkeypatch.setattr(pipeline, "invert_multicover", perturbed)
    code, out, err = run(["compute", "--preset", "local-p2", "--order", "3", "--format", fmt])
    assert code == 3 and out == ""
    assert err == ("internal error: PipelineError: "
                   "multiple-cover inversion does not recompose to K\n")


@pytest.mark.parametrize("argv, expected", [
    (["compute", "--preset", "multicover", "--order", "2"], 0),
    (["verify", "degree-bound", "--n", "2", "--bundle", "O(-3)", "--dmax", "2"], 1),
    (["compute", "--n", "2", "--bundle", "O(-3"], 2),
], ids=["0-success", "1-verification-failed", "2-usage"])
def test_exit_codes(argv, expected):
    code, _, err = run(argv)
    assert code == expected
    assert "Traceback" not in err and "internal error" not in err


def test_compute_usage_errors():
    code, _, err = run(["compute", "--bundle", "O(5)"])
    assert code == 2 and "need --preset" in err
    code, _, err = run(["compute", "--n", "2", "--bundle", "O(0)"])
    assert code == 2 and "parse error" in err
    code, _, err = run(["compute", "--n", "2", "--bundle", "O(2)+O(2)"])
    assert code == 2 and "list-critical" in err
    code, _, _ = run(["compute"])
    assert code == 2
    code, _, _ = run(["bogus-command"])
    assert code == 2


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_cache_flag_and_env_change_nothing(preset, fmt, tmp_path):
    # mirrorcalc caches nothing: --cache is accepted with one warning and
    # MIRRORCALC_CACHE is not read; neither creates the directory
    cache = tmp_path / "cache"
    argv = ["compute", "--preset", preset, "--format", fmt]
    code, out, err = run(argv)
    assert code == 0 and out
    warning = "warning: --cache is ignored: mirrorcalc no longer caches results\n"
    for _ in range(2):
        assert run(argv + ["--cache", str(cache)]) == (code, out, warning + err)
    assert run(argv, env={"MIRRORCALC_CACHE": str(cache)}) == (code, out, err)
    assert not cache.exists()


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "mirrorcalc.conf"
    cfg.write_text("order = 3\nformat = csv  # comment\n")
    code, out, _ = run(["compute", "--preset", "multicover", "--config", str(cfg)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,") and len(lines) == 4
    # flags override the config
    code, out, _ = run(["compute", "--preset", "multicover", "--config", str(cfg),
                        "--order", "2", "--format", "json"])
    assert json.loads(out)["order"] == 2


@pytest.mark.parametrize("argv, code, stream, start", [
    (["compute", "--bogus"], 2, "err", "usage: mirrorcalc [-h]"),
    (["verify", "gluing"], 2, "err", "usage: mirrorcalc verify [-h]"),
    ([], 2, "err", "usage: mirrorcalc [-h]"),
    (["--help"], 0, "out", "usage: mirrorcalc [-h]"),
    (["list-critical", "--help"], 0, "out", "usage: mirrorcalc list-critical [-h]"),
])
def test_argparse_writes_to_the_given_streams(argv, code, stream, start, capsys):
    out, err = io.StringIO(), io.StringIO()
    assert run_command(argv, out=out, err=err) == code
    text, other = (out, err) if stream == "out" else (err, out)
    assert text.getvalue().startswith(start) and other.getvalue() == ""
    if code == 2:
        assert re.search(r"\nmirrorcalc( \S+)?: error: .+\n\Z", text.getvalue())
    assert capsys.readouterr() == ("", "")  # nothing on the process's own streams


def test_cache_flag_is_hidden_from_help():
    code, usage, err = run(["compute", "--help"])
    assert code == 0 and err == ""
    assert "--decimal" in usage and "--cache" not in usage


def test_config_cache_key(tmp_path, monkeypatch):
    # the cache key went with the cache: it is an unknown key like any other
    refuse_builds(monkeypatch)
    cfg = tmp_path / "mirrorcalc.conf"
    cache = tmp_path / "cfgcache"
    cfg.write_text(f"cache = {cache}\norder = 2\n")
    code, out, err = run(["compute", "--preset", "multicover", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err == f"error: {cfg}:1: unknown config key 'cache' " \
                  "(known: order, format, emit, dmax, decimal)\n"
    assert not cache.exists()


def test_config_file_syntax_error(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("this is not a key value pair\n")
    code, _, err = run(["compute", "--preset", "multicover", "--config", str(cfg)])
    assert code == 2 and "key=value" in err


@pytest.mark.parametrize("argv", [
    ["compute", "--preset", "multicover", "--order", "2"],
    ["verify", "gluing", "--n", "1", "--bundle", "O(-1)+O(-1)", "--dmax", "1"],
], ids=["compute", "verify"])
def test_config_rejects_unknown_key(tmp_path, argv, monkeypatch):
    refuse_builds(monkeypatch)
    cfg = tmp_path / "bogus.conf"
    cfg.write_text("dmax = 1\nbogus = 1\n")
    code, out, err = run(argv + ["--config", str(cfg)])
    assert code == 2 and out == ""
    assert err == f"error: {cfg}:2: unknown config key 'bogus' " \
                  "(known: order, format, emit, dmax, decimal)\n"


def test_config_rejects_unknown_format(tmp_path, monkeypatch):
    refuse_builds(monkeypatch)
    cfg = tmp_path / "xml.conf"
    cfg.write_text("format = xml\n")
    code, out, err = run(["compute", "--preset", "multicover", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err == "error: config value format = 'xml' is not one of text, json, csv\n"


def test_verify_config_format(tmp_path, monkeypatch):
    argv = ["verify", "degree-bound", "--n", "1", "--bundle", "O(-1)+O(-1)", "--dmax", "1"]
    cfg = tmp_path / "text.conf"
    cfg.write_text("format = text\n")
    code, out, err = run(argv + ["--config", str(cfg)])
    assert (code, out, err) == (0, "degree-bound: n=1 d_max=1 all_pass=True "
                                   "(0 failures, 0 inconclusive)\n", "")
    code, out, _ = run(argv + ["--config", str(cfg), "--format", "json"])
    assert code == 0 and json.loads(out)["check"] == "degree-bound"
    refuse_builds(monkeypatch)
    cfg.write_text("format = csv\n")
    code, out, err = run(argv + ["--config", str(cfg)])
    assert code == 2 and out == ""
    assert err == "error: config value format = 'csv' is not one of text, json\n"


COMPUTE = ["compute", "--preset", "multicover", "--order", "2"]
VERIFY = ["verify", "gluing", "--n", "1", "--bundle", "O(-1)+O(-1)", "--dmax", "1"]
NO_EMIT = "names none of kd, nd, mirror-map, f-series, checks"


@pytest.mark.parametrize("argv, config, message", [
    (COMPUTE + ["--emit="], None, f"emit '' {NO_EMIT}"),
    (COMPUTE + ["--emit=,"], None, f"emit ',' {NO_EMIT}"),
    (COMPUTE + ["--emit", " , ", "--format", "csv"], None, f"emit ' , ' {NO_EMIT}"),
    (COMPUTE, "emit = ,\n", f"emit ',' {NO_EMIT}"),
    (COMPUTE, "emit =\n", f"emit '' {NO_EMIT}"),
    (COMPUTE + ["--format", "csv"], "emit = ,\n", f"emit ',' {NO_EMIT}"),
    (COMPUTE, "format =\n", "config value format = '' is not one of text, json, csv"),
    (COMPUTE + ["--emit", "kd"], "format = \n",
     "config value format = '' is not one of text, json, csv"),
    (VERIFY, "format =\n", "config value format = '' is not one of text, json"),
], ids=["flag", "flag-comma", "flag-blank-csv", "config-comma", "config", "config-comma-csv",
        "format-config", "format-config-emit", "verify-format-config"])
def test_empty_selection_exits_2(tmp_path, monkeypatch, argv, config, message):
    # an emit value that names no section, or an empty format from a
    # config, is a usage error: not the default, not a bare header
    refuse_builds(monkeypatch)
    monkeypatch.setattr(cli, "run_pipeline", lambda *a: pytest.fail("the pipeline ran"))
    if config is not None:
        cfg = tmp_path / "empty.conf"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert run(argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("config, message", [
    ("order = abc\n", "config value order = 'abc' is not an integer"),
    ("order = 0\n", "--order must be >= 1"),
    (f"order = {MAX_ORDER + 1}\n", f"--order is limited to <= {MAX_ORDER}"),
    ("decimal = -5\n", "--decimal must be >= 0"),
    (f"decimal = {MAX_DECIMAL + 1}\n", f"--decimal is limited to <= {MAX_DECIMAL}"),
    ("emit = nope\n", "unknown emit item 'nope'"),
    ("emit = kd,nope\n", "unknown emit item 'nope'"),
    ("emit = ,\n", f"emit ',' {NO_EMIT}"),
    ("dmax = abc\n", "config value dmax = 'abc' is not an integer"),
    ("dmax = 0\n", "--dmax must be >= 1"),
    (f"dmax = {MAX_DMAX + 1}\n", f"--dmax is limited to <= {MAX_DMAX}"),
], ids=["order", "order-low", "order-high", "decimal", "decimal-high", "emit", "emit-second",
        "emit-empty", "dmax", "dmax-low", "dmax-high"])
def test_verify_checks_the_config_keys_of_compute(tmp_path, monkeypatch, config, message):
    # one config file serves both commands, and each checks every value of
    # it when it reads it: a bad value makes either exit 2 with the same
    # message, whether or not the command reads that key, before any build
    refuse_builds(monkeypatch)
    cfg = tmp_path / "compute.conf"
    cfg.write_text(config)
    for argv in (["verify", "gluing", "--n", "2", "--bundle", "O(-3)", "--dmax", "1"],
                 ["compute", "--preset", "local-p2"]):
        assert run(argv + ["--config", str(cfg)]) == (2, "", f"error: {message}\n"), argv[0]


def test_verify_accepts_the_config_keys_of_compute(tmp_path):
    # well-formed values of the keys only compute reads change nothing
    # that verify prints
    argv = ["verify", "gluing", "--n", "2", "--bundle", "O(-3)", "--dmax", "1"]
    cfg = tmp_path / "compute.conf"
    cfg.write_text("order = 7\ndecimal = 0\nemit = kd, nd ,checks\nformat = text\n")
    code, out, err = run(argv + ["--config", str(cfg)])
    assert (code, out, err) == run(argv + ["--format", "text"])
    assert code == 0 and out.startswith("gluing: n=2 d_max=1 all_pass=True")


@pytest.mark.parametrize("argv, name", [
    (["compute", "--preset", "multicover"], "missing.conf"),
    (["verify", "gluing", "--n", "2", "--bundle", "O(-3)"], "missing.conf"),
    (["compute", "--preset", "multicover"], ""),
    (["verify", "gluing", "--n", "2", "--bundle", "O(-3)"], ""),
], ids=["compute", "verify", "compute-empty-path", "verify-empty-path"])
def test_missing_config_exits_2(tmp_path, argv, name):
    # an empty --config is a path like any other, not the absence of one
    code, out, err = run(argv + ["--config", name and str(tmp_path / name)])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read config") and "Traceback" not in err
    if not name:
        assert err == "error: cannot read config : No such file or directory\n"


@pytest.mark.parametrize("config, fault", [
    ("format = xml\norder = abc\n", "config value format = 'xml' is not one of text, json"),
    ("order = abc\nformat = xml\n", "config value order = 'abc' is not an integer"),
    ("dmax = 0\nemit = nope\norder = 0\n", "--dmax must be >= 1"),
    ("emit = nope\ndmax = 0\n", "unknown emit item 'nope'"),
    ("order = abc\norder = 2\n", "config value order = 'abc' is not an integer"),
], ids=["format-order", "order-format", "dmax-emit-order", "emit-dmax", "order-twice"])
@pytest.mark.parametrize("argv", [
    ["compute", "--preset", "local-p2", "--order", "abc"],
    ["compute", "--preset", "local-p2", "--n", "2"],
    ["compute", "--preset", "local-p2", "--format", "json"],
    ["verify", "gluing", "--n", "2", "--bundle", "O(-3)", "--dmax", "9"],
    ["verify", "gluing", "--n", "2", "--bundle", "O(-3)", "--format", "text"],
], ids=["bad-flag", "conflict", "good-flag", "verify-bad-flag", "verify-good-flag"])
def test_a_config_names_its_first_bad_value(tmp_path, monkeypatch, argv, config, fault):
    # the file is checked line by line when it is read, before any flag; a
    # later line or a flag, good or bad, does not excuse a bad value
    refuse_builds(monkeypatch)
    cfg = tmp_path / "two.conf"
    cfg.write_text(config)
    code, out, err = run(argv + ["--config", str(cfg)])
    assert (code, out) == (2, "") and err.startswith(f"error: {fault}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", [["--n", "4"], ["--bundle", "O(5)"], ["--bundle", ""]],
                         ids=["n", "bundle", "empty-bundle"])
def test_preset_conflicts_with_n_and_bundle(monkeypatch, flag):
    # an empty --bundle is given, so it conflicts as any other does
    refuse_builds(monkeypatch)
    assert run(["compute", "--preset", "quintic", "--order", "1"] + flag) == (
        2, "", "error: --preset conflicts with --n/--bundle\n")


@pytest.mark.parametrize("argv", [
    ["compute", "--preset", "local-p2"],
    ["verify", "gluing", "--n", "2", "--bundle", "O(-3)"],
], ids=["compute", "verify"])
def test_config_not_utf8_exits_2(tmp_path, argv, monkeypatch):
    refuse_builds(monkeypatch)
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"order=\xff\n")
    assert run(argv + ["--config", str(cfg)]) == (
        2, "", f"error: cannot read config {cfg}: not UTF-8 (byte 6)\n")


# ---------------------------------------------------------------------
# verify command


def test_verify_gluing_json():
    code, out, _ = run(["verify", "gluing", "--n", "2", "--bundle", "O(-3)",
                        "--dmax", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "gluing" and doc["all_pass"] is True
    assert doc["n"] == 2 and doc["d_max"] == 3
    assert all(set(r) == {"d", "i", "r", "status", "witness"} for r in doc["results"])
    # byte-identical on repetition
    assert run(["verify", "gluing", "--n", "2", "--bundle", "O(-3)",
                "--dmax", "3"])[1] == out


def test_verify_degree_bound_failure_exit_code():
    code, out, _ = run(["verify", "degree-bound", "--n", "2", "--bundle", "O(-3)",
                        "--dmax", "2"])
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_verify_linking():
    code, out, _ = run(["verify", "linking", "--n", "2", "--bundle", "O(-3)",
                        "--dmax", "2"])
    assert code == 0 and json.loads(out)["all_pass"] is True


def test_verify_with_x():
    code, out, _ = run(["verify", "gluing", "--n", "2", "--bundle", "O(-3)",
                        "--dmax", "2", "--with-x"])
    assert code == 0 and json.loads(out)["all_pass"] is True


def test_verify_works_for_unsupported_bundles():
    # no K extraction exists for these, but the data identities still hold
    code, out, _ = run(["verify", "gluing", "--n", "2", "--bundle", "O(2)+O(2)",
                        "--dmax", "2"])
    assert code == 0 and json.loads(out)["all_pass"] is True
    code, out, _ = run(["verify", "linking", "--n", "2", "--bundle", "O(2)",
                        "--dmax", "2"])
    assert code == 0 and json.loads(out)["all_pass"] is True


# ---------------------------------------------------------------------
# list-critical


def test_list_critical():
    code, out, _ = run(["list-critical"])
    assert code == 0
    assert "P^7: O(2)+O(2)+O(2)+O(2)" in out
    assert "P^2: O(-3)" in out
    assert len(out.strip().splitlines()) == 9
    code, out, _ = run(["list-critical", "--format", "csv"])
    assert out.splitlines()[0] == "n,bundle"


# ---------------------------------------------------------------------
# large orders, pinned


@pytest.mark.parametrize("argv, digest", [
    (["compute", "--preset", "quintic", "--order", "100", "--format", "json"],
     "674cbc1f277459604a7b6dbacab4bf84bbfe39e5c1b522d1412f8b97e82e720e"),
    (["compute", "--preset", "p4-concavex", "--order", "60"],
     "0233bfce7e0964c834cd00e2eb3b9c22f2ce399e7a47f266de733207cbc42591"),
], ids=["quintic-100-json", "p4-concavex-60-text"])
def test_large_order_stdout_is_pinned(argv, digest):
    # sha256 of stdout as the Fraction-arithmetic pipeline printed it;
    # the benchmark runs only to order 30
    code, out, _ = run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------
# the exit-code contract, on generated command lines

CONFIG = object()  # stands for the path of the generated config file

# Admitted inputs stay on P^n with n <= 3 and below the order cap, so that
# each runs in well under 0.1 s.
SMALL_PRESETS = [name for name, (n, _, _) in cli.PRESETS.items() if n <= 3]
CRITICAL_SPECS = [("1", "O(-1)+O(-1)"), ("2", "O(-3)"), ("3", "O(2)+O(-2)")]
# integers at 0, -1, the caps and one past them (half of the draws), past
# the conversion limit, and non-ASCII digits
EDGE_INTEGERS = ["0", "-1", "1", "2", "3", *NON_ASCII_DIGITS,
                 *("9" * k for k in (4299, 4300, 4301))]


def edge_integers(*caps):
    return hs.one_of(hs.sampled_from([str(c + e) for c in caps for e in (1, 0)]),
                     hs.sampled_from(EDGE_INTEGERS))


# --n and --order take their caps (12, 100) only in the tests of their own
INTEGER_FLAGS = {"--n": hs.one_of(hs.just(str(MAX_DIMENSION + 1)),
                                  hs.sampled_from(EDGE_INTEGERS)),
                 "--order": hs.one_of(hs.just(str(MAX_ORDER + 1)),
                                      hs.sampled_from(EDGE_INTEGERS)),
                 "--dmax": edge_integers(MAX_DMAX), "--decimal": edge_integers(MAX_DECIMAL)}
# degrees of 1-3, 60-70 and 4299-4301 digits: a pattern of 1-3 digits
# repeated to the length, which shrinks fast
degree_texts = hs.tuples(hs.integers(0, 999).map(str),
                         hs.sampled_from([1, 2, 3, 60, 65, 70, 4299, 4300, 4301])).map(
    lambda drawn: (drawn[0] * drawn[1])[:drawn[1]])
grammar_specs = hs.lists(hs.tuples(hs.sampled_from(["", "-"]), degree_texts),
                         min_size=1, max_size=3).map(
    lambda terms: "+".join(f"O({sign}{digits})" for sign, digits in terms))
config_lines = hs.tuples(hs.sampled_from([*cli.CONFIG_KEYS, "cache", "", "# x"]),
                         hs.sampled_from(["=", " = ", "", "=="]),
                         hs.one_of(edge_integers(MAX_ORDER, MAX_DMAX, MAX_DECIMAL),
                                   hs.sampled_from(["json", "csv", "kd,nd"]),
                                   hs.text(max_size=6))).map("".join)
configs = hs.one_of(hs.binary(max_size=40),
                    hs.lists(config_lines, max_size=4).map(
                        lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")))
FLAG_VALUES = {
    **INTEGER_FLAGS,
    "--bundle": hs.one_of(specs, grammar_specs),
    "--preset": hs.sampled_from([*SMALL_PRESETS, "quartic"]),
    "--emit": hs.lists(hs.sampled_from([*cli.EMIT_CHOICES, "kd ", "", "nope"]),
                       max_size=3).map(",".join),
    "--cache": hs.just("unused"),
    "--config": hs.sampled_from([CONFIG, "/nonexistent/mirrorcalc.cfg"]),
    "--format": hs.none(),  # drawn from the command's formats and two others
    "--with-x": hs.none(),
    "-h": hs.none(),
    "--bogus": hs.none(),
}
COMMAND_FLAGS = {
    "compute": ["--preset", "--n", "--bundle", "--order", "--format", "--emit", "--decimal",
                "--cache", "--config"],
    "verify": ["--n", "--bundle", "--dmax", "--with-x", "--format", "--config"],
    "list-critical": ["--format"],
    "integrate": [],
}


# (command, probe): the flag that takes an edge value
PROBES = [("compute", "--order"), ("compute", "--decimal"), ("compute", "--n"),
          ("compute", "--bundle"), ("verify", "--dmax"), ("verify", "--n"),
          ("verify", "--bundle"), ("list-critical", None), ("integrate", None)]


@hs.composite
def command_lines(draw):
    """(argv, config bytes): a command (for verify, a check) with an
    admitted bundle (a small preset or a critical type for compute) in
    which one probe flag takes an edge value, then up to two changes:
    no bundle, or one more flag of this command or of any."""
    command, probe = draw(hs.sampled_from(PROBES))
    argv, named = [command], {}
    if command == "verify":
        argv.append(draw(hs.sampled_from(["gluing", "reciprocity", "linking", "degree-bound"])))
        named = dict(zip(("--n", "--bundle"), draw(hs.sampled_from(CRITICAL_SPECS))))
    elif command == "compute":
        named = draw(hs.sampled_from([dict(zip(("--n", "--bundle"), pair))
                                      for pair in CRITICAL_SPECS]
                                     + [{"--preset": preset} for preset in SMALL_PRESETS]))
    if probe == "--bundle":
        named.pop("--preset", None)
        named[probe] = draw(hs.one_of(grammar_specs, specs))
    elif probe:
        named[probe] = draw(FLAG_VALUES[probe])
    noise = draw(hs.lists(hs.sampled_from(["no bundle", *COMMAND_FLAGS[command],
                                           *sorted(FLAG_VALUES)]), max_size=2, unique=True))
    if "no bundle" in noise:
        named = {}  # whatever the other flags give
    flags = [flag for flag in noise if flag in FLAG_VALUES and flag not in named]
    for flag, value in named.items():
        argv += [flag, value]
    for flag in flags:
        formats = VERIFY_FORMATS if command == "verify" else FORMAT_CHOICES
        value = draw(hs.sampled_from([*formats, "csv", "xml"]) if flag == "--format"
                     else FLAG_VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    return argv, draw(configs)


def refuse_over_caps(mp):
    """Patch the builds so that an input past a cap which reaches one
    raises, and that exits 3."""
    built = []

    def pipeline(st, order):
        assert order <= MAX_ORDER and st.n <= MAX_DIMENSION, "an over-cap input ran the pipeline"
        return run_pipeline(st, order)

    def data(st, with_x=False):
        built.append(st)
        return build_hypergeom_data(st, with_x)

    def table(ed, d_max):
        st = built[-1]
        assert (d_max <= MAX_DMAX and st.n <= MAX_DIMENSION
                and st.linear_factors(d_max) <= MAX_LINEAR_FACTORS), \
            "an over-cap input built a table"
        return to_table(ed, d_max)

    run_pipeline, to_table = cli.run_pipeline, eulerdata.to_table
    build_hypergeom_data = eulerdata.build_hypergeom_data
    mp.setattr(cli, "run_pipeline", pipeline)
    mp.setattr(eulerdata, "build_hypergeom_data", data)
    mp.setattr(eulerdata, "to_table", table)


@settings(max_examples=400, deadline=None)
@given(command_lines())
# one input past each cap, always run: a 4301-digit count of linear
# factors, 69 factors, P^13, --dmax 7 and --order 101
@example((["verify", "gluing", "--n", "1", "--bundle", f"O({'9' * 4300})"], b""))
@example((["verify", "reciprocity", "--n", "2", "--bundle", "O(17)"], b""))
@example((["verify", "linking", "--n", "13", "--bundle", "O(-3)"], b""))
@example((["verify", "degree-bound", "--n", "2", "--bundle", "O(-3)", "--dmax", "7"], b""))
@example((["compute", "--preset", "local-p2", "--order", "101"], b""))
def test_exit_code_contract(case):
    argv, config = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(tmp, "mirrorcalc.cfg")
        with open(path, "wb") as fh:
            fh.write(config)
        argv = [path if arg is CONFIG else arg for arg in argv]
        refuse_over_caps(mp)
        out, err = io.StringIO(), io.StringIO()
        code = run_command(argv, out=out, err=err)
    printed = err.getvalue()
    assert code in (0, 1, 2), printed
    assert "internal error" not in printed and "Traceback" not in printed
    if code == 2:
        assert out.getvalue() == ""
    if code == 1:
        assert argv[0] == "verify"
