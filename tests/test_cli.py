"""CLI surface: golden output, formats, round trips, JSONL samples, exit codes."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hsgeom import cli, constants, exactnum, sampling, verify


# what int.__str__ raises past the default limit of 4300 digits
_DIGIT_LIMIT_ERROR = (
    "Exceeds the limit (4300 digits) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit"
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_volume_text_golden(capsys):
    code, out = run_cli(capsys, "volume", "--n", "2", "--field", "complex", "--format", "text")
    assert code == 0
    line = [ln for ln in out.splitlines() if ln.startswith("volume")][0]
    assert "1/3*sqrt(2)*pi^(2/2)" in line
    assert "1.48096097938" in line


def test_group_golden(capsys):
    code, out = run_cli(capsys, "group", "--family", "U", "--n", "2", "--convention", "B")
    assert code == 0
    assert "4*pi^(6/2)" in out
    code, out = run_cli(capsys, "group", "--family", "SU", "--n", "3", "--convention", "C")
    assert "1*sqrt(3)*pi^(10/2)" in out


_SWEEP = [
    ["volume", "--n", "4", "--field", "real"],
    ["edge", "--n", "5", "--rank-deficiency", "3"],
    ["edge", "--n", "4", "--field", "real", "--rank-deficiency", "2"],
    ["geometry", "--n", "6"],
    ["geometry", "--n", "3", "--field", "real"],
    ["group", "--family", "O", "--n", "6", "--convention", "A"],
    ["group", "--family", "SO", "--n", "5", "--convention", "B"],
    ["group", "--family", "CP", "--n", "4", "--convention", "C"],
    ["group", "--family", "RP", "--n", "5", "--convention", "A"],
    ["group", "--family", "FlC", "--n", "6", "--convention", "B"],
    ["group", "--family", "FlR", "--n", "6", "--convention", "C"],
    ["constants", "--n", "6", "--alpha", "3/2", "--beta", "1"],
    ["reference", "--body", "simplex", "--dim", "8"],
    ["reference", "--body", "diamond", "--dim", "5"],
    ["reference", "--body", "sphere", "--dim", "7"],
]


@pytest.mark.parametrize("argv", _SWEEP, ids=[" ".join(a) for a in _SWEEP])
def test_exact_strings_round_trip(argv, capsys):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records
    for rec in records:
        assert set(rec) == set(cli.COLUMNS)
        if rec["exact"] is not None:
            value = exactnum.parse(rec["exact"])
            assert str(value) == rec["exact"]
            assert value.to_float() == rec["float"]
            if value.sign > 0:
                assert value.log10() == rec["log10"]


def test_csv_format(capsys):
    code, out = run_cli(capsys, "geometry", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(cli.COLUMNS)
    assert len(lines) == 8  # header + 7 geometry records
    row = dict(zip(cli.COLUMNS, lines[4].split(",")))
    assert row["quantity"] == "gamma"
    assert row["exact"] == "8*sqrt(6)"


def test_huge_values_stay_readable_via_log10(capsys):
    # C_20^HS overflows a double; the record keeps exact + log10 readable.
    code, out = run_cli(capsys, "constants", "--n", "20", "--format", "json")
    assert code == 0
    records = {rec["quantity"]: rec for rec in json.loads(out)}
    rec = records["c_norm"]
    assert rec["float"] is None
    value = exactnum.parse(rec["exact"])
    assert value.log10() == rec["log10"] > 300
    # the float-only path (non-exact alpha) past the double range
    code, out = run_cli(capsys, "constants", "--n", "16", "--alpha", "1/3", "--format", "json")
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["exact"] is None and rec["float"] is None
    assert rec["log10"] == pytest.approx(319.5235506190195, rel=1e-12)


def test_float_only_constants_path(capsys):
    code, out = run_cli(
        capsys, "constants", "--n", "3", "--alpha", "1.7", "--beta", "0.8", "--format", "json"
    )
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["exact"] is None
    assert rec["float"] > 0


def test_same_argv_is_byte_identical(capsys):
    _, first = run_cli(capsys, "geometry", "--n", "5", "--format", "json")
    _, second = run_cli(capsys, "geometry", "--n", "5", "--format", "json")
    assert first == second
    _, first = run_cli(capsys, "sample", "--n", "3", "--samples", "5", "--seed", "9")
    _, second = run_cli(capsys, "sample", "--n", "3", "--samples", "5", "--seed", "9")
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "records.csv"
    code, out = run_cli(capsys, "volume", "--n", "2", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith(",".join(cli.COLUMNS))


def test_rejected_sample_keeps_out_file(tmp_path, capsys):
    target = tmp_path / "samples.jsonl"
    target.write_text("earlier samples\n")
    code, out = run_cli(capsys, "sample", "--n", "1", "--out", str(target))
    assert code == 2
    assert target.read_text() == "earlier samples\n"


def test_zero_samples_write_nothing(tmp_path, capsys):
    code, out = run_cli(capsys, "sample", "--n", "2", "--samples", "0")
    assert code == 0 and out == ""
    target = tmp_path / "samples.jsonl"
    target.write_text("earlier samples\n")
    code, out = run_cli(capsys, "sample", "--n", "2", "--samples", "0", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == ""


def test_sample_jsonl_schema(capsys):
    code, out = run_cli(capsys, "sample", "--n", "3", "--samples", "4", "--seed", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    for line in lines:
        obj = json.loads(line)
        assert obj["n"] == 3 and obj["field"] == "complex"
        spectrum = np.array(obj["spectrum"])
        assert np.all(np.diff(spectrum) <= 0)
        assert abs(spectrum.sum() - 1) <= 1e-12
        rho = (
            np.array(obj["matrix_re"]).reshape(3, 3)
            + 1j * np.array(obj["matrix_im"]).reshape(3, 3)
        )
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho).real - 1) <= 1e-12
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rho)[::-1], spectrum, atol=1e-12
        )


def test_sample_jsonl_real_and_spectra_only(capsys):
    _, out = run_cli(capsys, "sample", "--n", "2", "--field", "real", "--samples", "2", "--seed", "1")
    for line in out.splitlines():
        obj = json.loads(line)
        assert "matrix_re" in obj and "matrix_im" not in obj
    _, out = run_cli(
        capsys, "sample", "--n", "2", "--samples", "2", "--seed", "1", "--spectra-only"
    )
    for line in out.splitlines():
        obj = json.loads(line)
        assert "matrix_re" not in obj and "matrix_im" not in obj
        assert len(obj["spectrum"]) == 2


# sha256 of ``sample --n N --field F --samples 3000 --seed 9 [--spectra-only]``
# as written when the whole batch was drawn at once: one chunk keeps its bytes
_SAMPLE_SHA256 = {
    (3, "complex", False): "0a42c8174fe8ddb981d28a163e462c551912e8c4e1c080a4f04a30bfcf2ff2ab",
    (3, "complex", True): "b70554b6fab60aac09691ed059c68aa49d16798cdffc66384741036fdf48476e",
    (3, "real", False): "07c0b071197ab9973a5686ecec613550b689cf5f99bc6352622b79ab0bbe314e",
    (3, "real", True): "8621900a6969bfa66c7edb8335a0ae3e994ba8def64f5f14e5b2a66ca1d81a4d",
    (8, "complex", False): "e86fa605408bd98cf3ac20cb07a74534592095e9ae44595adaeb6e9d8caadfa0",
    (8, "complex", True): "bae3a62af71099445b0b0d41caa3e60a699a90648b8c322157b149f337073a19",
    (8, "real", False): "1855e592fad45f818a10b1c51e1fb90e23622f46ccca73f8a9b4a74c56cf4ee7",
    (8, "real", True): "3f6164387db62d8633a0a44d53823f4e523285b57c1a315e159aa19781df7a4f",
}


@pytest.mark.parametrize("n, field, spectra_only", list(_SAMPLE_SHA256))
def test_one_chunk_sample_bytes_golden(capsys, n, field, spectra_only):
    argv = ["sample", "--n", str(n), "--field", field, "--samples", "3000", "--seed", "9"]
    code, out = run_cli(capsys, *argv, *["--spectra-only"] * spectra_only)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SAMPLE_SHA256[n, field, spectra_only]


_VERIFY_SHA256 = {
    ("purity",): "582189744604c0ea2ebbf45bf2c16787deca62c185e86df6f5b2f3346a04e7a7",
    ("spectral",): "27e0284ac7c738407f42f843d1f6f4d918d8ee00b0d3bc64dbc21b6539fa4d94",
    ("spectral", "--n", "3", "--field", "complex"): "cbfc39db73291536277e228a4d2e4eec8834ff97ad75f97b73da59cba1488363",
    # every lattice norm row, both Dirichlet paths (n >= 5, alpha < 1) and the hit-or-miss rows
    ("all",): "fe73324bcb051767fbef5227d490276c30bb3a1a2ce166b4f22c99c28bb414d2",
    ("norm", "--n", "5"): "420b05e27a8a82f9185283059ddd8bfc077af607c5cac9d1df62d812d1aeb341",
    ("norm", "--alpha", "1/2"): "fb0bd0571bb847a54de049a1a5dbbbbd139ce293bd903f7f472be6847ebccab3",
}


@pytest.mark.parametrize("suite", list(_VERIFY_SHA256))
def test_verify_report_bytes_golden(capsys, suite):
    # a change in the rounding of any draw or weight moves an estimate, a
    # stderr or a bin count, and so these bytes
    code, out = run_cli(capsys, "verify", "--suite", *suite, "--samples", "20000", "--seed", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_SHA256[suite]


# sha256 of an exact subcommand's text, json and csv output, concatenated:
# geometry at n = 100, 200 and 500, and the largest n (or dim) each other
# subcommand prints whole under the default 4300-digit limit
_EXACT_SHA256 = {
    ("geometry", "--n", "100"): "a1435bdf04f2a99ea4d3539d44cd6bbc81096d42a927d3d6454743027dbac758",
    ("geometry", "--n", "100", "--field", "real"): "87a7ff61e79eecc8e0b9bcf62c1c940d4e7613ecc0c5a7e3ae69be6dc9163452",
    ("geometry", "--n", "200"): "5752b81bc535806e5d584d873a6215824a95a3aa82906a15e4f234a826e4e392",
    ("geometry", "--n", "200", "--field", "real"): "a028d44fe8048a29acd77ca0a3ce49ea7cc9bdcdd4c69227693ed5322af5f840",
    ("geometry", "--n", "500"): "5ccfaeb51cf50c7e57ee72f8532fa979e064a712ed983bdf470c0e541331de46",
    ("geometry", "--n", "500", "--field", "real"): "23f8e7bb68a9b4bdaee8457e15ef0d5c8686dd6c60527bb7a0f0f4586b6578a4",
    ("volume", "--n", "44"): "5204f52cfaebaa4bc0c22b07c52d02264167fb016a3ca741693fafbb84b3ab39",
    ("volume", "--n", "61", "--field", "real"): "d12592a57af913d30a306af68acad4470ba0faf283e0a4f4844ea4717efa314b",
    ("edge", "--n", "44"): "744461069908c91d7416d0a97d8a59432be5b73b41915d8ec55d4768367a2df3",
    ("edge", "--n", "61", "--field", "real"): "0d8dddefa07b356b001a6c4e6f4baa1ca19ec5ae3012e8026686d577dc15a172",
    ("constants", "--n", "48"): "b0dbe94f1d26682641304bb4bd530fead1cf2c526015b61071dae064bf87dedd",
    ("group", "--family", "U", "--n", "90"): "aa63e812b227a5d5c4ac658874cd0ea1b368e2045985ae0dfbf372bc5cbdaca1",
    ("group", "--family", "O", "--n", "122"): "d4da2497da7b31396bee1a320183ca517044750c6a8df055509b53d818dffbad",
    ("reference", "--body", "ball", "--dim", "3116"): "b2991b534ae379bcc986b30a97c3366f4793fbaa0037bd0e1977327b12e7c0ae",
    ("reference", "--body", "simplex", "--dim", "1487"): "b82109d044ece2da2470797e27da148740d31460cce79c89a47b5820908facb0",
}


@pytest.mark.parametrize("argv", list(_EXACT_SHA256))
def test_exact_output_bytes_golden(capsys, argv):
    digest = hashlib.sha256()
    for fmt in ("text", "json", "csv"):
        code, out = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == _EXACT_SHA256[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "--n", "45"],
        ["volume", "--n", "62", "--field", "real"],
        ["edge", "--n", "45"],
        ["constants", "--n", "49"],
        # the Laguerre integral (4186 digits) prints before C_60 is refused
        ["constants", "--n", "60"],
        ["group", "--family", "U", "--n", "91"],
        ["reference", "--body", "simplex", "--dim", "1488"],
        # like 1488, built and refused by int.__str__, whose words differ on Python 3.10
        ["reference", "--body", "simplex", "--dim", "1520"],
    ],
)
def test_one_past_the_largest_printable_size_exits_two(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {_DIGIT_LIMIT_ERROR}\n"


def test_sample_chunk_i_draws_stream_i(capsys, monkeypatch):
    monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 20)  # 5 rows of 2 x 2 matrices
    code, out = run_cli(capsys, "sample", "--n", "2", "--samples", "12", "--seed", "4")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    batch = np.concatenate(
        [sampling.sample_hs_batch(2, "complex", sampling.make_rng(4, i), size)
         for i, size in enumerate((5, 5, 2))]
    )
    spectra = sampling.eigvals_hermitian(batch)
    assert len(rows) == 12
    for row, rho, spectrum in zip(rows, batch, spectra):
        assert row["spectrum"] == spectrum.tolist()
        assert row["matrix_re"] == rho.real.reshape(-1).tolist()
        assert row["matrix_im"] == rho.imag.reshape(-1).tolist()


def test_sample_memory_is_bounded_by_a_chunk(tmp_path):
    # drawn whole, 20 000 complex 8 x 8 matrices (20 MB) and their
    # temporaries peaked at 62 MB; a chunk holds 2^18 entries, 4 MB, and
    # with its temporaries about 18 MB
    sampling.make_rng(0)  # before tracing: the first call imports numpy.random
    argv = ["sample", "--n", "8", "--samples", "20000", "--spectra-only", "--out", str(tmp_path / "s.jsonl")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * sampling.BLOCK_ENTRIES * 16


def test_verify_purity_json_and_exit_zero(capsys):
    code, out = run_cli(
        capsys,
        "verify",
        "--suite",
        "purity",
        "--n",
        "2",
        "--field",
        "complex",
        "--samples",
        "20000",
        "--seed",
        "7",
    )
    assert code == 0
    checks = json.loads(out)
    assert len(checks) == 1
    assert checks[0]["expected"] == 0.8
    assert checks[0]["pass"] is True


def test_verify_all_suite_composition(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "all", "--samples", "20000", "--seed", "0",
        "--workers", "4",
    )
    assert code == 0
    checks = json.loads(out)
    # 16 norm combos + 3 purity + 2 spectral + 2 hit-or-miss
    assert len(checks) == 23
    assert all(c["pass"] for c in checks)
    # the report is run_suite's list of checks as indented JSON
    report = verify.run_suite("all", n_samples=20000, seed=0, workers=4)
    assert out == json.dumps(report, indent=2) + "\n"


def test_verify_exit_one_on_failed_check(capsys, monkeypatch):
    # Corrupt the oracle so the (passing) estimator no longer matches it.
    monkeypatch.setattr(verify, "purity_oracle", lambda n, field: 0.9)
    code, out = run_cli(
        capsys,
        "verify", "--suite", "purity", "--n", "2", "--field", "complex",
        "--samples", "20000", "--seed", "7",
    )
    assert code == 1
    assert json.loads(out)[0]["pass"] is False


def test_verify_unknown_suite_exits_two(capsys, tmp_path):
    target = tmp_path / "report.json"
    target.write_text("kept")
    code = cli.main(["verify", "--suite", "bogus", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: unknown suite 'bogus'")
    assert len(captured.err.splitlines()) == 1
    assert target.read_text() == "kept"


def _fresh_python(script: str) -> str:
    """Run ``script`` in a new interpreter that imports this checkout; return its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_exact_subcommands_import_no_numpy():
    # no third-party package; mpmath is only the tests' high-precision oracle.
    # dataclasses would pull in inspect and ast, and json is for --format json
    out = _fresh_python(
        "import sys, hsgeom.cli\n"
        "heavy = ('numpy', 'scipy', 'mpmath', 'dataclasses', 'inspect', 'json')\n"
        "assert not [m for m in heavy if m in sys.modules]\n"
        "for argv in (['volume', '--n', '3'], ['edge', '--n', '4'], ['geometry', '--n', '3'],\n"
        "             ['geometry', '--n', '30', '--field', 'real'],\n"
        "             ['reference', '--body', 'ball', '--dim', '3'], ['group', '--family', 'SU', '--n', '3'],\n"
        "             ['constants', '--n', '3', '--alpha', '1/3', '--beta', '1.5'],\n"
        "             ['constants', '--n', '3', '--format', 'csv']):\n"
        "    assert hsgeom.cli.main(argv) == 0, argv\n"
        "    assert not [m for m in heavy if m in sys.modules], argv\n"
        "assert hsgeom.cli.main(['geometry', '--n', '8', '--format', 'json']) == 0\n"
        "assert not [m for m in heavy[:5] if m in sys.modules]\n"
        "print('ok')\n"
    )
    assert out.splitlines()[-1] == "ok"


def test_closed_pipe_exits_without_traceback():
    # 2000 samples are about 800 kB, more than a pipe buffer holds, so the
    # writer meets the closed pipe whatever the timing
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hsgeom.cli", "sample", "--n", "3", "--samples", "2000", "--seed", "7"],
        env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(300)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert head.startswith(b'{"n": 3, "field": "complex", "spectrum": [')
    assert err == b""
    assert proc.returncode == 1


_ONE_CALL_PER_SUBCOMMAND = [
    ["volume", "--n", "3"],
    ["edge", "--n", "3"],
    ["geometry", "--n", "3"],
    ["reference", "--body", "ball", "--dim", "3"],
    ["group", "--family", "SU", "--n", "3"],
    ["constants", "--n", "3"],
    ["sample", "--n", "2"],
    ["verify", "--suite", "purity", "--n", "2", "--field", "complex", "--samples", "1000"],
]


@pytest.mark.parametrize("argv", _ONE_CALL_PER_SUBCOMMAND, ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_refused_with_one_error_line(capsys, tmp_path, argv, where):
    # a path in a missing directory, or a directory, fails only the open:
    # the call exits 2 with the error line, not with a traceback and exit 1
    out = tmp_path / "missing" / "x.txt" if where == "missing directory" else tmp_path
    code = cli.main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {str(out)!r}: ")
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_lazy_package_names_resolve():
    out = _fresh_python(
        "import sys, hsgeom\n"
        "assert 'numpy' not in sys.modules\n"
        "verify = hsgeom.verify\n"
        "import hsgeom.sampling as sampling\n"
        "assert verify is sys.modules['hsgeom.verify'] and hsgeom.sampling is sampling\n"
        "assert hsgeom.run_suite is verify.run_suite\n"
        "assert hsgeom.sample_hs_batch is sampling.sample_hs_batch\n"
        "ns = {}\n"
        "exec('from hsgeom import *', ns)\n"
        "assert ns['mc_purity'] is verify.mc_purity and ns['vol_mixed'] is hsgeom.vol_mixed\n"
        "assert {'sampling', 'verify', 'exactnum'} <= set(ns) and set(hsgeom.__all__) <= set(dir(hsgeom))\n"
        "assert set(hsgeom._LAZY) == set(sampling.__all__) | set(verify.__all__)\n"
        "for name, module in hsgeom._LAZY.items():\n"
        "    value = getattr(sys.modules['hsgeom.' + module], name)\n"
        "    assert getattr(hsgeom, name) is value and ns[name] is value, name\n"
        "exact = [hsgeom.exactnum, hsgeom.constants, hsgeom.groups, hsgeom.mixedstates]\n"
        "assert {name for module in exact for name in module.__all__} <= set(hsgeom.__all__)\n"
        "assert len(hsgeom.__all__) == len(set(hsgeom.__all__))\n"
        "try:\n"
        "    hsgeom.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    assert out.splitlines()[-1] == "ok"


def test_verify_runs_with_mpmath_blocked():
    out = _fresh_python(
        "import sys\n"
        "sys.modules['mpmath'] = None  # any import of mpmath now raises ImportError\n"
        "from hsgeom.cli import main\n"
        "assert main(['verify', '--suite', 'spectral', '--samples', '20000']) == 0\n"
        "print('ok')\n"
    )
    assert out.splitlines()[-1] == "ok"


def test_verify_byte_identical_across_workers(tmp_path, capsys):
    for suite in ("hitmiss", "spectral"):
        outputs = []
        for workers in ("1", "2", "8"):
            target = tmp_path / f"{suite}_{workers}.json"
            code, _ = run_cli(
                capsys,
                "verify", "--suite", suite, "--n", "2", "--samples", "16000",
                "--seed", "3", "--chunks", "8", "--workers", workers,
                "--out", str(target),
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "hitmiss", "--n", "0"],
        ["verify", "--suite", "norm", "--n", "0"],
        ["verify", "--suite", "purity", "--samples", "0"],
        ["verify", "--suite", "purity", "--workers", "0"],
        ["verify", "--suite", "purity", "--seed", str(2**64)],
        ["sample", "--n", "2", "--seed", str(2**64)],
        ["sample", "--n", "0"],
        ["sample", "--n", "2", "--samples", "-1"],
        ["constants", "--n", "3", "--alpha", "1e400"],
    ],
)
def test_verify_zero_arguments_exit_two(capsys, argv):
    # 0 is an explicit value, not "use the default plan"; a seed of 2**64
    # would alias seed 0 in the 64-bit Philox key; Gamma(1e400) is far past
    # the largest exact Gamma argument; sample refuses n = 0 and a negative
    # count from its first chunk
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


# exact error lines of refusals below that come before any product is built
_REFUSED_LINES = {
    ("reference", "--body", "simplex", "--dim", "1048576"):
        "Gamma argument too large for an exact value: twice it exceeds 2097152",
    ("reference", "--body", "diamond", "--dim", "3000000"):
        "Gamma argument too large for an exact value: twice it exceeds 2097152",
    **{
        argv: _DIGIT_LIMIT_ERROR
        for argv in (
            ("volume", "--n", "1024"),
            ("constants", "--n", "61"),
            ("reference", "--body", "ball", "--dim", "20000"),
            ("reference", "--body", "simplex", "--dim", "30000"),
            ("constants", "--n", "173", "--alpha", "1/2"),
            ("edge", "--n", "169", "--rank-deficiency", "15"),
            ("reference", "--body", "diamond", "--dim", "29583"),
            ("group", "--family", "U", "--n", "100000"),
        )
    },
}


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["verify", "--suite", "hitmiss", "--n", "3", "--samples", "10000000000000", "--chunks", "1"],
         verify, "run_suite"),
        (["sample", "--n", "3", "--samples", "10000000000000", "--spectra-only"],
         sampling, "sample_hs_batch"),
    ],
)
def test_allocation_failure_exits_two(capsys, monkeypatch, argv, module, name):
    # a stand-in refuses the allocation, so the test asks the machine for no
    # memory; verify and sample stream such a count in blocks, so each
    # stand-in stands for any failed allocation, such as one block at a huge n
    def refuse(*args, **kwargs):
        raise MemoryError(
            "Unable to allocate 582. TiB for an array with shape (10000000000000, 8) and data type float64"
        )

    monkeypatch.setattr(module, name, refuse)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: Unable to allocate") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, name, err",
    [
        (["sample", "--n", "100000"], "_cmd_sample", "error: out of memory: sample --n 100000\n"),
        (["volume", "--n", "7"], "_cmd_volume", "error: out of memory: volume --n 7\n"),
        (["reference", "--body", "ball", "--dim", "9"], "_cmd_reference", "error: out of memory: reference --dim 9\n"),
        (["verify", "--suite", "norm"], "_cmd_verify", "error: out of memory: verify\n"),
    ],
)
def test_a_memory_error_without_a_message_names_the_call(capsys, monkeypatch, argv, name, err):
    # MemoryError() is what CPython raises when it cannot allocate an object
    def refuse(args):
        raise MemoryError()

    monkeypatch.setattr(cli, name, refuse)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == err


@pytest.mark.parametrize("dim", ["4000000", "4000001"])
def test_ball_past_the_gamma_bound_exits_two(capsys, dim):
    # Gamma(dim/2 + 1) is past the largest exact Gamma argument for an even
    # dimension (an integer argument) as well as for an odd one
    code = cli.main(["reference", "--body", "ball", "--dim", dim])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Gamma argument too large" in captured.err


# a positive alpha that rounds to 0.0, a zero denominator, and a positive
# alpha past the largest double
_UNREPRESENTABLE = ("1e-400", "1/0", f"{10**400 + 1}/3")


@pytest.mark.parametrize("text", _UNREPRESENTABLE)
@pytest.mark.parametrize("command", [["constants", "--n", "3"], ["verify", "--suite", "norm"]])
@pytest.mark.parametrize("option", ["--alpha", "--beta"])
def test_unrepresentable_exponents_are_named_in_one_error_line(capsys, command, option, text):
    code = cli.main([*command, option, text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: {option} must be a positive number that a double can hold, got {text!r}\n"
    )


def _small_queries():
    """Every exact query at n <= 8, the sizes a one-shot CLI call asks for, in each format in turn."""
    for n in range(1, 9):
        for field in ("complex", "real") if n > 1 else ():
            yield ["volume", "--n", str(n), "--field", field]
            yield ["geometry", "--n", str(n), "--field", field]
            yield from (["edge", "--n", str(n), "--field", field, "--rank-deficiency", str(k)] for k in range(n))
        for family in ("U", "SU", "O", "SO", "CP", "RP", "FlC", "FlR"):
            yield from (["group", "--family", family, "--n", str(n), "--convention", c] for c in "ABC")
        for alpha in ("1/2", "1", "3/2", "2", "5/2", "3"):
            yield from (["constants", "--n", str(n), "--alpha", alpha, "--beta", beta] for beta in ("1", "2"))
    for body in ("ball", "cube", "simplex", "diamond", "sphere"):
        yield from (["reference", "--body", body, "--dim", str(dim)] for dim in range(1, 64))


def test_small_answers_are_built_without_finding_a_prime(capsys, monkeypatch):
    # their factorial maps are short enough for q to be built from the
    # factorials themselves
    def unreachable(fact):
        raise AssertionError("a prime was found")

    monkeypatch.setattr(exactnum, "_prime_exponents", unreachable)
    for i, argv in enumerate(_small_queries()):
        assert cli.main([*argv, "--format", ("text", "json", "csv")[i % 3]]) == 0, argv
    assert i + 1 == 701  # queries
    capsys.readouterr()


def test_small_answers_take_their_logs_from_the_blocks(capsys, monkeypatch):
    # their maps are too short for the Gamma runs to pay, so no call loads
    # the series module or builds its constants
    def unreachable(self, cofactor, runs):
        raise AssertionError("a log was taken from the runs")

    monkeypatch.setattr(exactnum.ExactValue, "_log_from_runs", unreachable)
    for argv in _small_queries():
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["reference", "--body", "simplex", "--dim", "1048576"], exactnum, "_power_product"),
        (["reference", "--body", "diamond", "--dim", "3000000"], exactnum, "_power_product"),
        (["verify", "--suite", "norm", "--n", "3", "--alpha", "1/100", "--beta", "1/100"],
         verify, "_map_chunks"),
        (["group", "--family", "U", "--n", "100000"], exactnum, "_power_product"),
        (["sample", "--n", "3", "--samples", "-5"], sampling, "_ginibre"),
        (["verify", "--suite", "hitmiss", "--n", "6", "--samples", "100000"], verify, "_map_chunks"),
        (["verify", "--suite", "hitmiss", "--n", "4", "--samples", "200000"], verify, "_map_chunks"),
        (["verify", "--suite", "hitmiss", "--n", "4"], verify, "_map_chunks"),
        (["verify", "--suite", "all", "--samples", "200"], verify, "_map_chunks"),
        (["verify", "--suite", "norm", "--n", "2", "--alpha", "1e-310", "--beta", "1",
          "--samples", "1000"], verify, "_map_chunks"),
        (["verify", "--suite", "norm", "--n", "16", "--alpha", "1", "--beta", "2",
          "--samples", "1000"], verify, "_map_chunks"),
        (["constants", "--n", "2", "--alpha", "1e308", "--beta", "1/3"], verify, "_map_chunks"),
        (["verify", "--suite", "norm", "--n", "2", "--alpha", "1e308", "--beta", "1",
          "--samples", "1000"], verify, "_map_chunks"),
        *(
            (argv, module, name)
            for text in _UNREPRESENTABLE
            for argv, module, name in (
                (["constants", "--n", "3", "--alpha", text], constants, "log_c_norm"),
                (["verify", "--suite", "norm", "--n", "3", "--alpha", text, "--beta", "1",
                  "--samples", "1000"], verify, "_map_chunks"),
            )
        ),
        # answers of more than 4300 digits, refused from their prime blocks
        (["volume", "--n", "1024"], exactnum, "_power_product"),
        (["constants", "--n", "61"], exactnum, "_power_product"),
        (["reference", "--body", "ball", "--dim", "20000"], exactnum, "_power_product"),
        (["reference", "--body", "simplex", "--dim", "30000"], exactnum, "_power_product"),
        (["constants", "--n", "60"], exactnum, "_power_product"),
        # and refused from their factorial maps, before any prime is found
        (["volume", "--n", "1024"], exactnum, "_prime_exponents"),
        (["constants", "--n", "173", "--alpha", "1/2"], exactnum, "_prime_exponents"),
        (["edge", "--n", "169", "--rank-deficiency", "15"], exactnum, "_prime_exponents"),
        (["reference", "--body", "diamond", "--dim", "29583"], exactnum, "_prime_exponents"),
    ],
)
def test_refused_arguments_exit_two_before_the_work(capsys, monkeypatch, argv, module, name):
    # D! past the Gamma bound, answers too long to print, norm rows whose
    # Dirichlet draws hold exact zeros or whose 1/C is not a normal double
    # (e^714 at n = 2, alpha = 1e-310; 1e-337 at n = 16), an alpha whose
    # log-Gamma overflows (1e308, in constants and verify), a negative
    # sample count, hit-or-miss rows that would pass on zero hits and an
    # alpha that no double holds are refused before the factorial, the
    # first draw, the product or the constant is
    # computed; --suite all refuses its n = 3 hit-or-miss row at 200 samples
    # before its first norm row runs
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{name} was reached")

    monkeypatch.setattr(module, name, unreachable)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    if tuple(argv) in _REFUSED_LINES:
        assert captured.err == f"error: {_REFUSED_LINES[tuple(argv)]}\n"


_KEY_BOUND_QUERIES = [
    *(
        [command, "--field", field]
        for command in ("volume", "edge", "geometry")
        for field in ("complex", "real")
    ),
    *(["group", "--family", family] for family in ("U", "SU", "O", "SO", "FlC", "FlR")),
    ["constants", "--alpha", "1"],
    ["constants", "--alpha", "1/2", "--beta", "1"],
]


@pytest.mark.parametrize(
    "argv",
    [
        *([*query, "--n", n] for query in _KEY_BOUND_QUERIES for n in ("1000000000", str(2**61 - 1))),
        # (n - 1) n is prime to every square below n^2: trial division runs to n
        ["geometry", "--n", "1000000007"],
        ["geometry", "--n", "1000000007", "--field", "real"],
        # at N = 10^6 the progressions are within the bound and the key of
        # Gamma(N^2) or of C_N's top Gamma is not: it is checked before any
        # key of them is read
        *([*query, "--n", "1000000"] for query in _KEY_BOUND_QUERIES if query[0] in ("volume", "edge", "geometry")),
    ],
)
def test_a_gamma_key_past_the_bound_is_refused_from_the_arguments(capsys, monkeypatch, argv):
    # a progression of Gamma keys is refused from its last key: no key of it
    # is read, no map is built and no radicand is trial-divided (at 2^61 - 1
    # sqrt(N) alone would not finish)
    def unreachable(n):
        raise AssertionError("a radicand was trial-divided")

    monkeypatch.setattr(exactnum, "_squarefree", unreachable)
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: Gamma argument too large for an exact value: twice it exceeds 2097152\n"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--n", "2", "--alpha", "1e308", "--beta", "1/3"],
        ["verify", "--suite", "norm", "--n", "2", "--alpha", "1e308", "--beta", "1", "--samples", "1000"],
    ],
)
def test_an_alpha_whose_log_gamma_overflows_is_named(capsys, argv):
    # lgamma(1e308) passes the largest double: the error line names the pair
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: alpha=1e+308 and beta=")
    assert captured.err.endswith("are too large at n=2: log C overflows a double\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--n", "1000000000", "--alpha", "0.3"],
        ["constants", "--n", "1000000000", "--alpha", "1/3", "--beta", "1"],
        ["verify", "--suite", "norm", "--n", "1000000000", "--alpha", "0.3", "--samples", "10", "--chunks", "1"],
    ],
)
def test_a_float_path_n_past_the_bound_is_refused_before_any_log_gamma(capsys, monkeypatch, argv):
    # 3n lgamma calls would run for minutes at n = 10^9
    def unreachable(x):
        raise AssertionError("lgamma was called")

    monkeypatch.setattr(math, "lgamma", unreachable)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: n must be at most 1048576 for log C, got 1000000000\n"


def test_domain_error_exits_two(capsys):
    code = cli.main(["edge", "--n", "3", "--rank-deficiency", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_every_subcommand_parses_to_a_runner():
    parser = cli._build_parser()
    (subcommands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    required = {
        "volume": ["--n", "3"], "edge": ["--n", "3"], "geometry": ["--n", "3"],
        "reference": ["--body", "ball", "--dim", "3"], "group": ["--family", "SU", "--n", "3"],
        "constants": ["--n", "3"], "sample": ["--n", "3"], "verify": ["--suite", "all"],
    }
    assert set(subcommands) == set(required)
    for name, args in required.items():
        assert callable(parser.parse_args([name, *args]).run), name


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        cli.main(["volume", "--n", "not-a-number"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["unknown-command"])
    assert info.value.code == 2
