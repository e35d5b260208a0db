import json
import os
from fractions import Fraction
import shlex
import subprocess
import sys

import pytest

from segreode import cli
from segreode.cli import check_real_structure, main
from segreode.io import (dumps_canonical, ode_from_json, ode_to_json,
                         parse_coeff_list, parse_monomial_expr, phi_from_json,
                         phi_to_json, Report, useries_from_json,
                         useries_to_json)
from segreode.errors import DomainError, StructureError
from segreode.gauge import divergence_report, linear_family
from segreode.odes import P0Ode, Poly2
from segreode.scalars import GaussRational
from segreode.segre import AdmissiblePhi, build_real, reality_check, solve_phi
from segreode.series import TriSeries, USeries

from conftest import rnd_complex_series, rnd_structure_data


def test_series_json_roundtrip(rng):
    for _ in range(5):
        s = rnd_complex_series(rng, deg=6, trunc=10)
        assert useries_from_json(useries_to_json(s)) == s


def test_ode_json_roundtrip(rng):
    ode = build_real(rnd_structure_data(rng))
    assert ode_from_json(ode_to_json(ode)) == ode


def test_phi_json_roundtrip(rng):
    ode = build_real(rnd_structure_data(rng, m=2))
    phi = solve_phi(ode, 2, 1, truncs=(4, 4, 8))
    back = phi_from_json(phi_to_json(phi))
    assert back.m == phi.m and back.sign == phi.sign
    assert back.phi == phi.phi


@pytest.mark.parametrize("k, l", [(2, 0), (0, 2)])
def test_phi_record_must_be_admissible(k, l):
    phi = solve_phi(linear_family(1, trunc=8), 4, 1, truncs=(4, 4, 8))
    record = phi_to_json(phi)
    extra = USeries("w", 8, {3: GaussRational(1)})
    record["slices"].append({"k": k, "l": l, "series": useries_to_json(extra)})
    with pytest.raises(StructureError, match=f"bad family record: .*monomial \\({k}, {l}, 3\\)"):
        phi_from_json(record)


def test_bad_records_raise():
    with pytest.raises(StructureError):
        useries_from_json({"var": "w"})
    with pytest.raises(StructureError):
        ode_from_json({"m": 1})


def test_report_invariants():
    with pytest.raises(StructureError):
        Report("x", "fail")
    r = Report("x", "pass", residual_order=3)
    assert "PASS" in r.line()


def test_parse_coeff_list():
    s = parse_coeff_list("1,0,-2/3,1+2i", trunc=8)
    assert s.coeff(0) == GaussRational(1)
    assert s.coeff(2) == GaussRational(0) - GaussRational(2) / 3
    assert s.coeff(3) == GaussRational(1, 2)
    with pytest.raises(DomainError):
        parse_coeff_list("1/0", trunc=8)


def test_parse_monomial_expr():
    L = parse_monomial_expr("2i*w^-4 + 3 - (1+2i)*w^2", trunc=12)
    assert L.coeff(-4) == GaussRational(0, 2)
    assert L.coeff(0) == GaussRational(3)
    assert L.coeff(2) == GaussRational(-1, -2)
    assert parse_monomial_expr("w", trunc=8).coeff(1) == GaussRational(1)
    assert parse_monomial_expr("-w^3", trunc=8).coeff(3) == GaussRational(-1)
    with pytest.raises(DomainError):
        parse_monomial_expr("w^x", trunc=8)


# -- CLI end-to-end ---------------------------------------------------------


def run_cli(args, **kw):
    return main(list(args))


def test_cli_build_and_verify(tmp_path, capsys):
    out = tmp_path / "ode.json"
    assert run_cli(["build", "--a", "1", "--b", "0,0,0,0,1", "--c", "0",
                    "--m", "4", "--trunc", "14", "-o", str(out)]) == 0
    ode = ode_from_json(json.loads(out.read_text()))
    assert ode == linear_family(1, trunc=14)
    assert run_cli(["verify", "p0", "--ode", str(out)]) == 0
    assert run_cli(["verify", "riccati", "--ode", str(out), "--p", "2i*w^-4"]) == 1
    capsys.readouterr()


def test_cli_invalid_inputs(tmp_path, capsys):
    assert run_cli(["build", "--a", "1/0", "--b", "0", "--m", "1"]) == 2
    assert run_cli(["build", "--a", "i", "--b", "0", "--m", "1"]) == 2
    assert run_cli(["build", "--a", "1", "--b", "0", "--m", "0"]) == 2
    assert run_cli(["verify", "p0", "--ode", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_cli_trunc_below_minimum_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SEGREODE_TRUNC", raising=False)
    build = ["build", "--a", "1", "--b", "0,0,0,0,1", "--m", "4"]
    ode = tmp_path / "ode.json"
    assert run_cli(build + ["--trunc", "4", "-o", str(ode)]) == 0
    assert ode_from_json(json.loads(ode.read_text())).trunc == 4
    pipeline = ["pipeline", "--a", "1", "--b", "0", "--m", "4",
                "--out-dir", str(tmp_path / "pl")]
    for argv in (build + ["--trunc", "1"], build + ["--trunc", "0"],
                 build + ["--trunc", "-3"], pipeline + ["--trunc", "1"],
                 ["verify", "segre-residual", "--ode", str(ode), "--trunc", "2"]):
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--trunc must be at least 4" in err
    assert not (tmp_path / "pl").exists()
    monkeypatch.setenv("SEGREODE_TRUNC", "3")
    assert run_cli(build) == 2
    assert "SEGREODE_TRUNC must be at least 4" in capsys.readouterr().err


def test_cli_segre_residual_on_an_ode_known_below_2m_exits_2(tmp_path, capsys):
    # verify solves at eta-truncation 12, but the ODE is known modulo w^8 only
    ode = tmp_path / "ode.json"
    assert run_cli(["build", "--a", "1", "--b", "0,0,0,0,1", "--m", "4",
                    "--trunc", "8", "-o", str(ode)]) == 0
    assert run_cli(["verify", "segre-residual", "--ode", str(ode)]) == 2
    verify_err = capsys.readouterr().err
    assert run_cli(["pipeline", "--a", "1", "--b", "0,0,0,0,1", "--m", "4",
                    "--trunc", "8", "--out-dir", str(tmp_path / "pl")]) == 2
    assert verify_err == capsys.readouterr().err
    assert verify_err.count("\n") == 1 and "eta-truncation 8" in verify_err


def test_cli_dz_below_minimum_exits_2(tmp_path, capsys):
    ode = tmp_path / "ode.json"
    assert run_cli(["build", "--a", "1", "--b", "0,0,0,0,1", "--m", "4",
                    "--trunc", "12", "-o", str(ode)]) == 0
    residual = ["verify", "segre-residual", "--ode", str(ode)]
    pipeline = ["pipeline", "--a", "1", "--b", "0", "--m", "4", "--trunc", "8",
                "--out-dir", str(tmp_path / "pl")]
    for argv in (residual + ["--dz", "0"], residual + ["--dz", "2"],
                 ["verify", "reality", "--ode", str(ode), "--dz", "3"],
                 pipeline + ["--dz", "1"]):
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--dz must be at least 4" in err
    assert not (tmp_path / "pl").exists()
    assert run_cli(residual + ["--dz", "4"]) == 0
    assert "[PASS] family-solves-inverse-ode" in capsys.readouterr().out


def test_cli_reality_honors_sign(tmp_path, capsys):
    ode = tmp_path / "ode.json"
    assert run_cli(["build", "--a", "1,1/2,2", "--b", "0,0,1,3", "--c", "0,i,1",
                    "--m", "1", "--trunc", "10", "-o", str(ode)]) == 0
    data = ode_from_json(json.loads(ode.read_text()))
    capsys.readouterr()
    got = {}
    for sign in (1, -1):
        run_cli(["verify", "reality", "--ode", str(ode), "--trunc", "10",
                 "--sign", str(sign), "--json"])
        got[sign] = json.loads(capsys.readouterr().out)
        want = check_real_structure(reality_check(data, 1, sign, (5, 5, 10)))
        assert got[sign] == [want.to_json()]
    assert got[1] != got[-1]


def test_segre_residual_defaults_to_the_odes_truncation(tmp_path, monkeypatch, capsys):
    # README's E1 has m = 4 and truncation 16.  Perturbing its family by
    # z^2 xi^2 first moves the residual at eta-degree 14, which the box
    # (5, 5, 12) never holds: at --trunc 12 the check passes vacuously.
    ode = tmp_path / "E1.json"
    assert run_cli(["build", "--a", "1", "--b", "0,0,0,0,1", "--c", "0", "--m", "4",
                    "--trunc", "16", "-o", str(ode)]) == 0
    solve = cli.solve_phi

    def bent_family(*args, **kwargs):
        phi = solve(*args, **kwargs)
        bump = TriSeries.monomial(2, 2, 0, 1, phi.phi.vars, phi.truncs)
        return AdmissiblePhi(phi.m, phi.sign, phi.phi + bump)

    monkeypatch.setattr(cli, "solve_phi", bent_family)
    capsys.readouterr()
    residual = ["verify", "segre-residual", "--ode", str(ode), "--m", "4"]
    assert run_cli(residual) == 1
    assert "[FAIL] family-solves-inverse-ode (residual order 14)" in capsys.readouterr().out
    assert run_cli(residual + ["--trunc", "12"]) == 0


def test_cli_residual_refuses_m_past_the_eta_truncation(tmp_path, capsys):
    # the residual is cleared by W^(2m), which vanishes once 2m >= te = 12
    ode = tmp_path / "ode.json"
    assert run_cli(["build", "--a", "1", "--b", "0,0,0,0,1", "--m", "4",
                    "--trunc", "12", "-o", str(ode)]) == 0
    residual = ["verify", "segre-residual", "--ode", str(ode)]
    pipeline = ["pipeline", "--a", "1", "--b", "0,0,0,0,1", "--m", "6",
                "--trunc", "12", "--out-dir", str(tmp_path / "pl")]
    for argv in (residual + ["--m", "6"], residual + ["--m", "13"],
                 residual + ["--m", "40"], pipeline):
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "eta-truncation 12" in err
    assert run_cli(residual + ["--m", "5"]) == 0
    assert "[PASS] family-solves-inverse-ode" in capsys.readouterr().out


def test_truncation_above_packed_key_bound_exits_2(tmp_path, capsys):
    record = {"format": 1, "m": 1, "sign": "+", "truncs": [5, 5, 2**20 + 1],
              "slices": []}
    with pytest.raises(StructureError):
        phi_from_json(record)
    ode = tmp_path / "ode.json"
    assert run_cli(["build", "--a", "1", "--b", "0,0,0,0,1", "--m", "4",
                    "--trunc", "8", "-o", str(ode)]) == 0
    assert run_cli(["verify", "segre-residual", "--ode", str(ode),
                    "--trunc", str(2**20 + 1)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds the bound 1048576" in err


def test_cli_pipeline_and_verify_report_alike(tmp_path, capsys):
    outdir = tmp_path / "pl"
    sizes = ["--dz", "4", "--trunc", "10"]
    assert run_cli(["pipeline", "--a", "1,1/2", "--b", "0,0,1", "--c", "0,i",
                    "--m", "2", *sizes, "--out-dir", str(outdir)]) == 0
    capsys.readouterr()
    piped = {r["claim"]: r for r in json.loads((outdir / "reports.json").read_text())}
    seen = []
    for check in ("p0", "reality", "segre-residual"):
        flags = [] if check == "p0" else sizes
        assert run_cli(["verify", check, "--ode", str(outdir / "ode.json"),
                        *flags, "--json"]) == 0
        for report in json.loads(capsys.readouterr().out):
            assert report == piped[report["claim"]]
            seen.append(report["claim"])
    assert seen == ["structural-relations", "real-structure",
                    "family-solves-inverse-ode"]


def test_cli_reality_failure_is_the_check_report(tmp_path, capsys):
    ode = linear_family(1, trunc=12)
    bent = P0Ode(ode.m, ode.A, ode.B, ode.C, ode.D,
                 ode.E + USeries.monomial(5, GaussRational(0, 1), trunc=ode.trunc),
                 ode.F)
    path = tmp_path / "bent.json"
    path.write_text(dumps_canonical(ode_to_json(bent)))
    assert run_cli(["verify", "reality", "--ode", str(path), "--json"]) == 1
    got = json.loads(capsys.readouterr().out)
    rep = reality_check(bent, 4, truncs=(5, 5, 12))
    assert not rep.ok
    want = check_real_structure(rep)
    assert (want.status, want.witness, want.residual_order) == \
        ("fail", str(rep), rep.checked_order)
    assert got == [want.to_json()]


def test_cli_verify_json_stream(tmp_path, capsys):
    out = tmp_path / "ode.json"
    run_cli(["build", "--a", "1", "--b", "0", "--c", "0", "--m", "4",
             "--trunc", "12", "-o", str(out)])
    capsys.readouterr()
    assert run_cli(["verify", "riccati", "--ode", str(out), "--p", "2i*w^-4",
                    "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["status"] == "pass"
    assert payload[0]["claim"] == "log-derivative-witness"


def test_cli_divergence_and_monodromy(capsys):
    assert run_cli(["verify", "divergence", "--gamma", "1", "-K", "60"]) == 0
    assert run_cli(["verify", "monodromy", "--gamma", "5"]) == 0
    assert run_cli(["verify", "divergence", "--gamma", "0"]) == 2
    capsys.readouterr()


def test_cli_divergence_long_run_reports_a_compact_margin(capsys):
    # at 1,000 terms the exact least margin has a 23,812-bit numerator,
    # past the length Python prints as a decimal
    assert run_cli(["verify", "divergence", "--gamma", "1", "-K", "1000"]) == 0
    captured = capsys.readouterr()
    assert "[PASS]" in captured.out and "Traceback" not in captured.err
    assert run_cli(["verify", "divergence", "--gamma", "1", "-K", "1000", "--json"]) == 0
    witness = json.loads(json.loads(capsys.readouterr().out)[0]["witness"])
    assert "min_margin" not in witness
    lower = Fraction(witness["min_margin_at_least"])
    assert lower.denominator <= 2 ** 32 and lower >= 1
    rep = divergence_report(1, 1000)
    assert witness["min_margin_k"] == rep.min_margin_k
    assert 0 <= rep.min_margin - lower < Fraction(1, 2 ** 32)


def test_cli_divergence_table_past_the_digit_limit_exits_2(capsys):
    # for gamma = 1/3, a_1044 is the first coefficient with a part past
    # Python's 4,300-digit int-to-str limit; one row less still prints
    args = ["verify", "divergence", "--gamma=1/3", "-K", "1045"]
    assert run_cli(args + ["--table", "1044"]) == 0
    capsys.readouterr()
    assert run_cli(args + ["--table", "1045"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lower --table" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "pipeline"])
def test_cli_derived_coefficient_past_the_digit_limit_exits_2(command, tmp_path, capsys):
    # a 3,000-digit c is below the input limit, but C = -A^2/9 and the other
    # derived coefficients have about 6,000 digits, too many to write out
    out = tmp_path / "out"
    argv = [command, "--a", "1", "--b", "0", "--c", "7" * 3000, "--m", "2", "--trunc", "6"]
    argv += ["-o", str(out)] if command == "build" else ["--out-dir", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{sys.get_int_max_str_digits()} digits" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_monodromy_of_an_ode_known_below_its_pole_exits_2(tmp_path, capsys):
    # at --trunc 4 the order-four system is known below w^3, so its
    # residue A_3 was never read and the PASS showed eigenvalues {0, 0}
    build = ["build", "--a", "1", "--b", "0,0,0,0,1", "--m", "4", "-o"]
    for trunc in (4, 5):
        assert run_cli(build + [str(tmp_path / f"m{trunc}.json"), "--trunc", str(trunc)]) == 0
    assert run_cli(["verify", "monodromy", "--ode", str(tmp_path / "m4.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "residue A_3" in err and "Traceback" not in err
    assert run_cli(["verify", "monodromy", "--ode", str(tmp_path / "m5.json"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)[0]
    assert report["status"] == "pass" and report["residual_order"] == 1
    assert json.loads(report["witness"])["eigenvalues"] == ["0", "1"]


def test_cli_gauge_rejects_undecidable_order(capsys):
    # below order 5 tau = w + O(w^5) cannot fail, so the claim is refused
    assert run_cli(["verify", "gauge", "--gamma", "1", "--order", "4"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at least 5" in err
    assert "Traceback" not in err
    assert run_cli(["verify", "gauge", "--gamma", "1", "--order", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4


def test_cli_gauge_negative_gamma_with_equals(capsys):
    # argparse takes "--gamma -2/3" for a missing value; "--gamma=-2/3" works
    assert run_cli(["verify", "gauge", "--gamma=-2/3", "--order", "8"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 4


@pytest.fixture(scope="module")
def ode_files(tmp_path_factory):
    """A linear order-four ODE at truncation 8, and the same record with
    every ``trunc`` set to "0"."""
    d = tmp_path_factory.mktemp("odes")
    good = d / "ode.json"
    assert run_cli(["build", "--a", "1", "--b", "0,0,0,0,1", "--m", "4",
                    "--trunc", "8", "-o", str(good)]) == 0
    record = json.loads(good.read_text())
    for name in "ABCDEF":
        record[name]["trunc"] = "0"
    (d / "trunc0.json").write_text(json.dumps(record))
    return {"ode": str(good), "trunc0": str(d / "trunc0.json")}


HOSTILE_VERIFY = [
    # an onset past the last ratio checks nothing; one below 1 divides by 0
    ["divergence", "--gamma", "1", "--onset", "300"],
    ["divergence", "--gamma", "1", "--onset", "0"],
    ["divergence", "--gamma", "1", "--onset", "-3"],
    # checks that read an ODE file, called without one
    *([check] for check in ("p0", "tresse", "reality", "segre-residual", "riccati")),
    ["riccati", "--ode", "{ode}"],
    # an ODE record at truncation 0 would pass on empty series
    *([check, "--ode", "{trunc0}"] for check in ("p0", "tresse", "monodromy")),
    # --m 0 is a value, not "use the file's m"
    ["reality", "--ode", "{ode}", "--m", "0"],
    # a flag the check does not read is refused, not silently ignored
    ["p0", "--ode", "{ode}", "--trunc", "5"],
    ["tresse", "--ode", "{ode}", "--dz", "9"],
    ["divergence", "--order", "7"],
    ["gauge", "-K", "7"],
    ["p0", "--ode", "{ode}", "--gamma", "3"],
    ["tangency", "--gamma", "0"],
    # a negative table length would slice from the end
    ["divergence", "--table", "-3"],
]


@pytest.mark.parametrize("argv", HOSTILE_VERIFY, ids=" ".join)
def test_cli_hostile_verify_input_exits_2(argv, ode_files, capsys):
    assert run_cli(["verify", *(a.format(**ode_files) for a in argv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


MALFORMED_ODE_RECORDS = {
    "m-abc": lambda r: {**r, "m": "abc"},
    "m-negative": lambda r: {**r, "m": -1},
    "missing-A": lambda r: {k: v for k, v in r.items() if k != "A"},
    "trunc-1e9": lambda r: {**r, "A": {**r["A"], "trunc": "1e9"}},
    "terms-not-a-list": lambda r: {**r, "A": {**r["A"], "terms": 7}},
    "top-level-list": lambda r: [r],
    "top-level-null": lambda r: None,
    "A-string": lambda r: {**r, "A": "1+w"},
}

MALFORMED_LITERALS = [
    *(["build", "--a", a, "--b", "0", "--m", "1"] for a in ("1/0", "2**3", "1+", "1e5")),
    *(["verify", "riccati", "--ode", "{ode}", "--p", p] for p in ("w^^2", "2i*z^-4")),
    *(["verify", check, f"--gamma={g}"] for check in ("divergence", "monodromy", "gauge")
      for g in ("1/2/3", "abc")),
    ["pipeline", "--a", "1", "--b", "0", "--c", "1/0", "--m", "1", "--out-dir", "{out}"],
    # {long} has more digits than Python's int conversion takes
    ["build", "--a", "{long}", "--b", "0", "--m", "1"],
    ["pipeline", "--a", "1", "--b", "1/{long}", "--m", "1", "--out-dir", "{out}"],
    *(["verify", check, "--gamma", "{long}"] for check in ("gauge", "divergence", "monodromy")),
]
LONG_LITERAL = "1" * 5001


def _malformed_cases():
    for name in MALFORMED_ODE_RECORDS:
        for check in ("p0", "tresse", "monodromy"):
            yield pytest.param(("ode", name, check), id=f"{check}-{name}")
    for argv in MALFORMED_LITERALS:
        yield pytest.param(("argv", argv), id=" ".join(argv))


@pytest.mark.parametrize("case", _malformed_cases())
def test_cli_malformed_input_exits_2(case, ode_files, tmp_path, capsys):
    if case[0] == "ode":
        _, name, check = case
        with open(ode_files["ode"]) as fh:
            record = json.load(fh)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(MALFORMED_ODE_RECORDS[name](record)))
        argv = ["verify", check, "--ode", str(path)]
    else:
        argv = [a.format(out=tmp_path / "out", long=LONG_LITERAL, **ode_files)
                for a in case[1]]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_gauge_rejects_nonreal_gamma(capsys):
    assert run_cli(["verify", "gauge", "--gamma", "i"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "family parameter must be real" in err
    assert "Traceback" not in err


def test_cli_pipeline_failure_writes_no_artifact(tmp_path, capsys):
    # solve_phi refuses m = 6 at eta-truncation 12 after ode.json is known;
    # the run must leave --out-dir as it found it
    argv = ["pipeline", "--a", "1", "--b", "0,0,0,0,1", "--m", "6",
            "--trunc", "12", "--out-dir"]
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    existing.mkdir()
    for outdir in (fresh, existing):
        assert run_cli(argv + [str(outdir)]) == 2
        capsys.readouterr()
    assert not fresh.exists()
    assert list(existing.iterdir()) == []


def test_cli_pipeline_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    args = ["pipeline", "--a", "1", "--b", "0,0,0,0,1", "--c", "0",
            "--m", "4", "--trunc", "10", "--dz", "4"]
    assert run_cli(args + ["--out-dir", str(d1)]) == 0
    assert run_cli(args + ["--out-dir", str(d2)]) == 0
    capsys.readouterr()
    for name in ("ode.json", "family.json", "hypersurface.json", "reports.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["reports"]["failed"] == 0
    assert set(manifest["artifacts"]) >= {"ode.json", "family.json",
                                          "hypersurface.json", "reports.json"}


def test_cli_pipeline_gamma_zero_vs_one_differ_in_E(tmp_path, capsys):
    d0, d1 = tmp_path / "g0", tmp_path / "g1"
    base = ["pipeline", "--a", "1", "--c", "0", "--m", "4", "--trunc", "10",
            "--dz", "4"]
    assert run_cli(base + ["--b", "0", "--out-dir", str(d0)]) == 0
    assert run_cli(base + ["--b", "0,0,0,0,1", "--out-dir", str(d1)]) == 0
    capsys.readouterr()
    o0 = json.loads((d0 / "ode.json").read_text())
    o1 = json.loads((d1 / "ode.json").read_text())
    assert o0["E"] != o1["E"]
    for name in "ABCDF":
        assert o0[name] == o1[name]


def test_cli_entrypoint_subprocess(tmp_path):
    env = dict(os.environ, SEGREODE_TRUNC="12")
    proc = subprocess.run(
        [sys.executable, "-m", "segreode.cli", "verify", "divergence",
         "--gamma", "1", "-K", "60"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_import_leaves_gauge_unloaded():
    # What ``import segreode.cli`` itself loads: a .pth file or the test
    # runner may have loaded some of these modules before it.
    import segreode
    src = os.path.dirname(os.path.dirname(segreode.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import json, sys; before = set(sys.modules); import segreode.cli;"
            " print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "segreode.cli" in loaded
    assert not loaded & {"dataclasses", "hashlib", "segreode.hypersurface",
                         "segreode.gauge"}


def _readme_commands():
    """The ``segreode ...`` lines of README's "Command line" block, in order."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().split("## Command line", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("segreode ")]


def test_readme_commands_exit_as_documented(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert commands[0][0] == "build" and len(commands) > 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        # the witness 2i*w^-4 fails the parameter-one ODE that build wrote
        want = 1 if argv[:2] == ["verify", "riccati"] else 0
        assert run_cli(argv) == want, argv
    capsys.readouterr()


def test_field_json_roundtrip():
    from segreode.hypersurface import sphere_pushforward_fields
    from segreode.io import field_from_json, field_to_json

    for X in sphere_pushforward_fields():
        back = field_from_json(field_to_json(X))
        assert back.fz == X.fz and back.fw == X.fw


@pytest.mark.parametrize("axis", [0, 1], ids=["fz=z^-1", "fz=w^-1"])
def test_cli_tangency_field_with_negative_exponent_exits_2(axis, tmp_path, capsys):
    from segreode.io import gauss_to_json

    deg = [-1, 0] if axis == 0 else [0, -1]
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"format": 1, "fw": {"terms": []},
                                "fz": {"terms": [{"deg": deg,
                                                  "coeff": gauss_to_json(GaussRational(1))}]}}))
    assert run_cli(["verify", "tangency", "--field", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "non-negative" in captured.err


def test_cli_tangency_box_without_the_leading_term_exits_2(tmp_path, capsys):
    # eta-truncation 14 <= m = 20: wbar^m z zbar lies outside the box
    assert run_cli(["verify", "tangency", "--m", "20", "--trunc", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "(6, 6, 14)" in captured.err and "wbar^20" in captured.err
    # d/dz is not tangent to the model (m = 4); the residual box of
    # eta-truncation 5 ends below wbar^4, where rho first reads z
    from segreode.hypersurface import HoloField
    from segreode.io import field_to_json
    path = tmp_path / "ddz.json"
    path.write_text(dumps_canonical(field_to_json(
        HoloField(Poly2({(0, 0): GaussRational(1)}), Poly2()))))
    argv = ["verify", "tangency", "--field", str(path), "--trunc"]
    assert run_cli(argv + ["5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "wbar^4" in captured.err and "at least 6" in captured.err
    assert run_cli(argv + ["6"]) == 1
    assert "[FAIL] tangency-field-custom (residual order 5)" in capsys.readouterr().out


def test_cli_tangency_custom_field(tmp_path, capsys):
    from segreode.hypersurface import sphere_pushforward_fields
    from segreode.io import dumps_canonical, field_to_json

    path = tmp_path / "field.json"
    path.write_text(dumps_canonical(field_to_json(sphere_pushforward_fields()[0])))
    assert run_cli(["verify", "tangency", "--field", str(path),
                    "--dz", "5", "--trunc", "10"]) == 0
    capsys.readouterr()
