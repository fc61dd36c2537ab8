import json
import shutil
from pathlib import Path

import pytest

from formcones.chambers import gkz_fan
from formcones.cli import main, parse_n_range, resolve_threads
from formcones.refdata import FIXTURE_NAME, fixture_path
from formcones.reports import fan_from_report, fan_report, parse_vectors
from formcones.spaces import collineations, nef_cone, quadrics

X3_MOV_JSON = (
    '{"basis":["H","E_1","E_2"],"cone":"mov",'
    '"facets":[["0","-2","3"],["0","0","-1"],["1","0","3"],["1","2","-1"]],'
    '"meta":{"version":"0.1.0"},"ray_count":4,'
    '"rays":[["1","0","0"],["2","-1","0"],["3","-2","-1"],["6","-3","-2"]],'
    '"space":{"family":"collineations","m":3,"n":3,"stage":null}}'
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cone_json_golden(capsys):
    rc, out, err = run(capsys, "cone", "--family", "xn", "--n", "3",
                       "--cone", "mov", "--format", "json")
    assert rc == 0
    assert out == X3_MOV_JSON + "\n"
    assert err == ""


def test_cone_json_rays_parse_back(capsys):
    rc, out, _ = run(capsys, "cone", "--family", "qn", "--n", "4",
                     "--cone", "nef", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    rays = parse_vectors(doc["rays"])
    assert rays == nef_cone(quadrics(4)).rays
    assert doc["ray_count"] == len(rays)
    assert doc["space"] == {"family": "quadrics", "m": 4, "n": 4, "stage": None}


def test_cone_text_output(capsys):
    rc, out, _ = run(capsys, "cone", "--family", "xn", "--n", "3",
                     "--cone", "mov")
    assert rc == 0
    assert "mov of collineations(3): 4 rays" in out
    assert "6 -3 -2" in out


def test_cone_output_is_thread_independent(capsys):
    args = ("cone", "--family", "xn", "--n", "4", "--cone", "mov",
            "--format", "json")
    rc1, out1, _ = run(capsys, *args, "--threads", "1")
    rc2, out2, _ = run(capsys, *args, "--threads", "2")
    assert rc1 == rc2 == 0
    assert out1.encode() == out2.encode()


def test_chambers_text_and_json(capsys):
    rc, out, _ = run(capsys, "chambers", "--family", "xn", "--n", "3")
    assert rc == 0
    assert "gkz fan of collineations(3): 9 chambers, 12 walls" in out
    rc, out, _ = run(capsys, "chambers", "--family", "xn", "--n", "3", "--sbl")
    assert rc == 0
    assert "8 chambers" in out
    assert "E_2" in out
    rc, out, _ = run(capsys, "chambers", "--family", "xn", "--n", "3",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["fan"]["kind"] == "gkz"
    assert len(doc["fan"]["chambers"]) == 9


def test_fan_report_round_trip():
    s = collineations(3)
    f = gkz_fan(s)
    doc = fan_report(s, f, duration_ns=None, threads=None)
    back = fan_from_report(s, doc)
    assert back == f


def test_missing_m_is_usage_error(capsys):
    rc, _, err = run(capsys, "cone", "--family", "xnm", "--n", "2",
                     "--cone", "nef")
    assert rc == 2
    assert "error" in err


def test_m_rejected_for_square_families(capsys):
    rc, _, err = run(capsys, "cone", "--family", "xn", "--n", "3", "--m", "4",
                     "--cone", "nef")
    assert rc == 2


def test_degenerate_space_exit_code(capsys):
    rc, _, err = run(capsys, "cone", "--family", "xn", "--n", "1",
                     "--cone", "nef")
    assert rc == 3


def test_rank_unsupported_exit_code(capsys):
    rc, _, err = run(capsys, "chambers", "--family", "xn", "--n", "4")
    assert rc == 3


def test_missing_reference_data_exit_code(capsys):
    rc, _, err = run(capsys, "chambers", "--family", "xn", "--n", "5",
                     "--stage", "2", "--sbl")
    assert rc == 4


def test_verify_ok(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "formulas")
    assert rc == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_corrupted_fixtures_exit_code(tmp_path, capsys):
    doc = json.loads(Path(fixture_path()).read_text())
    doc["payload"]["fans"]["quadrics-2"]["fan"]["kind"] = "tampered"
    (tmp_path / FIXTURE_NAME).write_text(json.dumps(doc))
    rc, _, err = run(capsys, "verify", "--suite", "fans",
                     "--fixtures-dir", str(tmp_path))
    assert rc == 1
    assert "checksum" in err


def _bad_checksum(text):
    doc = json.loads(text)
    doc["payload"]["fans"]["collineations-3-eq"]["fan"]["notes"] = ["tampered"]
    return json.dumps(doc)


@pytest.mark.parametrize("damage, message", [
    (_bad_checksum, "checksum mismatch"),
    (lambda text: text[: len(text) // 2], "not valid JSON"),
])
@pytest.mark.parametrize("argv", [
    ("chambers", "--family", "xn", "--n", "3", "--sbl"),
    ("verify", "--suite", "fans"),
])
def test_corrupt_fixture_is_one_line_exit_1(tmp_path, capsys, argv, damage,
                                            message):
    text = Path(fixture_path()).read_text()
    (tmp_path / FIXTURE_NAME).write_text(damage(text))
    rc, out, err = run(capsys, *argv, "--fixtures-dir", str(tmp_path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_verify_with_copied_fixtures(tmp_path, capsys):
    shutil.copy(fixture_path(), tmp_path / FIXTURE_NAME)
    rc, out, _ = run(capsys, "verify", "--suite", "fans",
                     "--fixtures-dir", str(tmp_path))
    assert rc == 0


def test_bench_range(capsys):
    rc, out, _ = run(capsys, "bench", "--family", "qn", "--n", "2..4")
    assert rc == 0
    lines = [l for l in out.splitlines() if "quadrics" in l]
    assert len(lines) == 3
    assert all("ok" in l for l in lines)


def test_bench_bad_ranges(capsys):
    rc, _, _ = run(capsys, "bench", "--family", "qn", "--n", "5..2")
    assert rc == 2
    rc, _, _ = run(capsys, "bench", "--family", "qn", "--n", "abc")
    assert rc == 2


def test_info_plain(capsys):
    rc, out, _ = run(capsys, "info")
    assert rc == 0
    assert "formcones 0.1.0" in out
    assert "families:" in out


def test_info_space(capsys):
    rc, out, _ = run(capsys, "info", "--family", "qn", "--n", "2")
    assert rc == 0
    assert "picard rank: 2" in out
    assert "cox ring generators: 14" in out
    assert "fano: True" in out


def test_info_family_without_n(capsys):
    rc, _, _ = run(capsys, "info", "--family", "qn")
    assert rc == 2


def test_threads_env_honoured(monkeypatch, capsys):
    monkeypatch.setenv("FORMCONES_THREADS", "3")
    rc, out, _ = run(capsys, "cone", "--family", "xn", "--n", "3",
                     "--cone", "mov", "--format", "json", "--timings")
    assert rc == 0
    assert json.loads(out)["meta"]["threads"] == 3


def test_threads_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("FORMCONES_THREADS", "zero")
    rc, _, _ = run(capsys, "cone", "--family", "xn", "--n", "3",
                   "--cone", "mov")
    assert rc == 2


def test_threads_flag_must_be_positive(capsys):
    rc, _, _ = run(capsys, "cone", "--family", "xn", "--n", "3",
                   "--cone", "mov", "--threads", "0")
    assert rc == 2


def test_resolve_threads_and_ranges():
    assert resolve_threads(2) == 2
    assert resolve_threads(None) >= 1
    assert parse_n_range("3") == [3]
    assert parse_n_range("2..5") == [2, 3, 4, 5]
    with pytest.raises(ValueError):
        parse_n_range("5..2")
    with pytest.raises(ValueError):
        resolve_threads(0)
