import hashlib
import json
import re

import pytest

from formcones import (cli, cones, errors, formulas, linalg, refdata, spaces,
                       verify)
from formcones import chambers as chambers_module
from formcones.cli import main, parse_n_range
from formcones.refdata import bundled_fan_keys
from formcones.reports import canonical_json
from formcones.spaces import nef_cone, quadrics
from test_cones import _trace_insert

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


def test_a_rejected_command_line_leaves_the_parser_usable(capsys):
    # The parser is built once per process; a command line that argparse
    # rejects must not change what the next command line prints.
    with pytest.raises(SystemExit) as rejected:
        main(["cone", "--family", "xn", "--n", "3", "--cone", "nowhere"])
    assert rejected.value.code == 2
    capsys.readouterr()
    rc, out, err = run(capsys, "cone", "--family", "xn", "--n", "3",
                       "--cone", "mov", "--format", "json")
    assert (rc, out, err) == (0, X3_MOV_JSON + "\n", "")


def test_cone_json_rays_parse_back(capsys):
    rc, out, _ = run(capsys, "cone", "--family", "qn", "--n", "4",
                     "--cone", "nef", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    rays = tuple(tuple(int(x) for x in ray) for ray in doc["rays"])
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


# sha256 of ``chambers <space> --format json`` (the computed fan, no merge)
# for the representative space of every bundled fixture key.
GKZ_JSON_SHA256 = {
    "collineations-1-wide": ("--family xnm --n 1 --m 2",
                             "e6664221f1a75c2b928806b8f12f5ee38d53a8c9e282ffa0a4649bf8d78b28a1"),
    "collineations-2-eq": ("--family xn --n 2",
                           "2fcfc657ea42f9416dff0dd0f32ed17d2d1a3353e0246b10f457a85b52f62f8b"),
    "collineations-2-wide": ("--family xnm --n 2 --m 3",
                             "1a24079ccb39a9a5352157de9f98d605bfcb1a82461f5761c487d2f9b6a84462"),
    "collineations-3-eq": ("--family xn --n 3",
                           "d59e807a2a2c83621d4bc46d43be08e440023dd56e41e83590b1acebf24192c4"),
    "quadrics-2": ("--family qn --n 2",
                   "e8404cc695dc5e10c3d80234ea099a0a10926f89f7ade6713ba7fce8d384ed4a"),
    "quadrics-3": ("--family qn --n 3",
                   "611e87f8598623046cbdef8d17164b4f3c544a10f8b93e9ea8217b16f232cad3"),
    "stage1-2": ("--family xn --n 2 --stage 1",
                 "acb91fc26976d12579415799625c0e25ab5ab722591037dfd00f3beecc21f5d5"),
    "stage1-3": ("--family xn --n 3 --stage 1",
                 "c01f1eeef4fda475eea5888c3cde5538c2da0e918aae67462616745b082b3a5e"),
    "stage1-4": ("--family xn --n 4 --stage 1",
                 "c9d183ada04a806869be9d6a057a5d61bfc39462fc31999539a6e5d4450acdea"),
    "stage1-5": ("--family xn --n 5 --stage 1",
                 "b6d90fc89e37592f6ee05f4cf704f3665d6b25d830177b0b46cc934208f19e1f"),
    "stage1-6": ("--family xn --n 6 --stage 1",
                 "554e2bb0de8cabba7760546c3a7b72527edaa772e9cc63731ab97d917bd91b1a"),
    "stage1-7": ("--family xn --n 7 --stage 1",
                 "9d1bc17ecda744de4f3fead29d1a232b7c98c79bb342de06a9e89ee0a77d1507"),
    "stage1-8": ("--family xn --n 8 --stage 1",
                 "a6e4912f060c3873306de1e14f6b19c7cdcc3a6d5c4317c2bed9ef1e47d713d5"),
    "stage1-9": ("--family xn --n 9 --stage 1",
                 "b845e552005dac9a6cf7060c6f02995f34a68c7926cf21ceb3736fb1af1925e3"),
    "stage1-10": ("--family xn --n 10 --stage 1",
                  "675ea548843c96137e5c04eb5911d92dd5694dc5d8565e0ee89907ad1e1f7cf1"),
}


def test_gkz_json_digests_cover_the_bundled_keys():
    assert set(GKZ_JSON_SHA256) == set(bundled_fan_keys())


@pytest.mark.parametrize("key", sorted(GKZ_JSON_SHA256))
def test_gkz_json_digest(capsys, key):
    flags, digest = GKZ_JSON_SHA256[key]
    rc, out, err = run(capsys, "chambers", *flags.split(), "--format", "json")
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of ``chambers <space> --sbl --format json`` (the merged fan) for the
# representative space of every bundled key.
SBL_JSON_SHA256 = {
    "collineations-1-wide": ("--family xnm --n 1 --m 2",
                             "b34727bb5684f89ef8141971c109193ac892e1716dff15d8c3c6979a6d223552"),
    "collineations-2-eq": ("--family xn --n 2",
                           "006c6ec4c4e8684fcfb4069f826b6190b0dfdc81fe05d430a52c9f94084baf70"),
    "collineations-2-wide": ("--family xnm --n 2 --m 3",
                             "c8097fcf3b091cabd1c645c51dc5c66ae7dcc1dcb4b583f77fcc7745f01fa573"),
    "collineations-3-eq": ("--family xn --n 3",
                           "ddaf5cbb19e8c8f4c792dfa92dbc32197ec68a05450ad18e128e6cf113340847"),
    "quadrics-2": ("--family qn --n 2",
                   "dcf52196043309d18a3c8c855b5e91ffbecc2c6f53d90c0b9d82ff26e40843ab"),
    "quadrics-3": ("--family qn --n 3",
                   "6e91e2f78d47dcc2a0dec424c15c2b023ca60bb5bb7c19dc659479e17af40f6b"),
    "stage1-2": ("--family xn --n 2 --stage 1",
                 "1986fdf77463981a52ce5f9eb72279b4e27123f2101e8a17f2bb903b5d383299"),
    "stage1-3": ("--family xn --n 3 --stage 1",
                 "877b7dfa362edf50f2e5203d6287f7228611827c08b3850851a46817e9cb348e"),
    "stage1-4": ("--family xn --n 4 --stage 1",
                 "62eba4d86737b214f2134ea5c2ed4e780b9276c4ef2451c6651a73d5495d54a0"),
    "stage1-5": ("--family xn --n 5 --stage 1",
                 "1930cd4db81a51c6eb08be64fa92aca1b881ea56cbee2202b8491947fd190dc2"),
    "stage1-6": ("--family xn --n 6 --stage 1",
                 "6ce62ba54d237ba46d93ed4cc82b036856fa7ee2e2ec89c67d4ec0c8ffc73a45"),
    "stage1-7": ("--family xn --n 7 --stage 1",
                 "8db954dc9ba699c5675e59f3644c8fa3d5bdc6bf044d477bada7c14ebce33ed0"),
    "stage1-8": ("--family xn --n 8 --stage 1",
                 "c1e42b67163df69ac7684f93d014c3b30179eeeec695b67933f5ac279e5a2e99"),
    "stage1-9": ("--family xn --n 9 --stage 1",
                 "c9ceef23fc5c084a575f74fcb6742b76276dbdf0a54ff3ca059895d0ca6a5b9e"),
    "stage1-10": ("--family xn --n 10 --stage 1",
                  "5d886a92413a460556d39016c9822f915a82814e43c09eee2733863c344ce7b2"),
}


def test_sbl_json_digests_cover_the_bundled_keys():
    assert set(SBL_JSON_SHA256) == set(bundled_fan_keys())


@pytest.mark.parametrize("key", sorted(SBL_JSON_SHA256))
def test_sbl_json_digest(capsys, key):
    flags, digest = SBL_JSON_SHA256[key]
    rc, out, err = run(capsys, "chambers", *flags.split(), "--sbl",
                       "--format", "json")
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fans_of_one_shape_merge_with_their_own_tables(capsys):
    # xn n and qn n share one walk, and each merged fan reads the table of
    # its own space, so in one process either order prints the same bytes.
    chambers_module._walk.cache_clear()
    for n in (3, 2):
        for key in (f"collineations-{n}-eq", f"quadrics-{n}"):
            flags, digest = SBL_JSON_SHA256[key]
            rc, out, err = run(capsys, "chambers", *flags.split(), "--sbl",
                               "--format", "json")
            assert rc == 0 and err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == digest, key
    info = chambers_module._walk.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_verify_cones_makes_no_noop_projection(monkeypatch, capsys):
    # Every vector the pass makes comes from ``combine``.  A lineality step
    # keeps each generator already on the new hyperplane as it is, so the
    # cones suite makes 6,800 combinations from fresh cones; projecting
    # every generator would make 7,653.
    calls = []
    combine = linalg.combine

    def counting(*args):
        calls.append(args)
        return combine(*args)

    monkeypatch.setattr(linalg, "combine", counting)
    monkeypatch.setattr(cones, "combine", counting)
    cones._generated.cache_clear()
    rc, out, _ = run(capsys, "verify", "--suite", "cones")
    assert rc == 0 and out.endswith("\n8/8 checks passed\n")
    assert len(calls) == 6800


def test_verify_computes_each_shape_once(monkeypatch, capsys):
    # The counts suite checks 25 movable cones of 16 shapes: quadrics(n)
    # follows collineations(n), whose cone it shares.  The fans suite
    # checks 15 bundled keys of 12 shapes, and the 15 `chambers --sbl`
    # commands after it in the same process walk no fan again.
    hulls, cuts = [], []
    omit_one_hulls = spaces.omit_one_hulls
    cut = chambers_module.cone_from_halfspaces
    monkeypatch.setattr(spaces, "omit_one_hulls",
                        lambda *args: hulls.append(args) or omit_one_hulls(*args))
    monkeypatch.setattr(chambers_module, "cone_from_halfspaces",
                        lambda *args: cuts.append(args) or cut(*args))
    spaces._last_movable.clear()
    chambers_module._walk.cache_clear()
    rc, out, _ = run(capsys, "verify", "--suite", "counts")
    assert rc == 0 and out.endswith("\n25/25 checks passed\n")
    assert len(hulls) == 16
    rc, out, _ = run(capsys, "verify", "--suite", "fans")
    assert rc == 0 and out.endswith("\n45/45 checks passed\n")
    assert chambers_module._walk.cache_info().misses == 12
    # One cut per chamber of each shape: 2 + 3 + 5 + 9, and n + 1 for the
    # first stage of n = 3..10.
    assert len(cuts) == 79
    for key in sorted(SBL_JSON_SHA256):
        flags, digest = SBL_JSON_SHA256[key]
        rc, out, _ = run(capsys, "chambers", *flags.split(), "--sbl",
                         "--format", "json")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key
    assert chambers_module._walk.cache_info().misses == 12
    assert len(cuts) == 79


X3_SBL_FLAGS, X3_SBL_SHA256 = SBL_JSON_SHA256["collineations-3-eq"]


# sha256 of the text output of ``cone --cone mov`` and ``chambers --sbl``
# for collineations(3).
@pytest.mark.parametrize("argv, digest", [
    (("cone", "--family", "xn", "--n", "3", "--cone", "mov"),
     "beb82eeeff1a2491d7f53f657941cab53ae64d5e5c1c91ddb4ae545e7c751123"),
    (("chambers", *X3_SBL_FLAGS.split(), "--sbl"),
     "3194b74d95466c06fa7a931c5211d0420cb70d9701f95f2b8fb68955963c9874"),
])
def test_text_timings_add_only_a_time_line(capsys, argv, digest):
    rc, plain, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(plain.encode()).hexdigest() == digest
    rc, timed, _ = run(capsys, *argv, "--timings")
    assert rc == 0
    body, _, last = timed.rstrip("\n").rpartition("\n")
    assert body + "\n" == plain
    assert re.fullmatch(r"time: \d+\.\d{3}s", last)


@pytest.mark.parametrize("argv, digest", [
    (("cone", "--family", "xn", "--n", "3", "--cone", "mov"),
     hashlib.sha256((X3_MOV_JSON + "\n").encode()).hexdigest()),
    (("chambers", *X3_SBL_FLAGS.split(), "--sbl"), X3_SBL_SHA256),
])
def test_json_timings_add_only_the_duration(capsys, argv, digest):
    rc, plain, _ = run(capsys, *argv, "--format", "json")
    assert rc == 0
    assert hashlib.sha256(plain.encode()).hexdigest() == digest
    rc, timed, _ = run(capsys, *argv, "--format", "json", "--timings")
    assert rc == 0
    doc = json.loads(timed)
    duration = doc["meta"].pop("duration_ns")
    assert isinstance(duration, str) and re.fullmatch(r"\d+", duration)
    assert canonical_json(doc) + "\n" == plain


@pytest.mark.parametrize("cone", ["mori", "movcurves"])
def test_curve_cone_json_is_in_the_curve_basis(capsys, cone):
    rc, out, _ = run(capsys, "cone", "--family", "qn", "--n", "4",
                     "--cone", cone, "--format", "json")
    assert rc == 0
    assert json.loads(out)["basis"] == ["l", "e_1", "e_2", "e_3"]


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


def test_a_wrong_edge_exits_1_with_one_line(capsys):
    # The pivot pairs a simple negative ray with its first edge's other ray
    # for every facet it drops, so it makes one wrong edge twice.  The step
    # finds two rays with one zero set, and the command stops there.
    first = {}

    def visit(step, local):
        if local["prefix"] == local["everyone"] ^ 1 << local["j"]:
            first["k"] = local["k"]
        else:
            local["k"] = first["k"]

    spaces._last_movable.clear()
    ran = []
    _trace_insert(lambda: ran.append(run(capsys, "cone", "--family", "qn", "--n",
                                         "6", "--cone", "mov")),
                  {"pivot": "prefix &= h"}, visit)
    [(rc, out, err)] = ran
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "zero set" in err


def test_verify_ok(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "formulas")
    assert rc == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_sbl_count_fails_on_a_repeated_label(monkeypatch, capsys):
    # A stable-base-locus fan has one chamber per locus, so labelling the
    # merged chamber E_2 as E_3 leaves a merge missed.
    key = "collineations-3-eq"
    table = refdata._TABLES[key]
    (a, b, label), = table.merges
    assert label == "E_2"
    monkeypatch.setitem(refdata._TABLES, key,
                        table._replace(merges=((a, b, "E_3"),)))
    rc, out, _ = run(capsys, "verify", "--suite", "fans")
    assert rc == 1
    failed = [line.split()[1] for line in out.splitlines()
              if line.startswith("FAIL")]
    assert failed == [f"fans.{key}.sbl-count"]


def _raises(error):
    def planted(*args):
        raise error
    return planted


@pytest.mark.parametrize("name, planted, suite, failed, detail", [
    # A dual that always gives the ray (1, ..., 1) breaks the involution.
    pytest.param("dual", lambda c: cones.cone_from_rays(
        c.ambient_rank, [(1,) * c.ambient_rank]),
        "cones", [f"cones.fuzz-{verify.FUZZ_COUNT}"],
        "dual involution failed", id="dual"),
    pytest.param("gkz_fan", _raises(errors.InternalError("planted fault")),
                 "fans", [f"fans.{key}" for key in bundled_fan_keys()],
                 "planted fault", id="gkz_fan"),
    pytest.param("locate", _raises(errors.BoundaryPoint("planted wall")),
                 "fans", [f"fans.{key}.samples" for key in bundled_fan_keys()],
                 "failed to locate", id="locate"),
])
def test_verify_reports_a_failing_check(monkeypatch, capsys, name, planted,
                                        suite, failed, detail):
    monkeypatch.setattr(verify, name, planted)
    rc, out, _ = run(capsys, "verify", "--suite", suite)
    assert rc == 1
    lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split()[1] for line in lines] == sorted(failed)
    assert all(detail in line for line in lines), lines


def test_bench_range(capsys):
    rc, out, _ = run(capsys, "bench", "--family", "qn", "--n", "2..4")
    assert rc == 0
    lines = [l for l in out.splitlines() if "quadrics" in l]
    assert len(lines) == 3
    assert all("ok" in l for l in lines)
    # perfbench reads six fields per row: space, expected, rays, time,
    # threads (the work is serial, so always 1) and status.
    for line in lines:
        fields = line.split()
        assert len(fields) == 6
        assert fields[1] == fields[2]
        assert fields[4] == "1"
        assert fields[5] == "ok"


def test_bench_frees_each_movable_cone_before_the_next(monkeypatch, capsys):
    # One slot keeps the last movable cone and is emptied on a miss before
    # the next space's hulls run, so bench never holds two cones at once.
    held = []
    omit_one_hulls = spaces.omit_one_hulls
    monkeypatch.setattr(spaces, "omit_one_hulls",
                        lambda *args: held.append(len(spaces._last_movable))
                        or omit_one_hulls(*args))
    spaces._last_movable.clear()
    rc, _, _ = run(capsys, "bench", "--family", "qn", "--n", "2..8")
    assert rc == 0
    assert held == [0] * 7
    assert len(spaces._last_movable) == 1


def test_bench_refuses_a_range_before_any_work(monkeypatch, capsys):
    calls = []

    def recording_movable_cone(s, **kwargs):
        calls.append(s)
        raise AssertionError(f"bench computed {s.describe()}")

    monkeypatch.setattr(cli, "movable_cone", recording_movable_cone)
    # quadrics(17) is past the movable-cone rank bound of 16.
    rc, out, err = run(capsys, "bench", "--family", "qn", "--n", "15..17")
    assert rc == 3
    assert out == ""
    assert "16" in err
    # collineations(5, 4) is not a valid format.
    rc, out, _ = run(capsys, "bench", "--family", "xnm", "--n", "2..5",
                     "--m", "4")
    assert rc == 2
    assert out == ""
    # A range too long to list is refused from its two ends alone.
    rc, out, err = run(capsys, "bench", "--family", "qn", "--n", "2..100000000")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert calls == []


def test_bench_bad_ranges(capsys):
    rc, _, _ = run(capsys, "bench", "--family", "qn", "--n", "5..2")
    assert rc == 2
    rc, _, _ = run(capsys, "bench", "--family", "qn", "--n", "abc")
    assert rc == 2


@pytest.mark.parametrize("family, m", [("qn", "5"), ("xn", "9")])
def test_bench_rejects_m_for_square_families(capsys, family, m):
    rc, out, err = run(capsys, "bench", "--family", family, "--n", "3",
                       "--m", m)
    assert rc == 2
    assert out == ""
    assert err == f"error: --m does not apply to family {family}\n"


def test_info_plain(capsys):
    rc, out, _ = run(capsys, "info")
    assert rc == 0
    assert "formcones 0.1.0" in out
    assert "families:" in out


def test_movable_cone_size_guard_exit_code(capsys):
    # Rank 20 is past the bound of 16: each further rank doubles the
    # movable ray count, and no rank above 16 has been timed or had its
    # memory measured.
    rc, out, err = run(capsys, "cone", "--family", "qn", "--n", "20",
                       "--cone", "mov")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and "16" in err


def test_info_space(capsys):
    rc, out, _ = run(capsys, "info", "--family", "qn", "--n", "2")
    assert rc == 0
    assert "picard rank: 2" in out
    assert "cox ring generators: 14" in out
    assert "fano: True" in out
    rc, out, _ = run(capsys, "info", "--family", "xn", "--n", "1")
    assert rc == 0
    assert "picard rank: 1" in out
    assert "fano: True" in out


@pytest.mark.parametrize("command", ["cone --cone eff", "cone --cone nef",
                                     "cone --cone mori", "cone --cone movcurves",
                                     "info"])
def test_one_rank_past_the_cone_bound_is_refused_before_any_work(
        monkeypatch, capsys, command):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused space was computed")

    monkeypatch.setattr(cones, "_polar", refuse)
    monkeypatch.setattr(cli, "cox_generator_count", refuse)
    top = spaces._MAX_CONE_RANK
    assert top >= 16
    # The Picard rank of quadrics(n) is n.
    rc, out, err = run(capsys, *command.split(), "--family", "qn",
                       "--n", str(top + 1))
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(top) in err


def test_info_family_without_n(capsys):
    rc, _, _ = run(capsys, "info", "--family", "qn")
    assert rc == 2


@pytest.mark.parametrize("flag, value", [("--n", "3"), ("--m", "4"),
                                         ("--stage", "1")])
def test_info_space_flag_without_family(capsys, flag, value):
    rc, out, err = run(capsys, "info", flag, value)
    assert rc == 2
    assert out == ""
    assert err == f"error: {flag} requires --family\n"


def test_route_mismatch_is_an_internal_error(monkeypatch, capsys):
    # Two routes of dim_section_space that disagree can only mean a bug:
    # exit 1 with one message, and no partial output.
    monkeypatch.setattr(formulas, "section_space_routes", lambda n, k: (
        formulas.FormulaResult(1, "closed"), formulas.FormulaResult(2, "product")))
    rc, out, err = run(capsys, "info", "--family", "qn", "--n", "3")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dim_section_space" in err


@pytest.mark.parametrize("error, code", [
    (errors.InternalError, 1), (errors.RouteMismatch, 1),
    (errors.DegenerateSpace, 3), (errors.RankUnsupported, 3),
    (errors.NoReferenceData, 4), (ValueError, 2),
])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error, code):
    def fail(suite):
        raise error("planted")

    monkeypatch.setattr(cli, "run_suite", fail)
    rc, out, err = run(capsys, "verify", "--suite", "formulas")
    assert (rc, out, err) == (code, "", "error: planted\n")


def test_an_error_outside_the_exit_code_table_propagates(monkeypatch):
    def fail(suite):
        raise errors.DimensionMismatch("planted")

    monkeypatch.setattr(cli, "run_suite", fail)
    with pytest.raises(errors.DimensionMismatch):
        main(["verify", "--suite", "formulas"])


def test_run_suite_all_concatenates_the_suites_in_order():
    assert verify.SUITES == ("cones", "counts", "fans", "formulas")
    assert verify.run_suite("all") == [
        r for name in verify.SUITES for r in verify.run_suite(name)]
    with pytest.raises(ValueError):
        verify.run_suite("nowhere")


def test_threads_env_invalid(monkeypatch, capsys):
    # FORMCONES_THREADS is no longer read, so even an invalid value changes
    # nothing.
    args = ("cone", "--family", "xn", "--n", "3", "--cone", "mov",
            "--format", "json")
    monkeypatch.delenv("FORMCONES_THREADS", raising=False)
    rc1, out1, _ = run(capsys, *args)
    monkeypatch.setenv("FORMCONES_THREADS", "zero")
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1.encode() == out2.encode() == (X3_MOV_JSON + "\n").encode()


def test_threads_flag_must_be_positive(capsys):
    rc, _, _ = run(capsys, "cone", "--family", "xn", "--n", "3",
                   "--cone", "mov", "--threads", "0")
    assert rc == 2


def test_parse_n_range():
    assert parse_n_range("3") == range(3, 4)
    assert parse_n_range("2..5") == range(2, 6)
    with pytest.raises(ValueError):
        parse_n_range("5..2")
