import argparse
import csv
import hashlib
import io
import json
import os
import stat
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stcores import cli as cli_mod
from stcores import partition as partition_mod
from stcores import search as search_mod
from stcores import sequences as sequences_mod
from stcores.cli import main

GOLDEN = Path(__file__).parent / "data" / "distinct_core_counts_12x12.csv"
TABLE_GOLDENS = {
    f: Path(__file__).parent / "data" / f"{f}_core_counts_12x12.csv"
    for f in ("all", "odd", "self_conjugate")
}
VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_all.csv"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reload_json(out: str):
    payload = json.loads(out)
    redump = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    return payload, redump


PARTS = st.lists(
    st.one_of(st.integers(), st.integers(min_value=-(10**60), max_value=10**60)), max_size=4,
).map(tuple)
ENUMERATE_PAYLOADS = st.fixed_dictionaries(
    {
        "s": st.integers(), "t": st.integers(), "filter": st.text(), "count": st.text(),
        "max_size": st.integers(),
        "witnesses": st.lists(PARTS, min_size=1, max_size=4),
        "partitions": st.lists(PARTS, min_size=1, max_size=8),
    },
    optional={"partial": st.booleans(), "bound": st.integers()},
)
ENUMERATE_EXAMPLE = {
    "s": 5, "t": 7, "filter": "é ✓", "count": "16", "max_size": 21,
    "witnesses": [(9, 5, 4, 2, 1)], "partitions": [(), (1,), (9, 5, 4, 2, 1)],
}


@given(ENUMERATE_PAYLOADS)
@example(ENUMERATE_EXAMPLE)
@example({**ENUMERATE_EXAMPLE, "partial": True, "bound": 20})
@example({**ENUMERATE_EXAMPLE, "witnesses": [()], "partitions": [()]})
@example({**ENUMERATE_EXAMPLE, "partitions": [(0, -3), (10**30, 2), (), (2, 2)]})
def test_enumerate_json_matches_stdlib_encoder(payload):
    want = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)
    assert cli_mod._enumerate_json(payload) == want


def test_enumerate_json_skips_the_stdlib_indenting_encoder(capsys, monkeypatch):
    runs = [
        ("enumerate", "--s", "5", "--t", "7", "--format", "json"),
        ("enumerate", "--s", "2", "--t", "4", "--bound", "8", "--format", "json"),
    ]
    before = [run_cli(capsys, *argv) for argv in runs]

    def refuse(*args, **kwargs):
        raise RuntimeError("the stdlib's pure-Python indenting encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert [run_cli(capsys, *argv) for argv in runs] == before
    assert [code for code, _, _ in before] == [0, 0]
    with pytest.raises(RuntimeError, match="indenting encoder"):
        main(["table", "--max", "3", "--format", "json"])


class TestEnumerate:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--s", "3", "--t", "5", "--filter", "distinct")
        assert code == 0
        assert "count: 4" in out
        assert out.rstrip().endswith("(3,1)")

    def test_one_core(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--s", "1", "--t", "9")
        assert code == 0
        assert "count: 1" in out
        assert "  ()" in out

    def test_json_schema_and_idempotent_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--s", "5", "--t", "7", "--filter", "distinct",
            "--format", "json",
        )
        assert code == 0
        payload, redump = reload_json(out)
        assert redump == out
        assert payload["s"] == 5 and payload["t"] == 7
        assert payload["filter"] == "distinct"
        assert payload["count"] == "16"
        assert payload["max_size"] == 21
        assert payload["witnesses"] == [[9, 5, 4, 2, 1]]
        assert len(payload["partitions"]) == 16
        assert payload["partitions"][0] == []

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--s", "3", "--t", "5", "--filter", "distinct",
            "--format", "csv",
        )
        assert code == 0
        assert out == "size,parts\n0,\n1,1\n2,2\n4,3 1\n"

    def test_infinite_family_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--s", "2", "--t", "4", "--filter", "distinct")
        assert code == 2
        assert out == ""
        assert "infinite family" in err

    def test_bound_gives_partial_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--s", "2", "--t", "4", "--bound", "8",
        )
        assert code == 0
        assert "partial" in out
        assert "count: 4" in out

    def test_bound_json_is_labeled(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--s", "2", "--t", "4", "--bound", "6", "--format", "json",
        )
        assert code == 0
        payload, _ = reload_json(out)
        assert payload["partial"] is True
        assert payload["bound"] == 6

    def test_missing_flag_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--s", "3")
        assert code == 1
        assert "error" in err

    def test_bad_filter_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "enumerate", "--s", "3", "--t", "5", "--filter", "prime")
        assert code == 1

    def test_nonpositive_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "enumerate", "--s", "0", "--t", "5")
        assert code == 1

    @pytest.mark.parametrize(
        "s,t,part_filter,count",
        [
            ("20", "21", "all", "6564120420"),
            ("40", "41", "self_conjugate", "137846528820"),
            ("30", "31", "distinct", "1346269"),  # m_poly(30)(1) = F(31)
            ("40", "41", "distinct", "165580141"),  # m_poly(40)(1) = F(41)
            ("30", "59", "distinct", "536870912"),  # n_poly(30)(2), 59 = 2 * 30 - 1
            ("40", "81", "distinct", "733007751851"),  # m_poly(40)(2), 81 = 2 * 40 + 1
            ("41", "43", "distinct", "1099511627776"),  # conjecture2_count(41) = 2^40
        ],
    )
    def test_huge_family_refused_before_listing(self, capsys, monkeypatch, s, t, part_filter, count):
        def no_walk(*args, **kwargs):
            raise AssertionError("the walk started")

        monkeypatch.setattr(search_mod, "_ideals", no_walk)
        code, out, err = run_cli(capsys, "enumerate", "--s", s, "--t", t, "--filter", part_filter)
        assert code == 1
        assert out == ""
        assert count in err and "--force" in err

    def test_huge_bound_refused_before_listing(self, capsys, monkeypatch):
        def no_listing(*args, **kwargs):
            raise AssertionError("the bounded listing started")

        monkeypatch.setattr(cli_mod, "_listing", no_listing)
        code, out, err = run_cli(capsys, "enumerate", "--s", "2", "--t", "4", "--bound", "41")
        assert code == 1
        assert out == ""
        assert "--bound 41" in err and "--force" in err

    @pytest.mark.parametrize("extra", [("--bound", "41", "--force"), ("--bound", "40")])
    def test_bound_at_cap_or_forced_reaches_listing(self, capsys, monkeypatch, extra):
        calls = []

        def listing_of_size_zero(s, t, part_filter, bound):
            calls.append(bound)
            return search_mod._listing(s, t, part_filter, 0)

        monkeypatch.setattr(cli_mod, "_listing", listing_of_size_zero)
        code, _, _ = run_cli(capsys, "enumerate", "--s", "2", "--t", "4", *extra)
        assert code == 0
        assert calls == [int(extra[1])]

    def test_distinct_family_under_cap_reaches_listing(self, capsys, monkeypatch):
        # (26, 27) distinct holds F(27) = 196,418 partitions, below the cap
        calls = []

        def listing_of_size_zero(s, t, part_filter, bound):
            calls.append((s, t, part_filter, bound))
            return search_mod._listing(2, 4, "all", 0)

        monkeypatch.setattr(cli_mod, "_listing", listing_of_size_zero)
        code, _, _ = run_cli(capsys, "enumerate", "--s", "26", "--t", "27", "--filter", "distinct")
        assert code == 0
        assert calls == [(26, 27, "distinct", None)]

    def test_negative_bound_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--s", "3", "--t", "5", "--bound", "-1")
        assert (code, out) == (1, "")
        assert "--bound must be nonnegative" in err

    @pytest.mark.parametrize("part_filter", sorted(search_mod.FILTERS))
    @pytest.mark.parametrize("force", [(), ("--force",)])
    def test_huge_walk_refused_even_with_force(self, capsys, monkeypatch, part_filter, force):
        def no_listing(*args, **kwargs):
            raise AssertionError("the listing started")

        # Unpatched, a pair this large would try to allocate its gap poset.
        monkeypatch.setattr(cli_mod, "_listing", no_listing)
        code, out, err = run_cli(
            capsys, "enumerate", "--s", "99999999999", "--t", "100000000000",
            "--filter", part_filter, *force,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "limit of 1000000" in err
        assert "Traceback" not in err

    def test_huge_non_coprime_pair_still_infinite(self, capsys, monkeypatch):
        # The listing's own first check, without the walk behind it.
        monkeypatch.setattr(
            cli_mod, "_listing", lambda s, t, part_filter, bound: search_mod._require_coprime(s, t)
        )
        code, out, err = run_cli(
            capsys, "enumerate", "--s", "100000000000", "--t", "100000000002", "--filter", "odd",
        )
        assert code == 2
        assert out == ""
        assert "infinite family" in err

    def test_force_accepted_on_small_case(self, capsys):
        argv = ("enumerate", "--s", "3", "--t", "5", "--filter", "self_conjugate")
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        code, forced, _ = run_cli(capsys, *argv, "--force")
        assert code == 0
        assert forced == plain

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "enumerate", "--s", "3", "--t", "4", "--format", "json",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["count"] == "5"


# sha256 of the stdout of `enumerate` with these flags: every filter of the
# (11, 12) family in every format, two --bound listings, one with a
# non-coprime pair, and the distinct (10, 11) family with its two tied
# witnesses.  The listing's order and bytes are fixed; a faster sort or
# renderer must leave them unchanged.
LISTING_SHA256 = {
    "--s 11 --t 12 --filter all --format text":
        "f15cfa490ea0f74299d6c222b0da6cba12c4f86bfd0264c5660aa4de5e04dbf6",
    "--s 11 --t 12 --filter all --format json":
        "c9f5d1e5f9bfdae380b7f48daabe6834adb1125a2db5151d78e52a727ae466bb",
    "--s 11 --t 12 --filter all --format csv":
        "5650adaf7a159fe2cb0ff2fd3c28745a0ea7ecde34cfe197cc8833584bbf3e06",
    "--s 11 --t 12 --filter distinct --format text":
        "45e0b368232428d9db373edc3041cfc9ea6984268adf1b193d1fcb4e0bd4e05c",
    "--s 11 --t 12 --filter distinct --format json":
        "59c5d0b7f20ca9816636efca4525bbaa3db927574c98bae5b371d69825fd4afe",
    "--s 11 --t 12 --filter distinct --format csv":
        "3d135ef892c45990ee3fe8430e0c4760639d2ca750fb389dbfd84836bdb77945",
    "--s 11 --t 12 --filter odd --format text":
        "a2c9648e607456caf9c77e44ac28faef73ef95f878fc1d0baaf3b0e8c2c90fa1",
    "--s 11 --t 12 --filter odd --format json":
        "ba25c8b02c62e68c6b3c58e02b00222aafdfff49d1529ff004dd755073a0c7e1",
    "--s 11 --t 12 --filter odd --format csv":
        "09a0d2431eaff3000e51594232ab0043d74d585752cb9e139d8643a4a30d0749",
    "--s 11 --t 12 --filter self_conjugate --format text":
        "b3448c45f536e8c8744b0a40e78fd980afd8d46a57e532aedf6335764a8129fa",
    "--s 11 --t 12 --filter self_conjugate --format json":
        "0b2639e30e22f5002d02649b85c6706f523bc39c56683dd4a2204991afc2e3cc",
    "--s 11 --t 12 --filter self_conjugate --format csv":
        "264d9ec934aa3a91e848a57a816cd256574fb0048a805034d3f4d89983bbb920",
    "--s 2 --t 4 --bound 20 --format text":
        "73d0c0e54830f606b6670900d7b3b7e65853e6804555b045157f81b3a262ee4a",
    "--s 2 --t 4 --bound 20 --format json":
        "ee35969b42d918c397820e5df108fe4804a5c15b2707f5c735e33caad5e7a973",
    "--s 2 --t 4 --bound 20 --format csv":
        "2fbbbffc4f36aaf543f19675123c32aef4885fa0acfbaca2c0b6b582950e3748",
    "--s 3 --t 5 --bound 20 --format text":
        "dcf36cfb4352643f8a83d9f1053a16a4c16e5bedc03d29a1e55b23fcab46061b",
    "--s 3 --t 5 --bound 20 --format json":
        "67cd661ab116e1827e26b494e4b636a3bf6b5d7d9b625937e7fb2aac8683cbe3",
    "--s 3 --t 5 --bound 20 --format csv":
        "6e8477ffb3c16d71b80a049ad727c44bc89c12f385b9143aa29083bbfb7507f2",
    "--s 10 --t 11 --filter distinct --format text":
        "c77f990484b0c79f2659bfc060cd1b6d307d9053f2040ad891a14263fe1c505c",
    "--s 10 --t 11 --filter distinct --format json":
        "871279b19e9ce4367926b0d334da101785340286775f1314179d882f023c233f",
    "--s 10 --t 11 --filter distinct --format csv":
        "3f8a6b6b64d7dd218c8b8082892bdacd629ba51ab6e938fbb2628974930e137a",
    # a non-+-1 pair, where the twin drop meets inherited candidates
    "--s 13 --t 15 --filter distinct --format text":
        "e1c88eb5deaa4ad5ef626757bba8058e61d309cbcdf8baf2cbab2567cea74444",
    "--s 13 --t 15 --filter distinct --format csv":
        "8aaf2b1d09db59cb41155b6a0c8a43241ae664907ccab8c2963ef867df92f195",
    # the leaf path, on arm sets
    "--s 7 --t 12 --filter self_conjugate --format text":
        "f488b673ac68ce220c58aa8d356bca384a2885d40b63e86afc2305d3b2546efa",
    "--s 7 --t 12 --filter self_conjugate --format csv":
        "b153926a7bc547a6c7fcc961262963e6274e50c2f8ac97a13147f1ba35d75098",
    # odd, which tests each popped candidate
    "--s 5 --t 13 --filter odd --format text":
        "9a813c958f0d42c033cbf4b821e7e1076c7024d8385a8ee34f3e9c996f9eba0f",
    "--s 5 --t 13 --filter odd --format csv":
        "5931f18a93027f0d53845b4f1697c7aca409886a7f175d0defdbc24eef2a6a7f",
    # one- and two-item listings; (1, 1) lists the empty partition alone
    "--s 1 --t 1 --format text":
        "ff67c754fb6bca153ae7d6e1697d3a60d7897cdb047774b34030d26973c8225b",
    "--s 1 --t 1 --format json":
        "bbe577817fd5ecf2043f5c02c2a412f28a0b2556f19dbc79a3f1e04b6bc68882",
    "--s 2 --t 3 --format text":
        "c75a37cd4029301f0024931d5350025bbc4437edf8e4e3fddf9d00e3e53b9be9",
}


@pytest.mark.parametrize("flags", list(LISTING_SHA256))
def test_listing_bytes_are_pinned(capsys, flags):
    code, out, _ = run_cli(capsys, "enumerate", *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LISTING_SHA256[flags]


@pytest.mark.parametrize("flags", [
    flags for flags in LISTING_SHA256
    if flags.startswith(("--s 11 --t 12 --filter all ", "--s 11 --t 12 --filter self_conjugate ",
                         "--s 3 --t 5 --bound 20 "))
])
def test_listing_wraps_no_core_as_a_partition(capsys, monkeypatch, flags):
    # the listing stays parts tuples from the sort to the renderers: no
    # unchecked wrap, as every one makes its objects by partition._new, and
    # no shape sort, which also wraps
    def refused(*args):
        raise AssertionError("enumerate wrapped a listed core as a Partition")

    monkeypatch.setattr(partition_mod, "_new", refused)
    monkeypatch.setattr(search_mod, "_sorted_shapes", refused)
    code, out, _ = run_cli(capsys, "enumerate", *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LISTING_SHA256[flags]


class TestTable:
    def test_csv_matches_golden_byte_for_byte(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--max", "12", "--filter", "distinct", "--format", "csv",
        )
        assert code == 0
        assert out == GOLDEN.read_text()

    @pytest.mark.parametrize("part_filter", sorted(TABLE_GOLDENS))
    def test_other_filters_match_golden_byte_for_byte(self, capsys, part_filter):
        # mirrored cells (s, t) and (t, s) come from one fold; the bytes stay these
        code, out, _ = run_cli(
            capsys, "table", "--max", "12", "--filter", part_filter, "--format", "csv",
        )
        assert code == 0
        assert out == TABLE_GOLDENS[part_filter].read_text()

    def test_pretty_marks_infinity(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max", "4", "--filter", "distinct")
        assert code == 0
        assert "∞" in out
        assert out.startswith("s\\t")

    def test_inf_marker_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--max", "4", "--filter", "distinct", "--inf-marker", "INF",
        )
        assert code == 0
        assert "INF" in out and "∞" not in out
        code, out, _ = run_cli(
            capsys, "table", "--max", "4", "--filter", "distinct",
            "--format", "csv", "--inf-marker", "-",
        )
        assert code == 0
        assert ",-," in out and "inf" not in out
        assert [len(row) for row in csv.reader(io.StringIO(out))] == [5] * 5

    @pytest.mark.parametrize("marker", [",", "a\nb", "\r", '"', 'in"f'])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_inf_marker_that_breaks_the_grid_exit_1(self, capsys, marker, fmt):
        code, out, err = run_cli(
            capsys, "table", "--max", "3", "--format", fmt, "--inf-marker", marker,
        )
        assert code == 1
        assert out == ""
        assert "--inf-marker" in err

    def test_first_row_all_ones(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max", "6", "--filter", "distinct", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1,1,1,1,1,1,1"

    def test_cap_requires_force(self, capsys):
        code, _, err = run_cli(capsys, "table", "--max", "13", "--filter", "distinct")
        assert code == 1
        assert "--force" in err
        code, out, _ = run_cli(
            capsys, "table", "--max", "13", "--filter", "distinct", "--force", "--format", "csv",
        )
        assert code == 0
        assert len(out.splitlines()) == 14

    @pytest.mark.parametrize(
        "extra", [("--max-s", "5"), ("--max-t", "7"), ("--max-s", "5", "--max-t", "7")],
    )
    def test_max_with_max_s_or_max_t_exit_1(self, capsys, extra):
        code, out, err = run_cli(capsys, "table", "--max", "2", *extra)
        assert code == 1
        assert out == ""
        assert "--max-s" in err and "--max-t" in err

    @pytest.mark.parametrize("flag", ["--max", "--max-s"])
    def test_zero_dimension_exit_1(self, capsys, flag):
        code, out, err = run_cli(capsys, "table", flag, "0")
        assert (code, out) == (1, "")
        assert "table dimensions must be positive" in err

    def test_max_s_alone_keeps_the_default_columns(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-s", "2", "--format", "csv")
        assert code == 0
        assert [len(row.split(",")) for row in out.splitlines()] == [13, 13, 13]

    def test_json_cells(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--max", "5", "--filter", "distinct", "--format", "json",
        )
        assert code == 0
        payload, redump = reload_json(out)
        assert redump == out
        assert payload["cells"][0] == ["1", "1", "1", "1", "1"]
        assert payload["cells"][1][1] == "inf"
        assert payload["cells"][4][2] == "4"  # (5, 3)


@pytest.fixture
def fold_calls(monkeypatch):
    """The families search.summarize_core folds, in call order: every fold of table and verify."""
    calls = []
    original = search_mod.summarize_core

    def counted(s, t, part_filter="all"):
        calls.append((s, t, part_filter))
        return original(s, t, part_filter)

    monkeypatch.setattr(search_mod, "summarize_core", counted)
    return calls


class TestOneFoldPerFamily:
    """One verify or table request folds each unordered (s, t, filter) family once."""

    @staticmethod
    def _unordered(calls) -> set:
        return {(min(s, t), max(s, t), f) for s, t, f in calls}

    def test_verify_all_folds_110_families_once_each(self, capsys, fold_calls):
        code, out, _ = run_cli(capsys, "verify", "all", "--format", "csv")
        assert code == 0
        assert out.encode() == VERIFY_GOLDEN.read_bytes()
        assert len(fold_calls) == 110  # 145 folds when each claim folds its own
        assert len(self._unordered(fold_calls)) == 110

    def test_table_folds_46_families_once_each(self, capsys, fold_calls):
        code, out, _ = run_cli(
            capsys, "table", "--max", "12", "--filter", "distinct", "--format", "csv",
        )
        assert code == 0
        assert out == GOLDEN.read_text()
        assert len(fold_calls) == 46  # 91 folds when (s, t) and (t, s) are folded apart
        assert len(self._unordered(fold_calls)) == 46

    def test_nothing_outlives_a_request(self, capsys, fold_calls):
        for argv, folds in [
            (("verify", "all"), 110),
            (("table", "--max", "12", "--filter", "distinct"), 46),
        ]:
            fold_calls.clear()
            for _ in range(2):
                assert run_cli(capsys, *argv, "--format", "csv")[0] == 0
            assert len(fold_calls) == 2 * folds, argv
            assert fold_calls[:folds] == fold_calls[folds:], argv


class TestVerify:
    def test_all_csv_matches_golden_byte_for_byte(self, capsys):
        # every claim at its default range; perfbench pins the same bytes by sha256
        code, out, _ = run_cli(capsys, "verify", "all", "--format", "csv")
        assert code == 0
        assert out.encode() == VERIFY_GOLDEN.read_bytes()

    def test_conjecture2_counts(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "conjecture2", "--max-s", "13")
        assert code == 0
        for value in ("4", "16", "64", "256", "1024", "4096"):
            assert f"got {value}" in out
        assert "result: PASS" in out

    def test_maxsize_s_s2(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "maxsize-s-s2", "--max-s", "13")
        assert code == 0
        for value in ("4", "21", "65", "155", "315", "574"):
            assert f"expected {value}," in out

    def test_fib_distinct_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "fib-distinct", "--max-s", "10")
        assert code == 0
        assert "range: s = 1..10" in out
        assert "result: PASS (10 cases" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "anderson", "--max-sum", "9", "--format", "json",
        )
        assert code == 0
        payload, redump = reload_json(out)
        assert redump == out
        assert set(payload) == {"claim", "range", "cases", "pass", "seconds"}
        assert payload["pass"] is True
        assert all(set(c) == {"params", "expected", "got", "ok"} for c in payload["cases"])

    def test_unknown_claim_exit_1_lists_claims(self, capsys):
        code, _, err = run_cli(capsys, "verify", "fermat")
        assert code == 1
        assert "conjecture2" in err and "fib-distinct" in err

    def test_wrong_range_flag_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "conjecture2", "--max-m", "5")
        assert code == 1
        assert "--max-m" in err

    def test_all_claims_small_ranges(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--max-s", "6", "--max-m", "6",
            "--max-d", "2", "--max-sum", "8",
        )
        assert code == 0
        assert "claim: all" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("fib-distinct", "--max-s", "0"),
            ("conjecture2", "--max-s", "2"),
            ("anderson", "--max-sum", "2"),
        ],
    )
    def test_empty_range_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert out == "" and "no cases" in err

    def test_failing_claim_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(sequences_mod, "conjecture2_count", lambda s: 2 ** (s - 1) + 1)
        code, out, _ = run_cli(capsys, "verify", "conjecture2", "--max-s", "7")
        assert code == 3
        assert "FAIL" in out
        assert "mismatch" in out

    def test_raising_closed_form_exits_3(self, capsys, monkeypatch):
        def broken(s, t):
            raise ArithmeticError("corrupted closed form")

        monkeypatch.setattr(sequences_mod, "anderson_count", broken)
        code, out, err = run_cli(capsys, "verify", "anderson", "--max-sum", "8")
        assert code == 3
        assert "got ArithmeticError" in out and "FAIL" in out
        assert err == ""

    def test_out_of_memory_is_an_error_not_a_fail(self, capsys, monkeypatch):
        def exhausted(m):
            raise MemoryError

        monkeypatch.setattr(search_mod, "_distinct_shapes", exhausted)
        code, out, err = run_cli(capsys, "verify", "distinct-odd", "--max-m", "3")
        assert code == 1
        assert "FAIL" not in out
        assert err.startswith("error: out of memory")

    def test_gap_limit_is_an_error_not_a_fail(self, capsys, monkeypatch):
        # (6, 7) has 15 gaps: the limit refuses the family, it does not refute the claim
        monkeypatch.setattr(search_mod, "GAP_LIMIT", 10)
        code, out, err = run_cli(capsys, "verify", "fib-distinct", "--max-s", "8")
        assert code == 1
        assert out == ""
        assert "limit of 10" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "fib-distinct", "--max-s", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "claim,params,expected,got,ok"
        assert lines[1] == "fib-distinct,s=1,1,1,True"


class TestBijection:
    def test_from_mu(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--mu", "1,2,1")
        assert code == 0
        assert "lambda_d  = (3,1)" in out
        assert "lambda_o  = (3,3)" in out
        assert "perimeter = 4" in out

    def test_from_distinct(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--distinct", "4,3")
        assert code == 0
        assert "mu        = (2,1,1,1)" in out
        assert "lambda_o  = (3,1,1)" in out

    def test_from_odd_braced_input(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--odd", "{3,3}")
        assert code == 0
        assert "lambda_d  = (3,1)" in out

    def test_empty_input(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--mu", "()")
        assert code == 0
        assert "perimeter = 0" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--mu", "2,2,1", "--format", "json")
        assert code == 0
        payload, redump = reload_json(out)
        assert redump == out
        assert payload["lambda_d"] == [3, 2, 1]
        assert payload["lambda_o"] == [5]
        assert payload["perimeter"] == 5

    def test_invalid_composition_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "bijection", "--mu", "1,2")
        assert code == 1
        assert "last part" in err

    def test_wrong_shape_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "bijection", "--distinct", "3,3")
        assert code == 1
        assert "distinct" in err
        code, _, err = run_cli(capsys, "bijection", "--odd", "2,1")
        assert code == 1
        assert "odd" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, _ = run_cli(capsys, "bijection")
        assert code == 1
        code, _, _ = run_cli(capsys, "bijection", "--mu", "1", "--odd", "1")
        assert code == 1


class TestRender:
    def test_hooks(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--partition", "2,1", "--hooks")
        assert code == 0
        assert out == "3 1\n1\n"
        code, out, _ = run_cli(capsys, "render", "--partition", "3,2,1", "--hooks")
        assert code == 0
        assert out == "5 3 1\n3 1\n1\n"

    def test_boxes(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--partition", "3,1")
        assert code == 0
        assert out == "###\n#\n"

    def test_empty(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--partition", "()")
        assert code == 0
        assert out == "(empty)\n"

    def test_malformed_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "render", "--partition", "1,2")
        assert code == 1
        code, _, _ = run_cli(capsys, "render", "--partition", "a,b")
        assert code == 1

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "render", "--partition", "3,2,1", "--hooks", "--format", "json",
        )
        assert code == 0
        payload, redump = reload_json(out)
        assert redump == out
        assert payload["rows"] == ["5 3 1", "3 1", "1"]
        assert payload["perimeter"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        ("render", "--partition", "99999999999999999999"),
        ("render", "--partition", "100000000000", "--hooks"),
        ("bijection", "--distinct", "1000000000000"),
        ("bijection", "--distinct", "1000001"),  # one past the cap, which is mapped
    ],
    ids=["render", "render-hooks", "bijection", "bijection-cap"],
)
def test_huge_shape_refused_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "limit of 1000000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("render", "--partition", "3 2 1"),
        ("bijection", "--distinct", "4 3"),
        ("render", "--partition", "1 0, 2"),
    ],
    ids=["render", "bijection", "split-number"],
)
def test_blank_inside_a_number_exit_1(capsys, argv):
    # a blank splits a number instead of being dropped: "3 2 1" is not 321
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "cannot parse" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("render", "--partition", "1_0"),
        ("render", "--partition", "\u0663"),
        ("render", "--partition", "\uff13"),
        ("bijection", "--distinct", "4,\u0663"),
    ],
    ids=["underscore", "arabic-indic-digit", "fullwidth-digit", "bijection"],
)
def test_number_outside_ascii_digits_exit_1(capsys, argv):
    # int() reads "1_0" as 10 and "\u0663" as 3; a number is a sign and 0-9 only
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "cannot parse" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--s", "\u0663", "--t", "4"),
        ("enumerate", "--s", "3", "--t", "1_0", "--filter", "distinct"),
        ("enumerate", "--s", "2", "--t", "4", "--bound", "\uff15"),
        ("table", "--max", "\uff13"),
        ("table", "--max-s", "1_2"),
        ("table", "--max-t", "\u0663"),
        ("verify", "fib-distinct", "--max-s", "1_0"),
        ("verify", "anderson", "--max-sum", "\u0663"),
    ],
    ids=["s", "t", "bound", "max", "max-s", "max-t", "verify-max-s", "verify-max-sum"],
)
def test_integer_flag_outside_ascii_digits_exit_1(capsys, argv):
    # every integer flag reads the grammar of --partition, not all of int()'s
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "invalid integer value" in err


def test_integer_flag_with_blanks_around_it_parses(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--s", " 3 ", "--t", "+4 ")
    assert code == 0
    assert out.startswith("(3,4)-core partitions, filter all\ncount: 5\n")


@pytest.mark.parametrize(
    "text,rows",
    [(" ( 3 , 2 ) ", "###\n##\n"), ("[3, 1]", "###\n#\n"), ("9, 5, 4", "#########\n#####\n####\n")],
    ids=["padded", "bracketed", "spaced"],
)
def test_blanks_around_numbers_parse(capsys, text, rows):
    assert run_cli(capsys, "render", "--partition", text) == (0, rows, "")


class TestFormatTable:
    @pytest.mark.parametrize(
        "argv",
        [("bijection", "--mu", "1,2,1"), ("render", "--partition", "3,1")],
        ids=["bijection", "render"],
    )
    def test_csv_unsupported_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 1
        assert out == ""
        assert f"csv format is not supported for {argv[0]}" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("bijection", "--mu", "1,2"), "last part"),
            (("render", "--partition", "1,2"), "weakly decreasing"),
        ],
        ids=["bijection", "render"],
    )
    def test_input_error_wins_over_csv(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 1
        assert out == ""
        assert message in err and "csv" not in err


class TestOut:
    def test_missing_directory_exit_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "result.txt"
        code, out, err = run_cli(capsys, "render", "--partition", "2,1", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write") and "Traceback" not in err
        assert not target.parent.exists()

    def test_directory_target_exit_1(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        code, out, err = run_cli(capsys, "render", "--partition", "2,1", "--out", str(target))
        assert code == 1
        assert out == ""
        assert "cannot write" in err
        assert list(tmp_path.iterdir()) == [target]  # no temp file left behind

    def test_failed_request_leaves_existing_file_intact(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        target.write_bytes(b"previous output\n")
        code, out, _ = run_cli(capsys, "enumerate", "--s", "2", "--t", "4", "--out", str(target))
        assert code == 2
        assert out == ""
        assert target.read_bytes() == b"previous output\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_writes_file_without_leftovers(self, capsys, tmp_path, existing):
        target = tmp_path / "result.txt"
        if existing:
            target.write_text("previous output\n")
        code, out, _ = run_cli(capsys, "render", "--partition", "3,1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "###\n#\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_rename_leaves_existing_file_intact(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "result.txt"
        target.write_bytes(b"previous output\n")

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        code, out, err = run_cli(capsys, "render", "--partition", "3,1", "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write") and "No space left" in err
        assert target.read_bytes() == b"previous output\n"
        assert list(tmp_path.iterdir()) == [target]  # the temp file was removed

    def test_target_removed_while_checked_is_written_as_new(self, capsys, monkeypatch, tmp_path):
        # the target is seen, then removed before it is stat'ed: a new file, not an error
        target = tmp_path / "result.txt"
        exists = os.path.exists
        monkeypatch.setattr(os.path, "exists", lambda path: path == str(target) or exists(path))
        code, out, err = run_cli(capsys, "render", "--partition", "3,1", "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_text() == "###\n#\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_keeps_mode_of_existing_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        target.write_text("previous output\n")
        target.chmod(0o640)
        assert run_cli(capsys, "render", "--partition", "3,1", "--out", str(target))[0] == 0
        assert target.read_text() == "###\n#\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_symlink_target_is_followed(self, capsys, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("previous output\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        assert run_cli(capsys, "render", "--partition", "3,1", "--out", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == "###\n#\n"
        assert sorted(tmp_path.iterdir()) == [link, real]

    def test_hard_linked_file_is_written_in_place(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        target.write_text("previous output\n")
        twin = tmp_path / "twin.txt"
        os.link(target, twin)
        assert run_cli(capsys, "render", "--partition", "3,1", "--out", str(target))[0] == 0
        assert target.read_text() == twin.read_text() == "###\n#\n"

    def test_device_target_is_written_in_place(self, capsys):
        before = os.stat(os.devnull)
        code, out, err = run_cli(capsys, "render", "--partition", "3,1", "--out", os.devnull)
        assert (code, out, err) == (0, "", "")
        after = os.stat(os.devnull)
        assert stat.S_ISCHR(after.st_mode)
        assert (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)

    def test_leftover_temp_file_is_not_removed(self, capsys, tmp_path):
        # a killed run's temp file, left under a pid that this process now has
        target = tmp_path / "result.txt"
        leftover = tmp_path / f".result.txt.{os.getpid()}.tmp"
        leftover.write_text("not ours\n")
        code, out, err = run_cli(capsys, "render", "--partition", "3,1", "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_text() == "###\n#\n"
        assert leftover.read_text() == "not ours\n"
        assert sorted(tmp_path.iterdir()) == [leftover, target]

    def test_colliding_temp_file_is_not_removed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
        target = tmp_path / "result.txt"
        leftover = tmp_path / f".result.txt.{bytes(8).hex()}.tmp"
        leftover.write_text("not ours\n")
        code, out, err = run_cli(capsys, "render", "--partition", "3,1", "--out", str(target))
        assert code == 1 and out == "" and "cannot write" in err
        assert leftover.read_text() == "not ours\n"
        assert not target.exists()

    def test_empty_out_is_refused_before_any_work(self, capsys, monkeypatch):
        # as from --out "$OUT" with OUT unset: not a request for stdout
        def no_listing(*args):
            raise AssertionError("listed before refusing --out")

        monkeypatch.setattr(cli_mod, "_listing", no_listing)
        code, out, err = run_cli(capsys, "enumerate", "--s", "3", "--t", "5", "--out", "")
        assert (code, out) == (1, "")
        assert err.startswith("error: --out ") and "Traceback" not in err


class TestGlobalBehavior:
    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_no_command_exit_1(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_command_exit_1(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_usage_error_reports_argparse_message(self, capsys):
        # argparse exits 2 on a usage error; main alone maps that to 1
        code, out, err = run_cli(capsys, "enumerate", "--s", "3")
        assert (code, out) == (1, "")
        assert err.startswith("usage: stcores enumerate ")
        assert err.endswith(
            "stcores enumerate: error: the following arguments are required: --t\n"
        )

    def test_no_request_changes_the_shared_parser(self, capsys):
        # main parses every request with one cached parser, so no request may write to it
        build = cli_mod._build_parser
        assert build() is build()

        def parsers(top):
            (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
            return [top, *sub.choices.values()]

        def frozen(value):
            if isinstance(value, (list, tuple)):
                return tuple(map(frozen, value))
            if isinstance(value, dict):
                return tuple((k, frozen(v)) for k, v in value.items())
            return value  # anything else compares by identity, or is immutable

        def snapshot(top):
            return [
                (p.format_help(), frozen(p._defaults), [frozen(vars(a)) for a in p._actions])
                for p in parsers(top)
            ]

        batch = [
            ("enumerate", "--s", "4", "--t", "5", "--filter", "self_conjugate"),
            ("table", "--max", "3", "--format", "csv"),
            ("verify", "fib-distinct", "--max-s", "4"),
            ("bijection", "--mu", "1,2,1"),
            ("render", "--partition", "3,1", "--hooks"),
            ("--help",),
            ("verify", "--help"),
            ("frobnicate",),
            ("enumerate", "--s", "x", "--t", "2"),
        ]
        before = snapshot(build())
        rounds = [[run_cli(capsys, *argv) for argv in batch] for _ in range(2)]
        assert snapshot(build()) == before
        assert rounds[0] == rounds[1]
        assert [code for code, _, _ in rounds[0]] == [0, 0, 0, 0, 0, 0, 0, 1, 1]
        fresh = build.__wrapped__()
        assert fresh is not build()
        assert [p.format_help() for p in parsers(fresh)] == [h for h, _, _ in before]
