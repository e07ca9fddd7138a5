from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcorr import catalog, cli, groupoids, measures
from gcorr.io_json import ParseError, canonical_json, parse_instance, serialize_instance
from gcorr.randgen import random_pair
from gcorr.util import format_scalar, parse_scalar
from tests.conftest import PAIRS_45, ladder_pair, pair_45


@pytest.fixture
def fn_files(tmp_path):
    assert cli.main(["example", "fn-compose", str(tmp_path / "fn")]) == 0
    return tmp_path / "fn.x.json", tmp_path / "fn.y.json"


class TestRoundTrip:
    def test_serialize_parse_idempotent(self):
        corr_x, corr_y, _ = catalog.example_pair("group-hom")
        text = serialize_instance([("x", corr_x), ("y", corr_y)])
        data = parse_instance(text)
        text2 = serialize_instance(data.correspondences)
        assert text == text2

    def test_one_transformation_groupoid_per_parsed_correspondence(self, monkeypatch):
        from gcorr import correspondence, groupoids, io_json

        corr_x, corr_y, _ = catalog.example_pair("induction-finite")
        text = serialize_instance([("x", corr_x), ("y", corr_y)])
        original = groupoids.transformation_groupoid
        built = []

        def counting(act):
            built.append(act)
            return original(act)

        for module in (groupoids, correspondence, io_json):
            monkeypatch.setattr(module, "transformation_groupoid", counting)
        parsed = [corr for _, corr in parse_instance(text).correspondences]
        assert len(built) == 2
        for corr, again in zip((corr_x, corr_y), parsed):
            assert again.left_tg.arrow_ids == corr.left_tg.arrow_ids
            assert again.left_tg_index == corr.left_tg_index
            assert again.adjoining.value == corr.adjoining.value

    def test_shared_middle_groupoid_dedupes(self):
        corr_x, corr_y, _ = catalog.example_pair("group-hom")
        doc = json.loads(serialize_instance([("x", corr_x), ("y", corr_y)]))
        assert len(doc["groupoids"]) == 2  # Z/4 and one shared Z/2

    def test_rational_weights_stay_exact(self):
        corr_x, corr_y, _ = catalog.example_pair("quiver")
        data = parse_instance(serialize_instance([("x", corr_x)]))
        corr2 = data.correspondences[0][1]
        assert corr2.family.weight == corr_x.family.weight
        assert all(isinstance(w, F) for w in corr2.family.weight)

    def test_float_weights_flagged_inexact(self):
        corr_x, corr_y = random_pair(1, max_x=8, max_y=8, max_mid=6, check=False)
        from gcorr.composition import compose

        res = compose(corr_x, corr_y)
        text = serialize_instance([("composite", res.composite)])
        data = parse_instance(text)
        corr2 = data.correspondences[0][1]
        assert corr2.exact == res.composite.exact

    def test_random_instances_round_trip(self):
        for seed in (2, 9):
            corr_x, corr_y = random_pair(seed, max_x=10, max_y=10, max_mid=8, check=False)
            text = serialize_instance([("x", corr_x), ("y", corr_y)])
            data = parse_instance(text)
            assert serialize_instance(data.correspondences) == text
            px = data.correspondences[0][1]
            assert px.family.weight == corr_x.family.weight
            assert px.adjoining.value == corr_x.adjoining.value
            assert px.left == corr_x.left and px.right == corr_x.right

    def test_float_composite_file_validates(self, tmp_path):
        cli.main(["example", "induction-finite", str(tmp_path / "ind")])
        out = tmp_path / "comp.json"
        assert cli.main([
            "compose", str(tmp_path / "ind.x.json"), str(tmp_path / "ind.y.json"), str(out)
        ]) == 0
        assert cli.main(["validate", str(out)]) == 0

    def test_parse_error_carries_path(self):
        with pytest.raises(ParseError, match="groupoids"):
            parse_instance('{"format": "gcorr", "version": 1}')
        with pytest.raises(ParseError, match="version"):
            parse_instance('{"format": "gcorr", "version": 99, "groupoids": {}}')
        with pytest.raises(ParseError, match=":1:"):
            parse_instance("{oops")


class TestCliValidate:
    def test_catalog_file_exits_zero(self, fn_files, capsys):
        x, _ = fn_files
        assert cli.main(["validate", str(x)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_weight_rejected(self, fn_files, tmp_path, capsys):
        x, _ = fn_files
        doc = json.loads(x.read_text())
        key = next(iter(doc["correspondences"][0]["family"]))
        doc["correspondences"][0]["family"][key] = "0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["validate", str(bad)]) == 1
        assert "positive" in capsys.readouterr().err

    def test_tampered_action_fails_with_witness(self, fn_files, tmp_path, capsys):
        _, y = fn_files
        doc = json.loads(y.read_text())
        space = doc["correspondences"][0]["space"]
        space["right_action"][0][2] = space["points"][1]
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["validate", str(bad)]) == 1

    @staticmethod
    def _group_hom_y_family(tmp_path, family):
        cli.main(["example", "group-hom", str(tmp_path / "gh")])
        y = tmp_path / "gh.y.json"
        doc = json.loads(y.read_text())
        doc["correspondences"][0]["family"] = family
        y.write_text(json.dumps(doc))
        return y

    def test_large_float_family_wobble_in_last_digits_passes(self, tmp_path, capsys):
        y = self._group_hom_y_family(tmp_path, {"g0": 1e6, "g1": 1e6 * (1 + 3e-13)})
        assert cli.main(["validate", str(y)]) == 0

    def test_relative_family_wobble_fails_right_invariance(self, tmp_path, capsys):
        y = self._group_hom_y_family(tmp_path, {"g0": 1e6, "g1": 1e6 * (1 + 1e-6)})
        capsys.readouterr()
        assert cli.main(["validate", str(y), "--json"]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        line = next(c for name, c in checks.items() if name.endswith("family_right_invariance"))
        assert not line["passed"] and line["witness"]
        assert line["residual"] == pytest.approx(1e-6, rel=1e-5)

    def test_exact_family_deviation_below_the_float_range_fails(self, tmp_path, capsys):
        # g1/g0 = 1 + 10^-400, whose float deviation underflows to 0
        y = self._group_hom_y_family(tmp_path, {"g0": "1", "g1": f"{10**400 + 1}/{10**400}"})
        capsys.readouterr()
        assert cli.main(["validate", str(y)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] y.family_right_invariance  residual=4.94e-324  witness=(g0, g1)" in out

    @pytest.mark.parametrize("g0_weight", ["1", 1.0], ids=["exact", "float"])
    def test_haar_weight_beyond_the_float_range_is_a_parse_error(self, g0_weight, tmp_path, capsys):
        cli.main(["example", "group-hom", str(tmp_path / "gh")])
        y = tmp_path / "gh.y.json"
        doc = json.loads(y.read_text())
        doc["groupoids"]["G0"]["haar"].update(g0=g0_weight, g1=str(10**400))
        y.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["validate", str(y)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {y}.groupoids.G0.haar: left invariance fails")

    def test_json_reports(self, fn_files, capsys):
        x, _ = fn_files
        assert cli.main(["validate", str(x), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert all("name" in c for c in doc["checks"])

    def test_json_reports_the_properness_note(self, fn_files, capsys):
        x, _ = fn_files
        assert cli.main(["validate", str(x), "--json"]) == 0
        notes = json.loads(capsys.readouterr().out)["notes"]
        names = [k[: -len(".scalar_mode")] for k in notes if k.endswith(".scalar_mode")]
        assert names
        assert all(f"{name}.properness_max_fibre" in notes for name in names)


class TestCliCompose:
    def test_writes_composite_and_report(self, fn_files, tmp_path, capsys):
        x, y = fn_files
        out = tmp_path / "comp.json"
        assert cli.main(["compose", str(x), str(y), str(out)]) == 0
        assert out.exists()
        assert cli.main(["validate", str(out)]) == 0

    def test_deterministic_bytes(self, fn_files, tmp_path):
        x, y = fn_files
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        cli.main(["compose", str(x), str(y), str(out1)])
        cli.main(["compose", str(x), str(y), str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_mismatch_exits_two(self, tmp_path, capsys):
        cli.main(["example", "fn-compose", str(tmp_path / "fn")])
        cli.main(["example", "group-hom", str(tmp_path / "gh")])
        code = cli.main([
            "compose",
            str(tmp_path / "fn.x.json"),
            str(tmp_path / "gh.y.json"),
            str(tmp_path / "out.json"),
        ])
        assert code == 2

    def test_cochain_file_override(self, tmp_path, capsys):
        cli.main(["example", "induction-finite", str(tmp_path / "ind")])
        x, y = tmp_path / "ind.x.json", tmp_path / "ind.y.json"
        data_x = parse_instance(x.read_text())
        data_y = parse_instance(y.read_text())
        from gcorr.composition import compose

        corr_x = data_x.correspondences[0][1]
        corr_y = data_y.correspondences[0][1]
        res = compose(corr_x, corr_y)
        cochain = {
            res.fp.point_ids[z]: 3.0 * float(res.b.value[z])
            for z in range(len(res.fp.pairs))
        }
        cfile = tmp_path / "cochain.json"
        cfile.write_text(json.dumps(cochain))
        out = tmp_path / "over.json"
        code = cli.main([
            "compose", str(x), str(y), str(out), "--cochain-file", str(cfile)
        ])
        assert code == 0

    def test_bad_cochain_rejected(self, tmp_path, capsys):
        cli.main(["example", "induction-finite", str(tmp_path / "ind")])
        x, y = tmp_path / "ind.x.json", tmp_path / "ind.y.json"
        data_x = parse_instance(x.read_text())
        data_y = parse_instance(y.read_text())
        from gcorr.composition import compose

        res = compose(data_x.correspondences[0][1], data_y.correspondences[0][1])
        cochain = {pid: 1.0 for pid in res.fp.point_ids}  # does not split delta
        cfile = tmp_path / "cochain.json"
        cfile.write_text(json.dumps(cochain))
        code = cli.main([
            "compose", str(x), str(y), str(tmp_path / "o.json"), "--cochain-file", str(cfile)
        ])
        assert code == 2

    def test_float_family_wobble_in_last_digits_composes(self, tmp_path, capsys):
        cli.main(["example", "group-hom", str(tmp_path / "gh")])
        x, y = tmp_path / "gh.x.json", tmp_path / "gh.y.json"
        doc = json.loads(y.read_text())
        doc["correspondences"][0]["family"] = {"g0": 1.0, "g1": 1.0000000000003}
        y.write_text(json.dumps(doc))
        assert cli.main(["validate", str(y)]) == 0
        assert cli.main(["compose", str(x), str(y), str(tmp_path / "out.json")]) == 0


class TestCliVerify:
    def test_catalog_pair_passes(self, fn_files):
        x, y = fn_files
        assert cli.main(["verify", str(x), str(y), "--trials", "20"]) == 0

    def test_perturbed_family_still_verifies(self, fn_files, tmp_path):
        # scaling a family weight yields a different but still valid pair;
        # verify composes that pair itself, so the certificate still holds
        x, y = fn_files
        doc = json.loads(y.read_text())
        fam = doc["correspondences"][0]["family"]
        fam[sorted(fam)[0]] = "7/2"
        tweaked = tmp_path / "tweak.json"
        tweaked.write_text(json.dumps(doc))
        assert cli.main(["verify", str(x), str(tweaked), "--trials", "5"]) == 0

    def test_negative_trials_exit_one_before_reading_the_inputs(self, fn_files, tmp_path, capsys):
        x, y = fn_files
        assert cli.main(["verify", str(x), str(y), "--trials", "0"]) == 0
        assert "+ 0 random" in capsys.readouterr().out
        assert cli.main(["verify", str(x), str(y), "--trials", "-5"]) == 1
        captured = capsys.readouterr()
        assert "--trials" in captured.err and captured.out == ""
        missing = tmp_path / "missing.json"
        assert cli.main(["verify", str(missing), str(missing), "--trials", "-1"]) == 1
        assert "--trials" in capsys.readouterr().err

    def test_breach_exits_three(self, tmp_path, capsys):
        # a float-mode instance cannot meet an impossible tolerance
        cli.main(["example", "induction-finite", str(tmp_path / "ind")])
        code = cli.main([
            "verify", str(tmp_path / "ind.x.json"), str(tmp_path / "ind.y.json"),
            "--trials", "5", "--tol", "0",
        ])
        assert code == 3
        out = capsys.readouterr().out
        assert "FAIL" in out


def _write_y_family(y_path, target, weights):
    """The induction-finite y file with family `weights` (point -> Fraction)
    and the adjoining cocycle Δ(a, x) = λ(x)/λ(a·x) that makes it valid."""
    doc = json.loads(y_path.read_text())
    corr = doc["correspondences"][0]
    image = {(a, x): ax for a, x, ax in corr["space"]["left_action"]}
    corr["family"] = {p: str(w) for p, w in weights.items()}
    corr["adjoining"] = [[a, x, str(weights[x] / weights[image[(a, x)]])] for a, x, _ in corr["adjoining"]]
    target.write_text(json.dumps(doc))
    return target


class TestWeightsOutsideTheFloatRange:
    """Valid exact weights whose float is 0 or ∞ pass `validate` and
    `compose`; `verify` then cannot build its float tables and exits 3
    with one line naming the value, not with a traceback."""

    @pytest.mark.parametrize("weights, named", [
        ({"g0": F(1), "g2": F(10) ** 400}, "10^400.0"),
        ({"g0": F(1), "g2": F(1, 10**400)}, "10^-400.0"),
        ({"g0": F(1, 10**200), "g2": F(10) ** 200}, "10^-400.0"),
    ], ids=["huge", "tiny", "huge-beside-tiny"])
    def test_verify_exits_three_naming_the_value(self, weights, named, tmp_path, capsys):
        assert cli.main(["example", "induction-finite", str(tmp_path / "ind")]) == 0
        x = tmp_path / "ind.x.json"
        y = _write_y_family(tmp_path / "ind.y.json", tmp_path / "huge.y.json", weights)
        assert cli.main(["validate", str(y)]) == 0
        assert cli.main(["compose", str(x), str(y), str(tmp_path / "out.json")]) == 0
        capsys.readouterr()
        assert cli.main(["verify", str(x), str(y), "--trials", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"certificate failed: weight ≈ {named} is not a positive finite float"


class TestBadTolerance:
    """A `--tol` that is not a finite number of at least 0 is rejected by
    every command that takes one, before any input is read."""

    @pytest.fixture
    def broken_y(self, tmp_path):
        """A y file whose float family breaks adjoining_identity."""
        assert cli.main(["example", "induction-finite", str(tmp_path / "ind")]) == 0
        doc = json.loads((tmp_path / "ind.y.json").read_text())
        doc["correspondences"][0]["family"]["g2"] = 3.5
        target = tmp_path / "broken.y.json"
        target.write_text(json.dumps(doc))
        return tmp_path / "ind.x.json", target

    def test_infinite_tolerance_no_longer_passes_a_broken_file(self, broken_y, tmp_path, capsys):
        x, y = broken_y
        assert cli.main(["validate", str(y)]) == 1  # premise: broken at the default
        for argv in (["validate", str(y)], ["compose", str(x), str(y), str(tmp_path / "out.json")]):
            capsys.readouterr()
            assert cli.main([*argv, "--tol", "inf"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("bad --tol inf")

    @pytest.mark.parametrize("tol", ["inf", "-1", "nan", "-inf"])
    @pytest.mark.parametrize("command", ["validate", "compose", "verify"])
    def test_rejected_before_reading_the_inputs(self, command, tol, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        argv = {
            "validate": ["validate", missing],
            "compose": ["compose", missing, missing, str(tmp_path / "out.json")],
            "verify": ["verify", missing, missing],
        }[command]
        assert cli.main([*argv, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad --tol ") and len(captured.err.splitlines()) == 1


class TestCliRejectsBadInputs:
    @pytest.fixture
    def ind_files(self, tmp_path):
        assert cli.main(["example", "induction-finite", str(tmp_path / "ind")]) == 0
        return tmp_path / "ind.x.json", tmp_path / "ind.y.json"

    def test_infinite_family_weights_exit_one_with_path(self, ind_files, capsys):
        x, _ = ind_files
        doc = json.loads(x.read_text())
        fam = doc["correspondences"][0]["family"]
        for p in fam:
            fam[p] = float("inf")
        x.write_text(json.dumps(doc))  # json writes the JSON extension `Infinity`
        assert "Infinity" in x.read_text()
        assert cli.main(["validate", str(x)]) == 1
        err = capsys.readouterr().err
        assert f"{x}.correspondences[0].family." in err
        assert "finite" in err

    @pytest.mark.parametrize("where", ["haar", "adjoining"])
    def test_nonfinite_weights_rejected_at_load(self, ind_files, capsys, where):
        _, y = ind_files
        doc = json.loads(y.read_text())
        if where == "haar":
            haar = doc["groupoids"]["G0"]["haar"]
            haar[sorted(haar)[0]] = float("nan")
            path = f"{y}.groupoids.G0.haar."
        else:
            doc["correspondences"][0]["adjoining"][2][2] = float("inf")
            path = f"{y}.correspondences[0].adjoining[2]"
        y.write_text(json.dumps(doc))
        assert cli.main(["validate", str(y)]) == 1
        assert path in capsys.readouterr().err

    def test_nonfinite_cochain_rejected(self, ind_files, tmp_path, capsys):
        x, y = ind_files
        data_x, data_y = parse_instance(x.read_text()), parse_instance(y.read_text())
        from gcorr.composition import compose

        res = compose(data_x.correspondences[0][1], data_y.correspondences[0][1])
        cochain = {pid: float(res.b.value[z]) for z, pid in enumerate(res.fp.point_ids)}
        bad = res.fp.point_ids[0]
        cochain[bad] = float("inf")
        cfile = tmp_path / "cochain.json"
        cfile.write_text(json.dumps(cochain))
        code = cli.main([
            "compose", str(x), str(y), str(tmp_path / "o.json"), "--cochain-file", str(cfile)
        ])
        assert code == 1
        assert f"{cfile}.{bad}" in capsys.readouterr().err

    def _compose_with_cochain(self, ind_files, tmp_path, edit):
        """`compose` with the canonical cochain as floats, changed by `edit`;
        the exit code and the cochain file."""
        x, y = ind_files
        data_x, data_y = parse_instance(x.read_text()), parse_instance(y.read_text())
        from gcorr.composition import compose

        res = compose(data_x.correspondences[0][1], data_y.correspondences[0][1])
        cochain = {pid: float(res.b.value[z]) for z, pid in enumerate(res.fp.point_ids)}
        edit(cochain, res.fp.point_ids)
        cfile = tmp_path / "cochain.json"
        cfile.write_text(json.dumps(cochain))
        code = cli.main([
            "compose", str(x), str(y), str(tmp_path / "o.json"), "--cochain-file", str(cfile)
        ])
        return code, cfile

    @pytest.mark.parametrize("weight", [0.0, -1.0, "0", "-3/4"])
    def test_nonpositive_cochain_rejected(self, weight, ind_files, tmp_path, capsys):
        bad = []

        def edit(cochain, point_ids):
            bad.append(point_ids[-1])
            cochain[point_ids[-1]] = weight

        code, cfile = self._compose_with_cochain(ind_files, tmp_path, edit)
        assert code == 1
        assert f"parse error: {cfile}.{bad[0]}: weight must be positive" in capsys.readouterr().err

    def test_cochain_key_outside_z_rejected(self, ind_files, tmp_path, capsys):
        def edit(cochain, point_ids):
            cochain["no-such-point"] = 1.0

        code, cfile = self._compose_with_cochain(ind_files, tmp_path, edit)
        assert code == 1
        assert f"parse error: {cfile}.no-such-point: not a point of the middle space Z" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_cochain_missing_point_rejected(self, ind_files, tmp_path, capsys):
        missing = []

        def edit(cochain, point_ids):
            missing.append(point_ids[1])
            del cochain[point_ids[1]]

        code, cfile = self._compose_with_cochain(ind_files, tmp_path, edit)
        assert code == 1
        assert f"parse error: {cfile}: cochain file misses point {missing[0]!r}" in capsys.readouterr().err

    def test_compose_and_verify_both_validate_inputs(self, ind_files, tmp_path, capsys):
        # an identity arrow must carry adjoining value 1
        x, y = ind_files
        doc = json.loads(y.read_text())
        corr = doc["correspondences"][0]
        unit_arrows = set(doc["groupoids"][corr["left"]]["unit_arrows"].values())
        entry = next(e for e in corr["adjoining"] if e[0] in unit_arrows)
        entry[2] = "2"
        y.write_text(json.dumps(doc))
        assert cli.main(["compose", str(x), str(y), str(tmp_path / "o.json")]) == 1
        assert "second input fails validation" in capsys.readouterr().err
        assert cli.main(["verify", str(x), str(y), "--trials", "2"]) == 1
        assert "second input fails validation" in capsys.readouterr().err


class TestUnreadablePathsExitOne:
    """A path that cannot be read or written ends in one line on stderr
    that names it, and exit code 1, never a traceback."""

    @staticmethod
    def _one_line(capsys, prefix: str) -> str:
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        return err

    def test_validate_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["validate", str(missing)]) == 1
        assert "No such file" in self._one_line(capsys, f"parse error: {missing}: ")

    def test_verify_missing_second_file(self, fn_files, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["verify", str(fn_files[0]), str(missing)]) == 1
        self._one_line(capsys, f"parse error: {missing}: ")

    def test_missing_cochain_file(self, fn_files, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        argv = ["compose", *map(str, fn_files), str(tmp_path / "o.json"), "--cochain-file", str(missing)]
        assert cli.main(argv) == 1
        self._one_line(capsys, f"parse error: {missing}: ")
        assert not (tmp_path / "o.json").exists()

    def test_directory_as_input(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path)]) == 1
        self._one_line(capsys, f"parse error: {tmp_path}: ")

    def test_non_utf8_input(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"format": "gcorr", "name": "caf\u00e9"}'.encode("latin-1"))
        assert cli.main(["validate", str(bad)]) == 1
        assert "not UTF-8" in self._one_line(capsys, f"parse error: {bad}: ")

    def test_compose_out_in_missing_directory(self, fn_files, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "o.json"
        assert cli.main(["compose", *map(str, fn_files), str(out)]) == 1
        self._one_line(capsys, f"write error: {out}: ")

    @pytest.mark.parametrize("argv", [["example", "fn-compose"], ["random"]], ids=["example", "random"])
    def test_pair_out_in_missing_directory(self, argv, tmp_path, capsys):
        prefix = tmp_path / "no-such-dir" / "pair"
        assert cli.main([*argv, str(prefix)]) == 1
        self._one_line(capsys, f"write error: {prefix}.x.json: ")


class TestMalformedStructureExitsOne:
    """Wrong container types and arities are parse errors with a path."""

    @pytest.fixture
    def ind_x(self, tmp_path):
        assert cli.main(["example", "induction-finite", str(tmp_path / "ind")]) == 0
        return tmp_path / "ind.x.json"

    def _validate_mutated(self, x, mutate, capsys):
        doc = json.loads(x.read_text())
        mutate(doc)
        x.write_text(json.dumps(doc))
        assert cli.main(["validate", str(x)]) == 1
        return capsys.readouterr().err

    def test_comp_entry_of_wrong_arity(self, ind_x, capsys):
        def mutate(doc):
            g = doc["groupoids"][sorted(doc["groupoids"])[0]]
            g["comp"][0] = g["comp"][0][:2]

        err = self._validate_mutated(ind_x, mutate, capsys)
        assert f"{ind_x}.groupoids.G0.comp[0]" in err and "triple" in err

    def test_groupoids_given_as_a_list(self, ind_x, capsys):
        def mutate(doc):
            doc["groupoids"] = list(doc["groupoids"].values())

        err = self._validate_mutated(ind_x, mutate, capsys)
        assert f"{ind_x}.groupoids:" in err and "object" in err

    def test_points_given_as_a_number(self, ind_x, capsys):
        def mutate(doc):
            doc["correspondences"][0]["space"]["points"] = 3

        err = self._validate_mutated(ind_x, mutate, capsys)
        assert f"{ind_x}.correspondences[0].space.points:" in err and "list" in err

    def test_name_and_version_of_the_wrong_type(self, ind_x, capsys):
        def mutate(doc):
            doc["correspondences"][0]["name"] = ["x"]

        err = self._validate_mutated(ind_x, mutate, capsys)
        assert f"{ind_x}.correspondences[0].name:" in err

        def mutate(doc):
            doc["version"] = True  # equal to 1, but not the number 1

        assert "unsupported version" in self._validate_mutated(ind_x, mutate, capsys)


class TestStrictDocuments:
    """A key of an id-keyed table that names no id, and a document with no
    correspondence, exit 1 with one parse error that names the path."""

    TABLES = {
        "family": ("correspondences", 0, "family"),
        "left_momentum": ("correspondences", 0, "space", "left_momentum"),
        "right_momentum": ("correspondences", 0, "space", "right_momentum"),
        "haar": ("groupoids", "G0", "haar"),
        "src": ("groupoids", "G0", "src"),
        "dst": ("groupoids", "G0", "dst"),
        "inv": ("groupoids", "G0", "inv"),
        "unit_arrows": ("groupoids", "G0", "unit_arrows"),
    }

    @staticmethod
    def _path(x, keys):
        return str(x) + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)

    @pytest.mark.parametrize("table", list(TABLES))
    def test_ghost_key_is_a_parse_error_at_its_path(self, fn_files, table, capsys):
        x, _ = fn_files
        doc = json.loads(x.read_text())
        node = doc
        for key in self.TABLES[table]:
            node = node[key]
        node["ghost"] = next(iter(node.values()))  # a valid value under a key that names nothing
        x.write_text(json.dumps(doc))
        assert cli.main(["validate", str(x)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {self._path(x, self.TABLES[table])}.ghost: not a")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("edit", ["unknown", "missing"])
    def test_bad_momentum_is_a_parse_error_at_its_path(self, fn_files, side, edit, capsys):
        x, _ = fn_files
        doc = json.loads(x.read_text())
        momentum = doc["correspondences"][0]["space"][f"{side}_momentum"]
        point = next(iter(momentum))
        if edit == "unknown":
            momentum[point] = "nowhere"
        else:
            del momentum[point]
        x.write_text(json.dumps(doc))
        assert cli.main(["validate", str(x)]) == 1
        unit = "'nowhere'" if edit == "unknown" else "None"
        path = self._path(x, ("correspondences", 0, "space", f"{side}_momentum", point))
        assert capsys.readouterr().err == f"parse error: {path}: unknown unit {unit}\n"

    @pytest.mark.parametrize("command", ["validate", "compose", "verify"])
    @pytest.mark.parametrize("edit", ["empty", "missing"])
    def test_document_without_a_correspondence(self, fn_files, tmp_path, command, edit, capsys):
        x, y = fn_files
        doc = json.loads(x.read_text())
        if edit == "empty":
            doc["correspondences"] = []
        else:
            del doc["correspondences"]
        x.write_text(json.dumps(doc))
        argv = {"validate": [str(x)], "compose": [str(x), str(y), str(tmp_path / "o.json")], "verify": [str(x), str(y)]}
        assert cli.main([command, *argv[command]]) == 1
        assert capsys.readouterr().err == f"parse error: {x}: instance files must contain a correspondence\n"


def _catalog_docs(root):
    docs = []
    for name in catalog.EXAMPLE_NAMES:
        assert cli.main(["example", name, str(root / name)]) == 0
        for leg in ("x", "y"):
            docs.append(json.loads((root / f"{name}.{leg}.json").read_text()))
    return docs


def _node_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


_RETYPED = (None, True, 0, 2.5, "", "zz", [], ["a", "b"], {}, {"a": "b"})
_NONFINITE = (float("inf"), float("-inf"), float("nan"))


def _mutate(doc, path, kind, pick):
    """One structural mutation of `doc` at `path` (in place); returns the
    new document (a new root when the root itself is replaced).  A kind
    that does not apply at the node (renaming a list element, changing
    the arity of a scalar) retypes it instead."""
    if not path:
        return _RETYPED[pick % len(_RETYPED)] if kind != "nonfinite" else _NONFINITE[pick % 3]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    node = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "rename" and isinstance(parent, dict):
        parent[f"{key}_renamed"] = parent.pop(key)
    elif kind == "arity" and isinstance(node, list):
        if node and pick % 2:
            node.pop()
        else:
            node.append(copy.deepcopy(node[-1]) if node else "extra")
    elif kind == "nonfinite":
        parent[key] = _NONFINITE[pick % 3]
    else:
        parent[key] = copy.deepcopy(_RETYPED[pick % len(_RETYPED)])
    return doc


class TestMutatedCatalogFilesNeverRaise:
    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("catalog")
        return root, _catalog_docs(root)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_validate_exits_zero_or_one(self, docs, data):
        root, originals = docs
        k = data.draw(st.integers(0, len(originals) - 1), label="file")
        doc = copy.deepcopy(originals[k])
        paths = list(_node_paths(doc))
        path = paths[data.draw(st.integers(0, len(paths) - 1), label="node")]
        kind = data.draw(st.sampled_from(["drop", "rename", "retype", "arity", "nonfinite"]), label="kind")
        doc = _mutate(doc, path, kind, data.draw(st.integers(0, 99), label="pick"))
        target = root / "mutated.json"
        target.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate", str(target)])
        assert code in (0, 1)
        if code == 1:
            # a parse error names a path in the document; a document that
            # parses but fails a check prints the failing report instead
            assert err.getvalue().startswith(f"parse error: {target}") or (
                out.getvalue().rstrip().endswith("=> FAIL")
            )


class TestCliExampleRandom:
    def test_unknown_example(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["example", "nope", str(tmp_path / "x")])

    def test_all_examples_validate(self, tmp_path):
        for name in catalog.EXAMPLE_NAMES:
            prefix = tmp_path / name
            assert cli.main(["example", name, str(prefix)]) == 0
            assert cli.main(["validate", f"{prefix}.x.json"]) == 0
            assert cli.main(["validate", f"{prefix}.y.json"]) == 0

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["random", str(a), "--seed", "7"]) == 0
        assert cli.main(["random", str(b), "--seed", "7"]) == 0
        assert (tmp_path / "a.x.json").read_bytes() == (tmp_path / "b.x.json").read_bytes()
        assert (tmp_path / "a.y.json").read_bytes() == (tmp_path / "b.y.json").read_bytes()

    @pytest.mark.parametrize("sizes, caps", [
        ("4", (4, 16, 8)),
        ("4,5", (4, 5, 8)),
        ("4,5,6", (4, 5, 6)),
        ("1,1,1", (1, 1, 1)),
    ])
    def test_random_sizes_pad_with_the_missing_defaults(self, sizes, caps, tmp_path, monkeypatch):
        seen = []

        def capture(seed, **kwargs):
            seen.append((seed, kwargs))
            return random_pair(seed, **kwargs)

        monkeypatch.setattr(cli, "random_pair", capture)
        assert cli.main(["random", str(tmp_path / "r"), "--seed", "3", f"--sizes={sizes}"]) == 0
        assert seen == [(3, dict(zip(("max_x", "max_y", "max_mid"), caps)))]

    @pytest.mark.parametrize("sizes", ["0,0,0", "-1,4,4", "4,4,0", "4,4,4,4", "", "4,", "a"])
    def test_random_bad_sizes_exit_one_with_one_line(self, sizes, tmp_path, capsys):
        assert cli.main(["random", str(tmp_path / "r"), f"--sizes={sizes}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith(f"bad --sizes {sizes!r}")
        assert not (tmp_path / "r.x.json").exists()

    def test_random_instances_validate_and_verify(self, tmp_path):
        for seed in (0, 5):
            prefix = tmp_path / f"r{seed}"
            assert cli.main(["random", str(prefix), "--seed", str(seed), "--sizes", "10,10,6"]) == 0
            assert cli.main(["validate", f"{prefix}.x.json"]) == 0
            assert cli.main(["validate", f"{prefix}.y.json"]) == 0
            assert cli.main(["verify", f"{prefix}.x.json", f"{prefix}.y.json", "--trials", "10"]) == 0


# in the group-hom x file, G0 is Z/4 = {g0, g1, g2, g3}


def _non_associative_comp(doc):
    # g1∘g1 = g3: identities and inverses still hold, but (g1∘g1)∘g3 = g2
    # while g1∘(g1∘g3) = g1
    (entry,) = [e for e in doc["groupoids"]["G0"]["comp"] if e[:2] == ["g1", "g1"]]
    entry[2] = "g3"
    return "groupoids.G0", "NonAssociative"


def _non_invariant_haar(doc):
    doc["groupoids"]["G0"]["haar"]["g1"] = "2"
    return "groupoids.G0.haar", "left invariance fails"


def _wrong_momentum(doc):
    # a unit arrow sends a point to one of another left momentum
    space = doc["correspondences"][0]["space"]
    mom = space["left_momentum"]
    entry = space["left_action"][0]
    entry[2] = next(p for p in space["points"] if mom[p] != mom[entry[1]])
    return "correspondences[0].space.left_action", "momentum of γ·x is not dst(γ)"


def _non_commuting(doc):
    # K = {e, s} acting on S3 by p·k = k∘p: a right action, since K is
    # abelian, but one that does not commute with left translation by S3
    corr = doc["correspondences"][0]
    comp = {(a, b): c for a, b, c in doc["groupoids"][corr["left"]]["comp"]}
    for entry in corr["space"]["right_action"]:
        entry[2] = comp[(entry[1], entry[0])]
    return "correspondences[0].space", "(γ·x)·η != γ·(x·η)"


# tamper -> (catalog example, leg it applies to); one per structure line
# that `validate` no longer reports
TAMPERS = {
    "groupoid_axioms": (_non_associative_comp, "group-hom", "x"),
    "haar": (_non_invariant_haar, "group-hom", "x"),
    "action_axioms": (_wrong_momentum, "fn-compose", "x"),
    "bispace_axioms": (_non_commuting, "subgroup", "y"),
}


class TestBrokenStructureIsAParseError:
    """An input that breaks a groupoid, Haar, action or bispace axiom
    never reaches `validate`: parsing rejects it, naming the path."""

    @pytest.mark.parametrize("command", ["validate", "compose"])
    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_tampered_catalog_file_exits_one_with_path(self, tamper, command, tmp_path, capsys):
        mutate, example, leg = TAMPERS[tamper]
        prefix = tmp_path / example
        assert cli.main(["example", example, str(prefix)]) == 0
        target = tmp_path / f"{example}.{leg}.json"
        doc = json.loads(target.read_text())
        path, message = mutate(doc)
        target.write_text(json.dumps(doc))
        capsys.readouterr()
        if command == "validate":
            argv = ["validate", str(target)]
        else:
            argv = ["compose", f"{prefix}.x.json", f"{prefix}.y.json", str(tmp_path / "out.json")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {target}.{path}: ")
        assert message in err


class TestEachStructureIsSweptOnce:
    """Each groupoid, Haar system, action and bispace of a `compose` or
    `verify` run is swept by its axiom check exactly once, by the checked
    constructor that builds it."""

    SWEEPS = {
        "groupoid_violations": groupoids,
        "check_haar": measures,
        "action_violations": groupoids,
        "bispace_violations": groupoids,
    }  # function -> defining module
    PAIRS = {"ladder-3": lambda: ladder_pair(3), "random-3": lambda: random_pair(3)}
    # objects swept per run: those parsed (the ladder's x file holds its one
    # group once, as both sides); Z's and Ω's actions are built by lemma,
    # with no sweep
    SWEPT = {
        "ladder-3": {"groupoid_violations": 3, "check_haar": 3, "action_violations": 4, "bispace_violations": 2},
        "random-3": {"groupoid_violations": 4, "check_haar": 4, "action_violations": 4, "bispace_violations": 2},
    }

    @pytest.mark.parametrize("command", ["compose", "verify"])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_no_structure_is_swept_twice(self, pair, command, tmp_path, monkeypatch, capsys):
        corr_x, corr_y = self.PAIRS[pair]()
        x, y = tmp_path / "x.json", tmp_path / "y.json"
        x.write_text(serialize_instance([("x", corr_x)]))
        y.write_text(serialize_instance([("y", corr_y)]))
        swept = {name: [] for name in self.SWEEPS}  # holds the arguments, so ids stay unique
        modules = [m for n, m in sys.modules.items() if n.startswith("gcorr.") and m is not None]
        for name, home in self.SWEEPS.items():
            original = getattr(home, name)

            def counting(*args, _name=name, _original=original):
                swept[_name].append(args)
                return _original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        extra = [str(tmp_path / "out.json")] if command == "compose" else ["--trials", "2"]
        assert cli.main([command, str(x), str(y), *extra]) == 0
        counts = {name: Counter(tuple(map(id, args)) for args in calls) for name, calls in swept.items()}
        assert {name: max(c.values()) for name, c in counts.items()} == dict.fromkeys(self.SWEEPS, 1)
        assert {name: len(c) for name, c in counts.items()} == self.SWEPT[pair]



def _indented(value):
    return json.dumps(value, indent=2, sort_keys=True)


_json_strings = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€ 😀 ab') | st.characters(), max_size=8)
_json_leaves = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | _json_strings
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=24,
)


class TestCanonicalJson:
    """`canonical_json` writes what `json.dumps(indent=2, sort_keys=True)` does."""

    @settings(max_examples=200, deadline=None)
    @given(_json_values)
    def test_byte_identical_to_indented_dumps(self, value):
        assert canonical_json(value) == _indented(value)

    @pytest.mark.parametrize("value", [[], (), {}, [[]], {"a": {}}, ((),), "", [None, True, False]])
    def test_empty_containers_and_scalars(self, value):
        assert canonical_json(value) == _indented(value)

    @pytest.mark.parametrize("name", PAIRS_45)
    def test_real_documents(self, name):
        from gcorr import cstar
        from gcorr.composition import compose
        from gcorr.correspondence import validate

        corr_x, corr_y = pair_45(name)
        result = compose(corr_x, corr_y)
        files = [
            serialize_instance([("x", corr_x)]),
            serialize_instance([("y", corr_y)]),
            serialize_instance([("composite", result.composite)]),
        ]
        for text in files:
            assert text == _indented(json.loads(text)) + "\n"
        # an identity arrow's adjoining value set to 2: a failing report with witnesses
        doc = json.loads(files[1])
        corr = doc["correspondences"][0]
        unit_arrows = set(doc["groupoids"][corr["left"]]["unit_arrows"].values())
        entry = next(e for e in corr["adjoining"] if e[0] in unit_arrows)
        entry[2] = "2"
        tampered = parse_instance(json.dumps(doc)).correspondences[0][1]
        reports = [
            validate(corr_x), validate(corr_y), validate(tampered), result.report,
            cstar.verify_theorem(corr_x, corr_y, result, trials=2).report(),
        ]
        assert not reports[2].passed
        for rep in reports:
            assert canonical_json(rep.to_json()) == _indented(rep.to_json())


def _catalog_doc(name, side):
    corr_x, corr_y, _ = catalog.example_pair(name)
    return json.loads(serialize_instance([(side, corr_x if side == "x" else corr_y)]))


def _set_last_value(mapping, value):
    mapping[sorted(mapping)[-1]] = value


class TestReaderFastPaths:
    """Each reader loop tests an item's type inline and builds the item's
    path only when it fails, so a bad entry past the first is named exactly
    as before."""

    @pytest.mark.parametrize("name, side, mutate, message", [
        ("fn-compose", "y", lambda d: d["groupoids"]["G1"]["units"].__setitem__(3, 7),
         "doc.groupoids.G1.units[3]: expected a string, got 7"),
        ("group-hom", "x", lambda d: d["groupoids"]["G0"]["comp"].__setitem__(5, d["groupoids"]["G0"]["comp"][5][:2]),
         "doc.groupoids.G0.comp[5]: expected a triple"),
        ("fn-compose", "y", lambda d: d["correspondences"][0]["space"]["left_action"][2].__setitem__(1, None),
         "doc.correspondences[0].space.left_action[2][1]: expected a string, got null"),
        ("fn-compose", "y", lambda d: _set_last_value(d["groupoids"]["G1"]["src"], ["u"]),
         'doc.groupoids.G1.src.id:x4: expected a string, got ["u"]'),
        ("subgroup", "y", lambda d: d["correspondences"][0]["adjoining"][3].__setitem__(1, 4),
         "doc.correspondences[0].adjoining[3][1]: expected a string, got 4"),
    ], ids=["units", "comp", "left_action", "src", "adjoining"])
    def test_bad_entry_past_the_first_keeps_its_path(self, name, side, mutate, message):
        doc = _catalog_doc(name, side)
        mutate(doc)
        with pytest.raises(ParseError) as info:
            parse_instance(json.dumps(doc), source="doc")
        assert str(info.value) == message
        assert info.value.path == message.split(": ")[0]

    @pytest.mark.parametrize("raw", [
        "3/4", "07/010", "0.75", "1e3", " 3/4", "+3", "-3/4", "1_000/3", "٣/4", "3/-4",
        "", "/", "3/", "/4", "1/0", "12", "0", "0/5",
    ])
    def test_parse_scalar_agrees_with_fraction(self, raw):
        try:
            expected = F(raw)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)) as info:
                parse_scalar(raw)
            assert str(info.value) == str(exc)  # a ParseError carries this text
        else:
            got = parse_scalar(raw)
            assert type(got) is F and got == expected


class TestCachedParser:
    """One parser per process, and no option of one call leaks into the next."""

    def test_one_parser(self):
        assert cli.build_parser() is cli.build_parser()

    def test_compose_options_do_not_leak(self, fn_files, tmp_path, monkeypatch):
        from gcorr.composition import compose
        from gcorr.report import DEFAULT_TOL

        seen = []

        def recording(corr_x, corr_y, b_values=None, tol=DEFAULT_TOL):
            seen.append((b_values, tol))
            return compose(corr_x, corr_y, b_values=b_values, tol=tol)

        monkeypatch.setattr(cli, "compose", recording)
        x, y = fn_files
        res = compose(parse_instance(x.read_text()).correspondences[0][1], parse_instance(y.read_text()).correspondences[0][1])
        cfile = tmp_path / "cochain.json"
        cfile.write_text(json.dumps({pid: format_scalar(res.b.value[z]) for z, pid in enumerate(res.fp.point_ids)}))
        out = str(tmp_path / "o.json")
        assert cli.main(["compose", str(x), str(y), out, "--cochain-file", str(cfile), "--tol", "1e-6"]) == 0
        assert cli.main(["compose", str(x), str(y), out]) == 0
        assert seen[0] == (tuple(res.b.value), 1e-6)
        assert seen[1] == (None, DEFAULT_TOL)

    def test_verify_options_do_not_leak(self, fn_files, monkeypatch, capsys):
        from gcorr import cstar

        original = cstar.verify_theorem
        seen = []

        def recording(*args, **kwargs):
            seen.append((kwargs["trials"], kwargs["seed"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(cstar, "verify_theorem", recording)
        x, y = fn_files
        assert cli.main(["verify", str(x), str(y), "--trials", "0", "--seed", "5"]) == 0
        assert "+ 0 random)" in capsys.readouterr().out
        assert cli.main(["verify", str(x), str(y)]) == 0
        assert "+ 200 random)" in capsys.readouterr().out
        assert seen == [(0, 5), (200, 0)]
