import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from plaid import alignment, checks, cli, copying
from plaid.cli import main
from plaid.grid import cap_scaled, is_light_value, mass_scaled
from plaid.numtheory import EvenRational, kappa
from plaid.tiling import _edge_counts, _scalar_edges


def run(argv):
    return main(argv)


def load_stripped(path):
    data = json.loads(path.read_text())
    data.pop("timestamp", None)
    data.pop("elapsed_s", None)  # timing varies run to run, like the timestamp
    return data


def test_usage_error_exit_codes(tmp_path, monkeypatch, capsys):
    assert run(["tile", "5/3"]) == 2  # not in (0, 1)
    assert run(["tile", "3/5"]) == 2  # odd rational
    assert run(["chain", "4/6"]) == 2  # not reduced
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    for what in ("orbit", "fiber"):
        with pytest.raises(SystemExit) as exc:
            run(["pet", what, "--json", "x.json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: param" in err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit) as exc:
        run(["bogus"])
    assert exc.value.code == 2


def test_verify_tree_depth_below_one_is_usage_error(capsys):
    assert run(["verify", "tree", "2/5", "--depth", "0"]) == 2
    assert "--depth must be at least 1" in capsys.readouterr().err
    assert run(["verify", "tree", "2/5", "--depth", "-1"]) == 2
    assert run(["verify", "tree", "2/5", "--depth", "1"]) == 0


GOLDEN_SPEC = "quad:(-1,1,2,5)"


@pytest.mark.parametrize("option, value, message", [
    ("--prefix", "2", "prefix digits must be 0 or 1"),
    ("--prefix", "012", "prefix digits must be 0 or 1"),
    ("--window", "0", "window must be at least 1"),
    ("--window", "-2", "window must be at least 1"),
    ("--depth", "0", "depth must be at least 1"),
    ("--depth", "-1", "depth must be at least 1"),
    # the last --irrational wins: a continued-fraction target has no exact P
    ("--irrational", "cf:[0;" + ",".join("1" * 14) + "]",
     "needs an exact quadratic target"),
])
def test_pet_limit_rejects_bad_inputs(option, value, message, capsys):
    argv = ["pet", "limit", "--irrational", GOLDEN_SPEC, "--depth", "3",
            option, value]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["pet", "orbit", "5/12", "--square", "0,5"],
    ["pet", "limit", "--irrational", GOLDEN_SPEC, "--prefix", "01",
     "--depth", "3"],
])
def test_pet_svg_only_for_fiber(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--svg", "x.svg", "--json", "x.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --svg x.svg" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    pytest.param(["pet", "fiber", "2/5", "--square", "9,9", "--window", "3",
                  "--prefix", "111", "--max-steps", "1", "--depth", "2"],
                 id="pet-fiber-orbit-and-limit-options"),
    pytest.param(["pet", "orbit", "5/12", "--t", "P-1", "--window", "2"],
                 id="pet-orbit-fiber-and-limit-options"),
    pytest.param(["verify", "box", "7/18", "--depth", "5"], id="verify-box-depth"),
    pytest.param(["verify", "copy", "7/18", "--depth", "2"], id="verify-copy-depth"),
    pytest.param(["chain", "12/29", "--irrational", GOLDEN_SPEC],
                 id="chain-param-and-irrational"),
    pytest.param(["pet"], id="pet-without-mode"),
    pytest.param(["verify"], id="verify-without-mode"),
])
def test_unread_options_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    # each mode's parser declares only the inputs its handler reads
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--json", "x.json"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t", ["P", "1/3"])
def test_pet_fiber_t_without_centres_is_usage_error(t, tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["pet", "fiber", "2/5", "--t", t, "--json", "x.json",
                "--svg", "x.svg"]) == 2
    assert "holds no square centre" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_hier_totals_match_scalar_counts():
    # check_hier reduces the edge kernel's counts; rebuild its totals from
    # the scalar light test and the scalar horizontal edge count
    for r in cli.even_rationals(31):
        om = r.omega
        hcount, vcount = _edge_counts(r, 0, om * om, 0, om)
        # a vertical line meets every intercept residue twice per period
        lit = [sum(is_light_value(cap_scaled(r, n), mass_scaled(r, j), om)
                   for j in range(om)) for n in range(om)]
        assert vcount[:-1].sum(axis=1).tolist() == [2 * lit[x % om]
                                                     for x in range(om * om)]
        h_count = _scalar_edges(r)[0]
        for y in range(om):
            scalar = [h_count(y, a) for a in range(om * om)]
            assert (hcount[:, y].reshape(om, om).sum(axis=1).tolist()
                    == np.reshape(scalar, (om, om)).sum(axis=1).tolist())


@pytest.mark.parametrize("which,edge,detail", [
    (1, (10, 3), "V line x=10 carries 5 light points, capacity 4"),
    (0, (23, 4), "H line y=4 block 3 carries 5 light points, capacity 4"),
])
def test_check_hier_failure_detail(monkeypatch, which, edge, detail):
    def one_extra_light_point(*args):
        counts = _edge_counts(*args)
        counts[which][edge] += 1
        return counts
    monkeypatch.setattr(checks, "_edge_counts", one_extra_light_point)
    assert checks.check_hier(EvenRational(2, 5)) == (False, detail)


@pytest.mark.parametrize("pq,detail", [
    ((7, 18), "core copy failed"),
    ((5, 12), "weak/strong copy failed"),
])
def test_check_copy_failure_detail(monkeypatch, pq, detail):
    r = EvenRational(*pq)
    assert checks.check_copy(r) == (True, "")
    build = alignment.build_tiling

    def one_flipped_tile(s, *box):
        tiling = build(s, *box)
        if s == r:
            tiling.tiles[0, 0] ^= 1
        return tiling
    monkeypatch.setattr(alignment, "build_tiling", one_flipped_tile)
    assert checks.check_copy(r) == (False, detail)
    assert checks.check_copy(EvenRational(1, 2)) == (
        True, "skipped (p=1 descends by the unit rule)")


def test_verify_copy_core_pass(tmp_path, capsys):
    out = tmp_path / "copy.json"
    assert run(["verify", "copy", "7/18", "--json", str(out)]) == 0
    data = load_stripped(out)
    assert data["regime"] == "core" and data["ok"] is True


def test_verify_copy_unit_agrees_with_sweep(tmp_path):
    out = tmp_path / "copy.json"
    assert run(["verify", "copy", "1/2", "--json", str(out)]) == 0
    data = load_stripped(out)
    assert data["regime"] == "unit" and data["ok"] is True
    assert data["detail"] == "skipped (p=1 descends by the unit rule)"


@pytest.mark.parametrize("argv", [
    ["align", "3/8", "7/18", "--core"],
    ["pet", "orbit", "5/12", "--seed", "1"],
    ["verify", "box", "--sweep", "9"],
    ["render", "tile", "5/18", "--svg", "x.svg"],
    ["pet", "fiber", "2/5", "--samples", "100"],
])
def test_removed_options_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "x.svg").exists()


def test_readme_command_line_examples(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines()
             if ln.startswith("plaid ")]
    assert len(lines) >= 15
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert run(argv) == 0, line


def test_chain_json_schema(tmp_path):
    out = tmp_path / "chain.json"
    assert run(["chain", "12/29", "--json", str(out)]) == 0
    data = load_stripped(out)
    terms = data["terms"]
    assert [t["kind"] for t in terms] == ["unit", "strong", "strong", "strong", None]
    assert terms[-1] == {"p": 12, "q": 29, "omega": 41, "tau": 12, "sign": 1,
                         "kappa": 0, "kind": None}
    assert all(data["omnibus"][f"s{i}"] for i in range(1, 8))
    assert set(data["omnibus_chain"]) == {"2/5", "5/12", "12/29"}
    assert all(all(v for k, v in st.items())
               for st in data["omnibus_chain"].values())


def test_chain_irrational(tmp_path):
    out = tmp_path / "gold.json"
    assert run(["chain", "--irrational", "quad:(-1,1,2,5)", "--qmax", "250",
                "--json", str(out)]) == 0
    data = load_stripped(out)
    assert data["approximating"][:2] == ["2/3", "8/13"]
    assert all(e["bound_ok"] for e in data["diophantine"]
               if e["bound_ok"] is not None)


def test_chain_cf_target(tmp_path, capsys):
    out = tmp_path / "cf.json"
    # a long golden prefix certifies the walk up to qmax 100
    cf = "cf:[0;" + ",".join("1" * 14) + "]"
    assert run(["chain", "--irrational", cf, "--qmax", "100",
                "--json", str(out)]) == 0
    data = load_stripped(out)
    assert data["approximating"][:2] == ["2/3", "8/13"]
    assert "diophantine" not in data  # exact distances need a quadratic target
    # an insufficient prefix is a usage error, not a wrong answer
    assert run(["chain", "--irrational", "cf:[0;1,1,1]", "--qmax", "100"]) == 2


def test_json_deterministic_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["lines", "5/12", "--json", str(a)])
    run(["lines", "5/12", "--json", str(b)])
    assert load_stripped(a) == load_stripped(b)


def test_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(["tile", "5/18", "--svg", str(a)]) == 0
    assert run(["tile", "5/18", "--svg", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


def test_render_copy_overlay(tmp_path):
    out = tmp_path / "copy.svg"
    assert run(["render", "copy", "5/12", "12/29", "--svg", str(out)]) == 0
    assert "polyline" in out.read_text()


def test_tile_json(tmp_path):
    out = tmp_path / "tile.json"
    assert run(["tile", "1/2", "--json", str(out)]) == 0
    data = load_stripped(out)
    assert data["region"] == [0, 3, 0, 3]
    names = {t[2] for t in data["tiles"]}
    assert names <= {"NE", "NS", "NW", "ES", "EW", "SW"}
    assert all(p["closed"] for p in data["polygons"])


def test_polygon_bound_fields(tmp_path):
    out = tmp_path / "poly.json"
    assert run(["polygon", "5/12", "--json", str(out)]) == 0
    data = load_stripped(out)
    assert len(data["anchors"]) == 8


def test_sweep_small(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--max-omega", "15",
                "--checks", "coherence,box,omnibus", "--json", str(out)]) == 0
    data = load_stripped(out)
    assert data["failures"] == []
    assert data["n_parameters"] == len(data["results"])


def test_sweep_unknown_check():
    assert run(["sweep", "--max-omega", "9", "--checks", "nonsense"]) == 2


def test_sweep_regime_filter(tmp_path):
    out = tmp_path / "core.json"
    assert run(["sweep", "--max-omega", "25", "--checks", "main",
                "--filter", "core", "--json", str(out)]) == 0
    data = load_stripped(out)
    assert 0 < data["n_parameters"]
    for row in data["results"]:
        assert kappa(EvenRational.parse(row["param"])).kappa >= 1


def test_sweep_worker_independence(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["sweep", "--workers", "1", "--max-omega", "13",
         "--checks", "box", "--json", str(a)])
    run(["sweep", "--workers", "3", "--max-omega", "13",
         "--checks", "box", "--json", str(b)])
    assert load_stripped(a) == load_stripped(b)


def test_sweep_records_a_raising_check_and_goes_on(tmp_path, monkeypatch):
    real = copying.verify_box_lemma

    def forced(r):
        if r == EvenRational(2, 5):
            raise AssertionError("forced")
        return real(r)
    monkeypatch.setattr(copying, "verify_box_lemma", forced)
    res = checks.run_sweep([EvenRational(1, 2), EvenRational(2, 5)], ["box"],
                           workers=1)
    assert res["results"][0] == {"param": "1/2", "box": {"ok": True}}
    assert res["failures"] == [{"param": "2/5", "check": "box",
                                "detail": "AssertionError: forced"}]
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--max-omega", "7", "--checks", "box",
                "--workers", "1", "--json", str(out)]) == 1
    assert load_stripped(out)["failures"] == res["failures"]


def test_align_cli(tmp_path):
    out = tmp_path / "align.json"
    assert run(["align", "2/5", "5/12", "--json", str(out)]) == 0
    data = load_stripped(out)
    assert data["tiles_equal"] and data["matching"]
    assert run(["align", "3/8", "7/18", "--json", str(out)]) == 0
    assert run(["align", "2/5", "7/18"]) == 2  # wrong predecessor


def test_pet_cli(tmp_path):
    out = tmp_path / "orbit.json"
    assert run(["pet", "orbit", "5/12", "--square", "0,5",
                "--json", str(out)]) == 0
    data = load_stripped(out)
    assert data["closed"] and data["period"] == 88
    out = tmp_path / "fiber.json"
    assert run(["pet", "fiber", "2/5", "--t", "P+1", "--json", str(out),
                "--svg", str(tmp_path / "fiber.svg")]) == 0
    assert load_stripped(out)["grid_ok"]
