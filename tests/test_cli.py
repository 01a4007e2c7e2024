import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plaid
from plaid import alignment, checks, cli, copying, tiling
from plaid.cli import main
from plaid.grid import cap_scaled, is_light_value, mass_scaled
from plaid.numtheory import EvenRational, kappa
from plaid.tiling import (TILE_NAMES, CoherenceError, E, N, S, _edge_counts,
                          _scalar_edges, scalar_oracle)


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
    for depth in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "tree", "2/5", "--depth", depth])
        assert exc.value.code == 2
        assert (f"argument --depth: invalid positive_int value: '{depth}'"
                in capsys.readouterr().err)
    assert run(["verify", "tree", "2/5", "--depth", "1"]) == 0


GOLDEN_SPEC = "quad:(-1,1,2,5)"


@pytest.mark.parametrize("option, value, message", [
    ("--prefix", "2", "prefix digits must be 0 or 1"),
    ("--prefix", "012", "prefix digits must be 0 or 1"),
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


LIMIT = ["pet", "limit", "--irrational", GOLDEN_SPEC, "--depth", "3"]
SWEEP = ["sweep", "--max-omega", "9", "--checks", "box"]


@pytest.mark.parametrize("argv, option, value", [
    (LIMIT, "--window", "0"), (LIMIT, "--window", "-2"),
    (LIMIT, "--depth", "0"), (LIMIT, "--depth", "-1"),
    (SWEEP, "--workers", "0"), (SWEEP, "--workers", "-2"),
    (SWEEP, "--workers", "abc"),
], ids=["limit-window-0", "limit-window--2", "limit-depth-0",
        "limit-depth--1", "sweep-workers-0", "sweep-workers--2",
        "sweep-workers-abc"])
def test_counts_below_one_are_usage_errors(argv, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + [option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert (f"argument {option}: invalid positive_int value: '{value}'"
            in captured.err and captured.out == "")


@pytest.mark.parametrize("value", ["0", "-2", "abc", ""])
def test_plaid_workers_follows_the_workers_rule(value, monkeypatch, capsys):
    monkeypatch.setenv("PLAID_WORKERS", value)
    with pytest.raises(SystemExit) as exc:
        run(SWEEP)
    assert exc.value.code == 2
    assert (f"argument --workers: invalid positive_int value: '{value}'"
            in capsys.readouterr().err)
    # an explicit --workers wins, and the environment is not checked then
    assert cli.build_parser().parse_args(SWEEP + ["--workers", "1"]).workers == 1
    monkeypatch.setenv("PLAID_WORKERS", "2")
    assert cli.build_parser().parse_args(SWEEP).workers == 2
    monkeypatch.delenv("PLAID_WORKERS")
    assert cli.build_parser().parse_args(SWEEP).workers is None


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
    pytest.param(["chain", "12/29", "--qmax", "50"], id="chain-param-and-qmax"),
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


@pytest.mark.parametrize("argv, message", [
    (["pet", "orbit", "5/12", "--square", "1", "--json", "x.json"],
     "invalid square value: '1'"),
    (["pet", "orbit", "5/12", "--square", "1,2,3"], "invalid square value"),
    (["pet", "orbit", "5/12", "--square", "0,x"], "invalid square value"),
    (["pet", "orbit", "5/12", "--max-steps", "0"],
     "argument --max-steps: invalid positive_int value: '0'"),
    (["pet", "orbit", "5/12", "--max-steps", "-3"], "invalid positive_int value"),
    (["tile", "5/12", "--scale", "-4", "--svg", "x.svg"],
     "argument --scale: invalid positive_int value: '-4'"),
    (["render", "copy", "5/12", "12/29", "--scale", "0", "--svg", "x.svg"],
     "invalid positive_int value"),
], ids=["square-one", "square-three", "square-not-int", "max-steps-0",
        "max-steps-negative", "tile-scale", "render-scale"])
def test_bad_option_values_are_usage_errors(argv, message, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
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


def test_check_copytheorem_failure_detail(monkeypatch):
    # 12/29 descends through the approximating terms 1/2, 2/5, 5/12; without
    # its column 0 the arc of 5/12 holds no copy of the arc of 2/5
    r = EvenRational(12, 29)
    assert checks.check_copytheorem(r) == (True, "")
    polygon = copying.big_polygon

    def column_0_lost(s):
        gamma = polygon(s)
        if s == EvenRational(5, 12):
            gamma = type(gamma)(s, [sq for sq in gamma.squares if sq[0] != 0])
        return gamma
    monkeypatch.setattr(copying, "big_polygon", column_0_lost)
    assert checks.check_copytheorem(r) == (False, "pair 2/5->5/12")


def pet_oracle(r):
    """`check_pet` as it read the first block square by square through
    ``scalar_oracle(r)``: the reference for the check that reads each edge
    once."""
    om = r.omega
    dense = checks.first_block_tiling(r).tiles.tolist()
    bits_at = scalar_oracle(r)
    for a in range(om):
        for b in range(om):
            scalar = bits_at(a, b)
            if dense[a][b] != scalar:
                return False, (
                    f"square ({a},{b}) is {TILE_NAMES[dense[a][b]] or 'empty'} "
                    f"in the dense tiling and {TILE_NAMES[scalar] or 'empty'} "
                    f"in the scalar oracle")
    return True, ""


def flip_scalar_edges(monkeypatch, hs=(), vs=()):
    """Flip the goodness of the horizontal edges hs, as (y, a), and the
    vertical edges vs, as (x, b), in ``tiling._scalar_edges``; `check_pet`
    and ``scalar_oracle`` both read it from the module."""
    def flipped(r):
        h_count, v_good = _scalar_edges(r)
        return (lambda y, a: int(h_count(y, a) != 1) if (y, a) in hs
                else h_count(y, a),
                lambda x, b: v_good(x, b) != ((x, b) in vs))
    monkeypatch.setattr(tiling, "_scalar_edges", flipped)


def outcome(check, r):
    try:
        return check(r)
    except CoherenceError as exc:
        return "CoherenceError", str(exc)


@pytest.mark.parametrize("side,square,bits,detail", [
    ("dense", (0, 5), 0,
     "square (0,5) is empty in the dense tiling and NS in the scalar oracle"),
    ("dense", (16, 3), N | S,
     "square (16,3) is NS in the dense tiling and empty in the scalar oracle"),
    ("scalar", (16, 3), N | E,
     "square (16,3) is empty in the dense tiling and NE in the scalar oracle"),
])
def test_check_pet_failure_detail(monkeypatch, side, square, bits, detail):
    # one square of 5/12 (omega 17) changed on one side: (0, 5) is a
    # connector, (16, 3) an empty square of the last column
    r = EvenRational(5, 12)
    assert checks.check_pet(r) == (True, "")
    if side == "dense":
        first_block = checks.first_block_tiling

        def one_changed_tile(s):
            block = first_block(s)
            block.tiles[square] = bits
            return block
        monkeypatch.setattr(checks, "first_block_tiling", one_changed_tile)
    else:
        # N and E of (16, 3): the square across N, (16, 4), comes later in
        # (a, b) order, and the one across E lies outside the block
        flip_scalar_edges(monkeypatch, [(4, 16)], [(17, 3)])
    assert checks.check_pet(r) == (False, detail)
    assert pet_oracle(r) == (False, detail)


def test_check_pet_matches_per_square_oracle_under_edge_flips(monkeypatch):
    # every single edge of the first block of 5/12 flipped: the square
    # before the edge in (a, b) order turns odd and raises in both
    r = EvenRational(5, 12)
    om = r.omega
    assert outcome(checks.check_pet, r) == outcome(pet_oracle, r) == (True, "")
    edges = [(i, j) for i in range(om + 1) for j in range(om)]
    for hs, vs in [([e], []) for e in edges] + [([], [e]) for e in edges]:
        flip_scalar_edges(monkeypatch, hs, vs)
        got = outcome(checks.check_pet, r)
        assert got[0] == "CoherenceError", (hs, vs)
        assert got == outcome(pet_oracle, r), (hs, vs)
    # N and W of the connector (0, 5) flipped: it reads SW, two good edges,
    # and its other neighbour across N comes later in (a, b) order
    flip_scalar_edges(monkeypatch, [(6, 0)], [(0, 5)])
    detail = "square (0,5) is NS in the dense tiling and SW in the scalar oracle"
    assert outcome(checks.check_pet, r) == outcome(pet_oracle, r) == (False, detail)


def test_check_pet_failure_detail_survives_python_O():
    # the dense-tile case at (16, 3) again, with assert statements stripped
    code = (
        "from plaid import checks\n"
        "from plaid.numtheory import EvenRational\n"
        "from plaid.tiling import N, S\n"
        "first_block = checks.first_block_tiling\n"
        "def one_changed_tile(s):\n"
        "    tiling = first_block(s)\n"
        "    tiling.tiles[16, 3] = N | S\n"
        "    return tiling\n"
        "checks.first_block_tiling = one_changed_tile\n"
        "print(checks.check_pet(EvenRational(5, 12)))\n")
    src = str(Path(plaid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("(False, 'square (16,3) is NS in the dense tiling "
                           "and empty in the scalar oracle')\n")


def test_closed_stdout_ends_without_a_traceback():
    # `plaid lines 500/1003 | head -2`: the report is far larger than a pipe
    # buffer, so the reader closes the pipe while plaid is still writing
    src = str(Path(plaid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "plaid.cli", "lines",
                             "500/1003"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert [proc.stdout.readline() for _ in range(2)] == [
        "{\n", '  "param": "500/1003",\n']
    proc.stdout.close()
    assert proc.stderr.read() == ""
    assert proc.wait(timeout=120) == 1
    proc.stderr.close()


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


def test_pet_fiber_negative_t(tmp_path):
    # argparse reads "-9/7" after a space as an option; "=" keeps it a value
    out = tmp_path / "fiber.json"
    assert run(["pet", "fiber", "2/5", "--t=-9/7", "--json", str(out)]) == 0
    assert load_stripped(out)["t"] == "-9/7"


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
