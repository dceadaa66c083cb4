import json
import os
import subprocess
import sys

import pytest

import modlat
from modlat import lattice, modform
from modlat.cli import main
from modlat.lattice import theta_coefficients


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out
    return _run


def test_expand_golden(run):
    assert run("expand", "Theta_D4", "--order", "8") == \
        (0, "1 + 24q^2 + 24q^4 + 96q^6\n")
    assert run("expand", "Delta_4", "--order", "4") == \
        (0, "q - 4q^2 + 4q^3\n")
    assert run("expand", "theta3", "--order", "5") == \
        (0, "1 + 2q + 2q^4\n")


def test_decompose_golden(run):
    code, out = run("decompose", "BW16", "--kind", "even")
    assert (code, out) == (0, "Theta_D4^4 - 96*Delta_16\n")
    code, out = run("decompose", "ExampleDim8", "--kind", "general")
    assert (code, out) == (0, "f1^4 - 8*f1^2*Delta_4\n")
    code, out = run("decompose", "A2", "--kind", "even")
    assert (code, out) == (0, "Theta_A2\n")
    # BW16 also decomposes in the level-2 general shape
    code, out = run("decompose", "BW16", "--kind", "general")
    assert (code, out) == (0, "f1^8 - 16*f1^6*Delta_4 - 256*f1^2*Delta_4^3"
                              " + 256*Delta_4^4\n")


def test_decompose_reads_the_shape_from_the_lattice(run, tmp_path):
    # ell from det G = ell^(n/2); "even" for an even Gram, else "general"
    text = tmp_path / "bw16.txt"
    text.write_text(modlat.catalog("BW16").gram.to_text())
    assert run("decompose", "--gram", str(text)) == \
        (0, "Theta_D4^4 - 96*Delta_16\n")
    assert run("decompose", "ExampleDim8") == \
        (0, "f1^4 - 8*f1^2*Delta_4\n")
    assert run("decompose", "C2") == (0, "f1\n")


@pytest.mark.parametrize("sheared", [False, True])
def test_decompose_a_gram_file_is_proven_at_the_sturm_depth(
        run, tmp_path, monkeypatch, sheared):
    # BW16, and the same lattice in the basis U = I plus the
    # superdiagonal that the installed-package smoke run builds
    G = modlat.catalog("BW16").gram.entries
    n = len(G)
    U = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    if sheared:
        G = [[sum(U[i][k] * G[k][m] * U[j][m]
                  for k in range(n) for m in range(n)) for j in range(n)]
             for i in range(n)]
    text = tmp_path / "bw16.txt"
    text.write_text(modlat.GramMatrix(G).to_text())
    depths = []
    monkeypatch.setattr(modform, "theta_coefficients",
                        lambda gram, depth, budget: depths.append(depth)
                        or theta_coefficients(gram, depth, budget))
    assert run("decompose", "--gram", str(text)) == run("decompose", "BW16")
    assert depths == [4]


def test_code_golden(run):
    code, out = run("code", "PSole_dim8", "lwe")
    assert code == 0
    assert out.strip() == ("a^4 + 4a^2d^2 + 16abcd + 8ad^3 + 8b^3d"
                           + " + 4b^2c^2 + 24bcd^2 + 8c^3d + 8d^4")
    code, out = run("code", "PSole_dim8", "theta", "--order", "5")
    assert (code, out) == (0, "1 + 32q^2 + 128q^3 + 240q^4\n")
    code, out = run("code", "PSole_dim8", "selfdual")
    assert code == 0 and out.startswith("true")


def test_gain_golden(run):
    code, out = run("gain", "BW16")
    assert code == 0
    assert abs(float(out) - 2.20564) < 1e-5
    code, out = run("gain", "Z16")
    assert (code, float(out)) == (0, 1.0)


def test_gain_and_curve_from_a_gram_file(run, tmp_path):
    # BW16's Gram takes its certified closed form, the fixture's polynomial
    text = tmp_path / "bw16.txt"
    text.write_text(modlat.catalog("BW16").gram.to_text())
    js = tmp_path / "bw16.json"
    js.write_text(modlat.catalog("BW16").gram.to_json())
    for path in (text, js):
        assert run("gain", "--gram", str(path)) == run("gain", "BW16")
        assert run("curve", "--gram", str(path), "--samples", "7") == \
            run("curve", "BW16", "--samples", "7")


def test_gain_refuses_a_gram_with_no_integer_ell(capsys, tmp_path):
    # E8 + D4: det 4 and n = 12, so det^2 is no 12th power
    e8, d4 = (modlat.catalog(name).gram.entries for name in ("E8", "D4"))
    path = tmp_path / "e8_d4.txt"
    path.write_text(modlat.GramMatrix(
        [list(row) + [0] * 4 for row in e8]
        + [[0] * 8 + list(row) for row in d4]).to_text())
    assert main(["gain", "--gram", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: no integer ell with ell^n = det^2 for det 4, n = 12\n"


@pytest.mark.parametrize("argv", [
    "decompose BW16 --ell 2",
    "gain E8 --ell 2",
    "gain Z16 --n 16",
    "curve E8 --ell 1",
    "curve E8 --n 8",
])
def test_removed_flags_are_refused(capsys, argv):
    # ell and n are read from the lattice
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_curve_csv_shape(run):
    code, out = run("curve", "BW16", "--range", "-6:3", "--samples", "31",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi,y_dB"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    assert len(rows) == 31
    xs = [r[1] for r in rows]
    assert xs[0] == -6.0 and xs[-1] == 3.0
    # unimodal with peak near -1.5 dB
    peak = max(rows)
    assert abs(peak[1] + 1.5) < 0.3
    assert abs(peak[0] - 2.20564) < 1e-3


def test_json_output_deterministic(run):
    _, a = run("expand", "Delta_16", "--order", "8", "--format", "json")
    _, b = run("expand", "Delta_16", "--order", "8", "--format", "json")
    assert a == b
    d = json.loads(a)
    assert d["terms"][0] == [2, "1"]


def test_tables_which_2_all_pass(run):
    code, out = run("tables", "--which", "2")
    assert code == 0
    assert out.count("PASS") == 10 and "FAIL" not in out


def test_error_exit_code(run):
    code, _ = run("expand", "NoSuchForm")
    assert code == 2


def test_out_file(run, tmp_path):
    target = tmp_path / "series.json"
    code, out = run("expand", "Theta_A2", "--order", "8",
                    "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    d = json.loads(target.read_text())
    assert d["terms"][0] == [0, "1"]


@pytest.mark.parametrize("argv", [
    "curve A2 --range 3:1 --samples 3",
    "curve A2 --samples 1",
    "curve A2 --range abc",
    "expand Theta_D4 --order 0",
    "expand Theta_D4 --order x",
    "decompose --gram /nonexistent",
    "gain --gram /nonexistent",
    "curve --gram /nonexistent",
    "gain",
    "gain Zn",
    # theta2 and theta3 would need more than theta.MAX_TERMS terms
    "curve A2 --range -120:-110 --samples 2",
    # 10^(y_dB/10) overflows
    "curve C2 --range -1e6:1e6",
    "curve E8 --range 3100:3200",
    # the dual weight y^(-n/2) of a count sum passes the float range
    "curve ExampleDim8 --range=-3000:-2990 --samples 2",
    # the budget reaches the secrecy functions' enumerations
    "gain ExampleDim8 --budget 10",
    "curve ExampleDim8 --budget 10 --samples 3",
    # and the closed-form counts of one-dimensional summands
    "expand Z64 --order 500 --budget 10",
    # eps must be finite and above 0, on every route
    "gain E8 --eps 0",
    "gain dim8 --eps -1",
    "curve BW16 --eps 0 --samples 2",
    "gain C2 --eps 0",
    "gain C2 --eps nan",
    "gain C2 --eps inf",
])
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("which", ["1", "2"])
def test_tables_budget_reaches_the_catalog_grams(capsys, which):
    # the rows with a catalog Gram enumerate it: K12 to norm 4 in
    # table 1, ExampleDim8 to norm 8 in table 2
    assert main(["tables", "--which", which, "--budget", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumeration exceeded budget of 10 nodes\n"


@pytest.mark.parametrize("action", ["lwe", "selfdual", "theta"])
def test_code_with_ragged_rows_exits_2(capsys, tmp_path, action):
    path = tmp_path / "ragged.txt"
    path.write_text("1 0 v\n0 1\n")
    assert main(["code", str(path), action]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: generator rows must have equal length\n"


def test_tables_reduce_each_catalog_gram_once(capsys, monkeypatch):
    # the catalog entry, and the reduced basis kept on its Gram, outlive
    # the call
    lattice._named.cache_clear()
    reduced = []
    lll = lattice._lll
    monkeypatch.setattr(lattice, "_lll",
                        lambda G: reduced.append(G) or lll(G))
    for _ in range(2):
        assert main(["tables", "--which", "2"]) == 0
    capsys.readouterr()
    assert reduced.count(lattice.EXAMPLE_DIM8) == 1


def test_tables_build_each_row_once(capsys, monkeypatch):
    built = []
    decompose = modform.decomposition_from_fixture
    monkeypatch.setattr(modform, "decomposition_from_fixture",
                        lambda row: built.append(row) or decompose(row))
    assert main(["tables", "--which", "2"]) == 0
    capsys.readouterr()
    assert len(built) == 10


def test_curve_far_above_symmetry_point_terminates():
    # theta2(6*i*y) underflows to 0 here; its summation loop must stop
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(modlat.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "modlat.cli", "curve", "A2",
         "--range", "22:23", "--samples", "2", "--format", "json"],
        capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert [p["xi"] for p in json.loads(proc.stdout)] == [1.0, 1.0]


def test_curve_below_symmetry_point_from_a_gram():
    # the Gram path certifies each sample from one enumeration per side
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(modlat.__file__)))

    def curve(name):
        proc = subprocess.run(
            [sys.executable, "-m", "modlat.cli", "curve", name,
             "--range=-6:-5", "--samples", "2", "--format", "json"],
            capture_output=True, text=True, timeout=30, env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    gram, closed = curve("ExampleDim8"), curve("dim8")
    assert [p["y_dB"] for p in gram] == [p["y_dB"] for p in closed]
    for p, q in zip(gram, closed):
        assert p["xi"] == pytest.approx(q["xi"], rel=1e-9, abs=0)


def test_expand_a_catalog_gram_at_a_fractional_order(run):
    # every norm below the order is counted, as for the table row
    for order in ("5/2", "7/2"):
        assert run("expand", "ExampleDim8", "--order", order) == \
            run("expand", "dim8", "--order", order)
    assert run("expand", "ExampleDim8", "--order", "5/2") == \
        (0, "1 + 32q^2\n")
    assert run("expand", "C2", "--order", "7/2") == \
        run("expand", "C2", "--order", "4") == (0, "1 + 2q + 2q^2 + 4q^3\n")


def test_main_can_be_called_again_and_again(capsys, tmp_path):
    target = tmp_path / "series.json"
    argvs = [
        ["curve", "BW16", "--range", "-6:3", "--samples", "5"],
        ["curve", "A2", "--range", "-3:-1", "--samples", "3",
         "--format", "json"],
        ["gain", "dim24", "--format", "json"],
        ["decompose", "dim8", "--format", "csv"],
        ["expand", "Theta_A2", "--order", "8", "--format", "json",
         "--out", str(target)],
        ["expand", "C2", "--order", "5/2"],
        ["gain", "NoSuchLattice"],
        ["tables", "--which", "3"],
        ["gain", "E8", "--ell", "2"],
        ["tables"],
    ]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # an argparse error
            code = exc.code
        captured = capsys.readouterr()
        written = target.read_text() if "--out" in argv else None
        return code, captured.out, captured.err, written

    first = [call(argv) for argv in argvs]
    parser = modlat.cli._parser
    again = [call(argv) for argv in reversed(argvs)][::-1]
    assert again == first
    assert [r[0] for r in first] == [0, 0, 0, 0, 0, 0, 2, 1, 2, 2]
    assert first[4][1] == "" and json.loads(first[4][3])["terms"][0] == \
        [0, "1"]
    assert modlat.cli._parser is parser
    args = parser.parse_args(["gain", "E8"])
    assert args.eps == modlat.secrecy._EPS_DEFAULT
    assert args.budget == modlat.lattice.DEFAULT_BUDGET


def test_commands_that_never_enumerate_leave_numpy_unloaded():
    # numpy is imported at the first enumeration, not with the package
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(modlat.__file__)))
    script = """if True:
        import contextlib, io, json, sys
        import modlat, modlat.cli
        codes = []
        for argv in ("gain dim24", "curve BW16 --samples 3",
                     "decompose dim8", "expand Theta_E8 --order 16",
                     "tables --which 3", "code PSole_dim8 lwe"):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(modlat.cli.main(argv.split()))
        before = "numpy" in sys.modules
        modlat.theta_coefficients(modlat.catalog("D4").gram, 4)
        print(json.dumps([codes, before, "numpy" in sys.modules]))
    """
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0, 1, 0], False, True]
