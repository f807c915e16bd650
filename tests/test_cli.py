import ast
import hashlib
import importlib
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from qfock import cli, stochastic, suites, wick
from qfock.cli import main
from qfock.errors import UsageError
from qfock.fock import FockVector, apply
from qfock.kspoly import NCPolynomial
from qfock.model import ldl_psd
from qfock.qscalar import ONE, QScalar, const, q_pow

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "moments", "--seed", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "identity,params,exact_zero,residual"
        assert all(",yes," in line for line in lines[1:])
        assert not any(line.startswith("# FAILED") for line in lines)

    def test_failure_names_identity_and_exits_1(self, capsys, monkeypatch):
        def broken(rng):
            return [suites.IdentityRow("made_up_identity", "n=1", False, "q - 1")]

        monkeypatch.setitem(suites.SUITES, "commutation", broken)
        code, out, _ = run(capsys, "verify", "--suite", "commutation")
        assert code == 1
        assert "# FAILED: made_up_identity" in out
        assert 'made_up_identity,n=1,no,"q - 1"' in out

    def test_failing_rows_print_their_residual(self, capsys, monkeypatch):
        # St_pi doubled breaks every power_decomposition and stpi_corollary
        # row, and an extra x1 in q_hermite breaks q_hermite_3: each prints
        # its nonzero residual
        st_pi, h = stochastic.st_pi_closed, suites.q_hermite
        monkeypatch.setattr(stochastic, "st_pi_closed",
                            lambda *args: st_pi(*args).scale(const(2)))
        monkeypatch.setattr(suites, "q_hermite", lambda n: h(n) + NCPolynomial.x(1))
        code, out, _ = run(capsys, "verify", "--suite", "stpi,ks")
        assert code == 1
        rows = {tuple(line.split(",", 2)[:2]): line.split(",", 2)[2]
                for line in out.splitlines()[1:-1]}
        for n in range(1, 6):
            status, residual = rows["power_decomposition", f"n={n}"].split(",", 1)
            assert status == "no" and residual not in ('"0"', '""')
        assert rows["q_hermite_3", "x^3-(2+q)x"] == 'no,"(1) · x1"'
        assert rows["q_charlier_2", "x^2-x-1"] == 'yes,"0"'
        assert (out.splitlines()[-1]
                == "# FAILED: power_decomposition,q_hermite_3,stpi_corollary")

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert "unknown suites" in err

    @pytest.mark.parametrize("suites", ["", ",", " , "])
    def test_empty_suite_flag_is_usage_error(self, capsys, suites):
        code, out, err = run(capsys, "verify", "--suite", suites)
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: empty suite list")

    def test_empty_suite_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("suite =\nseed = 3\n")
        code, out, err = run(capsys, "verify", "--model", str(cfg))
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: empty suite list")

    def test_deterministic_per_seed(self, capsys):
        _, first, _ = run(capsys, "verify", "--suite", "commutation",
                          "--seed", "7")
        _, second, _ = run(capsys, "verify", "--suite", "commutation",
                           "--seed", "7")
        assert first == second

    def test_out_dir_written(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--suite", "moments",
                           "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "verify.csv").read_text() == out


def per_word_residual(sub, space, lhs, rhs):
    """The sum of c_w (lhs - rhs) e_w over the basis words w of length 1-4,
    one word at a time, each c_w drawn from sub as the batched vector draws
    it."""
    diff = FockVector(space, 5)
    words = [()]
    for _ in range(4):
        words = [w + (i,) for w in words for i in range(space.dim)]
        for w in words:
            v = FockVector.basis_word(space, 5, w).scale(sub.choice(suites.NONZERO))
            for ww, c in (apply(lhs, v) - apply(rhs, v)).terms.items():
                diff.add_term(ww, c)
    return diff


class TestCommutationResidual:
    # the batched vector is the sum of the per-word residuals, each scaled
    # by its drawn coefficient; the draws redraw a zero gram, a zeta that
    # pairs to zero with every basis vector and a zero eta, so every draw
    # sees the q term dropped
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_batched_matches_per_word_loop(self, seed):
        rng = random.Random(seed)
        for dim in (1, 2, 3):
            state = rng.getstate()
            case = suites.commutation_relation(rng, dim, q_pow(1))
            coeffs = rng.getstate()
            assert suites.commutation_residual(rng, *case).is_zero
            rng.setstate(coeffs)
            assert per_word_residual(rng, *case).is_zero
            # the same draw with the q dropped from the relation
            rng.setstate(state)
            broken = suites.commutation_relation(rng, dim, ONE)
            coeffs = rng.getstate()
            diff = suites.commutation_residual(rng, *broken)
            assert not diff.is_zero
            rng.setstate(coeffs)
            assert diff == per_word_residual(rng, *broken)

    def test_every_verify_row_sees_q_dropped(self, monkeypatch):
        """With q replaced by 1 in the relation, each of the 320 commutation
        rows of `verify --seed 0..15` reads nonzero."""
        monkeypatch.setattr(suites, "q_pow", lambda k: ONE)
        rows = []
        for seed in range(16):
            # commutation is the first suite, so its sub-seed is the first draw
            sub = random.Random(seed).randrange(2 ** 32)
            rows.extend(suites.SUITES["commutation"](random.Random(sub)))
        assert list(suites.SUITES)[0] == "commutation"
        assert len(rows) == 320 and not any(row.ok for row in rows)


def readme_config() -> str:
    """The config block that follows "Models are small" in README.md."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^Models are small.*?^```\n(.*?)^```", text, re.M | re.S)
    assert block and re.search(r"^nu\.atoms = ", block[1], re.M)
    return block[1]


VERIFY_MD5 = "479071606056bfb97e01a6bf34986ab3"  # stdout does not depend on the seed
ORDER8_MD5 = "7f987cd55668dfea1aa97178aa86f484"
THREE_POINT_20_MD5 = "d1b74dc5038ff6a9409b0994a97c8f3d"
GAUSSIAN_20_MD5 = "179ba44cdb616d212e8ba9ddc3918797"
README_MOMENTS_MD5 = "a265e1b2f75232276f48c4e1e2339aa4"
CONVERGE_MD5 = "c19ae9f15073a522ade1999160889087"

# The md5 of the full stdout of each run, as recorded in CHANGES.md: the
# argv, a model file's text (passed as --model) or None, and the digest.
# An --out run also writes each report file with the same bytes.
STDOUT_DIGESTS = {
    # every draw the perfbench verify gate uses
    **{f"verify_seed{seed}": (["verify", "--seed", str(seed)], None, VERIFY_MD5)
       for seed in range(16)},
    "moments_order8": (["moments", "--nmax", "8", "--cutoff", "7"], None, ORDER8_MD5),
    # X(1)'s law does not depend on the grid, so unequal widths print the
    # table above; the file has no q line: q = exact is the default
    "moments_order8_unequal_widths": (
        ["moments", "--nmax", "8"],
        "nu.atoms = [(-1, 1/4), (0, 1/2), (1, 1/4)]\ngrid = [0, 1/4, 1/2, 1]\n"
        "degree_cutoff = 7\n", ORDER8_MD5),
    # each row is the exact polynomial read at q0 and printed as a float
    "moments_order8_q_half": (["moments", "--q", "1/2", "--nmax", "8", "--cutoff", "7"],
                              None, "f49020fd6de1cca523f5062797ea46fd"),
    "moments_order16": (["moments", "--nmax", "16", "--cutoff", "15"], None,
                        "fddd999e092da15869789fcb78693b0f"),
    "moments_three_point_order20": (["moments", "--nmax", "20", "--cutoff", "19"],
                                    None, THREE_POINT_20_MD5),
    # the measure has 3 support points, so the model closes at cutoff 3
    "moments_three_point_order20_default_cutoff": (["moments", "--nmax", "20"], None,
                                                   THREE_POINT_20_MD5),
    # one atom of width 1: the Touchard-Riordan polynomials
    "moments_gaussian_order20": (
        ["moments", "--nmax", "20"],
        "q = exact\nnu.atoms = [(0, 1)]\ngrid = [0, 1]\ndegree_cutoff = 19\n",
        GAUSSIAN_20_MD5),
    # every letter product is null, so cutoff 4 prints the same table
    "moments_gaussian_order20_cutoff4": (
        ["moments", "--nmax", "20"],
        "q = exact\nnu.atoms = [(0, 1)]\ngrid = [0, 1]\ndegree_cutoff = 4\n",
        GAUSSIAN_20_MD5),
    # nu on 4 points at cutoff 3 does not close: block products read the
    # cutoff branch of the product table
    "moments_four_point_cutoff3": (
        ["moments", "--nmax", "4"],
        "nu.atoms = [(-1, 1/4), (0, 1/4), (1, 1/4), (2, 1/4)]\ngrid = uniform(1, 2)\n"
        "degree_cutoff = 3\n", "54dac7fc08fd65917cb057ce321665c1"),
    "moments_all_ones_points_order28": (
        ["moments", "--nmax", "28"],
        "q = exact\npointset.points = [1]\npointset.weights = [1]\n",
        "f89aab9131cc5fbc7ede8fcf31355410"),
    # X(f) with f(x) = x, jumps at 1 and 2
    "moments_points_read_their_points": (
        ["moments", "--nmax", "4"],
        "q = exact\npointset.points = [1, 2]\npointset.weights = [1/2, 1/2]\n",
        "c951e16d682d88d5f0eb8f41bcc92cd6"),
    "moments_nmax6_cutoff5": (["moments", "--nmax", "6", "--cutoff", "5"], None,
                              "f4a46104c3a6a87134047e0c868a826c"),
    "moments_nmax6_cutoff5_q_half": (
        ["moments", "--q", "1/2", "--nmax", "6", "--cutoff", "5"], None,
        "e007530e9f87bcff0d6fbb171ec2fee2"),
    "converge": (["converge"], None, CONVERGE_MD5),
    # the README's command lines, and its config block
    "readme_verify_calculus_seed7": (["verify", "--suite", "calculus", "--seed", "7"],
                                     None, "d192798b67ae76065643d1b7a1fd0855"),
    "readme_moments": (["moments", "--nmax", "4"], None, README_MOMENTS_MD5),
    "readme_moments_q_half": (["moments", "--nmax", "4", "--q", "1/2"], None,
                              "c6d4f4eb6527ad6cae459b0073d3edeb"),
    "readme_converge_out": (["converge", "--out", "{out}"], None, CONVERGE_MD5),
    "readme_config": (["moments"], readme_config(), README_MOMENTS_MD5),
}


@pytest.mark.parametrize("argv, config, digest", list(STDOUT_DIGESTS.values()),
                         ids=list(STDOUT_DIGESTS))
def test_stdout_digest(capsys, tmp_path, argv, config, digest):
    out_dir, writes = tmp_path / "out", "{out}" in argv
    argv = [str(out_dir) if a == "{out}" else a for a in argv]
    if config is not None:
        model = tmp_path / "model.cfg"
        model.write_text(config)
        argv += ["--model", str(model)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest
    reports = list(out_dir.iterdir()) if writes else []
    assert bool(reports) == writes
    for report in reports:
        assert hashlib.md5(report.read_bytes()).hexdigest() == digest


def four_point_config(tmp_path):
    """A model file of nu on four points, at cutoff 3."""
    cfg = tmp_path / "four.cfg"
    cfg.write_text("q = exact\n"
                   "nu.atoms = [(-2, 1/4), (-1, 1/4), (1, 1/4), (2, 1/4)]\n"
                   "grid = uniform(1, 2)\n"
                   "degree_cutoff = 3\n")
    return cfg


class TestMoments:
    def test_default_model_rows(self, capsys):
        code, out, _ = run(capsys, "moments")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,moment"
        assert len(lines) == 5  # header + default nmax 4
        assert lines[1] == "1,0"

    def test_default_nmax_is_the_run_config_default(self, capsys):
        code, out, _ = run(capsys, "moments")
        assert code == 0
        assert len(out.strip().splitlines()) - 1 == cli.RunConfig().nmax

    @pytest.mark.parametrize("q0", ["0", "1/2"])
    def test_q0_prints_floats(self, capsys, q0):
        # q0 = 0 is an evaluation point like any other, not "exact": each row
        # is the exact moment evaluated there and rounded once
        code, exact, _ = run(capsys, "moments", "--nmax", "6", "--cutoff", "5")
        assert code == 0
        code, out, _ = run(capsys, "moments", "--q", q0, "--nmax", "6",
                           "--cutoff", "5")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        polys = [line.split(",") for line in exact.strip().splitlines()[1:]]
        assert [n for n, _ in rows] == [n for n, _ in polys] == list("123456")
        for (_, got), (_, poly) in zip(rows, polys):
            assert got == repr(float(QScalar.parse(poly).subs(Fraction(q0))))
        assert rows[3][1] == ("2.5" if q0 == "0" else "3.0")

    def test_pointset_all_ones(self, capsys, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text("q = exact\n"
                       "pointset.points = [1]\n"
                       "pointset.weights = [1]\n")
        code, out, _ = run(capsys, "moments", "--model", str(cfg),
                           "--nmax", "4")
        assert code == 0
        assert out.strip().splitlines()[-1] == "4,14 + q"

    @pytest.mark.parametrize("points", [[1, 2], [5, -7]])
    def test_pointset_moments_read_the_points(self, capsys, tmp_path, points):
        # X(f) for f(x) = x: up to n = 3 no partition crosses, so the moments
        # are the classical compound-Poisson ones, from the cumulants
        # k_1 = sum w x and k_n = sum w x^n
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f"pointset.points = {points}\n"
                       "pointset.weights = [1/2, 1/2]\n")
        code, out, _ = run(capsys, "moments", "--model", str(cfg), "--nmax", "3")
        assert code == 0
        k = {n: sum(F(x) ** n for x in points) / 2 for n in (1, 2, 3)}
        want = [k[1], k[2] + k[1] ** 2, k[3] + 3 * k[1] * k[2] + k[1] ** 3]
        assert out.splitlines()[1:] == [f"{n},{m}" for n, m in enumerate(want, 1)]
        assert want == ([F(3, 2), F(19, 4), F(153, 8)] if points == [1, 2]
                        else [-1, 38, -221])

    @pytest.mark.parametrize("model", ["grid", "pointset"])
    def test_fock_depth_is_an_unknown_key(self, capsys, tmp_path, model):
        # moments builds no Fock vector, so no model file carries a depth:
        # the key is refused as unknown, not read and ignored
        cfg = tmp_path / "app.cfg"
        cfg.write_text(("nu.atoms = [(0, 1)]\ngrid = [0, 1]\ndegree_cutoff = 3\n"
                        if model == "grid" else
                        "pointset.points = [1]\npointset.weights = [1]\n")
                       + "fock_depth = 6\n")
        code, out, err = run(capsys, "moments", "--model", str(cfg), "--nmax", "4")
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "unknown config key 'fock_depth'" in lines[0]

    def test_grid_file_without_q_is_exact(self, capsys, tmp_path):
        # q is a run key with the default exact, not a key of the model
        body = ("nu.atoms = [(-1, 1/4), (0, 1/2), (1, 1/4)]\n"
                "grid = [0, 1/4, 1/2, 1]\ndegree_cutoff = 3\n")
        outs = []
        for text in (body, "q = exact\n" + body):
            cfg = tmp_path / "app.cfg"
            cfg.write_text(text)
            code, out, _ = run(capsys, "moments", "--model", str(cfg), "--nmax", "6")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[-1] == "6,17/2 + 9*q + 9/2*q^2 + q^3"

    @pytest.mark.parametrize("flag", ["--grid", "--cutoff"])
    def test_pointset_refuses_grid_flags(self, capsys, tmp_path, flag):
        cfg = tmp_path / "app.cfg"
        cfg.write_text("q = exact\n"
                       "pointset.points = [1]\n"
                       "pointset.weights = [1]\n")
        code, out, err = run(capsys, "moments", "--model", str(cfg),
                             "--nmax", "4", flag, "4")
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert flag in lines[0]

    @pytest.mark.parametrize("key, value", [("degree_cutoff", "1"),
                                            ("grid", "uniform(1, 7)"),
                                            ("nu.atoms", "[(5, 1)]"),
                                            ("moments", "[0, 1]")])
    def test_pointset_refuses_grid_keys(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "app.cfg"
        cfg.write_text("q = exact\n"
                       "pointset.points = [1]\n"
                       "pointset.weights = [1]\n"
                       f"{key} = {value}\n")
        code, out, err = run(capsys, "moments", "--model", str(cfg), "--nmax", "4")
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert key in lines[0]

    @pytest.mark.parametrize("grid", [
        "", "nu.atoms = [(0, 1)]\ngrid = uniform(1, 2)\ndegree_cutoff = 3\n"],
        ids=["alone", "grid"])
    def test_weights_need_points(self, capsys, tmp_path, grid):
        # weights without points are refused, never ignored beside a grid
        # model or reported as a grid model's missing keys
        cfg = tmp_path / "app.cfg"
        cfg.write_text(grid + "pointset.weights = [1]\n")
        code, out, err = run(capsys, "moments", "--model", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: model key pointset.weights needs pointset.points\n"

    def test_budget_refusal_is_upfront(self, capsys, tmp_path):
        # four support points at cutoff 3: no null polynomial, so products
        # stop at the cutoff and a block of 6 letters is refused before any
        # moment is computed
        cfg = four_point_config(tmp_path)
        code, out, err = run(capsys, "moments", "--model", str(cfg), "--nmax", "6")
        assert code == 2 and out == ""
        assert err == "error: nmax 6 needs degree_cutoff >= 5, model has 3\n"
        code, out, _ = run(capsys, "moments", "--model", str(cfg), "--nmax", "4")
        assert code == 0 and len(out.strip().splitlines()) == 5

    def test_cutoff_flag_unlocks_larger_nmax(self, capsys, tmp_path):
        # from cutoff 4 on, the four-point model closes, and --nmax is no
        # longer bound by the cutoff; the default three-point model closes
        # at its cutoff 3, and its table does not depend on the cutoff
        cfg = four_point_config(tmp_path)
        code, out, _ = run(capsys, "moments", "--model", str(cfg), "--nmax", "6",
                           "--cutoff", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 7
        code, out, _ = run(capsys, "moments", "--nmax", "8")
        assert code == 0
        code, wide, _ = run(capsys, "moments", "--nmax", "8", "--cutoff", "7")
        assert code == 0 and out == wide

    def test_nmax_range_validated(self, capsys):
        code, _, err = run(capsys, "moments", "--nmax", str(cli.MAX_NMAX + 1))
        assert code == 2
        assert err.strip().endswith(
            f"nmax {cli.MAX_NMAX + 1}, over the limit of {cli.MAX_NMAX}")
        code, _, err = run(capsys, "moments", "--nmax", "0")
        assert code == 2
        assert err.strip().endswith("nmax 0, below the least of 1")

    def test_rows_come_from_one_transfer(self, capsys, monkeypatch):
        # every order is a suffix of the top one: one transfer of X(1)^8
        words = []
        monkeypatch.setattr(cli, "suffix_moments",
                            lambda w: words.append(w) or wick.suffix_moments(w))
        code, out, _ = run(capsys, "moments", "--nmax", "8", "--cutoff", "7")
        assert code == 0 and len(words) == 1 and len(words[0]) == 8
        x = words[0][0]
        assert out.strip().splitlines()[1:] == [
            f"{n},{wick.vacuum_moment([x] * n)}" for n in range(1, 9)]

    def test_arc_state_refusal_prints_no_row(self, capsys):
        # the one transfer of X(1)^24 is refused before any row is printed
        code, out, err = run(capsys, "moments", "--nmax", "24")
        assert code == 2 and out == ""
        assert err.strip() == ("error: vacuum_moment needs 4073 arc states at "
                               "position 11 of 24, over the budget of 4000")

    def test_moment_too_large_for_a_float_exits_2(self, capsys, tmp_path):
        # 10^200 is a valid point, but the second moment, about 10^400, is
        # no float at any q0
        cfg = tmp_path / "big.cfg"
        cfg.write_text("q = 1/2\npointset.points = [1e200]\npointset.weights = [1]\n")
        code, out, err = run(capsys, "moments", "--model", str(cfg), "--nmax", "2")
        assert code == 2 and out == ""
        assert err.strip() == ("error: moment 2 at q0 = 1/2 is too large for a "
                               "float; q = exact prints it")

    def test_nmax_budget_holds_on_point_sets(self, capsys, tmp_path):
        # a point set has no letter cutoff to bound --nmax: the budget does
        cfg = tmp_path / "ones.cfg"
        cfg.write_text("q = exact\npointset.points = [1]\npointset.weights = [1]\n")
        code, out, err = run(capsys, "moments", "--model", str(cfg), "--nmax",
                             str(cli.MAX_NMAX + 1))
        assert code == 2 and out == ""
        assert err.strip().endswith(
            f"nmax {cli.MAX_NMAX + 1}, over the limit of {cli.MAX_NMAX}")

    def test_state_budget_refusal(self, capsys):
        # the default three-point model runs X(1)^n to n = 23 and needs
        # 4,073 arc states at position 11 of n = 24
        code, out, err = run(capsys, "moments", "--nmax", "24")
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"budget of {wick.MAX_ARC_STATES}" in lines[0]
        assert re.search(r"needs \d+ arc states", lines[0])


# l2_error per grid size N = 2, 4, 8 and the fitted slope of each shipped
# experiment, recorded at full precision before the model gram became sparse
# rows
CONVERGE_PINNED = {
    "pair_free": ([0.5, 0.25, 0.125], 1.0),
    "pair_q_half": ([0.75, 0.375, 0.1875], 1.0000000000000002),
    "split_q_half": ([0.75, 0.375, 0.1875], 1.0000000000000002),
    "triple_ones": ([6.90625, 2.8984375, 1.310546875], 1.1988668015956243),
    "mixed_ones": ([1.2499999999999998, 0.6458333333333333,
                    0.3281249999999999], 0.9648053360543012),
}


class TestConverge:
    def test_csv_shape_and_slopes(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_SCHEDULE", (2, 4, 8))
        code, out, _ = run(capsys, "converge")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "experiment,N,delta,l2_error"
        labels = [label for label, *_ in
                  (line.split(",") for line in lines[1:]) if label != "#"]
        data = [line for line in lines if not line.startswith("#")]
        slopes = [line for line in lines if line.startswith("# slope")]
        assert len(data) == 1 + 5 * 3  # header + 5 experiments x 3 grid sizes
        assert len(slopes) == 5
        for line in slopes:
            assert float(line.rsplit(",", 1)[1]) > 0.5

    def test_pinned_values(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_SCHEDULE", (2, 4, 8))
        tables = {}
        real = cli.st_pi_convergence

        def recording(pi, t, factory, schedule, label):
            tables[label] = real(pi, t, factory, schedule, label)
            return tables[label]

        monkeypatch.setattr(cli, "st_pi_convergence", recording)
        code, out, _ = run(capsys, "converge")
        assert code == 0
        assert list(tables) == list(CONVERGE_PINNED)
        close = lambda x: pytest.approx(x, rel=1e-12, abs=0)
        for label, (errors, slope) in CONVERGE_PINNED.items():
            rows = tables[label].rows
            assert [r.n_atoms for r in rows] == [2, 4, 8]
            assert [r.l2_error for r in rows] == [close(e) for e in errors]
            assert tables[label].slope() == close(slope)
            # the CSV prints 13 significant digits of each error
            printed = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()
                       if line.startswith(label + ",")]
            assert printed == [close(e) for e in errors]
            assert f"# slope,{label},,{slope:.4f}" in out.splitlines()


class TestFlagPrecedence:
    def test_flags_override_model_file(self, capsys, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("q = exact\n"
                       "nu.atoms = [(-1, 1/2), (1, 1/2)]\n"
                       "grid = uniform(1, 2)\n"
                       "degree_cutoff = 2\n"
                       "nmax = 2\n")
        code, out, _ = run(capsys, "moments", "--model", str(cfg),
                           "--nmax", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # flag nmax wins

    def test_file_nmax_used_without_flag(self, capsys, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("q = exact\n"
                       "nu.atoms = [(-1, 1/2), (1, 1/2)]\n"
                       "grid = uniform(1, 2)\n"
                       "degree_cutoff = 2\n"
                       "nmax = 2\n")
        code, out, _ = run(capsys, "moments", "--model", str(cfg))
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    # (command, file line, flag, flag value, the setting read off the run
    # config, its value from the file, its value from the flag)
    @pytest.mark.parametrize("command,line,flag,value,read,from_file,from_flag", [
        ("moments", "q = exact", "--q", "1/2",
         lambda c: c.q, None, F(1, 2)),
        ("moments", "degree_cutoff = 2", "--cutoff", "4",
         lambda c: c.model["degree_cutoff"], 2, 4),
        ("moments", "grid = uniform(1, 2)", "--grid", "5",
         lambda c: c.model["grid"].n_atoms, 2, 5),
        ("moments", "nmax = 2", "--nmax", "3", lambda c: c.nmax, 2, 3),
        ("verify", "suite = ks", "--suite", "moments",
         lambda c: c.suite, ("ks",), ("moments",)),
        ("verify", "seed = 3", "--seed", "5", lambda c: c.seed, 3, 5),
    ], ids=["q", "cutoff", "grid", "nmax", "suite", "seed"])
    def test_each_flag_wins_over_its_file_key(self, capsys, tmp_path, monkeypatch,
                                              command, line, flag, value, read,
                                              from_file, from_flag):
        configs = []
        monkeypatch.setattr(cli, f"cmd_{command}",
                            lambda config: configs.append(config) or 0)
        cfg = tmp_path / "m.cfg"
        text = "" if command == "verify" else MODEL_TEXT.replace(line, "")
        cfg.write_text(text + line + "\n")
        assert run(capsys, command, "--model", str(cfg)) == (0, "", "")
        assert run(capsys, command, "--model", str(cfg), flag, value) == (0, "", "")
        assert [read(c) for c in configs] == [from_file, from_flag]


MODEL_TEXT = ("q = exact\n"
              "nu.atoms = [(-1, 1/2), (1, 1/2)]\n"
              "grid = uniform(1, 2)\n"
              "degree_cutoff = 2\n")


class TestConfigValues:
    """A malformed value in a complete model file is a usage error (exit 2)
    with one `error:` line, never a traceback or exit 1."""

    @pytest.mark.parametrize("command,old,new", [
        ("moments", "degree_cutoff = 2", "degree_cutoff = abc"),
        ("moments", "q = exact", "q = 1/0"),
        ("moments", "grid = uniform(1, 2)", "grid = nonsense"),
        ("verify", "degree_cutoff = 2", "degree_cutoff = 2\nseed = x"),
        ("verify", "degree_cutoff = 2", "degree_cutoff = abc"),
    ], ids=["degree_cutoff", "q", "grid", "seed", "verify_degree_cutoff"])
    def test_bad_value_exits_2(self, capsys, tmp_path, command, old, new):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(MODEL_TEXT.replace(old, new))
        code, out, err = run(capsys, command, "--model", str(cfg))
        assert code == 2
        assert out == ""
        key = new.split("\n")[-1].split("=")[0].strip()
        assert err.startswith("error: ") and key in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_q_outside_the_interval_names_the_key(self, capsys, tmp_path, source):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(MODEL_TEXT.replace("q = exact", "q = 1" if source == "file" else ""))
        flag = ["--q", "1"] if source == "flag" else []
        assert run(capsys, "moments", "--model", str(cfg), *flag) == (
            2, "", "error: bad config value q = '1': q0 must lie in (-1, 1), got 1\n")

    @pytest.mark.parametrize("command,text,unread", [
        ("verify", MODEL_TEXT.replace("q = exact", "q = 1/2")
         + "nmax = 7\nsuite = ks\nseed = 3\n",
         "q, degree_cutoff, grid, nu.atoms, nmax"),
        ("verify", "q = 1/2\nseed = 3\n", "q"),
        ("moments", MODEL_TEXT + "suite = ks\nseed = 9\n", "suite, seed"),
        ("moments", MODEL_TEXT + "nmax = 2\nsuite = ks\n", "suite"),
    ], ids=["verify_model", "verify_q", "moments_suite_seed", "moments_suite"])
    def test_unread_key_exits_2(self, capsys, tmp_path, command, text, unread):
        """A file key that the command would ignore is refused, naming the
        key and the command."""
        cfg = tmp_path / "m.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--model", str(cfg))
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {command} does not read config keys "
                                   f"{unread} (it reads ")

    def test_malformed_value_is_named_before_an_unread_key(self, capsys, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("degree_cutoff = abc\nseed = 3\n")
        code, _, err = run(capsys, "verify", "--model", str(cfg))
        assert code == 2
        assert err == "error: bad config value degree_cutoff = 'abc'\n"

    def test_verify_reads_suite_and_seed_only_file(self, capsys, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("suite = moments\nseed = 3\n")
        code, out, err = run(capsys, "verify", "--model", str(cfg))
        assert code == 0 and err == ""
        assert out.startswith("identity,params,exact_zero,residual\nmoment_formula,")

    def test_missing_model_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "moments", "--model", str(tmp_path / "none"))
        assert code == 2
        assert err.startswith("error: cannot read model file")

    @pytest.mark.parametrize("command", ["verify", "moments"])
    def test_model_file_not_utf8_exits_2(self, capsys, tmp_path, command):
        cfg = tmp_path / "m.cfg"
        cfg.write_bytes(MODEL_TEXT.encode("utf-16"))
        code, out, err = run(capsys, command, "--model", str(cfg))
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read model file")

    @pytest.mark.parametrize("command", ["verify", "moments"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_out_not_a_directory_exits_2(self, capsys, tmp_path, command, below):
        """An --out that cannot be a directory is refused before any work,
        so nothing is printed first."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "x" if below else blocker
        code, out, err = run(capsys, command, "--out", str(out_dir))
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot create output directory")

    @pytest.mark.parametrize("command,report", [("verify", "verify.csv"),
                                                ("moments", "moments.csv")])
    def test_unwritable_report_exits_2(self, capsys, tmp_path, command, report):
        """A report file that cannot be written is a usage error, and the
        report is not printed either."""
        (tmp_path / report).mkdir()
        argv = ["--suite", "moments"] if command == "verify" else []
        code, out, err = run(capsys, command, *argv, "--out", str(tmp_path))
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write report")

    @pytest.mark.parametrize("command,text,key", [
        ("moments", MODEL_TEXT + "nmx = 2\n", "nmx"),
        ("moments", MODEL_TEXT + "depth = 4\n", "depth"),
        ("verify", "sede = 5\n", "sede"),
        ("verify", MODEL_TEXT + "suites = moments\n", "suites"),
    ], ids=["moments_nmx", "moments_depth", "verify_sede", "verify_suites"])
    def test_unknown_key_exits_2(self, capsys, tmp_path, command, text, key):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--model", str(cfg))
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert repr(key) in lines[0]

    @pytest.mark.parametrize("command,text,key", [
        # at cutoff 1, nmax 2 runs: only the repeat can refuse it
        ("moments", MODEL_TEXT.replace("degree_cutoff = 2",
                                       "degree_cutoff = 3\ndegree_cutoff = 1")
         + "nmax = 2\n", "degree_cutoff"),
        ("verify", "seed = 1\nseed = 1\n", "seed"),
    ], ids=["moments_degree_cutoff", "verify_seed"])
    def test_repeated_key_exits_2(self, capsys, tmp_path, command, text, key):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--model", str(cfg))
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert key in lines[0]


class TestModelChecks:
    """An explicit moment list must be a moment sequence, and the grid
    model's sizes have budgets checked when their keys are converted."""

    def refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err
        return lines[0]

    def test_moments_list_with_negative_pivot_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(MODEL_TEXT.replace("nu.atoms = [(-1, 1/2), (1, 1/2)]",
                                          "moments = [0, -1, 0, 1, 0, 1, 0, 1, 0, 1]")
                       .replace("degree_cutoff = 2", "degree_cutoff = 3"))
        line = self.refused(capsys, "moments", "--model", str(cfg), "--nmax", "4")
        assert "not positive semidefinite: pivot d_1 = -1" in line

    def test_moments_list_zero_pivot_over_nonzero_column_exits_2(self, capsys,
                                                                   tmp_path):
        # r_2 = 0 but r_3 = 1: [[0, 1], [1, 1]] is indefinite
        cfg = tmp_path / "m.cfg"
        cfg.write_text(MODEL_TEXT.replace("nu.atoms = [(-1, 1/2), (1, 1/2)]",
                                          "moments = [0, 0, 1, 1]"))
        line = self.refused(capsys, "moments", "--model", str(cfg), "--nmax", "2")
        assert "pivot d_1 = 0 over a nonzero column" in line

    def test_moments_list_with_nonzero_pivot_after_zero_one_exits_2(
            self, capsys, tmp_path):
        # r_4 = 0 makes nu = delta_0, whose r_6 is 0, not 1; the Hankel form
        # [[1, 0, 0], [0, 0, 0], [0, 0, 1]] is positive semidefinite, but a
        # measure's pivots stay zero after a zero one
        cfg = tmp_path / "m.cfg"
        cfg.write_text(MODEL_TEXT.replace("nu.atoms = [(-1, 1/2), (1, 1/2)]",
                                          "moments = [0, 1, 0, 0, 0, 1]")
                       .replace("degree_cutoff = 2", "degree_cutoff = 3"))
        line = self.refused(capsys, "moments", "--model", str(cfg), "--nmax", "4")
        assert line == ("error: moments are not those of a measure: "
                        "pivot d_3 = 1 after d_2 = 0")

    def test_short_moment_list_is_refused_by_the_model(self, capsys, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(MODEL_TEXT.replace("nu.atoms = [(-1, 1/2), (1, 1/2)]",
                                          "moments = [0, 1, 0, 1]")
                       .replace("degree_cutoff = 2", "degree_cutoff = 3"))
        line = self.refused(capsys, "moments", "--model", str(cfg))
        assert line.endswith("gram at cutoff 3 needs moments through r_6, have r_1..r_4")

    @pytest.mark.parametrize("moments, cutoff", [
        ("[0, 1, 1, 1, 1, 1, 1, 1, 1, 1]", 5),  # all ones: rank 1
        ("[0, 1, 0, 0, 0, 0]", 3),  # delta_0: rank 1
    ])
    def test_singular_moment_lists_are_admitted(self, moments, cutoff):
        model = parse_model_config(
            MODEL_TEXT.replace("nu.atoms = [(-1, 1/2), (1, 1/2)]", f"moments = {moments}")
            .replace("degree_cutoff = 2", f"degree_cutoff = {cutoff}"))
        assert model.degree_cutoff == cutoff

    def test_ldl_reconstructs_and_names_first_bad_pivot(self):
        a = [[4, 2, 2], [2, 5, 3], [2, 3, 6]]
        low, d = ldl_psd(a)
        assert d == [4, 4, 4]
        assert all(sum(low[i][k] * d[k] * low[j][k] for k in range(3)) == a[i][j]
                   for i in range(3) for j in range(3))
        with pytest.raises(UsageError, match="pivot d_2 = 0 over a nonzero column"):
            ldl_psd([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        with pytest.raises(UsageError, match="pivot d_2 = -1$"):
            ldl_psd([[1, 1], [1, 0]])

    @pytest.mark.parametrize("argv, message", [
        (("--grid", "100000000"), "grid atoms 100000000, over the limit of 256"),
        (("--cutoff", "1000000"), "degree_cutoff 1000000, over the limit of 32"),
        (("--grid", "0"), "grid atoms 0, below the least of 1"),
        (("--cutoff", "0"), "degree_cutoff 0, below the least of 1"),
    ], ids=["grid", "cutoff", "grid_zero", "cutoff_zero"])
    def test_size_refused_before_any_allocation(self, capsys, monkeypatch,
                                                argv, message):
        monkeypatch.setattr(cli.TimeGrid, "uniform", None)
        monkeypatch.setattr(cli, "ProcessModel", None)
        tracemalloc.start()
        try:
            line = self.refused(capsys, "moments", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert line.endswith(message)
        assert peak < 1 << 20

    def test_explicit_grid_counts_its_atoms(self, capsys, tmp_path):
        cfg = tmp_path / "m.cfg"
        bounds = ", ".join(str(i) for i in range(258))
        cfg.write_text(MODEL_TEXT.replace("grid = uniform(1, 2)", f"grid = [{bounds}]"))
        line = self.refused(capsys, "moments", "--model", str(cfg))
        assert line.endswith("grid atoms 257, over the limit of 256")
        at_limit = parse_model_config(
            MODEL_TEXT.replace("grid = uniform(1, 2)", f"grid = [{bounds[:-5]}]"))
        assert at_limit.grid.n_atoms == 256

    @pytest.mark.parametrize("argv", [
        ("--q", "1e-10000000"),
        ("--q", "1E+10000000"),
        ("--model", "TEXT grid = uniform(1e10000000, 2)"),
        ("--model", "TEXT moments = [0, 1, 1e-10000000]"),
        ("--model", "TEXT nu.atoms = [(1, 5e10000000)]"),
        ("--model", "TEXT pointset.points = [1e-10000000]"),
    ], ids=["q", "q_upper", "uniform_horizon", "moments", "atom_weight", "points"])
    def test_decimal_exponent_refused_before_fraction(self, capsys, tmp_path,
                                                      monkeypatch, argv):
        # Fraction would build 10^10000000 first, about 10 s
        def guarded(*args):
            assert not any("10000000" in a for a in args if isinstance(a, str))
            return F(*args)

        monkeypatch.setattr(cli, "Fraction", guarded)
        argv = list(argv)
        if "--model" in argv:
            i = argv.index("--model") + 1
            cfg = tmp_path / "m.cfg"
            cfg.write_text(argv[i].removeprefix("TEXT "))
            argv[i] = str(cfg)
        line = self.refused(capsys, "moments", *argv)
        assert line.endswith(f"decimal exponent 10000000, over the limit of "
                             f"{cli.MAX_DECIMAL_EXPONENT}")

    def test_decimal_exponent_at_limit_is_read(self):
        limit = cli.MAX_DECIMAL_EXPONENT
        values = cli.parse_config(f"q = 1e-{limit}\nmoments = [0, 25E-1]\n")
        assert values["q"] == F(1, 10 ** limit)
        assert values["moments"] == [0, F(5, 2)]

    def test_limits_are_admitted(self):
        values = cli.parse_config("grid = uniform(1, 256)\ndegree_cutoff = 32\n")
        assert values["grid"].n_atoms == 256 and values["degree_cutoff"] == 32

    @pytest.mark.parametrize("key, item, limit", [
        ("moments", "0", "MAX_MOMENTS"),
        ("nu.atoms", "(1, 1)", "MAX_NU_ATOMS"),
        ("pointset.points", "1", "MAX_POINTS"),
        ("pointset.weights", "1", "MAX_POINTS"),
    ])
    def test_list_length_refused_before_any_rational(self, capsys, tmp_path,
                                                     monkeypatch, key, item, limit):
        # without the limit, 32,000 moments with a nu.atoms of x = 1000
        # build 1000^k for every k before the lists are compared
        def guarded(text):
            raise AssertionError(f"built {text}")

        monkeypatch.setattr(cli, "_rational", guarded)
        limit = getattr(cli, limit)
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"{key} = [{', '.join([item] * (limit + 1))}]\n")
        line = self.refused(capsys, "moments", "--model", str(cfg))
        assert line.endswith(f"{key} {limit + 1}, over the limit of {limit}")

    def test_list_limits_and_pair_spacing_are_admitted(self):
        moments = ["0", "1"] + ["0"] * (cli.MAX_MOMENTS - 2)
        points = ["1"] * cli.MAX_POINTS
        values = cli.parse_config(
            f"moments = [{', '.join(moments)}]\n"
            f"nu.atoms = [{', '.join(['(0, 1)'] * cli.MAX_NU_ATOMS)}]\n"
            f"pointset.points = [{', '.join(points)}]\n"
            f"pointset.weights = [{', '.join(points)}]\n")
        assert len(values["moments"]) == cli.MAX_MOMENTS
        assert values["nu.atoms"] == [(0, 1)] * cli.MAX_NU_ATOMS
        assert len(values["pointset.points"]) == len(values["pointset.weights"]) == 256
        # a strict pair list still reads any spacing, and the empty list
        values = cli.parse_config("nu.atoms = [ ( -1 , 1/2 ),(1,1/2) ]\n")
        assert values["nu.atoms"] == [(-1, F(1, 2)), (1, F(1, 2))]
        assert cli.parse_config("nu.atoms = []\n")["nu.atoms"] == []

    @pytest.mark.parametrize("text", [
        "[1, 2]", "[(1, 2), 3, 4]", "[(1, 1/2)(-1, 1/2)]", "[((1, 1))]",
        "(1, 1)", "[(1, 1)", "[(1, 1), ]", "[(1 1)]", "[(1, 1)) (]",
    ])
    def test_malformed_pair_lists_refused(self, text):
        with pytest.raises(UsageError, match="bad config value nu.atoms"):
            cli.parse_config(f"nu.atoms = {text}\n")


def parse_model_config(text):
    """The model that a config file's text names, through the cli parser."""
    return cli.build_model(cli.parse_config(text))


class TestConfigParsing:
    def test_full_config(self):
        values = cli.parse_config(
            "q = exact\n"
            "nu.atoms = [(-1, 1/2), (1, 1/2)]\n"
            "grid = uniform(1, 4)\n"
            "degree_cutoff = 2\n")
        assert values["q"] is None
        model = cli.build_model(values)
        assert model.grid.n_atoms == 4
        assert model.degree_cutoff == 2
        assert model.moments.r_at(2) == 1

    def test_explicit_boundaries_and_moments(self):
        values = cli.parse_config(
            "q = 1/2\n"
            "moments = [0, 1, 0, 1]\n"
            "grid = [0, 1/2, 1]\n"
            "degree_cutoff = 2\n")
        assert values["q"] == F(1, 2)
        model = cli.build_model(values)
        assert model.grid.boundaries == (0, F(1, 2), 1)
        # q converts as a ScalarRing checks its point, a refusal naming the key
        for q in ("1", "-1", "3/2"):
            with pytest.raises(UsageError, match=rf"^bad config value q = '{q}': "
                                                 rf"q0 must lie in \(-1, 1\), got {q}$"):
                cli.parse_config(f"q = {q}\n")

    def test_conflicting_moments_rejected(self):
        with pytest.raises(UsageError, match="^moments and nu.atoms disagree$"):
            parse_model_config(
                "q = exact\n"
                "nu.atoms = [(1, 1)]\n"
                "moments = [0, 2]\n"
                "grid = uniform(1, 2)\n"
                "degree_cutoff = 1\n")

    def test_missing_keys(self):
        with pytest.raises(UsageError, match=r"^config missing keys: "
                                             r"\['degree_cutoff', 'grid'\]$"):
            parse_model_config("q = exact\n")

    def test_comments_ignored(self):
        values = cli.parse_config(
            "# a comment\n"
            "q = exact  # inline\n"
            "moments = [0, 1]\n"
            "grid = uniform(1, 2)\n"
            "degree_cutoff = 1\n")
        assert values["q"] is None
        assert cli.build_model(values).moments.r_at(2) == 1


UNREAD = [("verify", flag) for flag in ("--q", "--depth", "--cutoff", "--grid",
                                        "--nmax")]
UNREAD += [("converge", flag) for flag in ("--model", "--q", "--depth",
                                           "--cutoff", "--grid", "--nmax",
                                           "--suite", "--seed")]
UNREAD += [("moments", flag) for flag in ("--suite", "--seed", "--depth")]
# a prefix of a flag the command reads is not that flag
UNREAD += [("moments", "--cut"), ("moments", "--nm"), ("moments", "--mod"),
           ("verify", "--su"), ("verify", "--se")]


@pytest.mark.parametrize("command,flag", UNREAD)
def test_unread_flag_rejected(capsys, command, flag):
    code, out, err = run(capsys, command, flag, "3")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: unrecognized arguments: {flag} 3"]


def test_random_suites_all_green():
    # every registered suite passes with a fresh rng
    for name, suite in suites.SUITES.items():
        rows = suite(random.Random(12345))
        assert rows, name
        bad = [r for r in rows if not r.ok]
        assert not bad, f"{name}: {[r.identity for r in bad]}"


def test_suites_call_traced_functions_through_their_modules():
    """perfbench's tracer rebinds the functions it times and counts on their
    modules, and on the modules it lists, which qfock.suites is not: a
    suite that imported one by name would escape it.  perfbench also reads
    the suites and the canonical models through cli."""
    tree = ast.parse((Path(__file__).resolve().parent.parent
                      / "perfbench" / "tracing.py").read_text())
    tables = {target.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) for target in node.targets
              if getattr(target, "id", None) in ("TIMED_FUNCTIONS", "GENERATORS")}
    assert len(tables) == 2
    traced = {id(getattr(importlib.import_module(f"qfock.{module}"), attr))
              for table in tables.values() for _, module, attr in table}
    assert not [name for name, value in vars(suites).items() if id(value) in traced]
    assert cli.SUITES is suites.SUITES
    for name in ("SUITES", "shipped_experiments", "gaussian_model",
                 "three_point_model", "all_ones_pointset", "cmd_verify",
                 "RunConfig"):
        assert hasattr(cli, name), name
