"""The exit contract of `qfock moments` and `qfock verify` as a property.

Config texts are drawn from a grammar over every key of `cli.KEYS` (valid,
boundary, malformed and over-limit values), with repeated and unknown keys,
malformed lines, comments, blank lines and flags that override keys, and run
through `cli.main` in process.  Every run exits 0 or 2; exit 2 prints one
`error:` line, no traceback and no report; exit 0 prints `n,moment` with
nmax rows, or verify's passing rows; and the order of the lines and the
comments between them do not change what is printed.  A verify file that
holds a model key is refused, and converge refuses every flag but --out.
"""

import contextlib
import io
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qfock import cli
from qfock.qscalar import QScalar


def listed(items):
    """The config text of a list of value texts."""
    return "[" + ", ".join(items) + "]"


# value texts per config key: valid ones (some at a bound), then malformed
# ones and ones over a limit
VALUES = {
    "q": (["exact", "1/2", "-1/3", "0", "25e-2", "1e-1000"],
          ["1", "-1", "1/0", "half", "", "1e-1001", "1e-10000000",
           "1E+10000000"]),
    "degree_cutoff": (["1", "2", "3", "32"],
                      ["0", "-1", "33", "1000000", "x", "2.5"]),
    "grid": (["uniform(1, 1)", "uniform(1, 2)", "uniform(3/2, 3)",
              "[0, 1/3, 1]", "uniform(1, 256)"],
             ["uniform(1, 0)", "uniform(1, 257)", "uniform(0, 2)", "[0]",
              "[0, 1, 1/2]", "uniform(1e10000000, 2)", "uniform(1,", "[a, b]"]),
    # a moment list is valid to cutoff 3 when its Hankel form is positive
    # semidefinite; the short one only to cutoff 1
    "moments": (["[0, 1, 0, 1, 0, 1]", "[0, 1, 0, 0, 0, 0]",
                 "[0, 1, 3/2, 5/2, 9/2, 17/2]", "[0, 1]",
                 listed(["0", "1"] + ["0"] * (cli.MAX_MOMENTS - 2))],
                ["[0, -1, 0, 1, 0, 1]", "[0, 0, 1, 1]", "[1, 1]", "[]",
                 "[0, 1e-10000000]", "[0, x]",
                 listed(["0", "1"] + ["0"] * (cli.MAX_MOMENTS - 1))]),
    "nu.atoms": (["[(-1, 1/2), (1, 1/2)]", "[(0, 1)]", "[(1, 1)]",
                  "[(1, 1/2), (2, 1/2)]", "[(1e1000, 1)]",
                  listed(["(1, 1/256)"] * cli.MAX_NU_ATOMS)],
                 ["[(1, -1)]", "[]", "[(1)]", "[(1, 1e10000000)]", "[1, 2]",
                  "[(1, 2), 3, 4]", "[(1, 1/2)(-1, 1/2)]", "[((1, 1))]",
                  listed(["(1, 1)"] * (cli.MAX_NU_ATOMS + 1))]),
    "pointset.points": (["[1]", "[1, 2]", "[-1, 0, 1]", "[1e1000]",
                         listed(map(str, range(cli.MAX_POINTS)))],
                        ["[]", "[1e-10000000]", "[x]",
                         listed(["1"] * (cli.MAX_POINTS + 1))]),
    "pointset.weights": (["[1]", "[1/2, 1/2]", "[1/4, 1/2, 1/4]",
                          listed([f"1/{cli.MAX_POINTS}"] * cli.MAX_POINTS)],
                         ["[1/2]", "[0]", "[2]", "[1e-10000000]", "x",
                          listed(["0"] * (cli.MAX_POINTS + 1))]),
    "suite": (["moments", "calculus,ks"], ["", "nope"]),
    "seed": (["0", "7"], ["-1", "x"]),
    "nmax": (["1", "2", "3"], ["0", "-1", str(cli.MAX_NMAX + 1), "x"]),
}
assert set(VALUES) == set(cli.KEYS)

# value texts per flag of `moments` (--model aside)
FLAG_VALUES = {"q": VALUES["q"], "nmax": VALUES["nmax"],
               "cutoff": VALUES["degree_cutoff"],
               "grid": (["1", "2", "256"], ["0", "257", "x"])}
assert set(FLAG_VALUES) == {spec.flag for spec in cli.KEYS.values()
                            if spec.command == "moments" and spec.flag}

# the keys of a file that names each kind of model, with and without the
# run key q, and of one that names none
MODELS = [("q", "grid", "degree_cutoff", "nu.atoms"),
          ("grid", "degree_cutoff", "moments", "nmax"),
          ("pointset.points", "pointset.weights"),
          ("q", "pointset.points", "pointset.weights"),
          ()]


def value(table, key):
    """A value text for key: a valid one three times in four."""
    valid, bad = table[key]
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(bad if i == 3 else valid))


# an unknown key, a line without "=" and one without a key
junk = st.sampled_from(["nmx = 2", "Q = exact", "grid uniform(1, 2)", "= 3"])
comments = st.sampled_from(["", "   ", "# a comment", "  # q = 1/2"])


@st.composite
def runs(draw):
    """The entry lines of a config file, or None for no file, and the
    `moments` argv besides --model.  A file holds a model's keys and up to
    two others, and one time in four a junk line or a repeated one."""
    keys = draw(st.none() | st.sampled_from(MODELS))
    lines = None
    if keys is not None:
        others = sorted(set(VALUES) - set(keys))
        keys += tuple(draw(st.lists(st.sampled_from(others), max_size=2,
                                    unique=True)))
        lines = [f"{key} = {draw(value(VALUES, key))}" for key in keys]
        if draw(st.integers(0, 3)) == 3:
            lines.append(draw(junk | st.sampled_from(lines) if lines else junk))
    flags = draw(st.dictionaries(st.sampled_from(sorted(FLAG_VALUES)),
                                 st.just(None), max_size=3))
    argv = [f"--{flag}={draw(value(FLAG_VALUES, flag))}" for flag in flags]
    return lines, argv


def main(command, argv, text, path):
    """Exit code, stdout and stderr of the command on the config text."""
    if text is not None:
        path.write_text(text)
        argv = [*argv, f"--model={path}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, *argv])
    return code, out.getvalue(), err.getvalue()


def check_refusal(code, out, err):
    """Exit 2 prints one `error:` line and nothing on stdout."""
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def mixed(lines, rng, extra):
    """The same entries in another order, with comments and blank lines."""
    shuffled = lines[:]
    rng.shuffle(shuffled)
    return "\n".join(x for pair in itertools.zip_longest(shuffled, extra)
                     for x in pair if x is not None) + "\n"


def effective_nmax(lines, argv) -> int:
    """The nmax a successful run printed: the flag's, the file's or the
    default."""
    for arg in argv:
        if arg.startswith("--nmax="):
            return int(arg.partition("=")[2])
    for line in lines or ():
        key, _, value = line.partition("=")
        if key.strip() == "nmax":
            return int(value)
    return cli.RunConfig().nmax


@settings(max_examples=150, deadline=2000)
@given(runs(), st.randoms(use_true_random=False),
       st.lists(comments, min_size=1, max_size=4))
def test_moments_exit_contract(tmp_path_factory, run, rng, extra):
    lines, argv = run
    path = tmp_path_factory.getbasetemp() / "contract.cfg"
    text = None if lines is None else "\n".join(lines) + "\n"
    code, out, err = main("moments", argv, text, path)
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        check_refusal(code, out, err)
    else:
        assert err == ""
        rows = out.splitlines()
        assert rows[0] == "n,moment"
        assert len(rows) == effective_nmax(lines, argv) + 1
        for n, row in enumerate(rows[1:], 1):
            head, _, value = row.partition(",")
            assert head == str(n)
            try:
                float(value)
            except ValueError:
                assert str(QScalar.parse(value)) == value
    if lines is not None:
        assert main("moments", argv, mixed(lines, rng, extra), path)[:2] == (code, out)


# value texts for verify's keys and flags: only suites that run in a few ms
VERIFY_VALUES = {
    "suite": (["moments", "traciality", "isometry", "calculus",
               "moments,traciality", " isometry , moments "],
              ["", ",", "nope", "moments,nope", "ks;moments"]),
    "seed": (["0", "7", "-1", "4294967296"], ["", "x", "1.5", "0x10"]),
}
assert set(VERIFY_VALUES) == {key for key, spec in cli.KEYS.items()
                              if spec.command == "verify"}
assert set(VERIFY_VALUES) == {spec.flag for spec in cli.KEYS.values()
                              if spec.command == "verify" and spec.flag}


def drawn(draw, key):
    """A value text for a verify key or flag, and whether it is valid."""
    valid, bad = VERIFY_VALUES[key]
    ok = draw(st.integers(0, 3)) < 3
    return draw(st.sampled_from(valid if ok else bad)), ok


@st.composite
def verify_runs(draw):
    """The entry lines of a verify config file, or None for no file, the
    argv besides --model, and whether the run must pass.  The suite is
    given in the file, by its flag or both, so no run takes every suite; a
    file may hold a model key, junk or a repeated line as well."""
    where = draw(st.sampled_from(["file", "flag", "both"]))
    in_file = {"suite"} if where != "flag" else set()
    in_file |= draw(st.sets(st.just("seed")))
    flags = {"suite"} if where != "file" else set()
    flags |= draw(st.sets(st.just("seed")))
    # a key's value is valid when the one read is: the flag's, if given
    valid, lines, argv = {}, None, []
    if in_file or draw(st.booleans()):
        lines = []
        for key in sorted(in_file):
            text, valid[key] = drawn(draw, key)
            lines.append(f"{key} = {text}")
        extra = draw(st.integers(0, 3))
        if extra == 3:
            # a model key verify does not read
            key = draw(st.sampled_from(sorted(set(VALUES) - set(VERIFY_VALUES))))
            lines.append(f"{key} = {draw(value(VALUES, key))}")
        elif extra == 2:
            lines.append(draw(junk | st.sampled_from(lines) if lines else junk))
        valid["lines"] = extra < 2
    for flag in sorted(flags):
        text, valid[flag] = drawn(draw, flag)
        argv.append(f"--{flag}={text}")
    return lines, argv, all(valid.values())


@settings(max_examples=60, deadline=2000)
@given(verify_runs(), st.randoms(use_true_random=False),
       st.lists(comments, min_size=1, max_size=4))
def test_verify_exit_contract(tmp_path_factory, run, rng, extra):
    lines, argv, ok = run
    path = tmp_path_factory.getbasetemp() / "verify.cfg"
    text = None if lines is None else "\n".join(lines) + "\n"
    code, out, err = main("verify", argv, text, path)
    assert code == (0 if ok else 2), err
    if code == 2:
        check_refusal(code, out, err)
    else:
        assert err == ""
        rows = out.splitlines()
        assert rows[0] == "identity,params,exact_zero,residual"
        assert len(rows) > 1 and all(",yes," in row for row in rows[1:])
    if lines is not None:
        assert main("verify", argv, mixed(lines, rng, extra), path)[:2] == (code, out)


@pytest.mark.parametrize("flag", ["model", "suite", "seed", "q", "nmax",
                                  "cutoff", "grid"])
def test_converge_refuses_every_flag_but_out(capsys, flag):
    check_refusal(cli.main(["converge", f"--{flag}=1"]), *capsys.readouterr())
