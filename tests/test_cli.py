import contextlib
import io
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from adelic import config
from adelic.cli import main
from adelic.adeles import membership_set, parse_adele
from adelic.placesets import parse_qset
from adelic.registry import clear_registry, ensure_registered, registered_fields
from adelic.spectrum import selected_profile


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_factor_split():
    code, out = run_cli("factor", "--poly", "1,0,1", "--prime", "5")
    assert code == 0
    assert "places=2" in out
    assert "place index=0 e=1 f=1" in out
    assert "class=1x1+1x1" in out
    assert "sum_ef=2" in out


def test_factor_ramified():
    code, out = run_cli("factor", "--poly", "1,0,1", "--prime", "2")
    assert code == 0
    assert "places=1" in out and "e=2 f=1" in out


def test_factor_unsupported_prime_exits_2():
    code, _ = run_cli("factor", "--poly=-5,0,1", "--prime", "2")
    assert code == 2


def test_factor_degree_zero_is_usage_error():
    code, _ = run_cli("factor", "--poly", "1", "--prime", "7")
    assert code == 1


def test_member_trivial():
    code, out = run_cli("member", "--ideal", "max@free:all", "--adele", "zero")
    assert code == 0 and "member=true" in out
    code, out = run_cli("member", "--ideal", "max@free:all", "--adele", "one")
    assert code == 0 and "member=false" in out


def test_member_uniformizer_with_witness():
    code, out = run_cli(
        "member", "--ideal", "max@free:1,0,1:1x1+1x1", "--adele", "uni")
    assert code == 0
    assert "member=true" in out
    assert "witness=q{ctx[] cells[~] plus[] minus[]}" in out


def test_member_witness_round_trips():
    _, out = run_cli("member", "--ideal", "max@free:1,0,1:1x1+1x1", "--adele", "diag:6")
    witness_line = next(l for l in out.splitlines() if l.startswith("witness="))
    parsed = parse_qset(witness_line.split("=", 1)[1])
    assert parsed.finite_members() == frozenset({2, 3})
    adele_line = next(l for l in out.splitlines() if l.startswith("adele="))
    parse_adele(adele_line.split("=", 1)[1])


def test_classify():
    code, out = run_cli("classify", "--ideal", "min@free:all")
    assert code == 0
    assert "is_maximal=false" in out
    assert "is_minimal=true" in out
    assert "is_closed=false" in out
    code, out = run_cli("classify", "--ideal", "zero@p:5:0")
    assert "is_maximal=true" in out and "is_minimal=true" in out \
        and "is_closed=true" in out


def test_fiber():
    code, out = run_cli("fiber", "--ideal", "zero@p:5:0", "--ext", "1,0,1")
    assert code == 0 and "fiber_size=2" in out
    code, out = run_cli(
        "fiber", "--ideal", "max@free:1,0,1:1x1+1x1", "--ext", "1,0,1")
    assert code == 0 and "fiber_size=2" in out
    code, out = run_cli(
        "fiber", "--ideal", "between@free:1,0,1:1x1+1x1@uni", "--ext", "1,0,1")
    assert code == 0 and "fiber_size=2" in out


def test_density():
    code, out = run_cli(
        "density", "--ultra", "free:1,0,1:1x1+1x1",
        "--constraint", "2:0:1:3", "--constraint", "3:0:1:2")
    assert code == 0
    assert "in_minimal_ideal=true" in out
    assert out.count("satisfied=true") == 2
    code, _ = run_cli("density", "--ultra", "free:1,0,1:1x1+1x1",
                      "--constraint", "2:0:0:1")
    assert code == 2


def test_density_without_constraints_gives_atom_indicator():
    code, out = run_cli("density", "--ultra", "free:1,0,1:1x1+1x1")
    assert code == 0
    assert "in_minimal_ideal=true" in out
    witness_line = next(l for l in out.splitlines() if l.startswith("witness="))
    witness = parse_adele(witness_line.split("=", 1)[1])
    # zero exactly on the anchor atom, one off it
    from adelic.placesets import class_atom
    from conftest import GAUSS

    assert witness.membership_set("is_zero") == class_atom(GAUSS, ((1, 1), (1, 1)))


def test_between_degenerate_generator_exits_2():
    code, _ = run_cli("member", "--ideal", "between@free:all@one", "--adele", "zero")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("member", "--ideal", "zero@p:5", "--adele", "one"),
    ("member", "--ideal", "max@free:1,0,1:1x3", "--adele", "uni"),
    ("member", "--ideal", "max@free:all", "--adele", "diag:x"),
    ("density", "--ultra", "free:1,0,1:1x1+1x1", "--constraint", "2:0"),
    ("member", "--ideal", "max@at:5:0", "--adele", "uni"),
    ("member", "--ideal", "max@free:all", "--adele", "uni:3"),
    ("member", "--ideal", "max@free:all", "--adele", "uni^0"),
    ("member", "--ideal", "max@free:all", "--adele", "diag:1/0"),
    ("member", "--ideal", "max@lift:1:free:all", "--adele", "uni"),
    ("density", "--ultra", "at:5:0"),
], ids=" ".join)
def test_malformed_spec_is_usage_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert err.getvalue().startswith("usage error: ")
    assert "Traceback" not in err.getvalue()


def test_deterministic_output():
    for argv in (
        ("factor", "--poly", "1,1,1,1,1", "--prime", "19"),
        ("member", "--ideal", "max@free:1,0,1:1x1+1x1", "--adele", "diag:6"),
        ("fiber", "--ideal", "min@free:1,0,1:1x2", "--ext", "1,0,1"),
        ("density", "--ultra", "free:1,0,1:1x1+1x1", "--constraint", "2:0:1:3"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


@pytest.mark.parametrize("argv,expected", [
    (("factor", "--poly", "-2,0,0,1", "--prime", "5"), "class=1x1+1x2\nsum_ef=3\n"),
    (("factor", "--poly", "-5,0,1", "--prime", "11"), "class=1x1+1x1\nsum_ef=2\n"),
    (("fiber", "--ideal", "zero@p:5:0", "--ext", "-2,0,0,1"), "fiber_size=2\n"),
    (("member", "--field", "-5,0,1", "--ideal", "zero@p:11:1", "--adele", "uni"),
     "member=false\n"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_negative_coefficients_are_values(argv, expected):
    """x^3 - 2 and x^2 - 5 read the same after a space as after an '='."""
    i = next(i for i, arg in enumerate(argv) if arg[:1] == "-" and arg[1:2].isdigit())
    spaced = run_cli(*argv)
    joined = run_cli(*argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:])
    assert spaced == joined
    code, out = spaced
    assert code == 0 and expected in out


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_sympy():
    probe = ("import sys, adelic.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'sympy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env=_src_env(), text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# -- the front door: random argv, no traceback ----------------------------------

POLYS = ("1,0,1", "-5,0,1", "-2,0,0,1", "1,1,1,1,1", "0,1", "-1,1", "1", "",
         "0,0,1", "1,0,0", "2,0,1", "-1,0,0,0,1", "x", "1,,1")
ULTRAS = ("at:5:0", "at:2:0", "at:5:3", "at:4:0", "at:-3:0", "at:5", "free:all",
          "free:1,0,1:1x1+1x1", "free:1,0,1:1x2", "free:1,0,1:2x1",
          "free:-5,0,1:1x1+1x1", "free:-2,0,0,1:1x1+1x2", "free:1,0,1:1x3",
          "free:0,0,1:1x1", "free:-2,0,0,1", "lift:0:free:1,0,1:1x2",
          "lift:1:free:all", "lift:2:free:-5,0,1:1x1+1x1", "lift:0:at:5:0",
          "lift:1:at:5:0", "lift:x", "bogus")
ADELES = ("zero", "one", "uni", "uni^2", "uni^0", "uni^x", "uni:3", "diag:6",
          "diag:-1/2", "diag:1/0", "diag:x", "diag:", "diag:1,2,3",
          "ind:-2,0,0,1:1x1+1x2", "ind:1,0,1:1x2", "ind:1,0,1:2x1", "ind:1,0,1",
          "ind:x:1x1")
ZEROS = ("zero@p:5:0", "zero@p:2:0", "zero@p:5:7", "zero@p:4:0", "zero@p:-7:0",
         "zero@p:5", "zero@inf:0", "zero@inf:3", "zero@inf:x", "zero@q")
IDEALS = st.one_of(
    st.sampled_from(ZEROS),
    st.builds("{}@{}".format, st.sampled_from(("max", "min", "mid")),
              st.sampled_from(ULTRAS)),
    st.builds("between@{}@{}".format, st.sampled_from(ULTRAS), st.sampled_from(ADELES)),
)
VALUES = {
    "--poly": st.sampled_from(POLYS),
    "--field": st.sampled_from(POLYS),
    "--ext": st.sampled_from(POLYS),
    "--prime": st.sampled_from(("-3", "0", "1", "2", "5", "13", "4", "1000003", "x")),
    "--ideal": IDEALS,
    "--adele": st.sampled_from(ADELES),
    "--ultra": st.sampled_from(ULTRAS),
    "--constraint": st.sampled_from(("2:0:1:3", "3:0:1:2", "2:0:0:1", "5:0:-1:2",
                                     "5:1:1/0:1", "2:0", "x:0:1:1", "5:7:1:1")),
}
COMMANDS = {
    "factor": ("--poly", "--prime"),
    "member": ("--field", "--ideal", "--adele"),
    "classify": ("--field", "--ideal"),
    "fiber": ("--ideal", "--ext"),
    "density": ("--field", "--ultra", "--constraint", "--constraint"),
}


@st.composite
def _options(draw, flags):
    """Each flag, kept or dropped, with a value written as 'flag value' or
    'flag=value'."""
    out = []
    for flag in flags:
        if draw(st.integers(0, 4)) == 0:
            continue
        value = draw(VALUES[flag])
        out += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return out


@st.composite
def argvs(draw):
    argv = ["--prime-bound", str(draw(st.integers(-5, 50)))]
    command = draw(st.sampled_from(sorted(COMMANDS) + ["bogus"]))
    argv.append(command)
    flags = list(COMMANDS.get(command, ()))
    flags += draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=1))
    argv += draw(_options(flags))
    argv += draw(st.lists(st.sampled_from(("-h", "-5", "--x", "stray")), max_size=1))
    return argv


@contextlib.contextmanager
def _cli_state_restored():
    """Undo what a CLI call leaves in the process: --prime-bound, fields it
    registered and answers cached under either."""
    saved, fields = config.DEFAULT, registered_fields()
    try:
        yield
    finally:
        config.DEFAULT = saved
        clear_registry()
        for field in fields:
            ensure_registered(field)
        selected_profile.cache_clear()
        membership_set.cache_clear()


def test_free_ultrafilter_without_samples_exits_2():
    err = io.StringIO()
    with _cli_state_restored(), contextlib.redirect_stderr(err):
        code, out = run_cli("--prime-bound", "0", "density",
                            "--ultra", "free:1,0,1:1x2", "--constraint", "2:0:1:3")
    assert code == 2 and out == ""
    lines = err.getvalue().splitlines()
    assert lines[0].startswith("warning: free ultrafilter anchored on a sparsely witnessed atom")
    assert lines[1].startswith("error: UnsupportedSelection: ") and len(lines) == 2


@pytest.mark.parametrize("action", ["error", "ignore", "default"])
def test_sparse_atom_warning_is_one_stderr_line(action):
    """The CLI reports a sparse atom as one `warning:` line, whatever the
    caller's warning filters, and shows no package source."""
    err = io.StringIO()
    with _cli_state_restored(), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter(action)
        code, out = run_cli("--prime-bound", "30", "density",
                            "--ultra", "free:1,0,1:1x2", "--constraint", "2:0:1:3")
    assert code == 0 and "constraint p=2 satisfied=true" in out
    assert err.getvalue() == ("warning: free ultrafilter anchored on a sparsely "
                              "witnessed atom (5 members below 30)\n")
    assert "ultrafilters.py" not in err.getvalue()


@given(argvs())
@settings(max_examples=150, deadline=None)
def test_front_door_exits_cleanly(argv):
    """Whatever the argv, main exits 0, 1 or 2 and prints no traceback."""
    err = io.StringIO()
    with _cli_state_restored(), contextlib.redirect_stderr(err):
        code, _ = run_cli(*argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


GOLDEN = Path(__file__).parent / "golden" / "readme_cli.txt"


def _golden_cases():
    """(argv, expected stdout) for each "$ adelic ..." block of the golden file."""
    cases = []
    for line in GOLDEN.read_bytes().decode().splitlines(keepends=True):
        if line.startswith("$ adelic "):
            cases.append((shlex.split(line[len("$ adelic "):]), []))
        else:
            cases[-1][1].append(line)
    return [(argv, "".join(out)) for argv, out in cases]


@pytest.mark.parametrize("argv,expected", _golden_cases(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_readme_commands_match_golden_stdout(argv, expected):
    done = subprocess.run([sys.executable, "-m", "adelic.cli", *argv],
                          capture_output=True, env=_src_env())
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == expected.encode()
