import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from adelic import config
from adelic.cli import main
from adelic.adeles import membership_set, parse_adele
from adelic.placesets import parse_qset
from adelic.registry import clear_registry, ensure_registered, registered_fields


_ALL = "q{ctx[] cells[~] plus[] minus[]}"  # the text of the set of all primes


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


def test_factor_above_a_field_without_a_mod_p_witness():
    """sqrt2+sqrt3+sqrt5 generates a field with discriminant 2^70 3^10 5^4."""
    code, out = run_cli("factor", "--poly", "576,0,-960,0,352,0,-40,0,1", "--prime", "7")
    assert code == 0
    assert "sum_ef=8" in out and "degree=8" in out


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


def test_member_between_prints_both_profiles():
    code, out = run_cli("member", "--ideal", "between@free:1,0,1:1x1+1x1@uni",
                        "--adele", "uni^2")
    assert code == 0
    assert out == (
        "ideal=between@free[q{ctx[1,0,1] cells[1x1+1x1] plus[] minus[]}]"
        "@adele{field[0,1] arch[1] exc[] ovr[] tail[0&1]}\n"
        "adele=adele{field[0,1] arch[1] exc[] ovr[] tail[0&0&1]}\n"
        "member=true\nprofile_alpha=2\nprofile_beta=1\n")


def test_member_witness_round_trips():
    _, out = run_cli("member", "--ideal", "max@free:1,0,1:1x1+1x1", "--adele", "diag:6")
    witness_line = next(l for l in out.splitlines() if l.startswith("witness="))
    parsed = parse_qset(witness_line.split("=", 1)[1])
    assert not parsed.cells and parsed.plus == frozenset({2, 3})
    adele_line = next(l for l in out.splitlines() if l.startswith("adele="))
    parse_adele(adele_line.split("=", 1)[1])


@pytest.mark.parametrize("field,ultra,adele,verdict", [
    ("1,0,1", "min@lift:1:free:1,0,1:1x1+1x1", "ind:1,0,1:1x1+1x1", "true"),
    ("1,0,1", "max@lift:1:free:1,0,1:1x2", "ind:1,0,1:1x1+1x1", "false"),
    ("-2,0,0,1", "min@lift:1:free:-2,0,0,1:1x1+1x2", "ind:-2,0,0,1:1x1+1x2", "true"),
])
def test_indicator_over_an_extension_field(field, ultra, adele, verdict):
    """Over --field, ind: vanishes at every place above a prime of the
    class atom."""
    with _cli_state_restored():
        code, out = run_cli("member", "--field", field, "--ideal", ultra, "--adele", adele)
    assert code == 0
    assert f"member={verdict}" in out.splitlines()


def test_bad_place_index_is_a_usage_error():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("classify", "--ideal", "zero@p:5:7")
    assert code == 1 and out == ""
    assert err.getvalue() == "usage error: bad spec 'zero@p:5:7': no place with index 7 above 5\n"


def test_classify():
    code, out = run_cli("classify", "--ideal", "min@free:all")
    assert code == 0
    assert "is_maximal=false" in out
    assert "is_minimal=true" in out
    assert "is_closed=false" in out
    code, out = run_cli("classify", "--ideal", "zero@p:5:0")
    assert "is_maximal=true" in out and "is_minimal=true" in out \
        and "is_closed=true" in out
    code, out = run_cli("classify", "--ideal", "zero@inf:0")
    assert code == 0
    assert out == "ideal=zero@inf:0\nis_maximal=true\nis_minimal=true\nis_closed=true\n"


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
    ("classify", "--ideal", f"max@free[{_ALL}"),
    ("classify", "--ideal", f"max@free[{_ALL}}}]"),
    ("classify", "--ideal", "max@free[q{ctx[1,0,1] cells[1x3] plus[] minus[]}]"),
    ("classify", "--field", "1,0,1", "--ideal", f"max@free[{_ALL}]"),
    ("classify", "--ideal", f"max@lift:1:free[{_ALL}]"),
    ("member", "--ideal", "max@free:all", "--adele",
     f"adele{{field[0,1] arch[1] exc[] ovr[{_ALL}->1||{_ALL}->] tail[1]}}"),
    ("member", "--ideal", "max@free:all", "--adele",
     "adele{field[0,1] arch[1] exc[5:0=1;5:0=0] ovr[] tail[1]}"),
    ("member", "--field", "1,0,1", "--ideal", "zero@p:5:0", "--adele",
     f"adele{{field[1,0,1] arch[1,0] exc[] ovr[{_ALL}->] tail[1,0]}}"),
    ("member", "--ideal", "max@free:all", "--adele",
     "adele{field[1,0,1] arch[1,0] exc[] ovr[] tail[1,0]}"),
    ("member", "--ideal", "max@free:all", "--adele", "adele{field[0,1] arch[1] tail[1]}"),
    ("member", "--ideal", "max@free[q{minus[] plus[] cells[~] ctx[]}]", "--adele", "uni"),
    ("member", "--ideal", "max@free:all", "--adele",
     "adele{field[0,1] arch[1] exc[] ovr[] tail[1&&2]}"),
    ("member", "--field", "1,0,1", "--ideal", "zero@p:5:0", "--adele", "diag:1,2,3"),
    ("member", "--ideal", "max@free:all", "--adele",
     "adele{field[0,1] arch[1.5] exc[] ovr[] tail[ 0 & 1e0]}"),
    ("member", "--ideal", "max@free:all", "--adele", "diag:0.5"),
    ("density", "--ultra", "free:1,0,1:1x1+1x1", "--constraint", "2:0:2/2:3"),
    ("member", "--field", "1,0,1", "--ideal", "zero@p:2:0", "--adele",
     "adele{field[1,0,1] arch[1,0] exc[] "
     "ovr[k{field[1,0,1] 2:q{ctx[] cells[] plus[2] minus[]}}->0,0] tail[1,0]}"),
    ("classify", "--ideal", "zero@p:1_3:0"),
    ("member", "--ideal", "max@free:all", "--adele", "uni^+0_2"),
    ("density", "--ultra", "free:1,0,1:1x1+1x1", "--constraint", " 2:0:1:+3"),
    ("factor", "--poly", " 1,0,+1", "--prime", "5"),
    ("classify", "--ideal", "max@at:05:0"),
    ("classify", "--field", "1,0,1", "--ideal", "max@lift:+1:free:all"),
    ("classify", "--ideal", "zero@inf:-0"),
    ("factor", "--poly", "1,0,1", "--prime", " +0_5"),
    ("--prime-bound", " 1_0", "classify", "--ideal", "max@free:1,0,1:1x2"),
    ("classify", "--ideal", "max@free:1,0,1:01x1+1x1"),
    ("classify", "--ideal", "max@free:1,0,1:1x1+1x1 "),
    ("classify", "--ideal", "max@free:-2,0,0,1:1x2+1x1"),
    ("classify", "--ideal", "max@free[q{ctx[-2,0,0,1] cells[1x2+1x1] plus[] minus[]}]"),
    ("member", "--ideal", "max@free:all", "--adele", "diag:"),
    ("density", "--ultra", "free:1,0,1:1x1+1x1", "--constraint", "2:0::3"),
    ("density", "--field", "1,0,1", "--ultra", "lift:1:free:all", "--constraint", "5:0:1,0:3"),
    ("member", "--adele", "uni"),
    ("member", "--ide", "max@free:all", "--adele", "uni"),
    ("member", "--ideal", "max@free:all", "--adele", "uni", "--adele", "one"),
    ("nosuch",),
    (),
    ("classify", "--ideal", "max@free[q{ctx[1,0,1] cells[1x1+1x1;1x2] plus[] minus[]}]"),
    ("member", "--ideal", "zero@p:5:0", "--adele", "adele{field[0,1] arch[1] exc[] "
     "ovr[k{field[0,1] 1:q{ctx[] cells[] plus[5] minus[]}}->] tail[1]}"),
    ("classify", "--ideal", "max@free[q{ctx[]]"),
    ("classify", "--ideal", "max@lift:1"),
    ("classify", "--ideal", "max@bogus"),
    ("classify", "--ideal", "zero@inf:3"),
    ("classify", "--ideal", "zero@q"),
    ("classify", "--ideal", "mid@free:all"),
    ("classify", "--ideal"),
], ids=lambda argv: " ".join(argv) or "no-argv")
def test_malformed_spec_is_usage_error(argv):
    err = io.StringIO()
    with _cli_state_restored(), contextlib.redirect_stderr(err):
        code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert err.getvalue().startswith("usage error: ")
    assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


USAGE_LINES = [
    (("classify", "--ideal", "max@lift:1"), "lift spec is lift:<position>:<base free spec>"),
    (("classify", "--ideal", "max@bogus"), "unknown ultrafilter spec 'bogus'"),
    (("classify", "--ideal", "zero@inf:3"), "no archimedean place 3"),
    (("classify", "--ideal", "zero@q"),
     "zero ideal spec is zero@p:<prime>:<index> or zero@inf:<index>"),
    (("classify", "--ideal", "mid@free:all"), "unknown ideal spec 'mid@free:all'"),
    (("classify", "--ideal"), "option --ideal needs a value"),
    (("density", "--ultra", "at:4:0"), "unknown ultrafilter spec 'at:4:0'"),
    (("classify", "--ideal", "max@free[q{ctx[]]"),
     "bad spec 'free[q{ctx[]]': unbalanced brackets in 'q{ctx[]'"),
]


@pytest.mark.parametrize("argv,line", USAGE_LINES, ids=[" ".join(argv) for argv, _ in USAGE_LINES])
def test_usage_error_names_the_fault(argv, line):
    err = io.StringIO()
    with _cli_state_restored(), contextlib.redirect_stderr(err):
        code, _ = run_cli(*argv)
    assert code == 1
    assert err.getvalue() == f"usage error: {line}\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_command(flag):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(flag)
    assert code == 0 and err.getvalue() == ""
    assert {"factor", "member", "classify", "fiber", "density"} <= set(out.split())


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

_P30 = 10 ** 30 + 57  # a prime past 10**12, so no root of it is below (10**6)**2

POLYS = ("1,0,1", "-5,0,1", "-2,0,0,1", "1,1,1,1,1", "0,1", "-1,1", "1", "",
         "0,0,1", "1,0,0", "2,0,1", "-1,0,0,0,1", "x", "1,,1")
ULTRAS = ("at:5:0", "at:2:0", "at:5:3", "at:4:0", "at:-3:0", "at:5", "free:all",
          "free:1,0,1:1x1+1x1", "free:1,0,1:1x2", "free:1,0,1:2x1",
          "free:-5,0,1:1x1+1x1", "free:-2,0,0,1:1x1+1x2", "free:1,0,1:1x3",
          "free:0,0,1:1x1", "free:-2,0,0,1", "lift:0:free:1,0,1:1x2",
          "lift:1:free:all", "lift:2:free:-5,0,1:1x1+1x1", "lift:0:at:5:0",
          "lift:1:at:5:0", "lift:x", "bogus",
          "free[q{ctx[1,0,1] cells[1x1+1x1] plus[] minus[]}]",
          "free[q{ctx[-2,0,0,1|1,0,1] cells[1x1+1x2*1x1+1x1] plus[] minus[]}]",
          "free[q{ctx[] cells[] plus[5] minus[]}]", "free[q{ctx[1,0,1] cells[1x3] plus[] minus[]}]",
          "free[q{ctx[] cells[~] plus[] minus[1000003]}]",
          f"free[{_ALL}", f"free[{_ALL}}}]",
          "free[]", f"free[k{{field[1,0,1] 1:{_ALL}}}]",
          "lift:1:free[q{ctx[1,0,1] cells[1x2] plus[] minus[]}]",
          f"lift:2:free[{_ALL}]",
          "lift:1:free[q{ctx[1,0,1] cells[~] plus[] minus[]}]")
ADELES = ("zero", "one", "uni", "uni^2", "uni^0", "uni^x", "uni:3", "diag:6", f"diag:{_P30}",
          "diag:-1/2", "diag:1/0", "diag:x", "diag:", "diag:1,2,3",
          "ind:-2,0,0,1:1x1+1x2", "ind:1,0,1:1x2", "ind:1,0,1:2x1", "ind:1,0,1",
          "ind:x:1x1",
          "adele{field[0,1] arch[1] exc[] ovr[] tail[0&1]}",
          "adele{field[1,0,1] arch[1,0] exc[2:0=2,0] ovr[] tail[0,0&1,0]}",
          f"adele{{field[0,1] arch[1] exc[] ovr[{_ALL}->] tail[1]}}",
          f"adele{{field[0,1] arch[1] exc[] ovr[{_ALL}->1||{_ALL}->] tail[1]}}",
          "adele{field[0,1] arch[1] exc[5:0=1;5:0=0] ovr[] tail[1]}",
          f"adele{{field[1,0,1] arch[1,0] exc[] ovr[{_ALL}->] tail[1,0]}}",
          "adele{field[0,1] arch[] exc[] ovr[] tail[]}",
          "adele{field[0,1] arch[1] exc[5:0=1/0] ovr[] tail[]}",
          "adele{field[0,1] arch[1] exc[] ovr[] tail[1]}}", "adele{", "adele{}")
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
    "--prime": st.sampled_from(("-3", "0", "1", "2", "5", "13", "4", "1000003", "1000004",
                                str(_P30), "x")),
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
        membership_set.cache_clear()


def test_free_ultrafilter_without_samples_exits_2():
    err = io.StringIO()
    with _cli_state_restored(), contextlib.redirect_stderr(err):
        code, out = run_cli("--prime-bound", "0", "density",
                            "--ultra", "free:1,0,1:1x2", "--constraint", "2:0:1:3")
    assert code == 2 and out == ""
    assert err.getvalue() == ("error: UnsupportedSelection: no unramified prime "
                              "below 0 realizes a cell of the anchor set\n")


def test_free_ultrafilter_holds_no_ramified_primes():
    """The cofinite ultrafilter used to select the totally ramified class
    of x^3 - 2 from the primes 2 and 3 below 8, and so held {2, 3}."""
    with _cli_state_restored():
        code, out = run_cli("--prime-bound", "8", "member", "--ideal", "max@free:all",
                            "--adele", "ind:-2,0,0,1:3x1")
    assert code == 0
    assert "member=false" in out.splitlines()
    assert "ovr[q{ctx[] cells[] plus[2,3] minus[]}->]" in out


@pytest.mark.parametrize("argv", [
    ("member", "--ideal", "max@free:1,-3,0,1:1x1+1x2", "--adele", "diag:6"),
    ("member", "--ideal", "max@free:1,0,1:2x1", "--adele", "uni"),
    ("--prime-bound", "13", "classify", "--field", "-5,0,1",
     "--ideal", "max@lift:1:free:1,0,1:1x1+1x1"),
], ids=" ".join)
def test_free_anchor_without_witness_exits_2(argv):
    """x^3 - 3x + 1 has Galois group C3, so no prime has class 1x1+1x2;
    the class 2x1 of x^2 + 1 holds only the ramified prime 2; below 13 the
    split anchor of x^2 + 1 has witness 5, which divides the discriminant
    of x^2 - 5, and no larger prime below 13 splits in x^2 + 1."""
    err = io.StringIO()
    with _cli_state_restored(), contextlib.redirect_stderr(err):
        code, out = run_cli(*argv)
    assert code == 2 and out == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: UnsupportedSelection: ")


@pytest.mark.parametrize("argv,expected", [
    # the split anchor's first witness is 5, and 1000003 = 3 mod 5 is no
    # square mod 5, so x^2 - 1000003 is selected inert
    (("fiber", "--ideal", "between@free:1,0,1:1x1+1x1@uni", "--ext", "-1000003,0,1"),
     "fiber_size=1"),
    (("density", "--field", "1000006000009,0,1", "--ultra", "lift:2:free:1,0,1:1x1+1x1"),
     "in_minimal_ideal=true"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_special_primes_past_desk_scale_are_not_read(argv, expected):
    """x^2 - 1000003 ramifies at 1000003, and 1000003 divides the index of
    x^2 + 1000003^2; neither query needs that prime.  Fresh processes, so
    that no field registered by other tests changes the selections."""
    done = subprocess.run([sys.executable, "-m", "adelic.cli", *argv],
                          capture_output=True, env=_src_env(), text=True)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout.splitlines()


def test_index_prime_past_desk_scale_is_refused():
    """1000003 is not an excluded prime of x^2 + 1000003^2, since it is
    past desk scale; a query that needs it is refused, as over x^2 + 1."""
    done = subprocess.run([sys.executable, "-m", "adelic.cli", "member",
                           "--field", "1000006000009,0,1", "--ideal", "max@lift:1:free:all",
                           "--adele", "diag:1000003,0"],
                          capture_output=True, env=_src_env(), text=True)
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: UnsupportedPrime: ")


_N = 10000000000000000141000000000000000459  # a 19-digit prime times a 20-digit one
_PRIME_PAST_DESK_SCALE = "error: UnsupportedPrime: 1000003 exceeds the desk-scale bound"
_GAUSS_MEMBER = ("member", "--ideal", "max@free:1,0,1:1x1+1x1", "--adele")


@pytest.mark.parametrize("argv,code,line", [
    (("fiber", "--ideal", "between@free:all@uni", "--ext", f"-{_N},0,1"), 0, "fiber_size=2"),
    ((*_GAUSS_MEMBER, f"diag:{_N}"), 2,
     f"error: UnsupportedPrime: {_N} has no prime factor below the desk-scale bound"),
    ((*_GAUSS_MEMBER, f"diag:{_P30}"), 2,
     f"error: UnsupportedPrime: {_P30} has no prime factor below the desk-scale bound"),
    ((*_GAUSS_MEMBER, "diag:1000003"), 2, _PRIME_PAST_DESK_SCALE),
    ((*_GAUSS_MEMBER, "diag:7/1000003"), 2, _PRIME_PAST_DESK_SCALE),
    (("member", "--field", "1,0,1", "--ideal", "max@lift:1:free:1,0,1:1x1+1x1",
      "--adele", "diag:1000003"), 2, _PRIME_PAST_DESK_SCALE),
], ids=["fiber-discriminant", "member-norm-composite", "member-norm-large-prime",
        "member-norm-prime",
        "member-denominator-prime", "member-norm-prime-square"])
def test_large_composite_discriminant_is_not_factored(argv, code, line):
    """Nothing is split past desk scale.  The special primes of x^2 - N,
    N the product of two primes near 10**18, are found without splitting
    N; a coefficient N of an adele is refused unsplit, as is the prime
    10**30 + 57, which trial division below 10**6 cannot prove prime.  A
    prime below 10**12 is refused by name, also from the norm 1000003**2
    of 1000003 over Q(i).  Splitting N would blow the timeout."""
    done = subprocess.run([sys.executable, "-m", "adelic.cli", *argv],
                          capture_output=True, env=_src_env(), text=True, timeout=10)
    assert done.returncode == code, done.stderr
    if code == 0:
        assert line in done.stdout.splitlines()
    else:
        assert done.stdout == "" and done.stderr.splitlines() == [line]


@pytest.mark.parametrize("argv,line", [
    (("factor", "--poly", "1,0,1", "--prime", "1000004"), "1000004 exceeds the desk-scale bound"),
    (("factor", "--poly", "1,0,1", "--prime", str(_P30)), f"{_P30} exceeds the desk-scale bound"),
    (("classify", "--ideal", "max@free[q{ctx[] cells[~] plus[] minus[1000003]}]"),
     "1000003 exceeds the desk-scale bound"),
    (("--prime-bound", "3000000", "classify", "--ideal", "max@free:1,0,1:1x1+1x1"),
     "1000003 exceeds the desk-scale bound"),
], ids=["prime-composite", "prime-large", "qset-listed", "prime-bound"])
def test_integers_past_desk_scale_exit_2(argv, line):
    """Every integer of 10**6 or more the user writes as a prime is refused
    as past desk scale, prime or not."""
    err = io.StringIO()
    with _cli_state_restored(), contextlib.redirect_stderr(err):
        code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.getvalue() == f"error: UnsupportedPrime: {line}\n"


def test_settings_are_read_from_config_only():
    """--prime-bound replaces config.DEFAULT; a copy the package took at
    import would keep the old bound."""
    import adelic

    with _cli_state_restored():
        config.set_defaults(prime_bound=50)
        assert config.DEFAULT.prime_bound == 50
        assert not hasattr(adelic, "DEFAULT")


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


def _fresh_stdout(argv) -> str:
    done = subprocess.run([sys.executable, "-m", "adelic.cli", *argv],
                          capture_output=True, env=_src_env())
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


@pytest.mark.parametrize("argv,expected", _golden_cases(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_readme_commands_match_golden_stdout(argv, expected):
    assert _fresh_stdout(argv) == expected


_SPEC_FLAGS = {"ideal": "--ideal", "ultrafilter": "--ultra", "adele": "--adele"}


def _printed_specs():
    """(argv, expected stdout): each golden command with one spec replaced
    by the value it printed for that spec."""
    cases = []
    for argv, expected in _golden_cases():
        for line in expected.splitlines():
            key, _, value = line.partition("=")
            if key in _SPEC_FLAGS and _SPEC_FLAGS[key] in argv:
                i = argv.index(_SPEC_FLAGS[key]) + 1
                cases.append((argv[:i] + [value] + argv[i + 1:], expected))
    return cases


@pytest.mark.parametrize("argv,expected", _printed_specs(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_printed_specs_read_back(argv, expected):
    """Every printed ideal, ultrafilter and adele is valid input, and a
    fresh process reading it prints the same stdout byte for byte."""
    assert _fresh_stdout(argv) == expected


def _printed_fibers_and_witnesses():
    """(argv, expected first lines): each fiber entry's ideal classified
    over the extension, and each density witness tested against min@U."""
    cases = []
    for argv, expected in _golden_cases():
        values = dict(line.partition("=")[::2] for line in expected.splitlines())
        if argv[0] == "fiber":
            ext = argv[argv.index("--ext") + 1]
            for line in expected.splitlines():
                if line.startswith("entry "):
                    ideal, flags = line.split(" ideal=", 1)[1].split(" is_maximal=")
                    maximal, minimal = flags.split(" is_minimal=")
                    cases.append((["classify", "--field", ext, "--ideal", ideal],
                                  [f"ideal={ideal}", f"is_maximal={maximal}",
                                   f"is_minimal={minimal}"]))
        if argv[0] == "density":
            ultra, witness = values["ultrafilter"], values["witness"]
            cases.append((["member", "--ideal", f"min@{ultra}", "--adele", witness],
                          [f"ideal=min@{ultra}", f"adele={witness}",
                           f"member={values['in_minimal_ideal']}"]))
    return cases


@pytest.mark.parametrize("argv,expected", _printed_fibers_and_witnesses(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_printed_fiber_entries_and_witnesses_read_back(argv, expected):
    assert _fresh_stdout(argv).splitlines()[:len(expected)] == expected


def test_free_ultrafilter_on_a_joint_atom():
    """An anchor no class spec names: the primes with class 1x1+1x2 in
    Q(cbrt 2) that split in Q(i)."""
    with _cli_state_restored():
        code, out = run_cli("member", "--ideal", "max@free[q{ctx[-2,0,0,1|1,0,1] "
                            "cells[1x1+1x2*1x1+1x1] plus[] minus[]}]", "--adele", "uni")
    assert code == 0 and "member=true" in out.splitlines()


@pytest.mark.parametrize("script", ["spectrum_census", "density_demo"])
def test_scripts_match_golden_stdout(script):
    """The census classifies four fields at every prime below 2 000, so its
    stdout pins the mod-p kernel end to end."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "scripts" / f"{script}.py")],
                          capture_output=True, env=_src_env())
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN.parent / f"{script}.txt").read_bytes()


def test_readme_library_example_gives_its_commented_results():
    """The python block under README's "Library example" runs in a fresh
    interpreter, and each commented expression gives the result its
    comment starts with."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    program, comments = [], []
    for line in block.split("```", 1)[0].splitlines():
        code, _, comment = line.partition("  # ")
        if comment:
            line = f"print(repr({code.strip()}))"
            comments.append(comment)
        program.append(line)
    done = subprocess.run([sys.executable, "-c", "\n".join(program)],
                          capture_output=True, env=_src_env(), text=True)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    assert printed == ["True", "False", "{'is_maximal': False, 'is_minimal': True}",
                       "False", "2"]
    assert len(comments) == len(printed)
    assert all(comment.startswith(result) for result, comment in zip(printed, comments))
