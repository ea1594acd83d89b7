import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from adelic.cli import main
from adelic.adeles import parse_adele
from adelic.placesets import parse_qset


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "adelic.cli", *argv],
                          capture_output=True, env=env)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == expected.encode()
