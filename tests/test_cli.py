import glob
import hashlib
import json
import os

import jsonschema
import pytest

from frobetti import cli
from frobetti.errors import InconsistentBlocks, ParseError

R1_PROBLEM = """# residue field over the coordinate cross thickening
char: 5
vars: x, y
ideal: x^2, x*y
module: quotient x, y
minprimes: (x)
localmult: 1
"""

COKER_PROBLEM = """char: 5
vars: x, y
ideal: x*y
module: coker [x, y; 0, x]
rowdegs: 0, 0
"""


def _problem(text=R1_PROBLEM):
    return cli.parse_problem(text)


def test_parse_problem_blocks():
    prob = _problem()
    assert prob.p == 5
    assert prob.variables == ["x", "y"]
    assert prob.ideal_gens == ["x^2", "x*y"]
    assert prob.module_kind == "quotient"
    assert prob.minprimes == [["x"]] and prob.localmult == [1]


def test_parse_problem_coker():
    prob = _problem(COKER_PROBLEM)
    assert prob.module_kind == "coker"
    assert prob.module_data == [["x", "y"], ["0", "x"]]
    assert prob.rowdegs == [0, 0]


def test_parse_problem_errors():
    with pytest.raises(ParseError) as err:
        cli.parse_problem("chars: 5\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        cli.parse_problem("char: 5\n")  # missing vars
    with pytest.raises(InconsistentBlocks):
        cli.parse_problem(
            "char: 5\nvars: x, y\nideal: x*y\nminprimes: (x); (y)\nlocalmult: 1, 2, 3\n"
        )
    with pytest.raises(InconsistentBlocks):
        cli.parse_problem("char: 5\nvars: x\nlocalmult: 1\n")


def test_run_hk_payload():
    env = cli.run("hk", _problem(), {"emax": 3})
    assert env["result"]["levels"] == [
        [1, 5, 6, 1.2],
        [2, 25, 26, 1.04],
        [3, 125, 126, 1.008],
    ]
    assert env["result"]["estimate"] == 1.0
    assert env["result"]["stabilized"] is True


def test_run_beta_exact():
    env = cli.run("beta", _problem(), {"idx": 1, "exact": True})
    assert env["result"] == {"index": 1, "vanishes": False, "rule": "image-in-h0"}


def test_run_resolve():
    env = cli.run("resolve", _problem(), {"steps": 2})
    assert env["result"]["betti"] == [1, 2, 3]
    assert env["result"]["minimal"] is True


def test_run_coker_module():
    env = cli.run("syz", _problem(COKER_PROBLEM), {"idx": 2})
    assert env["result"]["rows"][0]["betti"] >= 1


def test_schema_validation():
    schema = cli.load_schema()
    prob = _problem()
    for command, flags in (
        ("hk", {"emax": 2}),
        ("beta", {"idx": 0, "emax": 2}),
        ("beta", {"idx": 1, "exact": True}),
        ("mu", {"idx": 1, "emax": 2}),
        ("resolve", {"steps": 2}),
        ("diagnose1", {"idx": 1, "emax": 2}),
        ("syz", {"idx": 2}),
        ("verify", {"emax": 2}),
    ):
        envelope = cli.run(command, prob, flags)
        jsonschema.validate(envelope, schema)


def test_determinism_bytes():
    prob = _problem()
    first = cli.result_bytes(cli.run("diagnose1", prob, {"idx": 1, "emax": 2}))
    second = cli.result_bytes(cli.run("diagnose1", prob, {"idx": 1, "emax": 2}))
    assert first == second


ZERO_GENERATORS_PROBLEM = """char: 5
vars: x, y, z
ideal: y*x - x*y, x^2, 5*z, z*y + y^2
module: quotient 0, y + x, 10*x, z^2
"""

PRIMES_PROBLEM = """char: 7
vars: x, y, z
ideal: x*y, x*z
module: quotient z + y, x
minprimes: (x); (z, y)
localmult: 1, 1
"""


@pytest.mark.parametrize(
    "text, digest",
    [
        (R1_PROBLEM, "41fc309eae37e4c865f12db81a12e38fbeff4abc1f4a98327ecc66b6b2987e9d"),
        (COKER_PROBLEM, "75ed55434192caeef3012df2ffcbaf7b63328a8bdf6faa58fb779f56c86fee0a"),
        (ZERO_GENERATORS_PROBLEM, "357417ae99a6ba425423a6074d962fede8b89ced03116073efaf3c88035c1dce"),
        (PRIMES_PROBLEM, "268e817a4572ad008507b88c277d6e5e73b551a31a2466bd5f448d78acc89a47"),
    ],
)
def test_input_digest_is_pinned(text, digest):
    """The digest that addresses cache entries, for a quotient module with
    minimal primes, a coker module, ideal and module generators that are
    zero (printed "0" in place) and non-canonical spellings: entries that
    earlier versions wrote keep their addresses."""
    prob = _problem(text)
    ring = cli.build_ring(prob)
    assert cli.problem_digest(prob, ring, cli.build_module(prob, ring)) == digest
    assert cli.run("resolve", prob, {"steps": 1})["input_digest"] == digest


def test_cache_hit_and_corruption(tmp_path):
    prob = _problem()
    cache = str(tmp_path / "cache")
    first = cli.run("resolve", prob, {"steps": 2, "cache_dir": cache})
    assert first["timing"]["cache"] == "miss"
    second = cli.run("resolve", prob, {"steps": 2, "cache_dir": cache})
    assert second["timing"]["cache"] == "hit"
    assert cli.result_bytes(first) == cli.result_bytes(second)

    # cache directory layout: <digest>/<kind>.dat
    digest = first["input_digest"]
    assert os.path.exists(os.path.join(cache, digest, "resolution.dat"))

    # corrupt the entry: the run warns and recomputes the same result
    with open(os.path.join(cache, digest, "resolution.dat"), "w") as handle:
        handle.write("not a cache entry")
    third = cli.run("resolve", prob, {"steps": 2, "cache_dir": cache})
    assert cli.result_bytes(third) == cli.result_bytes(first)
    assert any("cache" in w for w in third["warnings"])


def _rewrite_entry(cache, kind, edit):
    """Apply ``edit`` to the JSON payload of the one cached entry of ``kind``."""
    (path,) = glob.glob(os.path.join(cache, "*", "%s.dat" % kind))
    with open(path) as handle:
        header, _, body = handle.read().partition("\n")
    with open(path, "w") as handle:
        handle.write(header + "\n" + json.dumps(edit(json.loads(body))) + "\n")


def test_tampered_gb_entry_changes_nothing(tmp_path):
    # Ring bases are never cached, so a gb.dat under the digest an older
    # version keyed them by, here with a wrong basis, is never read.
    cache = tmp_path / "cache"
    key = hashlib.sha256(b"5|x,y|x^2,x*y").hexdigest()
    (cache / key).mkdir(parents=True)
    body = json.dumps({"basis": ["y^3", "x^2"]})
    (cache / key / "gb.dat").write_text(cli.CACHE_HEADER + "\n" + body + "\n")
    env = cli.run("hk", _problem(), {"emax": 2, "cache_dir": str(cache)})
    assert [level[2] for level in env["result"]["levels"]] == [6, 26]
    assert not env["warnings"]


@pytest.mark.parametrize(
    "payload",
    [[1, 2], {"steps": 5}, {"steps": 5, "ranks": [], "row_degrees": [], "matrices": []}],
    ids=["list", "steps-only", "empty-lists"],
)
def test_resolution_entry_of_wrong_shape_warns_and_recomputes(tmp_path, payload):
    prob = _problem()
    cache = str(tmp_path / "cache")
    uncached = cli.result_bytes(cli.run("resolve", prob, {"steps": 2}))
    cli.run("resolve", prob, {"steps": 2, "cache_dir": cache})
    _rewrite_entry(cache, "resolution", lambda _: payload)
    again = cli.run("resolve", prob, {"steps": 2, "cache_dir": cache})
    assert cli.result_bytes(again) == uncached
    assert any("cache" in w and "resolution" in w for w in again["warnings"])


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FB_CACHE_DIR", str(tmp_path / "envcache"))
    env = cli.run("resolve", _problem(), {"steps": 2})
    assert env["timing"]["cache"] == "miss"
    env2 = cli.run("resolve", _problem(), {"steps": 2})
    assert env2["timing"]["cache"] == "hit"


def test_cross_process_determinism(tmp_path):
    import json as json_mod
    import subprocess
    import sys

    path = tmp_path / "r1.fbr"
    path.write_text(R1_PROBLEM)
    payloads = []
    for seed in ("0", "12345"):
        out = tmp_path / ("out_%s.json" % seed)
        proc = subprocess.run(
            [sys.executable, "-m", "frobetti.cli", "diagnose1", "-i", str(path),
             "--idx", "1", "--emax", "2", "--json", str(out)],
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed,
                 "PYTHONPATH": ":".join(sys.path)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        envelope = json_mod.loads(out.read_text())
        payloads.append(json_mod.dumps(envelope["result"], sort_keys=True))
    assert payloads[0] == payloads[1]


def test_main_json_and_csv(tmp_path):
    path = tmp_path / "r1.fbr"
    path.write_text(R1_PROBLEM)
    out_json = tmp_path / "out.json"
    out_csv = tmp_path / "out.csv"
    rc = cli.main(
        ["hk", "-i", str(path), "--emax", "2", "--json", str(out_json), "--csv", str(out_csv)]
    )
    assert rc == 0
    envelope = json.loads(out_json.read_text())
    assert envelope["result"]["levels"][0] == [1, 5, 6, 1.2]
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "e,q,raw,normalized"
    assert lines[1] == "1,5,6,1.2"
    # csv rows mirror the json levels
    assert len(lines) - 1 == len(envelope["result"]["levels"])


R5_PROBLEM = """char: 101
vars: x, y, z, u, v
ideal: x^2, x*z, z^2, x*u, z*v, u^2, v^2, z*u + x*v + u*v, y*u, y*v, y*x - z*u, y*z - x*v
module: coker [u; v; z^2]
rowdegs: 0, 0, -1
"""


def test_run_five_variable_problem():
    import jsonschema

    prob = cli.parse_problem(R5_PROBLEM)
    assert prob.module_kind == "coker" and prob.rowdegs == [0, 0, -1]
    env = cli.run("resolve", prob, {"steps": 3})
    jsonschema.validate(env, cli.load_schema())
    # the payload mirrors the library resolution of the same module
    from frobetti import cokernel_presentation, make_ring, resolve as lib_resolve

    ring = make_ring(101, list("xyzuv"), prob.ideal_gens)
    module = cokernel_presentation(
        ring, [[ring.poly("u"), ring.poly("v"), ring.poly("z^2")]], 3, [0, 0, -1]
    )
    assert env["result"]["betti"] == list(lib_resolve(module, 3).betti)
    assert env["result"]["betti"] == [3, 1, 1, 2]


def test_rowdegs_must_match_the_coker_rows(tmp_path, capsys):
    """One row degree per coker row: another count, or row degrees with no
    coker block, is a parse error (exit 2) that states its cause."""
    head = "char: 5\nvars: x, y\nideal: x*y\n"
    coker = "module: coker [x, y; 0, x]\n"
    cases = {
        head + coker + "rowdegs: 0\n": "rowdegs has 1 entries but the coker matrix has 2 rows",
        head + "module: coker [x]\nrowdegs: 0, 1, 2\n": (
            "rowdegs has 3 entries but the coker matrix has 1 rows"
        ),
        head + "module: quotient x\nrowdegs: 0\n": "rowdegs given without a coker module",
        head + "rowdegs: 0\n": "rowdegs given without a coker module",
    }
    for text, cause in cases.items():
        with pytest.raises(InconsistentBlocks, match=cause):
            cli.parse_problem(text)
        path = tmp_path / "rowdegs.fbr"
        path.write_text(text)
        assert cli.main(["resolve", "-i", str(path)]) == 2
        assert cause in capsys.readouterr().err
    assert cli.parse_problem(head + coker + "rowdegs: 0, 1\n").rowdegs == [0, 1]


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.fbr"
    bad.write_text("chars: 5\n")
    assert cli.main(["hk", "-i", str(bad)]) == 2

    inhomog = tmp_path / "inhomog.fbr"
    inhomog.write_text("char: 5\nvars: x, y\nideal: x + 1\n")
    assert cli.main(["resolve", "-i", str(inhomog)]) == 2

    not_primary = tmp_path / "np.fbr"
    not_primary.write_text("char: 5\nvars: x, y\nideal: x*y\nmodule: quotient x\n")
    assert cli.main(["hk", "-i", str(not_primary)]) == 3

    # --exact needs a one-dimensional ring
    dim2 = tmp_path / "dim2.fbr"
    dim2.write_text("char: 5\nvars: x, y\nmodule: quotient x, y\n")
    assert cli.main(["beta", "-i", str(dim2), "--idx", "1", "--exact"]) == 3

    # a bracket power past the exponent width is a resource-class failure
    overflow = tmp_path / "of.fbr"
    overflow.write_text(R1_PROBLEM)
    assert cli.main(["beta", "-i", str(overflow), "--idx", "0", "--emax", "50"]) == 4

    missing = tmp_path / "missing.fbr"
    assert cli.main(["hk", "-i", str(missing)]) == 2


@pytest.mark.parametrize(
    "flag", [["--threads", "2"], ["--degree-bound", "3"]], ids=["threads", "degree-bound"]
)
def test_removed_flags_are_rejected(tmp_path, flag):
    path = tmp_path / "r1.fbr"
    path.write_text(R1_PROBLEM)
    with pytest.raises(SystemExit) as exc:
        cli.main(["hk", "-i", str(path)] + flag)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flags",
    [
        ("resolve", ["--emax", "2"]),
        ("hk", ["--idx", "1"]),
        ("verify", ["--exact"]),
        ("resolve", ["--csv", "out.csv"]),
        ("beta", ["--exact", "--csv", "out.csv"]),
        ("syz", ["--steps", "3"]),
    ],
    ids=["resolve-emax", "hk-idx", "verify-exact", "resolve-csv", "beta-exact-csv", "syz-steps"],
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, monkeypatch, capsys, command, flags):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "r1.fbr"
    path.write_text(R1_PROBLEM)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "-i", str(path)] + flags)
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_only_resolve_reads_the_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FB_CACHE_DIR", str(tmp_path / "envcache"))
    env = cli.run("hk", _problem(), {"emax": 2})
    assert env["timing"]["cache"] == "off"
    env = cli.run("hk", _problem(), {"emax": 2, "cache_dir": str(tmp_path / "cache")})
    assert env["timing"]["cache"] == "off"
    assert not (tmp_path / "envcache").exists() and not (tmp_path / "cache").exists()


def test_zero_flags_mean_zero():
    env = cli.run("resolve", _problem(), {"steps": 0})
    assert env["result"]["betti"] == [1] and env["result"]["matrices"] == []
    env = cli.run("syz", _problem(), {"idx": 0})
    assert [row["i"] for row in env["result"]["rows"]] == [0]
    env = cli.run("beta", _problem(), {"idx": 0, "exact": True})
    assert env["result"]["index"] == 0
    # Absent flags keep their defaults.
    assert cli.run("resolve", _problem(), {"steps": None})["result"]["steps"] == 3
    assert len(cli.run("hk", _problem(), {})["result"]["levels"]) == 3


@pytest.mark.parametrize(
    "command, flags",
    [
        ("resolve", {"steps": -1}),
        ("syz", {"idx": -1}),
        ("mu", {"idx": 1, "emax": 0}),
        ("beta", {"idx": -1, "exact": True}),
        ("beta", {"idx": -1}),
        ("mu", {"idx": -1}),
        ("diagnose1", {"idx": -1}),
        ("hk", {"emax": 0}),
        ("beta", {"idx": 1, "emax": 0}),
        ("diagnose1", {"idx": 1, "emax": 0}),
        ("verify", {"emax": -2}),
    ],
)
def test_out_of_range_flags_are_parse_errors(tmp_path, command, flags):
    with pytest.raises(ParseError):
        cli.run(command, _problem(), flags)
    path = tmp_path / "r1.fbr"
    path.write_text(R1_PROBLEM)
    argv = [command, "-i", str(path)]
    for name, value in flags.items():
        argv += ["--exact"] if name == "exact" else ["--%s" % name, str(value)]
    assert cli.main(argv) == cli.PARSE_EXIT


def test_main_passes_zero_flags(tmp_path, capsys):
    path = tmp_path / "r1.fbr"
    path.write_text(R1_PROBLEM)
    assert cli.main(["resolve", "-i", str(path), "--steps", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["betti"] == [1]
    assert cli.main(["hk", "-i", str(path), "--emax", "1"]) == 0
    assert [level[0] for level in json.loads(capsys.readouterr().out)["result"]["levels"]] == [1]
