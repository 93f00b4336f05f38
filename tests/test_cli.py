import json
import os
import subprocess
import sys

import pytest

import replalg
import replalg.cli
import replalg.replicated
import replalg.verify
from replalg.cli import main, parse_quiver, serialize_quiver
from replalg.errors import CapTooSmall, CyclicQuiver, DuplicateLabel, ParseError, ReplalgError
from replalg.quiver import kronecker, linear_quiver
from replalg.replicated import minimal_cogenerator
from replalg.verify import verify_ext_stablehom

KRONECKER_JSON = json.dumps({
    "vertices": ["1", "2"],
    "arrows": [
        {"name": "a", "from": "2", "to": "1"},
        {"name": "b", "from": "2", "to": "1"},
    ],
})


@pytest.fixture()
def kronecker_file(tmp_path):
    path = tmp_path / "kronecker.json"
    path.write_text(KRONECKER_JSON)
    return str(path)


def test_parse_quiver_kronecker():
    q = parse_quiver(KRONECKER_JSON)
    assert q == kronecker()


def test_parse_quiver_roundtrip():
    q = kronecker()
    assert parse_quiver(json.dumps(serialize_quiver(q))) == q


def test_parse_quiver_empty_arrows():
    q = parse_quiver('{"vertices": ["x"], "arrows": []}')
    assert len(q.vertices) == 1 and not q.arrows


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_quiver('{"vertices": [,]}')
    assert exc.value.line >= 1 and exc.value.column >= 1


def test_parse_rejects_cycles_and_duplicates():
    with pytest.raises(CyclicQuiver):
        parse_quiver(json.dumps({
            "vertices": ["1", "2"],
            "arrows": [
                {"name": "a", "from": "1", "to": "2"},
                {"name": "b", "from": "2", "to": "1"},
            ],
        }))
    with pytest.raises(DuplicateLabel):
        parse_quiver(json.dumps({
            "vertices": ["1", "2"],
            "arrows": [
                {"name": "a", "from": "2", "to": "1"},
                {"name": "a", "from": "2", "to": "1"},
            ],
        }))


@pytest.mark.parametrize("field", ["name", "from", "to"])
def test_parse_rejects_non_string_arrow_fields(field):
    arrow = {"name": "a", "from": "1", "to": "2", field: 1}
    with pytest.raises(ParseError, match="must be strings"):
        parse_quiver(json.dumps({"vertices": ["1", "2"], "arrows": [arrow]}))


QUIVER_COMMANDS = ["repdim", "domdim", "bounds", "lemma24", "extcheck", "inventory"]


@pytest.mark.parametrize("command", QUIVER_COMMANDS)
def test_empty_quiver_is_a_parse_error(command, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [], "arrows": []}')
    assert main([command, "--quiver", str(path), "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'error: "vertices" must name at least one vertex\n'


def test_repdim_command(kronecker_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "repdim", "--quiver", kronecker_file, "--m", "1",
        "--report", "json", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["results"][0]["values"]["gl_dim_end_M"] == 3
    assert report["results"][0]["verdict"] == "pass"
    assert len(report["inventory"]) == 10
    assert report["elapsed_ms"] is None


def test_domdim_command(kronecker_file, capsys):
    code = main(["domdim", "--quiver", kronecker_file, "--m", "2", "--report", "text"])
    captured = capsys.readouterr()
    assert code == 0
    assert "dominant_dim = 4" in captured.out
    assert "PASS" in captured.out


def test_bounds_command(kronecker_file, capsys):
    code = main(["bounds", "--quiver", kronecker_file, "--m", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "gl_dim_replicated = 3" in captured.out


def test_example34_command(capsys):
    code = main(["example34", "--report", "text"])
    captured = capsys.readouterr()
    assert code == 0
    assert "gl_dim_end_M = 3" in captured.out
    assert "gl_dim_end_M0 = 5" in captured.out


def test_inventory_command(kronecker_file, capsys):
    code = main(["inventory", "--quiver", kronecker_file, "--m", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "loewy layers:" in captured.out
    assert "1' / 2 2 / 1" in captured.out


def test_missing_quiver_is_an_error(capsys):
    code = main(["repdim", "--m", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unreadable_file_is_an_error(capsys):
    code = main(["repdim", "--quiver", "/nonexistent/q.json", "--m", "1"])
    assert code == 2


def test_failed_internal_check_is_an_error(kronecker_file, capsys, monkeypatch):
    # with no isomorphism ever found, the generator check cannot find the
    # projectives among the summands: exit 2 with one error line, not a traceback
    monkeypatch.setattr(replalg.replicated, "is_isomorphic", lambda *args, **kwargs: None)
    assert main(["inventory", "--quiver", kronecker_file, "--m", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: indecomposable projective") and err.count("\n") == 1
    assert issubclass(replalg.InternalCheckFailed, ReplalgError)


def test_bad_m_is_an_error(kronecker_file, capsys):
    assert main(["domdim", "--quiver", kronecker_file, "--m", "0"]) == 2
    assert main(["repdim", "--quiver", kronecker_file, "--m", "-1"]) == 2


def test_json_reports_are_byte_identical(kronecker_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["domdim", "--quiver", kronecker_file, "--m", "1", "--report", "json", "--seed", "7"]
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lemma24_single_target(kronecker_file, tmp_path):
    out = tmp_path / "l.json"
    code = main([
        "lemma24", "--quiver", kronecker_file, "--m", "1",
        "--target", "simple:2@0", "--report", "json", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["results"]) == 1
    assert report["results"][0]["values"]["target"] == "simple:2@0"
    assert report["results"][0]["verdict"] == "pass"


def test_lemma24_minimal_generator_fails_somewhere(kronecker_file, tmp_path):
    out = tmp_path / "l0.json"
    code = main([
        "lemma24", "--quiver", kronecker_file, "--m", "1",
        "--generator", "minimal", "--report", "json", "--out", str(out),
    ])
    assert code == 1
    report = json.loads(out.read_text())
    verdicts = [r["verdict"] for r in report["results"]]
    assert "fail" in verdicts


@pytest.mark.parametrize("generator, code", [("auslander", 0), ("minimal", 1)])
def test_lemma24_builds_one_sigma_ladder(kronecker_file, tmp_path, monkeypatch, generator, code):
    """One sigma_layers call per lemma24 run on Kronecker m=2: the inventory
    reads the ladder that built M from the bundle (two calls when it built
    the ladder again), and a minimal-cogenerator bundle builds it on first use."""
    calls = []
    ladder = replalg.replicated.sigma_layers
    monkeypatch.setattr(replalg.replicated, "sigma_layers", lambda *args, **kw: calls.append(args) or ladder(*args, **kw))
    assert main([
        "lemma24", "--quiver", kronecker_file, "--m", "2", "--target", "all-inventory",
        "--generator", generator, "--report", "json", "--out", str(tmp_path / "l.json"),
    ]) == code
    assert calls == [(kronecker(), 2, 4)]
    assert not hasattr(replalg.verify, "sigma_layers")


def test_extcheck_command(kronecker_file, tmp_path):
    out = tmp_path / "e.json"
    code = main([
        "extcheck", "--quiver", kronecker_file, "--m", "1",
        "--report", "json", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    values = report["results"][0]["values"]
    assert values["identity_holds"] and values["lemma_3_2_vanishing"]


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(replalg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "replalg", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_cap_too_small_is_a_typed_error(kronecker_file):
    proc = _run_cli("repdim", "--quiver", kronecker_file, "--m", "1", "--cap", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: resolution cap 1 too small")
    assert proc.stderr.count("\n") == 1
    with pytest.raises(CapTooSmall):
        minimal_cogenerator(linear_quiver(2), 1, cap=1)


def test_extcheck_rejects_cap(kronecker_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extcheck", "--quiver", kronecker_file, "--m", "1", "--cap", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 3" in capsys.readouterr().err


def test_extcheck_rejects_negative_samples(kronecker_file, capsys):
    code = main(["extcheck", "--quiver", kronecker_file, "--m", "1", "--samples", "-3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: samples must be nonnegative, got -3\n"
    with pytest.raises(ReplalgError):
        verify_ext_stablehom(kronecker(), 1, samples=-1)


QUIVERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "quivers")

EXIT_CODES = [
    # 0: every certificate passes
    (["bounds", "--quiver", "{quivers}/a2.json", "--m", "1"], 0),
    # 1: a certificate fails; here the pinned dom.dim >= t-1 counterexample
    (["domdim", "--quiver", "{quivers}/a3.json", "--m", "1"], 1),
    # 2: misuse, one error line and no report
    (["bounds", "--quiver", "{quivers}/a2.json", "--m", "-1"], 2),
    (["bounds", "--quiver", "{quivers}/a2.json", "--m", "1", "--cap", "-1"], 2),
    (["bounds", "--quiver", "{tmp}/missing.json", "--m", "1"], 2),
    (["bounds", "--quiver", "{quivers}/a2.json", "--m", "1", "--out", "{tmp}/missing/report.txt"], 2),
    # a cap too small to determine a global dimension is misuse, not a failed certificate
    (["bounds", "--quiver", "{quivers}/a2.json", "--m", "1", "--cap", "0"], 2),
    (["domdim", "--quiver", "{quivers}/kronecker.json", "--m", "1", "--cap", "1"], 2),
    # likewise a lower bound on gl.dim End(M) or End(M_0) that does not exceed the claimed value
    (["repdim", "--quiver", "{quivers}/a2.json", "--m", "1", "--cap", "2"], 2),
    (["repdim", "--quiver", "{quivers}/one_vertex.json", "--m", "1", "--cap", "1"], 2),
    (["example34", "--cap", "3"], 2),
    (["example34", "--cap", "4"], 2),
]


@pytest.mark.parametrize("argv, code", EXIT_CODES, ids=["pass", "fail", "negative-m", "negative-cap",
                                                        "missing-quiver", "unwritable-out",
                                                        "bounds-cap-too-small", "domdim-cap-too-small",
                                                        "repdim-cap-too-small", "repdim-one-vertex-cap-too-small",
                                                        "example34-cap-3-too-small", "example34-cap-4-too-small"])
def test_exit_codes(argv, code, tmp_path, capsys):
    argv = [a.format(quivers=QUIVERS, tmp=tmp_path) for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        assert captured.err == ""
        assert ("verdict: PASS" if code == 0 else "verdict: FAIL") in captured.out


def test_out_of_memory_is_one_error_line(kronecker_file, capsys, monkeypatch):
    # a run that exhausts memory is misuse of the machine, not a false theorem
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(replalg.cli, "verify_theorem_3_3", exhaust)
    assert main(["repdim", "--quiver", kronecker_file, "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"
