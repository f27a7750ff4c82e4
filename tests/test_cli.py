import json
import threading

import pytest

from ospsim import cli, harness


def test_poq_local_report(capsys):
    assert cli.main(["poq", "--trials", "400", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "trials=400" in out
    assert "rate=" in out and "expected=0.853553" in out


def test_seed_env_default(monkeypatch, capsys):
    monkeypatch.setenv("OSPSIM_SEED", "123")
    cli.main(["poq", "--trials", "150"])
    via_env = capsys.readouterr().out
    cli.main(["poq", "--trials", "150", "--seed", "123"])
    via_flag = capsys.readouterr().out
    assert via_env == via_flag


def test_poq_out_summary(tmp_path, capsys):
    path = tmp_path / "poq.json"
    cli.main(["poq", "--trials", "100", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    obj = json.loads(path.read_text())
    assert obj["command"] == "poq" and obj["trials"] == 100


def test_puzzle_command(capsys):
    code = cli.main(["puzzle", "--lambda", "64", "--threshold", "0.7",
                     "--source", "ideal", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "challenge=0 verdict=True" in out
    assert "challenge=1 verdict=True" in out


def test_delegate_command(tmp_path, capsys):
    circuit = tmp_path / "c.qc"
    circuit.write_text("QUBITS 3\nH 0\nCNOT 0 1\nT 2\nTDG 0\n")
    out_file = tmp_path / "run.json"
    code = cli.main(["delegate", "--circuit", str(circuit),
                     "--input", "101", "--seed", "1",
                     "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "qubits=3" in out and "t-gates=2" in out
    assert "fidelity=1.0000" in out
    saved = json.loads(out_file.read_text())
    assert saved["fidelity"] > 1 - 1e-9
    assert saved["transcript"][0]["kind"] == "padded-input"


def test_delegate_rejects_bad_input(tmp_path, capsys):
    circuit = tmp_path / "c.qc"
    circuit.write_text("QUBITS 2\nH 0\n")
    with pytest.raises(SystemExit):
        cli.main(["delegate", "--circuit", str(circuit), "--input", "1"])
    with pytest.raises(SystemExit):
        cli.main(["delegate", "--circuit", str(circuit), "--input", "1x"])


def test_ot_local_command(capsys):
    code = cli.main(["ot", "--lambda", "4", "--b", "1", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "caught=False" in out and "receiver value=" in out


def test_commit_command(capsys):
    code = cli.main(["commit", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bit=0 verdict=True" in out and "binding probe" in out


@pytest.mark.parametrize("seed", range(4))
def test_commit_command_at_lambda_1(capsys, seed):
    """A one-qubit probe state may reach 1 + 2^-1/2; it exited 1 when the
    bound was 1 + 2^-lam."""
    code = cli.main(["commit", "--lambda", "1", "--seed", str(seed)])
    assert code == 0
    assert "bound=1.707107" in capsys.readouterr().out


def test_pke_command(capsys):
    code = cli.main(["pke", "--trials", "40", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "correct=40" in out


def test_cvqc_command(capsys):
    code = cli.main(["cvqc", "--trials", "60", "--seed", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value=" in out and out.count("physical=") == 1
    assert "benchmark=" not in out
    with pytest.raises(SystemExit) as exc:
        cli.main(["cvqc", "--kappa", "1", "--alpha", "5"])
    assert exc.value.code == 2
    assert "alpha must lie in [-1, 1]" in capsys.readouterr().err


def test_cvqc_accepts_any_alpha_in_range(capsys):
    # there is no --beta; a positive alpha needs no window end above it
    assert cli.main(["cvqc", "--trials", "20", "--alpha", "0.5"]) == 0
    assert "rounds=20" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["cvqc", "--beta", "6"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["cvqc", "--alpha", "5"],
     "ospsim cvqc: error: alpha must lie in [-1, 1]"),
    (["osp-trace", "--path", "amplified", "--delta", "abc"],
     "ospsim osp-trace: error: --delta: Invalid literal for Fraction: 'abc'"),
    (["osp-trace", "--path", "amplified", "--delta", "1/0"],
     "ospsim osp-trace: error: --delta: "),
    (["delegate", "--circuit", "/nonexistent.qc", "--input", "1"],
     "ospsim delegate: error: --circuit: [Errno 2] No such file"),
    (["cvqc", "--ham", "{bad_ham}"],
     "ospsim cvqc: error: --ham: axis must be X or Z, got 'Y'"),
    (["cvqc", "--ham", "{nan_ham}"],
     "ospsim cvqc: error: --ham: weights must be finite, got nan"),
    (["cvqc", "--ham", "{inf_ham}"],
     "ospsim cvqc: error: --ham: weights must be finite, got inf"),
    (["delegate", "--circuit", "{bad_circuit}", "--input", "1"],
     "ospsim delegate: error: input has 1 bits but the circuit has 2"),
], ids=["alpha", "delta-text", "delta-zero", "missing-circuit", "bad-ham",
        "nan-weight", "inf-weight", "input-width"])
def test_bad_option_values_are_usage_errors(argv, message, tmp_path, capsys):
    files = {}
    for key, term in (("bad_ham", "Y 0 1 1.0"), ("nan_ham", "X 0 1 nan"),
                      ("inf_ham", "X 0 1 inf")):
        files[key] = tmp_path / (key + ".ham")
        files[key].write_text("QUBITS 2\n%s\n" % term)
    circuit = tmp_path / "c.qc"
    circuit.write_text("QUBITS 2\nH 0\n")
    argv = [a.format(bad_circuit=circuit, **files) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv,text,message", [
    (["cvqc", "--ham"],
     "QUBITS 5\n" + "".join("%s %d %d 0.125\n" % (axis, i, i + 1)
                            for axis in "XZ" for i in range(4)),
     "ospsim cvqc: error: --ham: 5 qubits exceed the 4 that the ground "
     "state is computed for"),
    (["delegate", "--input", "1" * 21, "--circuit"], "QUBITS 21\nX 0\n",
     "ospsim delegate: error: --circuit: 21 qubits exceed the 20-qubit "
     "dense limit"),
], ids=["cvqc-5-qubit-ham", "delegate-21-qubit-circuit"])
def test_files_past_the_dense_limits_are_usage_errors(argv, text, message,
                                                      tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == message + "\n"


def test_a_hamiltonian_without_x_terms_needs_kappa_one(tmp_path, monkeypatch,
                                                       capsys):
    """Correlation rounds draw an X term, so below kappa 1 a file with none
    is refused before any round; at kappa 1 it plays teleport rounds."""
    path = tmp_path / "z.ham"
    path.write_text("QUBITS 2\nZ 0 1 1.0\n")
    derive_rng = harness.derive_rng

    def no_work(*_labels):
        raise AssertionError("the command started work")

    monkeypatch.setattr(harness, "derive_rng", no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main(["cvqc", "--ham", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "ospsim cvqc: error: --ham: correlation rounds need an X term; "
        "without one only --kappa 1 can be played\n")
    monkeypatch.setattr(harness, "derive_rng", derive_rng)
    assert cli.main(["cvqc", "--ham", str(path), "--kappa", "1",
                     "--trials", "20", "--seed", "1"]) == 0
    assert "rounds=20" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["poq", "--trials", "0"],
     "ospsim poq: error: argument --trials: '0' is not a positive integer"),
    (["commit", "--lambda", "17"],
     "ospsim commit: error: --lambda: binding probe limited to 16 qubits"),
    (["commit", "--lambda", "-1"],
     "ospsim commit: error: argument --lambda: '-1' is not a positive integer"),
    (["puzzle", "--lambda", "0"],
     "ospsim puzzle: error: argument --lambda: '0' is not a positive integer"),
    (["ot", "--lambda", "0"],
     "ospsim ot: error: argument --lambda: '0' is not a positive integer"),
    (["osp-trace", "--n", "0"],
     "ospsim osp-trace: error: argument --n: '0' is not a positive integer"),
], ids=["poq-trials", "commit-lambda-17", "commit-lambda-negative",
        "puzzle-lambda", "ot-lambda", "osp-trace-n"])
def test_counts_are_checked_before_any_work(argv, message, monkeypatch,
                                            capsys):
    _assert_refused_before_work(argv, message, monkeypatch, capsys)


@pytest.mark.parametrize("argv,message", [
    ([cmd, "--n", "19"],
     "ospsim %s: error: argument --n: '19' exceeds the 18-bit input limit "
     "of the claw families" % cmd)
    for cmd in ("poq", "puzzle", "osp-trace")
] + [
    (["osp-trace", "--path", "amplified", "--delta", delta],
     "ospsim osp-trace: error: --delta: the amplified path runs at k = 1, "
     "so it takes 1/2 or 1")
    for delta in ("0", "1/3", "3/2")
] + [
    (["puzzle", "--threshold", value],
     "ospsim puzzle: error: argument --threshold: %r is not a number in "
     "[0, 1]" % value)
    for value in ("nan", "1.5", "-0.1")
], ids=["poq-n-19", "puzzle-n-19", "osp-trace-n-19", "delta-0",
        "delta-1/3", "delta-3/2", "threshold-nan", "threshold-1.5",
        "threshold-negative"])
def test_out_of_range_values_are_refused_before_any_work(argv, message,
                                                         monkeypatch, capsys):
    """Widths past tcf.MAX_N, densities the amplified path cannot build and
    thresholds outside [0, 1] are usage errors, not tracebacks."""
    _assert_refused_before_work(argv, message, monkeypatch, capsys)


@pytest.mark.parametrize("argv", [["poq", "--trials", "50"], ["ot"],
                                  ["commit"]], ids=["poq", "ot", "commit"])
def test_a_malformed_seed_variable_is_refused_before_any_work(argv,
                                                              monkeypatch,
                                                              capsys):
    """A bad OSPSIM_SEED is refused like a bad --seed, not read as 0."""
    monkeypatch.setenv("OSPSIM_SEED", "abc")
    message = ("ospsim %s: error: OSPSIM_SEED: 'abc' is not an integer"
               % argv[0])
    _assert_refused_before_work(argv, message, monkeypatch, capsys)


def _assert_refused_before_work(argv, message, monkeypatch, capsys):
    def no_work(*_labels):
        raise AssertionError("the command started work")

    monkeypatch.setattr(harness, "derive_rng", no_work)  # every run draws one
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines()
            if line.startswith("ospsim ")] == [message]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["delegate", "--circuit", "c.qc", "--input", "1", "--trials", "5"],
    ["cvqc", "--lambda", "4"],
    ["selftest", "--seed", "1"],
    ["poq", "--delta", "1/2"],
    ["osp-trace", "--trials", "3"],
])
def test_unread_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_osp_trace_paths(capsys):
    for path in ("two-round", "multi-round"):
        assert cli.main(["osp-trace", "--path", path, "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "target-projection norm=1.0000" in out
    assert cli.main(["osp-trace", "--path", "amplified", "--b", "1",
                     "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "evaluation" in out


def test_endpoint_parse_error():
    with pytest.raises(SystemExit):
        cli.main(["ot", "--connect", "nowhere"])


def test_cli_connect_against_harness_server(capsys):
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    config = {"lam": 3, "b": 0, "variant": "search"}
    box = {}

    def serve():
        box["t"] = harness.serve_on(listener, "ot", 7, config, timeout=20.0)

    th = threading.Thread(target=serve)
    th.start()
    code = cli.main(["ot", "--connect", "127.0.0.1:%d" % port,
                     "--lambda", "3", "--b", "0", "--seed", "7"])
    th.join()
    listener.close()
    out = capsys.readouterr().out
    assert code == 0
    assert "status=complete" in out
    assert box["t"].outcome["status"] == "complete"


def test_local_ot_is_the_session_a_socket_runs(capsys, tmp_path):
    """A local run prints the in-process session's results and writes the
    client transcript a socket session of the same seed writes."""
    path = tmp_path / "local.json"
    code = cli.main(["ot", "--lambda", "8", "--b", "1", "--seed", "7",
                     "--out", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    config = {"lam": 8, "b": 1, "variant": "search"}
    session = harness.run_local("ot", 7, config)
    receiver = session["client"].outcome["result"]
    sender = session["server"].outcome["result"]
    assert out.splitlines() == [
        "variant=search b=1 caught=False",
        "sender r0=%s r1=%s" % (sender["r0"], sender["r1"]),
        "receiver value=%s" % (receiver["value"],)]
    assert receiver["value"] == sender["r1"]
    saved = json.loads(path.read_text())
    assert harness.canonical_json(saved) == session["client"].to_bytes()


def test_cli_out_file_holds_the_client_transcript(capsys, tmp_path):
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    config = {"lam": 3, "b": 0, "variant": "search"}
    th = threading.Thread(target=harness.serve_on,
                          args=(listener, "ot", 7, config, 20.0))
    th.start()
    path = tmp_path / "client.json"
    code = cli.main(["ot", "--connect", "127.0.0.1:%d" % port,
                     "--lambda", "3", "--b", "0", "--seed", "7",
                     "--out", str(path)])
    th.join()
    listener.close()
    capsys.readouterr()
    assert code == 0
    client = harness.run_local("ot", 7, config)["client"]
    saved = json.loads(path.read_text())
    assert harness.canonical_json(saved) == client.to_bytes()
    assert path.read_text().endswith("}\n")


def test_selftest_single_criterion(capsys, tmp_path):
    out_file = tmp_path / "selftest.json"
    code = cli.main(["selftest", "--only", "9", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  9" in out
    saved = json.loads(out_file.read_text())
    assert saved[0]["index"] == 9 and saved[0]["passed"]


def test_selftest_unknown_criterion():
    with pytest.raises(ValueError):
        cli.main(["selftest", "--only", "99"])


@pytest.mark.parametrize("flag", ["--listen", "--connect"])
def test_a_port_past_65535_is_a_usage_error(flag, monkeypatch, capsys):
    """getaddrinfo would take 99999 mod 65536 (34463) and bind would raise
    OverflowError; the endpoint is refused before any socket exists."""
    def no_socket(*_args, **_kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(harness, "serve_once", no_socket)
    monkeypatch.setattr(harness, "connect_and_run", no_socket)
    with pytest.raises(SystemExit) as exc:
        cli.main(["poq", flag, "127.0.0.1:99999"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == ("ospsim poq: error: endpoint '127.0.0.1:99999' is not "
                   "HOST:PORT, PORT <= 65535\n")


def test_a_refused_connection_is_a_usage_error(capsys):
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    listener.close()  # nothing listens there now
    with pytest.raises(SystemExit) as exc:
        cli.main(["poq", "--connect", "127.0.0.1:%d" % port])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("ospsim poq: error: --connect: ")
    assert "refused" in err and "Traceback" not in err
    assert err.count("\n") == 1
