import json
import os
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
import yaml

from qkalman import cli, errors, inversion
from qkalman.cli import (
    RunConfig,
    emit_config,
    emit_csv,
    main,
    parse_config,
    run_report,
)
from qkalman.errors import ConfigError, DimensionError
from qkalman.kalman import q_filter_run

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIG_PATH = os.path.join(CONFIG_DIR, "worked_example.yaml")

MINI_CONFIG = """
A: [[1.0, -1.0], [1.0, 1.0]]
B: [[1.0], [1.0]]
H: [[2.0, 0.0], [0.0, 1.0]]
Q: [[1.0, 0.0], [0.0, 1.0]]
R: [[1.0, 0.0], [0.0, 1.0]]
x0: [2.0, 1.0]
P0: [[1.0, 0.0], [0.0, 1.0]]
controls: [[1.0]]
measurements: [[1.0, 1.0]]
steps: 0
"""


def mini_config(**overrides):
    doc = yaml.safe_load(MINI_CONFIG)
    doc.update(overrides)
    return yaml.safe_dump(doc, sort_keys=False)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_bundled_config():
    with open(CONFIG_PATH) as fh:
        config = parse_config(fh.read())
    np.testing.assert_array_equal(config.A, [[1.0, -1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(config.H, [[2.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(config.x0, [2.0, 1.0])
    assert config.steps == 1
    assert config.readout_mode == "exact"
    assert config.kappa == 3.5
    assert config.kappa_policy.resolve(1.0) == 3.5
    assert config.model.state_dim == 2


def test_config_round_trip():
    with open(CONFIG_PATH) as fh:
        config = parse_config(fh.read())
    again = parse_config(emit_config(config))
    assert again == config


def test_parse_rejects_bad_documents(monkeypatch):
    with pytest.raises(ConfigError, match="A"):
        parse_config("")
    with pytest.raises(ConfigError, match="steps"):
        parse_config(mini_config(steps="three"))
    with pytest.raises(ConfigError, match="surprise"):
        parse_config(mini_config(surprise=1))
    with pytest.raises(ConfigError, match="readout_mode"):
        parse_config(mini_config(readout_mode="telepathy"))
    with pytest.raises(ConfigError, match="shots"):
        parse_config(mini_config(readout_mode="sampled", shots=-5))
    with pytest.raises(ConfigError, match="eps_prime"):
        parse_config(mini_config(eps_prime=0.0))
    with pytest.raises(ConfigError, match="kappa"):
        parse_config(mini_config(kappa=1.0))
    with pytest.raises(ConfigError, match="kappa_margin"):
        parse_config(mini_config(kappa_margin=0.5))
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config("A: [[1.0")
    # one input per check, each pinned to the start of its message
    for doc, message in [
        ("- 1\n- 2\n", "config must be a mapping at the top level"),
        (mini_config(controls=3), "controls: expected a list of vectors"),
        (mini_config(A="abc"), "A: not a numeric array ("),
        (mini_config(A=[[[1.0]]]), "A: expected a 2-D array, got 3-D"),
        (mini_config(A=[[float("nan"), 1.0], [1.0, 1.0]]),
         "A: entries must be finite"),
        (mini_config(x0=[[1.0, 2.0]]), "x0: expected a flat vector, got 2-D"),
        (mini_config(controls=[["a"]]), "controls[0]: not a numeric vector ("),
        (mini_config(steps=True), "steps: expected an integer, got True"),
        (mini_config(eps_prime="x"), "eps_prime: expected a number, got 'x'"),
        (mini_config(A=[[True, False], [1, 1]]),
         "A: entries must be numbers, not booleans"),
        (mini_config(x0=[True, 1.0]), "x0: entries must be numbers, not booleans"),
        (mini_config(controls=[[True]]),
         "controls[0]: entries must be numbers, not booleans"),
        (mini_config(degree_cap=501), "unknown key 'degree_cap' at top level"),
    ]:
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            parse_config(doc)
    with pytest.raises(DimensionError, match=r"^P0 must be 2x2, got \(1, 1\)$"):
        parse_config(mini_config(P0=[[1.0]]))
    monkeypatch.setenv("QKALMAN_SEED", "99")  # the environment sets no seed
    assert parse_config(mini_config()).seed == 0


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400],
                         ids=["inf", "nan", "int-1e400"])
@pytest.mark.parametrize("field", ["kappa", "kappa_margin", "eps_prime"])
def test_non_finite_number_is_a_config_error(field, value, tmp_path, capsys):
    # YAML's .inf and .nan, and an integer too large for a float
    config_path = tmp_path / "inf.yaml"
    config_path.write_text(mini_config(steps=1, **{field: value}))
    assert main(["run", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: must be finite")


@pytest.mark.parametrize("kappa, eps, message", [
    ("inf", "0.01", "kappa must be finite and exceed 1, got inf"),
    ("1e200", "0.01", "smoothing order overflows at kappa 1e+200, eps' 0.01"),
    ("20", "1e-3", "required degree 515 exceeds the cap 501"),
], ids=["inf", "1e200", "degree-cap"])
def test_angles_with_non_finite_or_huge_kappa_exits_8(kappa, eps, message, capsys):
    assert main(["angles", "--kappa", kappa, "--eps", eps]) == 8
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("overrides, code", [
    ({"kappa": 1.5}, 6),  # be_invert's window [1/1.5, 1] refuses sigma 0.29
    ({"kappa": 1.5}, 8),  # at a degree cap of 3 the polynomial fails first
])
def test_fixed_kappa_window_failure_exit_codes(overrides, code, tmp_path,
                                               monkeypatch):
    if code == 8:
        monkeypatch.setattr(inversion, "DEGREE_CAP", 3)
        inversion.clear_cache()  # drop the kappa 1.5 polynomial built before
    with open(CONFIG_PATH) as fh:
        doc = yaml.safe_load(fh)
    doc.update(overrides)
    config_path = tmp_path / "narrow.yaml"
    config_path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(config_path)]) == code


def test_parse_rejects_mismatched_shapes():
    with pytest.raises(DimensionError, match="B"):
        parse_config(mini_config(B=[[1.0], [1.0], [1.0]]))
    with pytest.raises(DimensionError, match="x0"):
        parse_config(mini_config(x0=[1.0, 2.0, 3.0]))


def test_seed_comes_from_the_config_alone():
    assert parse_config(mini_config()).seed == 0
    assert parse_config(mini_config(seed=7)).seed == 7


@pytest.mark.parametrize("field", ["seed"])
def test_negative_seed_is_a_config_error(field, tmp_path, capsys):
    # a sampled run must stop at the config, not at its first draw
    doc = {"steps": 1, "kappa": 3.5, "readout_mode": "sampled", field: -5}
    config_path = tmp_path / "neg.yaml"
    config_path.write_text(mini_config(**doc))
    assert main(["run", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: must be >= 0")


@pytest.mark.parametrize("seed", [-1, 2.5, (1, 2), True])
def test_filter_rejects_bad_sampling_seed_before_any_step(seed):
    config = parse_config(mini_config())
    # no controls for the one step: the seed check must come first
    with pytest.raises(ConfigError, match="seed"):
        q_filter_run(config.model, config.init, [], [], 1, "sampled",
                     seed=seed)


# ---------------------------------------------------------------------------
# reports and CSV export
# ---------------------------------------------------------------------------

def test_report_config_is_the_emitted_yaml():
    keys = ["A", "B", "H", "Q", "R", "x0", "P0", "controls", "measurements",
            "steps", "readout_mode", "shots", "iterations", "seed",
            "kappa_margin", "eps_prime"]
    for config, last in ((parse_config(mini_config()), []),
                         (parse_config(mini_config(kappa=3.5)), ["kappa"])):
        doc = yaml.safe_load(emit_config(config))
        assert list(doc) == keys + last  # kappa only when it is set
        assert run_report(config)["config"] == doc


def test_readme_documents_every_config_key():
    readme_path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme_path) as fh:
        section = fh.read().split("## Configuration\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert [f.name for f in fields(RunConfig)
            if f"`{f.name}`" not in section] == []


def test_zero_step_report_shape():
    report = run_report(parse_config(mini_config()))
    assert report["steps"][0]["step"] == 0
    np.testing.assert_allclose(report["steps"][0]["x_hat_q"], [2.0, 1.0])
    assert report["ledger"] == []
    text = emit_csv(report, "trajectory")
    lines = text.strip().splitlines()
    assert lines[0].startswith("step,x_hat_q[0]")
    assert len(lines) == 2


def test_emit_csv_rejects_unknown_kind():
    report = run_report(parse_config(mini_config()))
    with pytest.raises(ConfigError):
        emit_csv(report, "interpretive_dance")
    with pytest.raises(ConfigError, match="sampled"):
        emit_csv(report, "histogram")


def test_run_command_writes_csvs(tmp_path, capsys):
    config_path = tmp_path / "run.yaml"
    config_path.write_text(mini_config(steps=1, kappa=3.5,
                                       readout_mode="sampled",
                                       shots=16384, iterations=50, seed=5))
    csv_dir = tmp_path / "out"
    code = main(["run", str(config_path), "--csv-dir", str(csv_dir)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["readout_mode"] == "sampled"
    assert len(report["ledger"]) == 17
    assert "1" in report["qsvt"] or 1 in report["qsvt"]
    traj = (csv_dir / "trajectory.csv").read_text().strip().splitlines()
    assert len(traj) == 3  # header + initial + one step
    ledger = (csv_dir / "ledger.csv").read_text().strip().splitlines()
    assert len(ledger) == 18
    hist = (csv_dir / "histogram.csv").read_text().strip().splitlines()
    assert hist[0] == "basis_index,count"
    total = sum(int(line.split(",")[1]) for line in hist[1:])
    assert total == 16384 * 50
    # sampled estimates still land near the classical answer
    step = report["steps"][1]
    np.testing.assert_allclose(step["x_hat_q"], step["x_hat_c"], atol=0.2)


def test_histogram_csv_lists_targets_then_rest():
    report = {"sampling": {"1": {"x_hat": {"counts_nonzero": {
        "rest": 90, "1": 4, "0": 6}}}}}
    lines = emit_csv(report, "histogram").strip().splitlines()
    assert lines == ["basis_index,count", "0,6", "1,4", "rest,90"]


def test_run_command_missing_config_is_a_config_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2


# the README's exit-code table
README_EXIT_CODES = {
    "ConfigError": 2,
    "DimensionError": 3,
    "DegenerateInputError": 4,
    "SingularityError": 5,
    "SigmaRangeError": 6,
    "SolverError": 7,
    "ApproximationError": 8,
    "NumericalFailureError": 9,
    "MeasurementBudgetError": 10,
    "ParityError": 11,
}


@pytest.mark.parametrize("cls", errors.QkError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_each_error_exits_with_its_readme_code(cls, monkeypatch, capsys):
    exc = cls(2.0, 0.0, 1.0) if cls is errors.SigmaRangeError else cls("boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_angles", fail)
    assert main(["angles", "--kappa", "2", "--eps", "0.1"]) == \
        README_EXIT_CODES[cls.__name__]
    assert capsys.readouterr().err.startswith("error: ")


def test_run_command_singular_model_exit_code(tmp_path):
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(mini_config(
        steps=1, H=[[0.0, 0.0], [0.0, 0.0]],
        R=[[0.0, 0.0], [0.0, 0.0]], Q=[[0.0, 0.0], [0.0, 0.0]]))
    assert main(["run", str(config_path)]) == 5


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(CONFIG_DIR) if f.endswith(".yaml")))
def test_every_bundled_config_runs(name, capsys):
    assert main(["run", os.path.join(CONFIG_DIR, name)]) == 0
    report = json.loads(capsys.readouterr().out)
    if report["readout_mode"] != "exact":
        return
    eps = {step: e for step, label, _, _, e in report["ledger"]
           if label == "alpha_x_hat"}
    for row in report["steps"][1:]:
        err = np.max(np.abs(np.subtract(row["x_hat_q"], row["x_hat_c"])))
        assert err <= eps[row["step"]]


def test_scalar_x0_runs_a_one_state_model(tmp_path, capsys):
    config_path = tmp_path / "scalar.yaml"
    config_path.write_text(yaml.safe_dump(dict(
        A=[[0.9]], B=[[1.0]], H=[[1.0]], Q=[[0.1]], R=[[0.5]], x0=2.0,
        P0=[[1.0]], controls=[[0.5]], measurements=[[1.5]], steps=1)))
    assert main(["run", str(config_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["x0"] == [2.0]
    np.testing.assert_allclose(report["steps"][1]["x_hat_q"],
                               report["steps"][1]["x_hat_c"], atol=1e-6)


def test_run_command_dimension_exit_code(tmp_path):
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(mini_config(B=[[1.0], [1.0], [1.0]]))
    assert main(["run", str(config_path)]) == 3


@pytest.mark.parametrize("mat, fault", [
    ([[1.0, 3.0], [0.0, -2.0]], "symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], "positive semidefinite"),  # eigenvalues 3, -1
], ids=["asymmetric", "indefinite"])
@pytest.mark.parametrize("field", ["Q", "R", "P0"])
def test_run_refuses_a_covariance_that_is_not_symmetric_psd(field, mat, fault,
                                                            tmp_path, capsys):
    config_path = tmp_path / "cov.yaml"
    config_path.write_text(mini_config(steps=1, **{field: mat}))
    assert main(["run", str(config_path)]) == 3
    assert capsys.readouterr().err == f"error: {field} must be {fault}\n"


# ---------------------------------------------------------------------------
# the other subcommands
# ---------------------------------------------------------------------------

def test_encode_command(tmp_path, capsys):
    path = tmp_path / "m.csv"
    np.savetxt(path, [[1.0, -1.0], [1.0, 1.0]], delimiter=",")
    assert main(["encode", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] == pytest.approx(2.0)
    assert out["ancillas"] == 1
    np.testing.assert_allclose(out["decoded_block_re"],
                               [[1.0, -1.0], [1.0, 1.0]], atol=1e-9)
    np.testing.assert_allclose(out["decoded_block_im"], 0.0, atol=1e-12)


def test_encode_command_complex_pairs(tmp_path, capsys):
    path = tmp_path / "m.csv"
    # columns are re,im pairs: [[1+2j, 0], [0, 1-1j]]
    np.savetxt(path, [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]],
               delimiter=",")
    assert main(["encode", str(path), "--complex"]) == 0
    out = json.loads(capsys.readouterr().out)
    got = np.array(out["decoded_block_re"]) + 1j * np.array(out["decoded_block_im"])
    np.testing.assert_allclose(got, [[1 + 2j, 0], [0, 1 - 1j]], atol=1e-9)


def test_encode_command_bad_file(tmp_path):
    assert main(["encode", str(tmp_path / "missing.csv")]) == 2
    path = tmp_path / "text.csv"
    path.write_text("not,a\nnumber,grid\n")
    assert main(["encode", str(path)]) == 2


@pytest.mark.parametrize("command", [["encode"],
                                     ["invert", "--kappa", "3", "--eps", "0.1"]])
@pytest.mark.parametrize("content, message", [
    ("", "no matrix entries"),
    ("1,nan\n1,1\n", "entries must be finite"),
], ids=["empty", "nan"])
def test_matrix_file_without_finite_entries_is_a_config_error(
        command, content, message, tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command[0], str(path)] + command[1:]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("argv, rows, code, message", [
    (["encode", "--complex"], [[1.0, 2.0, 3.0]], 2,
     "{path}: paired-column complex input needs an even column count, got 3"),
    (["invert", "--kappa", "3", "--eps", "0.1"], [[1.0, 2.0, 3.0]], 3,
     "inversion needs a square matrix, got (1, 3)"),
], ids=["encode-complex-odd", "invert-non-square"])
def test_matrix_commands_refuse_bad_shapes(argv, rows, code, message,
                                           tmp_path, capsys):
    path = tmp_path / "m.csv"
    np.savetxt(path, rows, delimiter=",")
    assert main([argv[0], str(path)] + argv[1:]) == code
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_invert_command(tmp_path, capsys):
    path = tmp_path / "m.csv"
    np.savetxt(path, np.diag([13.0, 4.0]), delimiter=",")
    assert main(["invert", str(path), "--kappa", "3.5", "--eps", "0.01"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 57
    assert out["solver_iterations"] > 0 and out["solver_residual"] <= 1e-6
    got = np.array(out["inverse_re"])
    np.testing.assert_allclose(got, np.diag([1 / 13, 1 / 4]), atol=1e-2)
    assert out["eps"] >= abs(got[0, 0] - 1 / 13)


def test_angles_command(capsys):
    # the angles go to stdout, one per line, and the metadata to stderr
    assert main(["angles", "--kappa", "3.5", "--eps", "0.01"]) == 0
    captured = capsys.readouterr()
    values = [float(line) for line in captured.out.strip().splitlines()]
    assert len(values) == 58
    assert all(np.isfinite(values))
    assert "degree 57" in captured.err


def test_run_config_equality_uses_array_contents():
    a = parse_config(mini_config())
    b = parse_config(mini_config())
    assert a == b
    c = parse_config(mini_config(x0=[2.0, 1.5]))
    assert a != c
    assert a != "not a config"
    assert isinstance(a, RunConfig)
