import csv
import json
import logging
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedbench import benchmarks, cli, orchestrator
from fedbench.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_OTHER,
    apply_overrides,
    main,
    parse_and_validate_config,
)
from fedbench.data_synth import DATA_DEFAULTS, DATA_FIELDS, PartitionSpec, write_partition
from fedbench.errors import ConfigError, NonFiniteLoss, stated
from fedbench.nn import LAYER_DEFAULTS, LAYER_FIELDS, LayerSpec, ModelSpec, Plan
from fedbench.strategies import ALGORITHMS, KNOBS, StrategyConfig

from conftest import KNOB_VALUES, edit_cell


def base_config(**extra):
    cfg = {
        "model": {
            "input_dim": 5,
            "num_classes": 3,
            "loss": "cross_entropy",
            "layers": [
                {"kind": "dense", "width": 6},
                {"kind": "relu"},
                {"kind": "dense", "width": 3},
            ],
        },
        "strategy": {"algorithm": "fedavg"},
        "data": {
            "kind": "label_skew",
            "num_clients": 3,
            "num_classes": 3,
            "input_dim": 5,
            "sizes": [60, 50, 40],
            "seed": 7,
        },
        "rounds": 2,
        "eta": 0.1,
        "batch_size": 16,
    }
    cfg.update(extra)
    return cfg


OMITTED = object()  # a base_config field's value that leaves the field out


def write_config(tmp_path, cfg, name="config.yaml"):
    """Write ``cfg`` as fedbench writes its echo, so that a string such as
    ``"1e-5"`` is quoted and reads back as a string, not a YAML 1.2 float."""
    path = tmp_path / name
    path.write_text(yaml.dump(cfg, Dumper=cli._Dumper))
    return path


def test_apply_overrides_dotted_and_yaml_typed():
    cfg = {"strategy": {"algorithm": "fedavg"}}
    apply_overrides(cfg, ["strategy.mu=0.1", "rounds=5", "strategy.algorithm=fedprox"])
    assert cfg["strategy"]["mu"] == 0.1
    assert isinstance(cfg["strategy"]["mu"], float)
    assert cfg["rounds"] == 5
    assert cfg["strategy"]["algorithm"] == "fedprox"
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["no-equals-sign"])


@pytest.mark.parametrize("override,crossed", [("model.layers.1.width=5", "layers"),
                                              ("seeds.0=3", "seeds"),
                                              ("rounds.max=3", "rounds")])
def test_an_override_may_not_cross_a_list_or_a_scalar(tmp_path, capsys, override, crossed):
    """The override is the error, named with its key: it used to replace the
    list or scalar with a mapping, and the error blamed the replaced field."""
    key = override.partition("=")[0]
    cfg = base_config(seeds=[0, 1])
    record = run_config_error(tmp_path, capsys, cfg, ("run", "--override", override))
    assert record == {"error": "config_error", "message":
                      f"override: {key!r} crosses {crossed!r}, which is not a mapping"}


def test_an_override_fills_a_null_section():
    cfg = apply_overrides({"strategy": None}, ["strategy.algorithm=fedavg"])
    assert cfg == {"strategy": {"algorithm": "fedavg"}}


def test_fedprox_without_mu_is_config_error(tmp_path):
    cfg = base_config()
    cfg["strategy"] = {"algorithm": "fedprox"}
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        parse_and_validate_config(path)
    assert err.value.field == "strategy.mu"


def test_knob_table_keeps_the_algorithms_in_order():
    assert tuple(KNOBS) == ALGORITHMS == ("fedavg", "fedprox", "fedbn", "fedpxn",
                                          "fedadam", "fedadagrad", "fedyogi", "feddyn")


@pytest.mark.parametrize("knob", ["mu", "alpha", "eta_g", "gamma"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_strategy_states_exactly_the_knobs_its_algorithm_reads(tmp_path, capsys,
                                                               algorithm, knob):
    """Omitting a knob the algorithm reads, or stating one it does not read,
    is a ConfigError naming the knob, in the library and from ``fedbench run``."""
    section = {"algorithm": algorithm, **{k: KNOB_VALUES[k] for k in KNOBS[algorithm]}}
    if knob in KNOBS[algorithm]:
        del section[knob]
        reason = "required field missing"
    else:
        section[knob] = 0.5
        reason = f"{algorithm} does not read {knob}"
    with pytest.raises(ConfigError) as err:
        StrategyConfig(**section)
    assert (err.value.field, err.value.reason) == (f"strategy.{knob}", reason)
    path = write_config(tmp_path, base_config(strategy=section))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "config_error", "message": f"strategy.{knob}: {reason}"}
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_echo_states_the_algorithms_knobs_and_reads_back(tmp_path, algorithm):
    values = {"mu": 0.1, "alpha": 0.1, "eta_g": 0.02, "gamma": 0.01}
    section = {"algorithm": algorithm, **{k: values[k] for k in KNOBS[algorithm]}}
    path = write_config(tmp_path, base_config(strategy=section, rounds=1))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    echo_path = out / "config_echo.yaml"
    assert yaml.safe_load(echo_path.read_text())["strategy"] == section
    ran, _ = parse_and_validate_config(path, out_dir=out)
    assert parse_and_validate_config(echo_path)[0] == ran


def test_grid_eta_accepted(tmp_path):
    cfg = base_config(eta=0.003)
    path = write_config(tmp_path, cfg)
    parsed, echo = parse_and_validate_config(path)
    assert parsed.eta == 0.003 and echo["eta"] == 0.003


def test_total_budget_mismatch_rejected(tmp_path):
    """The budget is local_epochs * rounds; no config states it, so a
    mismatched one is an unknown key like any other."""
    cfg = base_config(total_budget=7)
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        parse_and_validate_config(path)
    assert err.value.field == "config" and "unknown keys ['total_budget']" in err.value.reason


def test_override_visible_in_echo(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(path), "--out", str(out),
        "--override", "eta=0.05", "--seed", "0",
    ])
    assert code == EXIT_OK
    echo = yaml.safe_load((out / "config_echo.yaml").read_text())
    assert echo["eta"] == 0.05


def test_override_builds_a_section_the_config_omits(tmp_path):
    cfg = base_config()
    del cfg["strategy"]
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                 "--override", "strategy.algorithm=fedavg"]) == EXIT_OK
    echo = yaml.safe_load((out / "config_echo.yaml").read_text())
    assert echo["strategy"] == {"algorithm": "fedavg"}


def test_run_three_seeds_creates_dirs_and_summary(tmp_path):
    path = write_config(tmp_path, base_config(seeds=[0, 1, 2]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    for seed in (0, 1, 2):
        assert (out / f"seed_{seed}" / "result.json").exists()
        assert (out / f"seed_{seed}" / "rounds.csv").exists()
    rows = list(csv.reader(open(out / "summary.csv")))
    assert rows[0] == ["algorithm", "metric", "mean", "std", "n_seeds"]
    assert rows[1][0] == "fedavg" and rows[1][4] == "3"


def test_seed_flag_is_echoed_as_the_seeds_that_ran(tmp_path):
    path = write_config(tmp_path, base_config())  # no seeds: the default is [0]
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--seed", "3", "5"]) == EXIT_OK
    echo = out / "config_echo.yaml"
    assert yaml.safe_load(echo.read_text())["seeds"] == [3, 5]
    assert sorted(p.name for p in out.glob("seed_*")) == ["seed_3", "seed_5"]
    assert parse_and_validate_config(echo)[0].seeds == [3, 5]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_echo_reads_back_as_the_config_that_ran(tmp_path, monkeypatch, command):
    """The echo holds every field, defaults included, but of the strategy, each
    layer and the data only the fields their kind reads, and parses back to the
    config the command ran, whose out_dir is the directory it wrote to."""
    cfg = base_config(rounds=4, seeds=[1, 2])
    cfg["model"]["layers"].insert(1, {"kind": "batch_norm"})
    cfg["strategy"] = {"algorithm": "fedadam", "eta_g": 0.02, "gamma": 0.01}
    if command == "sweep":  # a manifest, and an algorithm that keeps its norm entries local
        cfg["data"] = str(write_partition(PartitionSpec(**cfg["data"]), tmp_path / "part"))
        cfg["strategy"] = {"algorithm": "fedbn"}
    ran = []
    name = "run_experiment" if command == "run" else "sweep_local_epochs"
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda cfg, *a, **kw: ran.append(cfg) or real(cfg, *a, **kw))
    out = tmp_path / "out"
    argv = [command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
    assert main(argv + (["--grid", "2x2,4x1"] if command == "sweep" else [])) == EXIT_OK
    echo_path = out / "config_echo.yaml"
    echo = yaml.safe_load(echo_path.read_text())
    assert list(echo["strategy"]) == (["algorithm", "eta_g", "gamma"] if command == "run"
                                      else ["algorithm"])
    assert echo["model"]["layers"][:3] == [{"kind": "dense", "width": 6},
                                           {"kind": "batch_norm"},
                                           {"kind": "relu"}]
    assert echo["out_dir"] == str(out) and "total_budget" not in echo
    assert echo["local_optimizer"] == "sgd" and echo["keep_all_checkpoints"] is False
    if command == "run":  # label skew: its two fields, at their defaults
        assert echo["data"]["skew_concentration"] == 0.5 and echo["data"]["class_separation"] == 2.0
        assert "shift_scale" not in echo["data"]
    parsed, _ = parse_and_validate_config(echo_path)
    assert ran and all(c == parsed for c in ran)


def test_echo_quotes_a_string_that_reads_as_a_float(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path), "--out", "1e3", "--seed", "0"]) == EXIT_OK
    parsed, _ = parse_and_validate_config(tmp_path / "1e3" / "config_echo.yaml")
    assert parsed.out_dir == "1e3"


def test_run_loads_the_partition_once(tmp_path, monkeypatch):
    manifest = write_partition(PartitionSpec(**base_config()["data"]), tmp_path / "part")
    path = write_config(tmp_path, base_config(data=str(manifest)))
    loads = []
    real_load = orchestrator.load_partition

    def counting_load(manifest_path, *rest):
        loads.append(Path(manifest_path))
        return real_load(manifest_path, *rest)

    monkeypatch.setattr(orchestrator, "load_partition", counting_load)
    out = tmp_path / "out"
    argv = ["run", "--config", str(path), "--out", str(out), "--seed", "0", "1", "2"]
    assert main(argv) == EXIT_OK
    assert loads == [manifest]
    assert list(csv.reader(open(out / "summary.csv")))[1][4] == "3"


def test_partition_then_run_matches_in_process(tmp_path):
    """Running on a written partition is identical to the inline data spec."""
    cfg = base_config()
    cfg_path = write_config(tmp_path, cfg)
    part_dir = tmp_path / "part"
    assert main(["partition", "--spec", str(cfg_path), "--out", str(part_dir)]) == EXIT_OK
    assert (part_dir / "manifest.json").exists()

    out_inline = tmp_path / "inline"
    main(["run", "--config", str(cfg_path), "--out", str(out_inline), "--seed", "0"])

    cfg_manifest = base_config()
    cfg_manifest["data"] = str(part_dir / "manifest.json")
    manifest_cfg_path = write_config(tmp_path, cfg_manifest, name="manifest_config.yaml")
    out_manifest = tmp_path / "from_manifest"
    main(["run", "--config", str(manifest_cfg_path), "--out", str(out_manifest), "--seed", "0"])

    a = json.loads((out_inline / "seed_0" / "result.json").read_text())
    b = json.loads((out_manifest / "seed_0" / "result.json").read_text())
    assert a["mean_test_metric"] == b["mean_test_metric"]
    assert a["selected_round"] == b["selected_round"]
    assert (out_inline / "seed_0" / "rounds.csv").read_text() == \
        (out_manifest / "seed_0" / "rounds.csv").read_text()


def test_compare_self_all_insignificant(tmp_path, capsys):
    path = write_config(tmp_path, base_config(seeds=[0, 1, 2]))
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out)])
    copy = shutil.copytree(out, tmp_path / "copy")
    cmp_out = tmp_path / "cmp"
    code = main(["compare", "--results", str(out), str(copy), "--out", str(cmp_out)])
    assert code == EXIT_OK
    rows = list(csv.reader(open(cmp_out / "significance.csv")))
    assert rows[0] == ["alg_a", "alg_b", "u", "p", "label"]
    for row in rows[1:]:
        assert row[4] == "insignificant"


def test_report_writes_tables(tmp_path):
    path = write_config(tmp_path, base_config(seeds=[0, 1]))
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out)])
    rep = tmp_path / "report"
    assert main(["report", "--results", str(out), "--out", str(rep)]) == EXIT_OK
    assert (rep / "summary.csv").exists()
    assert (rep / "timing.csv").exists()
    for seed in (0, 1):  # the run's bytes, \r\n line ends included
        copy = (rep / f"distances_seed_{seed}.csv").read_bytes()
        assert b"\r\n" in copy
        assert copy == (out / f"seed_{seed}" / "distances.csv").read_bytes()


def test_one_parser_serves_every_main_call(tmp_path):
    """``main`` builds its parser once per process, and no call leaves state in
    it: an ``--override`` does not reach the next run, and a command line that
    argparse rejects does not stop the next one."""
    path = write_config(tmp_path, base_config())
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["run", "--config", str(path), "--out", str(one),
                 "--override", "seeds=[1]"]) == EXIT_OK
    assert main(["run", "--config", str(path), "--out", str(two)]) == EXIT_OK
    assert [p.name for p in one.glob("seed_*")] == ["seed_1"]
    assert [p.name for p in two.glob("seed_*")] == ["seed_0"]
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(tmp_path / "three")])  # --config is required
    assert exc.value.code == 2
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "three")]) == EXIT_OK
    assert cli._parser() is cli._parser()


def test_exit_code_config_error(tmp_path, capsys):
    cfg = base_config()
    cfg["strategy"] = {"algorithm": "feddyn"}  # missing alpha
    path = write_config(tmp_path, cfg)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error"
    assert "alpha" in err["message"]


def test_exit_code_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.yaml")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("content,field", [
    (None, "spec"), ("- 1\n- 2\n", "spec"), ("data: [1, 2\n", "spec"),
    ("data: partition/manifest.json\n", "data"),  # partition needs an inline spec
], ids=["missing", "not_a_mapping", "bad_yaml", "manifest_path"])
def test_partition_bad_spec_is_config_error(tmp_path, capsys, content, field):
    spec = tmp_path / "spec.yaml"
    if content is not None:
        spec.write_text(content)
    code = main(["partition", "--spec", str(spec), "--out", str(tmp_path / "part")])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error"
    assert err["message"].startswith(f"{field}:")
    assert not (tmp_path / "part").exists()


@pytest.mark.parametrize("command,flag,field", [("run", "--config", "config"),
                                                ("partition", "--spec", "spec")])
def test_non_utf8_file_is_config_error_naming_it(tmp_path, capsys, command, flag, field):
    path = tmp_path / "input.yaml"
    path.write_bytes(b"\xff\xfe" + yaml.safe_dump(base_config()).encode())
    code = main([command, flag, str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip())
    assert err["error"] == "config_error"
    assert err["message"].startswith(f"{field}:") and str(path) in err["message"]
    assert "Traceback" not in captured.err + captured.out


def config_without_eta(tmp_path, eta_line):
    """A config file whose ``eta`` is the literal text ``eta_line``."""
    cfg = base_config()
    del cfg["eta"]
    path = write_config(tmp_path, cfg)
    path.write_text(path.read_text() + eta_line + "\n")
    return path


@pytest.mark.parametrize("eta_line,overrides", [("eta: 1e-3", []),
                                                ("eta: 0.1", ["eta=1e-3"])])
def test_exponent_float_reads_as_yaml_1_2(tmp_path, eta_line, overrides):
    path = config_without_eta(tmp_path, eta_line)
    out = tmp_path / "out"
    argv = ["run", "--config", str(path), "--out", str(out), "--seed", "0"]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == EXIT_OK
    assert yaml.safe_load((out / "config_echo.yaml").read_text())["eta"] == 0.001


@pytest.mark.parametrize("eta_line,overrides", [("eta: '1e-3'", []),
                                                ("eta: 0.1", ["eta='1e-3'"])])
def test_quoted_exponent_float_stays_a_string(tmp_path, eta_line, overrides):
    path = config_without_eta(tmp_path, eta_line)
    with pytest.raises(ConfigError) as err:
        parse_and_validate_config(path, overrides)
    assert err.value.field == "eta"


@pytest.mark.parametrize("flag", [["--metric", "auroc"], ["--two-sided"], ["--exact"],
                                  ["--approx"]])
def test_compare_rejects_removed_flags(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--results", str(tmp_path)] + flag)
    assert exc.value.code == EXIT_CONFIG


def test_exit_code_data_error(tmp_path, capsys):
    bad = tmp_path / "part"
    bad.mkdir()
    (bad / "client_0.csv").write_text("feature_0,label\n0.1,oops\n0.2,1\n")
    (bad / "manifest.json").write_text(json.dumps({
        "spec": {"num_classes": 2},
        "clients": [{"client_id": 0, "path": "client_0.csv"}],
    }))
    cfg = base_config()
    cfg["data"] = str(bad / "manifest.json")
    path = write_config(tmp_path, cfg)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_DATA
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "data_error"


def test_data_with_fewer_classes_than_the_model_is_config_error(tmp_path, capsys):
    cfg = base_config()
    cfg["data"]["num_classes"] = 2
    assert config_error_field(tmp_path, capsys, cfg) == "model.num_classes"


def test_data_with_more_classes_than_the_model_is_config_error(tmp_path, capsys):
    cfg = base_config()
    cfg["model"]["num_classes"] = 2
    cfg["model"]["layers"][2]["width"] = 2
    assert config_error_field(tmp_path, capsys, cfg) == "model.num_classes"


def test_data_with_other_input_dim_than_the_model_is_config_error(tmp_path, capsys):
    cfg = base_config()
    cfg["model"]["input_dim"] = 4
    assert config_error_field(tmp_path, capsys, cfg) == "model.input_dim"
    assert not (tmp_path / "x").exists()


def test_run_on_a_manifest_of_another_width_writes_nothing(tmp_path, capsys):
    cfg = base_config(data=str(write_partition(PartitionSpec(**base_config()["data"]),
                                               tmp_path / "part")))
    cfg["model"]["input_dim"] = 4
    assert config_error_field(tmp_path, capsys, cfg) == "model.input_dim"
    assert not (tmp_path / "x").exists()


def test_run_on_a_spec_of_another_class_count_writes_nothing(tmp_path, capsys):
    cfg = base_config()
    cfg["data"]["num_classes"] = 4
    assert config_error_field(tmp_path, capsys, cfg) == "model.num_classes"
    assert not (tmp_path / "x").exists()


def test_sweep_on_a_manifest_of_another_class_count_writes_nothing(tmp_path, capsys):
    data = dict(base_config()["data"], num_classes=2)
    cfg = base_config(rounds=4, data=str(write_partition(PartitionSpec(**data), tmp_path / "part")))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--grid", "1x4,2x2",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error" and err["message"].startswith("model.num_classes:")
    assert not out.exists()


def run_on_manifest(tmp_path, capsys, manifest):
    """``fedbench run`` on a manifest; assert exit 3 with a JSON record, return its message."""
    cfg = base_config()
    cfg["data"] = str(manifest)
    code = main(["run", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_DATA
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "data_error"
    return err["message"]


CLIENT = {"client_id": 0, "path": "client_0.csv"}


@pytest.mark.parametrize("content", [
    None,
    "{not json",
    json.dumps([1, 2]),
    json.dumps({"spec": {}, "clients": [CLIENT]}),
    json.dumps({"spec": {"num_classes": "3"}, "clients": [CLIENT]}),
    json.dumps({"spec": {"num_classes": 2}}),
    json.dumps({"spec": {"num_classes": 2}, "clients": []}),
    json.dumps({"spec": {"num_classes": 2}, "clients": [{"path": "client_0.csv"}]}),
    json.dumps({"spec": {"num_classes": 2}, "clients": [dict(CLIENT, path="client_9.csv")]}),
], ids=["missing", "not_json", "not_a_mapping", "no_num_classes", "str_num_classes", "no_clients",
        "empty_clients", "no_client_id", "missing_csv"])
def test_bad_manifest_is_data_error_naming_it(tmp_path, capsys, content):
    part = tmp_path / "part"
    part.mkdir()
    (part / "client_0.csv").write_text("feature_0,label\n" + "0.5,1\n" * 10)
    manifest = part / "manifest.json"
    if content is not None:
        manifest.write_text(content)
    assert run_on_manifest(tmp_path, capsys, manifest).startswith(f"{manifest}: ")


def edited_manifest(tmp_path, edit):
    """The manifest of ``base_config``'s partition (clients of 60, 50 and 40
    rows), with ``edit`` applied to its client list."""
    manifest = write_partition(PartitionSpec(**base_config()["data"]), tmp_path / "part")
    raw = json.loads(manifest.read_text())
    edit(raw["clients"])
    manifest.write_text(json.dumps(raw))
    return manifest


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_feature_cell_is_data_error_naming_its_line(tmp_path, capsys, cell):
    manifest = write_partition(PartitionSpec(**base_config()["data"]), tmp_path / "part")
    path = manifest.parent / "client_2.csv"
    edit_cell(path, 5, 3, cell)
    message = run_on_manifest(tmp_path, capsys, manifest)
    assert message.startswith(f"{path}: line 5: non-finite feature cell in [")


@pytest.mark.parametrize("client,line,column,cell,message", [
    (1, 7, -1, "7", "label '7' outside [0, 3)"),
    (0, 3, 0, "oops", "non-numeric feature cell in ["),
    (1, 4, -1, None, "expected 6 cells, got 5"),
])
def test_malformed_row_is_data_error_naming_its_csv(tmp_path, capsys, client, line, column,
                                                    cell, message):
    manifest = write_partition(PartitionSpec(**base_config()["data"]), tmp_path / "part")
    path = manifest.parent / f"client_{client}.csv"
    edit_cell(path, line, column, cell)
    assert run_on_manifest(tmp_path, capsys, manifest).startswith(
        f"{path}: line {line}: {message}")


def test_manifest_with_a_duplicate_client_id_is_data_error(tmp_path, capsys):
    manifest = edited_manifest(tmp_path, lambda clients: clients[1].update(client_id=0))
    message = run_on_manifest(tmp_path, capsys, manifest)
    assert message == f"{manifest}: client_id 0 is listed twice"


@pytest.mark.parametrize("client_id", [-1, "2", 1.0, True])
def test_manifest_client_id_must_be_a_non_negative_integer(tmp_path, capsys, client_id):
    manifest = edited_manifest(tmp_path, lambda clients: clients[2].update(client_id=client_id))
    message = run_on_manifest(tmp_path, capsys, manifest)
    assert message == f"{manifest}: client_id {client_id!r} is not a non-negative integer"


@pytest.mark.parametrize("key,value,found", [
    ("n_k", 999, 40),
    ("class_histogram", [1, 2], [36, 1, 3]),
])
def test_manifest_counts_must_match_the_client_csv(tmp_path, capsys, key, value, found):
    manifest = edited_manifest(tmp_path, lambda clients: clients[2].update({key: value}))
    message = run_on_manifest(tmp_path, capsys, manifest)
    assert message == (f"{manifest}: client 2 lists {key} {value!r}, "
                       f"but client_2.csv holds {found!r}")


def test_client_csvs_with_different_feature_counts_are_data_error(tmp_path, capsys):
    data = dict(base_config()["data"], num_clients=2, sizes=[60, 50])
    manifest = write_partition(PartitionSpec(**data), tmp_path / "part")
    client_1 = manifest.parent / "client_1.csv"
    with open(client_1, newline="") as fh:
        rows = [row[:4] + row[5:] for row in csv.reader(fh)]  # drops feature_4
    with open(client_1, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    message = run_on_manifest(tmp_path, capsys, manifest)
    assert message == f"{manifest}: client 1 has 4 features, client 0 has 5"


def test_client_csv_without_a_validation_example_is_data_error(tmp_path, capsys):
    part = tmp_path / "part"
    part.mkdir()
    (part / "client_0.csv").write_text("feature_0,label\n" + "0.5,1\n" * 6)
    (part / "manifest.json").write_text(json.dumps({"spec": {"num_classes": 2},
                                                    "clients": [CLIENT]}))
    assert "validation" in run_on_manifest(tmp_path, capsys, part / "manifest.json")


def test_sweep_grid_and_csv(tmp_path):
    path = write_config(tmp_path, base_config(rounds=4))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--grid", "1x4,2x2,4x1",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = list(csv.reader(open(out / "sweep.csv")))
    assert rows[0][0] == "local_epochs"
    assert len(rows) == 4  # header + three splits x one seed


def test_sweep_bad_grid(tmp_path, capsys):
    path = write_config(tmp_path, base_config(rounds=4))
    code = main(["sweep", "--config", str(path), "--grid", "banana",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


def test_sweep_repeated_split_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, base_config(rounds=2))
    code = main(["sweep", "--config", str(path), "--grid", "1x2,1x2,2x1",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "config_error",
                   "message": "grid: must not repeat a split, got '1x2,1x2,2x1'"}
    assert not (tmp_path / "x").exists()


def test_sweep_non_positive_split_is_config_error_before_any_run(tmp_path, capsys):
    path = write_config(tmp_path, base_config(rounds=2))
    out = tmp_path / "x"
    code = main(["sweep", "--config", str(path), "--grid", "1x2,-1x-2", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error" and err["message"].startswith("sweep.splits:")
    assert not list(out.glob("E*_T*")) and not (out / "sweep.csv").exists()


def test_sweep_split_off_the_budget_writes_nothing(tmp_path, capsys):
    # every split is checked before config_echo.yaml is written
    path = write_config(tmp_path, base_config(rounds=2))
    out = tmp_path / "x"
    code = main(["sweep", "--config", str(path), "--grid", "1x2,1x3", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error" and err["message"].startswith("sweep.splits:")
    assert not out.exists()


def write_results(root, values, algorithm="fedavg", metric=None):
    """Per-seed result.json files as ``run`` writes them; ``metric``, when
    given, is recorded as the ``selection_metric``."""
    for seed, value in enumerate(values):
        run_dir = root / f"seed_{seed}"
        run_dir.mkdir(parents=True)
        record = {"mean_test_metric": value, "algorithm": algorithm, "elapsed_seconds": 0.5}
        if metric is not None:
            record["selection_metric"] = metric
        (run_dir / "result.json").write_text(json.dumps(record))
    return root


def assert_results_config_error(capsys, code, needle):
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error"
    assert err["message"].startswith("results:")
    assert needle in err["message"]


def test_compare_result_without_metric_is_config_error(tmp_path, capsys):
    good = write_results(tmp_path / "good", [0.6, 0.7])
    bad = tmp_path / "bad"
    (bad / "seed_0").mkdir(parents=True)
    (bad / "seed_0" / "result.json").write_text(json.dumps({"algorithm": "fedprox"}))
    code = main(["compare", "--results", str(good), str(bad)])
    assert_results_config_error(capsys, code, str(bad / "seed_0" / "result.json"))


@pytest.mark.parametrize("spellings", [["good", "good"], ["good", "./good", "other/../good"],
                                       ["good", "link"]], ids=["twice", "thrice", "symlink"])
def test_compare_refuses_a_directory_given_more_than_once(tmp_path, capsys, monkeypatch,
                                                          spellings):
    """Compared by resolved path, before any result is read: two copies used to
    be compared as two algorithms, and a third was dropped."""
    good = write_results(tmp_path / "good", [0.6, 0.7])
    other = write_results(tmp_path / "other", [0.5, 0.4], algorithm="fedprox")
    (tmp_path / "link").symlink_to(good, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_collect_seed_metrics", lambda d: pytest.fail("results read"))
    code = main(["compare", "--results", *spellings, str(other), "--out", str(tmp_path / "cmp")])
    assert_results_config_error(capsys, code,
                                f"a directory given more than once: {[str(good.resolve())]}")
    assert not (tmp_path / "cmp").exists()


def test_compare_tree_without_seed_results_is_config_error(tmp_path, capsys):
    good = write_results(tmp_path / "good", [0.6, 0.7])
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["compare", "--results", str(good), str(empty)])
    assert_results_config_error(capsys, code, f"no seed_*/result.json under {empty}")


def test_report_truncated_result_is_config_error(tmp_path, capsys):
    results = write_results(tmp_path / "res", [0.6, 0.7])
    path = results / "seed_1" / "result.json"
    path.write_text(path.read_text()[:20])
    code = main(["report", "--results", str(results), "--out", str(tmp_path / "rep")])
    assert_results_config_error(capsys, code, str(path))


@pytest.mark.parametrize("elapsed", ["slow", None, float("inf")])
def test_report_bad_elapsed_seconds_is_config_error(tmp_path, capsys, elapsed):
    results = write_results(tmp_path / "res", [0.6, 0.7])
    path = results / "seed_1" / "result.json"
    record = json.loads(path.read_text())
    record["elapsed_seconds"] = elapsed
    path.write_text(json.dumps(record))
    code = main(["report", "--results", str(results), "--out", str(tmp_path / "rep")])
    assert_results_config_error(capsys, code, str(path))
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("command", ["report", "compare"])
def test_tree_mixing_algorithms_is_config_error(tmp_path, capsys, command):
    """A tree's seeds are one algorithm's replicates; pooled, a fedavg and a
    fedbn seed would be reported under the last one's name."""
    tree = write_results(tmp_path / "res", [0.7])
    write_results(tmp_path / "other", [0.8], algorithm="fedbn")
    (tmp_path / "other" / "seed_0").rename(tree / "seed_1")
    other = write_results(tmp_path / "ok", [0.6, 0.65], algorithm="fedprox")
    argv = {"report": ["report", "--results", str(tree), "--out", str(tmp_path / "rep")],
            "compare": ["compare", "--results", str(other), str(tree),
                        "--out", str(tmp_path / "rep")]}[command]
    assert_results_config_error(capsys, main(argv), f"{tree} mixes the algorithms "
                                                    "['fedavg', 'fedbn']")
    assert not (tmp_path / "rep").exists()


def test_report_writes_the_row_run_wrote(tmp_path):
    """``report`` names the metric the tree's result.json files record, so its
    summary row is ``run``'s for the same tree."""
    path = write_config(tmp_path, base_config(seeds=[0, 1], selection_metric="accuracy"))
    out, rep = tmp_path / "out", tmp_path / "report"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert main(["report", "--results", str(out), "--out", str(rep)]) == EXIT_OK
    run_rows = list(csv.reader(open(out / "summary.csv")))
    assert run_rows[1][:2] == ["fedavg", "accuracy"]
    assert list(csv.reader(open(rep / "summary.csv"))) == run_rows


def test_report_of_a_tree_recording_no_metric_names_selection_metric(tmp_path):
    tree = write_results(tmp_path / "res", [0.7, 0.8])
    assert main(["report", "--results", str(tree), "--out", str(tmp_path / "rep")]) == EXIT_OK
    assert list(csv.reader(open(tmp_path / "rep" / "summary.csv")))[1][:2] == \
        ["fedavg", "selection_metric"]


@pytest.mark.parametrize("command", ["report", "compare"])
def test_tree_mixing_metrics_is_config_error(tmp_path, capsys, command):
    """A tree's seeds are scored on one metric; an AUROC and an accuracy
    pooled into one mean measure nothing."""
    tree = write_results(tmp_path / "res", [0.7], metric="auroc")
    write_results(tmp_path / "other", [0.8], metric="accuracy")
    (tmp_path / "other" / "seed_0").rename(tree / "seed_1")
    other = write_results(tmp_path / "ok", [0.6, 0.65], algorithm="fedprox", metric="auroc")
    argv = {"report": ["report", "--results", str(tree), "--out", str(tmp_path / "rep")],
            "compare": ["compare", "--results", str(other), str(tree),
                        "--out", str(tmp_path / "rep")]}[command]
    assert_results_config_error(capsys, main(argv), f"{tree} mixes the metrics "
                                                    "['accuracy', 'auroc']")
    assert not (tmp_path / "rep").exists()


def test_compare_refuses_trees_of_different_metrics(tmp_path, capsys, monkeypatch):
    """Ranking one tree's AUROCs against another's accuracies tests nothing,
    so no rank test runs."""
    monkeypatch.setattr(cli.metrics_mod, "significance_matrix",
                        lambda *a, **kw: pytest.fail("rank test ran"))
    a = write_results(tmp_path / "a", [0.7, 0.8], metric="auroc")
    b = write_results(tmp_path / "b", [0.6, 0.65], algorithm="fedprox", metric="accuracy")
    code = main(["compare", "--results", str(a), str(b), "--out", str(tmp_path / "cmp")])
    assert_results_config_error(capsys, code, "different metrics ['accuracy', 'auroc']")
    assert not (tmp_path / "cmp").exists()


def test_unwritable_out_is_an_io_error_without_a_traceback(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    out.write_text("a file, not a directory\n")
    assert main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_OTHER
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip())
    assert record["error"] == "io_error" and str(out) in record["message"]
    assert "Traceback" not in captured.err + captured.out
    assert out.read_text() == "a file, not a directory\n"


def test_echo_that_cannot_be_written_is_an_io_error_leaving_no_temp_file(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    (out / "config_echo.yaml").mkdir(parents=True)  # the temp file cannot replace it
    assert main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_OTHER
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "io_error" and "config_echo.yaml" in record["message"]
    assert [p.name for p in out.iterdir()] == ["config_echo.yaml"]
    assert not any((out / "config_echo.yaml").iterdir())


def test_compare_nan_metric_is_config_error(tmp_path, capsys):
    c = write_results(tmp_path / "c", [float("nan"), 0.7], algorithm="c")
    d = write_results(tmp_path / "d", [0.6, 0.65], algorithm="d")
    code = main(["compare", "--results", str(c), str(d)])
    assert_results_config_error(capsys, code, "nan")


def test_partition_spec_wrong_field_type_is_config_error(tmp_path, capsys):
    cfg = base_config()
    cfg["data"]["num_clients"] = "five"
    path = write_config(tmp_path, cfg)
    code = main(["partition", "--spec", str(path), "--out", str(tmp_path / "part")])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error"
    assert err["message"].startswith("data.num_clients:")


def test_run_config_wrong_data_type_is_config_error(tmp_path, capsys):
    cfg = base_config()
    cfg["data"]["sizes"] = [60, "fifty", 40]
    path = write_config(tmp_path, cfg)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error"
    assert err["message"].startswith("data.sizes:")


def config_error_field(tmp_path, capsys, cfg, overrides=()):
    """Run ``fedbench run`` (with ``--out`` unless ``cfg`` states ``out_dir``);
    assert exit 2 with a JSON record, return the field it names."""
    path = write_config(tmp_path, cfg)
    argv = ["run", "--config", str(path)]
    if "out_dir" not in cfg:
        argv += ["--out", str(tmp_path / "x")]
    for item in overrides:
        argv += ["--override", item]
    code = main(argv)
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error"
    return err["message"].split(":")[0]


@pytest.mark.parametrize("extra,overrides,field", [
    ({"rounds": "ten"}, [], "rounds"),
    ({}, ["batch_size=1.5"], "batch_size"),
    ({}, ["eta=fast"], "eta"),
    ({}, ["local_epochs=true"], "local_epochs"),
    ({}, ["seeds=5"], "seeds"),
    ({"seeds": [0, "one"]}, [], "seeds"),
    ({}, ["eta=.nan"], "eta"),
    ({"seeds": [-1]}, [], "seeds"),
    ({"seeds": []}, [], "seeds"),
    ({}, ["batch_size=1"], "batch_size"),
    ({"seeds": [0, 1, 0]}, [], "seeds"),
    ({}, ["eta=["], "override"),
    ({"keep_all_checkpoints": "yes"}, [], "keep_all_checkpoints"),
    ({"out_dir": 5}, [], "out_dir"),
    ({"local_optimizer": "lbfgs"}, [], "local_optimizer"),
    ({"rounds": OMITTED}, [], "rounds"),
])
def test_top_level_wrong_type_is_config_error(tmp_path, capsys, extra, overrides, field):
    cfg = {k: v for k, v in base_config(**extra).items() if v is not OMITTED}
    assert config_error_field(tmp_path, capsys, cfg, overrides) == field


@pytest.mark.parametrize("seeds", [["-2"], ["0", "-2"], [], ["0", "0"]])
def test_run_seed_flag_gets_the_config_seed_check(tmp_path, capsys, seeds):
    path = write_config(tmp_path, base_config())
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x"), "--seed", *seeds])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error"
    assert err["message"].split(":")[0] == "seeds"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("data,field", [
    ({"seed": -3}, "data.seed"),
    ({"kind": "feature_shift", "shift_scale": float("inf")}, "data.shift_scale"),
    ({"skew_concentration": float("nan")}, "data.skew_concentration"),
    ({"class_separation": float("-inf")}, "data.class_separation"),
    ({"kind": "feature_shift", "shift_scale": -1.0}, "data.shift_scale"),
])
def test_partition_rejects_non_finite_and_negative_seed(tmp_path, capsys, data, field):
    # each field on a kind that reads it, so that its value is what fails
    cfg = base_config()
    cfg["data"].update(data)
    path = write_config(tmp_path, cfg)
    code = main(["partition", "--spec", str(path), "--out", str(tmp_path / "part")])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error"
    assert err["message"].split(":")[0] == field
    assert err["message"].split(": ", 1)[1].startswith("must ")
    assert not (tmp_path / "part").exists()


@pytest.mark.parametrize("override,field", [
    ("strategy.mu=x", "strategy.mu"),
    ("strategy.alpha=[1]", "strategy.alpha"),
    ("strategy=fedavg", "strategy"),
    ("strategy.mu=.inf", "strategy.mu"),
])
def test_strategy_wrong_type_is_config_error(tmp_path, capsys, override, field):
    # an algorithm that reads the knob, so that its value's type is what fails
    readers = {"strategy.mu": {"algorithm": "fedprox", "mu": 0.1},
               "strategy.alpha": {"algorithm": "feddyn", "alpha": 0.1}}
    cfg = base_config(strategy=readers.get(field, {"algorithm": "fedavg"}))
    assert config_error_field(tmp_path, capsys, cfg, [override]) == field


@pytest.mark.parametrize("override,field", [
    ("model.input_dim='5'", "model.input_dim"),
    ("model.num_classes=3.0", "model.num_classes"),
    ("model.layers=dense", "model.layers"),
    ("model=5", "model"),
])
def test_model_wrong_type_is_config_error(tmp_path, capsys, override, field):
    assert config_error_field(tmp_path, capsys, base_config(), [override]) == field


@pytest.mark.parametrize("layer,field", [
    ({"kind": "dense", "width": "wide"}, "model.layers[0].width"),
    ({"kind": "group_norm", "groups": "2"}, "model.layers[0].groups"),
    ({"kind": "dense", "widht": 6}, "model.layers[0]"),
    ("dense", "model.layers[0]"),
])
def test_layer_wrong_type_or_unknown_key_is_config_error(tmp_path, capsys, layer, field):
    cfg = base_config()
    cfg["model"]["layers"][0] = layer
    assert config_error_field(tmp_path, capsys, cfg) == field


def with_layer(layer):
    cfg = base_config()
    cfg["model"]["layers"].insert(1, layer)
    return cfg


@pytest.mark.parametrize("layer,field", [
    ({"kind": "group_norm", "groups": 0}, "model.layers[1].groups"),
])
def test_layer_out_of_range_is_config_error(tmp_path, capsys, layer, field):
    assert config_error_field(tmp_path, capsys, with_layer(layer)) == field


@pytest.mark.parametrize("sizes", [[60, 50, 6], [60, 50, 2]])
def test_client_without_a_validation_example_is_config_error(tmp_path, capsys, sizes):
    cfg = base_config()
    cfg["data"]["sizes"] = sizes
    assert config_error_field(tmp_path, capsys, cfg) == "data.sizes"


@pytest.mark.parametrize("section,key", [
    ("config", "local_epoch"),
    ("model", "hidden"),
    ("strategy", "eta_global"),
    ("data", "skew_concentraton"),
    # the algorithm fixes what a client shares, the FedOpt pseudo-gradient
    # weights and its betas
    ("strategy", "policy"),
    ("strategy", "uniform_pseudo_grad"),
    ("strategy", "beta1"),
    ("strategy", "beta2"),
    # data is a manifest path or an inline spec, never a mapping naming one
    ("data", "manifest"),
])
def test_unknown_key_is_config_error(tmp_path, capsys, section, key):
    cfg = base_config()
    (cfg if section == "config" else cfg[section])[key] = 5
    path = write_config(tmp_path, cfg)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error"
    assert err["message"].startswith(f"{section}: unknown keys ['{key}']")
    assert not (tmp_path / "x").exists()


def test_declared_total_budget_is_an_unknown_key(tmp_path, capsys):
    """Even the budget the config works out to, local_epochs * rounds = 2."""
    record = run_config_error(tmp_path, capsys, base_config(total_budget=2))
    assert record["message"].startswith("config: unknown keys ['total_budget']")


@pytest.mark.parametrize("edit,message", [
    (lambda m: m.update(loss="mse") or "model.loss", "unknown loss 'mse'"),
    (lambda m: m["layers"].insert(1, {"kind": "conv"}) or "model.layers[1].kind",
     "unknown layer kind 'conv'"),
    (lambda m: m["layers"][0].pop("width") and "model.layers[0].width",
     "required field missing"),
    (lambda m: m.update(layers=[]) or "model.layers", "model has no layers"),
    # the loss picks the head, so a head layer is no layer kind
    (lambda m: m["layers"].append({"kind": "softmax_ce_head"}) or "model.layers[3].kind",
     "unknown layer kind 'softmax_ce_head'"),
    (lambda m: m.update(num_classes=4) or "model.num_classes", "head width 3 != 4"),
    (lambda m: m["layers"].insert(1, {"kind": "group_norm", "groups": 4})
     or "model.layers[1].groups", "must divide width 6"),
    (lambda m: m["layers"].insert(1, {"kind": "batch_norm", "width": 4})
     or "model.layers[1].width", "batch_norm does not read width"),
])
def test_bad_model_structure_is_config_error(tmp_path, capsys, edit, message):
    """Each edit breaks the model section and returns the field it breaks;
    the error record names that field, and the run writes nothing."""
    cfg = base_config()
    field = edit(cfg["model"])
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        parse_and_validate_config(path)
    assert (err.value.field, err.value.reason) == (field, message)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "config_error", "message": f"{field}: {message}"}
    assert not (tmp_path / "x").exists()


# a valid value of each layer and data field, for stating it where it is not read
LAYER_VALUES = {"width": 6, "groups": 2}
# fields no layer has any more, at their old defaults (now nn.NORM_EPSILON, nn.BN_MOMENTUM)
RETIRED_FIELDS = {"epsilon": 1e-5, "momentum": 0.1}
DATA_VALUES = {"skew_concentration": 0.7, "shift_scale": 0.7, "class_separation": 0.7}
RETIRED_HEADS = ("sigmoid_bce_head", "softmax_ce_head")  # the loss picks the head now


def config_with_layer(kind, **fields):
    """base_config whose model holds a ``kind`` layer stating ``fields`` (a
    dense one also its width, unless given): a retired head ends the model,
    where a head went, any other kind goes in at index 1.  Returns (config, index)."""
    cfg = base_config()
    layers = cfg["model"]["layers"]
    layer = {"kind": kind, **({"width": 6} if kind == "dense" else {}), **fields}
    i = len(layers) if kind in RETIRED_HEADS else 1
    layers.insert(i, layer)
    return cfg, i


def library_model(cfg) -> ModelSpec:
    model = cfg["model"]
    return ModelSpec(input_dim=model["input_dim"], loss=model["loss"],
                     num_classes=model["num_classes"],
                     layers=[LayerSpec(**layer) for layer in model["layers"]])


def run_config_error(tmp_path, capsys, cfg, argv=("run",)):
    """``fedbench`` on ``cfg``, written as the run config or as the partition
    spec; asserts exit 2 and that nothing was written, returns the JSON record."""
    path = write_config(tmp_path, cfg)
    flag = "--config" if argv[0] == "run" else "--spec"
    assert main([*argv, flag, str(path), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert not (tmp_path / "x").exists()
    return json.loads(capsys.readouterr().err.strip())


@pytest.mark.parametrize("kind,name", [(kind, name) for kind in [*LAYER_FIELDS, *RETIRED_HEADS]
                                       for name in ("width", "groups", *RETIRED_FIELDS)])
def test_a_layer_holds_exactly_the_fields_its_kind_reads(tmp_path, capsys, kind, name):
    """A field the kind does not read may not be stated; one it reads and the
    config omits takes its default, but a dense layer's width has none.  Both
    hold in the library and through ``fedbench run``, whose echo records the
    field at its default.  A retired head kind reads no field, as it is no
    kind: whatever it states, the error names its kind.  A retired field is
    no field: stated on any kind, even at its old default, it is an unknown
    key of the layer."""
    if name in RETIRED_FIELDS:
        cfg, i = config_with_layer(kind, **{name: RETIRED_FIELDS[name]})
        with pytest.raises(TypeError):
            library_model(cfg)
        record = run_config_error(tmp_path, capsys, cfg)
        assert record["error"] == "config_error"
        assert record["message"].startswith(f"model.layers[{i}]: unknown keys ['{name}']")
        return
    required = name == "width" and kind == "dense"
    if kind in RETIRED_HEADS or name not in LAYER_FIELDS[kind] or required:
        if required:
            cfg, i = config_with_layer(kind)
            del cfg["model"]["layers"][i]["width"]
            field, reason = f"model.layers[{i}].{name}", "required field missing"
        else:
            cfg, i = config_with_layer(kind, **{name: LAYER_VALUES[name]})
            field, reason = ((f"model.layers[{i}].kind", f"unknown layer kind {kind!r}")
                             if kind in RETIRED_HEADS else
                             (f"model.layers[{i}].{name}", f"{kind} does not read {name}"))
        with pytest.raises(ConfigError) as err:
            library_model(cfg)
        assert (err.value.field, err.value.reason) == (field, reason)
        record = run_config_error(tmp_path, capsys, cfg)
        assert record == {"error": "config_error", "message": f"{field}: {reason}"}
        return
    cfg, i = config_with_layer(kind)
    assert getattr(library_model(cfg).layers[i], name) == LAYER_DEFAULTS[name]
    out = tmp_path / "out"
    path = write_config(tmp_path, {**cfg, "rounds": 1})
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    echo = yaml.safe_load((out / "config_echo.yaml").read_text())
    assert echo["model"]["layers"][i] == {"kind": kind,
                                          **{f: LAYER_DEFAULTS[f] for f in LAYER_FIELDS[kind]}}


@pytest.mark.parametrize("kind,name", [(kind, name) for kind in DATA_FIELDS
                                       for name in ("skew_concentration", "shift_scale",
                                                    "class_separation")])
def test_a_partition_holds_exactly_the_fields_its_kind_reads(tmp_path, capsys, kind, name):
    """As for a layer, in the library and through ``fedbench partition``, whose
    manifest records the spec's stated fields, defaults included."""
    data = {**base_config()["data"], "kind": kind}
    if name not in DATA_FIELDS[kind]:
        data[name] = DATA_VALUES[name]
        field, reason = f"data.{name}", f"{kind} does not read {name}"
        with pytest.raises(ConfigError) as err:
            PartitionSpec(**data)
        assert (err.value.field, err.value.reason) == (field, reason)
        record = run_config_error(tmp_path, capsys, {"data": data}, ("partition",))
        assert record == {"error": "config_error", "message": f"{field}: {reason}"}
        return
    assert getattr(PartitionSpec(**data), name) == DATA_DEFAULTS[name]
    path = write_config(tmp_path, {"data": data})
    assert main(["partition", "--spec", str(path), "--out", str(tmp_path / "part")]) == EXIT_OK
    manifest = json.loads((tmp_path / "part" / "manifest.json").read_text())
    assert manifest["spec"] == {**data, **{f: DATA_DEFAULTS[f] for f in DATA_FIELDS[kind]}}


@pytest.mark.parametrize("section,field", [
    ({"model": {**base_config()["model"], "layers": [
        {"kind": "dense", "width": 16, "groups": 4},
        {"kind": "relu"}, {"kind": "dense", "width": 3}]}},
     "model.layers[0].groups"),
    ({"data": {**base_config()["data"], "kind": "feature_shift", "skew_concentration": 9.0}},
     "data.skew_concentration"),
])
def test_fields_that_used_to_be_ignored_are_config_errors(tmp_path, capsys, section, field):
    """A dense layer with a norm field and feature-shift data with a Dirichlet
    concentration used to parse and run as if the fields were absent."""
    record = run_config_error(tmp_path, capsys, base_config(**section))
    assert record["message"].split(":")[0] == field


@pytest.mark.parametrize("data_kind,loss", [("label_skew", "cross_entropy"),
                                            ("feature_shift", "binary_cross_entropy"),
                                            ("iid", "cross_entropy")])
def test_echo_holds_each_kinds_fields_and_reads_back(tmp_path, data_kind, loss):
    """Every layer kind and one data kind in one run: the echo's layers and data
    hold exactly the fields their kinds read, and read back as the config that ran."""
    cfg = base_config(rounds=1)
    cfg["model"]["layers"][1:1] = [{"kind": "batch_norm"},
                                   {"kind": "layer_norm"}, {"kind": "group_norm", "groups": 3}]
    cfg["model"]["loss"] = loss
    cfg["data"]["kind"] = data_kind
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_OK
    echo_path = out / "config_echo.yaml"
    echo = yaml.safe_load(echo_path.read_text())
    for layer in echo["model"]["layers"]:
        assert set(layer) == {"kind", *LAYER_FIELDS[layer["kind"]]}
    assert [layer["kind"] for layer in echo["model"]["layers"]] == [
        "dense", "batch_norm", "layer_norm", "group_norm", "relu", "dense"]
    assert echo["model"]["loss"] == loss  # the one statement of the head
    assert echo["model"]["layers"][1:4] == [
        {"kind": "batch_norm"}, {"kind": "layer_norm"}, {"kind": "group_norm", "groups": 3}]
    assert set(echo["data"]) == set(base_config()["data"]) | set(DATA_FIELDS[data_kind])
    assert parse_and_validate_config(echo_path)[0] == parse_and_validate_config(
        write_config(tmp_path, cfg), out_dir=out)[0]


def test_readme_minimal_config_parses_and_builds_its_plan(tmp_path):
    """README's "Minimal config:" block is a config as written: it parses,
    and its model compiles to a plan."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Minimal config:", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.yaml"
    path.write_text(block, encoding="utf-8")
    cfg, _ = parse_and_validate_config(path)
    plan = Plan(cfg.model)
    assert plan.softmax and len(plan.forward) == len(cfg.model.layers) == 4


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflow ending finite is no divergence
def test_a_real_partial_divergence_exits_4_after_flushing_its_rounds(
        tmp_path, capsys, caplog, monkeypatch):
    """At eta = 1e6 the benchmark's batch-norm model on its feature-shift data
    overflows for real: clients 0-3 diverge in round 4 (one of them by a
    non-finite loss, the others by a non-finite vector) and all five in round
    5, so ``fedbench run`` exits 4 with rounds 1-4 flushed, round 4's drift
    holding the one client left, and no result."""
    raised = []
    real_forward = orchestrator.model_forward

    def forward(*args, **kwargs):  # the library's own forward, counting NonFiniteLoss
        try:
            return real_forward(*args, **kwargs)
        except NonFiniteLoss:
            raised.append(1)
            raise

    monkeypatch.setattr(orchestrator, "model_forward", forward)
    cfg = base_config(model=asdict(benchmarks.small_model(), dict_factory=stated),
                      data=asdict(benchmarks.feature_shift_spec(0), dict_factory=stated),
                      eta=1.0e6, rounds=6, seeds=[0])
    del cfg["batch_size"]
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="fedbench.orchestrator"):
        code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == EXIT_DIVERGED
    assert json.loads(capsys.readouterr().err.strip())["error"] == "all_clients_diverged"
    assert [r.getMessage() for r in caplog.records] == [
        "round 4: diverged clients excluded from aggregation: [0, 1, 2, 3]",
        "round 5: diverged clients excluded from aggregation: [0, 1, 2, 3, 4]"]
    assert len(raised) == 1
    seed_dir = out / "seed_0"
    rounds = read_rows(seed_dir / "rounds.csv")
    assert [(int(r["round"]), int(r["client_id"])) for r in rounds] == [
        (t, k) for t in (1, 2, 3, 4) for k in range(5)]
    drift = [(int(r["round"]), int(r["client_id"])) for r in read_rows(seed_dir / "distances.csv")]
    assert drift == [(t, k) for t in (1, 2, 3) for k in range(5)] + [(4, 4)]
    assert not (seed_dir / "result.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("metric", ["auroc", "auprc"])
def test_a_run_that_selects_no_round_exits_1_after_flushing_its_rounds(tmp_path, capsys, metric):
    """Label skew at concentration 0.01 gives each client of data seed 0 one
    class, so no validation split can be ranked, every round's mean is NaN, and
    ``NoSelectableRound`` reaches the CLI as the generic error record."""
    data = {**base_config()["data"], "sizes": [40, 40, 40], "seed": 0, "skew_concentration": 0.01}
    cfg = base_config(data=data, selection_metric=metric)
    out = tmp_path / "out"
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == EXIT_OTHER
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "error", "message": f"mean validation {metric} is NaN in all 2 rounds"}
    seed_dir = out / "seed_0"
    rows = read_rows(seed_dir / "rounds.csv")
    assert [(int(r["round"]), int(r["client_id"])) for r in rows] == [
        (t, k) for t in (1, 2) for k in range(3)]
    assert {r["val_selection_metric"] for r in rows} == {"nan"}
    assert not (seed_dir / "result.json").exists()
