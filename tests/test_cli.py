import csv
import json

import numpy as np
import pytest
import yaml

from fedbench.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    apply_overrides,
    main,
    parse_and_validate_config,
)
from fedbench.errors import ConfigError


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
                {"kind": "softmax_ce_head"},
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


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
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


def test_fedprox_without_mu_is_config_error(tmp_path):
    cfg = base_config()
    cfg["strategy"] = {"algorithm": "fedprox"}
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        parse_and_validate_config(path)
    assert err.value.field == "strategy.mu"


def test_grid_eta_accepted(tmp_path):
    cfg = base_config(eta=0.003)
    path = write_config(tmp_path, cfg)
    parsed, echo = parse_and_validate_config(path)
    assert parsed.eta == 0.003
    assert echo["total_budget"] == 2


def test_total_budget_mismatch_rejected(tmp_path):
    cfg = base_config(total_budget=7)
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError):
        parse_and_validate_config(path)


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
    assert echo["total_budget"] == 2


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
    cmp_out = tmp_path / "cmp"
    code = main(["compare", "--results", str(out), str(out), "--out", str(cmp_out)])
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
    assert (rep / "distances_seed_0.csv").exists()


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


@pytest.mark.parametrize(
    "content", [None, "- 1\n- 2\n", "data: [1, 2\n"], ids=["missing", "not_a_mapping", "bad_yaml"]
)
def test_partition_bad_spec_is_config_error(tmp_path, capsys, content):
    spec = tmp_path / "spec.yaml"
    if content is not None:
        spec.write_text(content)
    code = main(["partition", "--spec", str(spec), "--out", str(tmp_path / "part")])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_error"
    assert err["message"].startswith("spec:")


@pytest.mark.parametrize("flag", [["--metric", "auroc"], ["--two-sided"]])
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
