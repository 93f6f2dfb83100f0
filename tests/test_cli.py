import json

import numpy as np
import pytest

from sobolev_adjoint import cli, kernel
from sobolev_adjoint.core import Domain, GridFn
from sobolev_adjoint.cli import (
    ConfigError,
    main,
    parse_config,
    run,
    serialize_config,
)


def test_parse_defaults_with_experiment_override():
    cfg = parse_config("", experiment="RadonRecon")
    assert cfg.experiment == "RadonRecon"
    assert cfg.tau == 1.01
    assert cfg.noise_rel == 0.10
    assert cfg.s == 0.5
    assert cfg.backend == "multiplier"


def test_parse_experiment_specific_defaults():
    cfg = parse_config("experiment=CrossCheck1D")
    assert cfg.n == 1024
    assert cfg.s == 1.0


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="tau"):
        parse_config("experiment=RadonRecon\ntau=0.9")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("experiment=RadonRecon\nwat=1")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("n=abc", experiment="RadonRecon")
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("n=64")
    with pytest.raises(ConfigError):
        parse_config("experiment=NoSuchThing")


def test_parse_rejects_duplicate_keys_and_an_empty_out_dir():
    # the last value used to win, so one stray line switched the experiment
    with pytest.raises(ConfigError, match="line 3: duplicate key 'experiment'"):
        parse_config("experiment=RadonRecon\nn=32\nexperiment=CrossCheck1D")
    with pytest.raises(ConfigError, match="line 2: duplicate key 'seed'"):
        parse_config("seed=1\nseed = 1  # same value", experiment="RadonRecon")
    # an empty out_dir used to write into the current directory
    with pytest.raises(ConfigError, match="out_dir"):
        parse_config("experiment=RadonRecon\nout_dir=")
    # the experiment argument overrides the file's key; it is no duplicate
    cfg = parse_config("experiment=RadonRecon\nseed=3", experiment="CrossCheck1D")
    assert (cfg.experiment, cfg.seed) == ("CrossCheck1D", 3)


def test_radon_geometry_cap():
    cfg = parse_config("experiment=RadonRecon\nn=201\nn_offsets=300\nn_angles=180")
    assert cfg.n == 201  # full scale passes with room to spare
    for text in ("n=100000\nn_offsets=100000\nn_angles=100000",
                 "n=401\nn_offsets=1200\nn_angles=360"):
        with pytest.raises(ConfigError, match="n=.*n_offsets=.*n_angles=.*cap"):
            parse_config(f"experiment=RadonRecon\n{text}")
    # the cap is RadonRecon's: the other experiments ignore the Radon keys
    assert parse_config("experiment=NormEquivalence\nn_offsets=100000\n"
                        "n_angles=100000").n_angles == 100000


def test_parse_comments_and_whitespace():
    text = "# a comment\n\nexperiment = RadonRecon  # trailing\n seed = 7\n"
    cfg = parse_config(text)
    assert cfg.seed == 7


def test_config_round_trips_through_serialize():
    cfg = parse_config(
        "experiment=RadonRecon\nn=32\nn_offsets=48\nn_angles=30\nseed=5\n"
        "tau=1.05\nnoise_rel=0.2\ns=0.7\nmax_iter=100\nphantom=shepp_logan")
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_crosscheck_run_creates_artifacts(tmp_path):
    cfg = parse_config(f"experiment=CrossCheck1D\nn=512\nout_dir={tmp_path}")
    assert run(cfg) == 0
    assert (tmp_path / "crosscheck.csv").exists()
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["results"]["failures"] == []
    assert doc["results"]["pairs"]["multiplier|kernel"] < 1e-3


def test_crosscheck_runs_where_the_kernel_inner_product_does_not_exist(tmp_path):
    # at n=1024, s=3 rounding makes a convolution eigenvalue negative
    u = GridFn(Domain.torus(1, 1024), np.ones(1024))
    with pytest.raises(ValueError, match="eigenvalue"):
        kernel.kernel_inner(u, u, 3.0)
    cfg = parse_config(f"experiment=CrossCheck1D\nn=1024\ns=3\nout_dir={tmp_path}")
    assert run(cfg) == 0
    rows = (tmp_path / "crosscheck.csv").read_text(encoding="ascii").splitlines()[2:]
    assert [row.rsplit(",", 1)[0] for row in rows] == [
        "multiplier,kernel", "multiplier,svd", "multiplier,discrete",
        "kernel,svd", "kernel,discrete", "svd,discrete"]


def test_crosscheck_catches_a_kernel_of_the_wrong_order(monkeypatch):
    # kernel eigenvalues to the power 1.01 are 2.5e-4 of ||u|| off the
    # multiplier, inside the 1e-3 gate, but 3.9e-2 of ||E u||
    assert cli._crosscheck_table(1024, 0.75, 7)[1] == []
    eigenvalues = kernel._convolution_eigenvalues
    monkeypatch.setattr(kernel, "_convolution_eigenvalues",
                        lambda *args: eigenvalues(*args) ** 1.01)
    _, failures = cli._crosscheck_table(1024, 0.75, 7)
    assert [f.split(":")[0] for f in failures] == ["multiplier vs kernel"]


def test_norm_equivalence_and_kernel_asymptotics(tmp_path):
    cfg = parse_config(f"experiment=NormEquivalence\nout_dir={tmp_path}/ne")
    assert run(cfg) == 0
    doc = json.loads((tmp_path / "ne" / "summary.json").read_text())
    assert doc["results"]["holds"] is True
    cfg = parse_config(f"experiment=KernelAsymptotics\nout_dir={tmp_path}/ka")
    assert run(cfg) == 0


def test_smoothing_2d_run(tmp_path):
    cfg = parse_config(f"experiment=AdjointSmoothing2D\nn=33\nout_dir={tmp_path}")
    assert run(cfg) == 0
    assert (tmp_path / "input.pgm").exists()
    assert (tmp_path / "smoothed.pgm").exists()
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["results"]["variational_gap"] < 1e-9
    # smoothing shrinks the noisy field
    assert doc["results"]["smoothed_l2"] < doc["results"]["input_l2"]


def _small_radon_cfg(out_dir, seed=1234, s=0.5):
    return parse_config(
        f"experiment=RadonRecon\nn=32\nn_offsets=48\nn_angles=30\n"
        f"max_iter=20000\nseed={seed}\ns={s}\nout_dir={out_dir}")


@pytest.mark.parametrize("s", [0.5, 0])
def test_radon_run_and_byte_identical_reruns(tmp_path, monkeypatch, s):
    solves = []
    landweber = cli.landweber

    def counting_landweber(*args, **kwargs):
        solves.append(1)
        return landweber(*args, **kwargs)

    monkeypatch.setattr(cli, "landweber", counting_landweber)
    cfg_a = _small_radon_cfg(tmp_path / "a", s=s)
    cfg_b = _small_radon_cfg(tmp_path / "b", s=s)
    assert run(cfg_a) == 0
    assert run(cfg_b) == 0
    # an order-s solve per run, plus the s=0 baseline unless s is 0
    assert len(solves) == (2 if s == 0 else 4)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        if name == "summary.json":
            da = json.loads(a)
            db = json.loads(b)
            da["config"].pop("out_dir")
            db["config"].pop("out_dir")
            assert da == db
        else:
            assert a == b
    results = json.loads((tmp_path / "a" / "summary.json").read_text())["results"]
    tag = f"s{s:g}".replace(".", "p")
    assert results[tag]["final_residual"] <= 1.01 * results["delta"]
    if s == 0:
        assert set(results) == {"delta", "tau", "s0"}


def test_radon_different_seed_changes_outputs(tmp_path):
    run(_small_radon_cfg(tmp_path / "a", seed=1))
    run(_small_radon_cfg(tmp_path / "b", seed=2))
    a = (tmp_path / "a" / "sinogram.csv").read_bytes()
    b = (tmp_path / "b" / "sinogram.csv").read_bytes()
    assert a != b


def test_main_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["run", "--config", str(missing)]) == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment=RadonRecon\ntau=0.5\n")
    assert main(["run", "--config", str(bad)]) == 2

    short = tmp_path / "short.cfg"
    short.write_text("experiment=RadonRecon\nn=32\nn_offsets=48\nn_angles=30\n"
                     "max_iter=3\n")
    assert main(["run", "--config", str(short), "--out",
                 str(tmp_path / "short_out")]) == 4

    # RadonRecon config errors are caught before any compute
    capsys.readouterr()
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text("experiment=RadonRecon\nn=8\n")
    out = tmp_path / "tiny_out"
    assert main(["run", "--config", str(tiny), "--out", str(out)]) == 2
    assert "n=8" in capsys.readouterr().err
    assert not out.exists()
    for text, key in (("noise_rel=0", "noise_rel"), ("n_angles=0", "n_angles")):
        tiny.write_text(f"experiment=RadonRecon\nn=32\n{text}\n")
        out = tmp_path / f"{key}_out"
        assert main(["run", "--config", str(tiny), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
    # a non-finite float is a config error, not a silent L2 solve or a
    # numerical failure after the compute
    for text in ("s=nan", "s=inf", "tau=nan", "noise_rel=nan", "step=inf"):
        tiny.write_text(f"experiment=RadonRecon\nn=32\n{text}\n")
        out = tmp_path / f"{text.replace('=', '_')}_out"
        assert main(["run", "--config", str(tiny), "--out", str(out)]) == 2
        assert text in capsys.readouterr().err
        assert not out.exists()

    cfg = tmp_path / "radon.cfg"
    for s in ("0.5", "0"):
        for backend in ("kernel", "wavelet", "bvp", "eigs", "discrete"):
            cfg.write_text(f"experiment=RadonRecon\nn=32\nn_offsets=48\n"
                           f"n_angles=30\ns={s}\nbackend={backend}\n")
            out = tmp_path / f"{backend}_{s}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            assert f"backend {backend!r}" in capsys.readouterr().err
            assert not out.exists()

    # no other experiment selects its smoother by backend either
    for experiment in ("CrossCheck1D", "AdjointSmoothing2D"):
        for backend in ("kernel", ""):
            cfg.write_text(f"experiment={experiment}\nn=33\nbackend={backend}\n")
            out = tmp_path / f"{experiment}_{backend}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            assert f"backend {backend!r}" in capsys.readouterr().err
            assert not out.exists()

    # the key has no command-line flag
    with pytest.raises(SystemExit) as usage:
        main(["run", "--config", str(cfg), "--backend", "multiplier"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err

    # configs the compute would reject (numpy's rng, the 33-mode SVD and Gram,
    # the kernel route) fail as config errors, not as numerical failures
    for experiment, text, key in (("RadonRecon", "n=32\nseed=-1", "seed=-1"),
                                  ("CrossCheck1D", "seed=-1", "seed=-1"),
                                  ("CrossCheck1D", "n=32", "n=32"),
                                  ("CrossCheck1D", "s=0", "s=0")):
        cfg.write_text(f"experiment={experiment}\n{text}\n")
        out = tmp_path / f"{experiment}_{key}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
    # a duplicated key, an empty out_dir and an oversized Radon geometry
    for text, keys in (("experiment=RadonRecon\nexperiment=CrossCheck1D",
                        ("'experiment'",)),
                       ("experiment=NormEquivalence\nout_dir=", ("out_dir",)),
                       ("experiment=RadonRecon\nn=100000\nn_offsets=100000\n"
                        "n_angles=100000", ("n=100000", "n_offsets=100000",
                                            "n_angles=100000"))):
        cfg.write_text(text + "\n")
        out = tmp_path / "rejected_out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err
        assert not out.exists()
    cfg.write_text("experiment=AdjointSmoothing2D\nn=9\n")
    out = tmp_path / "seed_override"
    assert main(["run", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 2
    assert "seed=-1" in capsys.readouterr().err
    assert not out.exists()


def test_main_selftest():
    assert main(["selftest"]) == 0


def test_cli_overrides(tmp_path):
    cfg_path = tmp_path / "cc.cfg"
    cfg_path.write_text("experiment=CrossCheck1D\nn=512\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--seed", "9",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["seed"] == 9
