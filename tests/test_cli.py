import contextlib
import dataclasses
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sobolev_adjoint import cli, kernel
from sobolev_adjoint.core import Domain, GridFn
from sobolev_adjoint.cli import (
    EXPERIMENTS,
    PHANTOMS,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run,
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


_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))
_PLAIN = ("2", "16", "64", "100", "0.5", "1.01", "1 # note")
_BOUNDARY = ("nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-0",
             "1", "-1", "1.5", "99999999999999999999", "0x10", "1_000",
             "\u0663\u0660", "", "abc", "multiplier", *EXPERIMENTS, *PHANTOMS)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(lines=st.dictionaries(st.sampled_from(_KEYS),
                             st.sampled_from(_PLAIN) | st.sampled_from(_BOUNDARY),
                             max_size=6),
       extra=st.sampled_from((None,) * 4 + ("unknown=1", "=1", "no equals", "n=2")),
       experiment=st.sampled_from(EXPERIMENTS + (None, "Nope")))
def test_config_text_gives_a_config_or_a_config_error(lines, extra, experiment):
    # parse_config alone, with no compute: boundary values, unknown keys and
    # malformed lines must fail as a ConfigError, never as another exception
    text = "".join(f"{key}={value}\n" for key, value in lines.items())
    if extra is not None:
        text += extra + "\n"
    try:
        cfg = parse_config(text, experiment)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


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


# each passed the Radon-only cap, then failed to allocate its largest array:
# the 74.5 GiB image, the 7.28 TiB grid, the 14.9 GiB kernel lattice
_OVERSIZED = ({"experiment": "RadonRecon", "n": 100000, "n_offsets": 1, "n_angles": 1},
              {"experiment": "AdjointSmoothing2D", "n": 1000000},
              {"experiment": "CrossCheck1D", "n": 2000000000})


@pytest.mark.parametrize("values", [*_OVERSIZED,  # and the first sizes past the cap
                                    {"experiment": "CrossCheck1D", "n": 500000},
                                    {"experiment": "AdjointSmoothing2D", "n": 10001}],
                         ids=lambda v: f"{v['experiment']}-n{v['n']}")
def test_size_cap_rejects_each_experiments_largest_array(values):
    text = "".join(f"{key}={value}\n" for key, value in values.items())
    with pytest.raises(ConfigError, match="largest array .* above the cap") as exc:
        parse_config(text)
    sizes = [f"{key}={value}" for key, value in values.items() if key != "experiment"]
    assert all(size in str(exc.value) for size in sizes), exc.value


@pytest.mark.parametrize("text", [
    "experiment=RadonRecon\nn=201\nn_offsets=300\nn_angles=180",
    "experiment=RadonRecon\nn=64\nn_offsets=100\nn_angles=60",
    "experiment=RadonRecon\nn=32\nn_offsets=48\nn_angles=30",
    "experiment=CrossCheck1D\nn=1024",
    "experiment=CrossCheck1D\nn=256",
    "experiment=CrossCheck1D\nn=499999",
    "experiment=AdjointSmoothing2D\nn=257",
    "experiment=AdjointSmoothing2D\nn=65",
    "experiment=AdjointSmoothing2D\nn=10000",
], ids=["radon-full", "radon-desk", "radon-golden", "crosscheck-default",
        "crosscheck-golden", "crosscheck-largest", "smoothing2d-benchmark",
        "smoothing2d-golden", "smoothing2d-largest"])
def test_size_cap_accepts_the_sizes_in_use(text):
    assert isinstance(parse_config(text), RunConfig)


def test_parse_comments_and_whitespace():
    text = "# a comment\n\nexperiment = RadonRecon  # trailing\n seed = 7\n"
    cfg = parse_config(text)
    assert cfg.seed == 7


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


def test_solver_record_changes_no_output_byte(tmp_path, monkeypatch):
    # the desk geometry, smooth phantom, s=0: the same run with the log's
    # step and norm estimate cleared writes the same bytes
    cfg = parse_config("experiment=RadonRecon\nn=64\nn_offsets=100\nn_angles=60\n"
                       f"s=0\nout_dir={tmp_path}")
    logs = []
    landweber = cli.landweber

    def recording(*args, **kwargs):
        u, log = landweber(*args, **kwargs)
        logs.append(log)
        return u, log

    monkeypatch.setattr(cli, "landweber", recording)
    assert run(cfg) == 0
    with_record = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def without_record(*args, **kwargs):
        u, log = landweber(*args, **kwargs)
        return u, dataclasses.replace(log, step=None, norm_estimate=None)

    monkeypatch.setattr(cli, "landweber", without_record)
    assert run(cfg) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == with_record
    assert logs[0].step == 0.9 / logs[0].norm_estimate ** 2


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
    for text, key in (("noise_rel=0", "noise_rel"), ("n_offsets=0", "n_offsets"),
                      ("n_angles=0", "n_angles")):
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


@pytest.mark.parametrize("where", ["afile", "afile/below"], ids=["file", "under-file"])
def test_unusable_out_dir_is_a_config_error(tmp_path, capsys, where):
    # a file at out_dir or above it stops the run before any compute
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / where)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiment=NormEquivalence\nout_dir={out}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: out_dir={out!r}")
    assert main(["run", "--config", str(cfg), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: out_dir=")


@pytest.mark.parametrize("text, output", [
    ("experiment=NormEquivalence", "summary.json"),
    ("experiment=AdjointSmoothing2D\nn=17", "smoothed.pgm"),  # through radon.write_pgm
], ids=["summary", "pgm"])
def test_output_that_cannot_be_written_is_a_config_error(tmp_path, capsys, text, output):
    # a directory where an output goes fails after the compute: exit 2 naming
    # the file, not an IsADirectoryError traceback with exit 1
    out = tmp_path / "out"
    (out / output).mkdir(parents=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{text}\nout_dir={out}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: an output in out_dir={str(out)!r} cannot be written")
    assert repr(str(out / output)) in err


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"experiment=NormEquivalence\xff\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: 'utf-8' codec can't decode")


@pytest.mark.parametrize("text, message, overflows", [
    # every residual norm overflows to inf, and inf > 10 * inf is false:
    # a numerical failure, not the stopping rule
    ("experiment=RadonRecon\nn=16\nn_offsets=8\nn_angles=5\nnoise_rel=1e300\n"
     "max_iter=50", "numerical failure: landweber residual is not finite", True),
    # the kernel's K_nu overflows, so its convolution eigenvalues are not
    # finite: from s=52 on 64 points; at s=2000 its tail asymptote
    # overflows first (to inf, no longer as an OverflowError)
    ("experiment=CrossCheck1D\nn=64\ns=2000",
     "numerical failure: the convolution eigenvalues at n=64, s=2000.0 are not finite",
     True),
    ("experiment=CrossCheck1D\nn=64\ns=100",
     "numerical failure: the convolution eigenvalues at n=64, s=100.0 are not finite",
     True),
    # a failed backend gate names its pair on stderr
    ("experiment=CrossCheck1D\nn=64\ns=7.5", "multiplier vs kernel", False),
], ids=["radon-overflow", "kernel-overflow", "kernel-nan", "crosscheck-gate"])
def test_numerical_failures_exit_3_with_a_message(tmp_path, capsys, text, message,
                                                   overflows):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    if overflows:
        with pytest.warns(RuntimeWarning):
            code = main(argv)
    else:
        code = main(argv)
    assert code == 3
    assert message in capsys.readouterr().err


def test_memory_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a backstop behind the size cap: an allocation that fails is exit 3
    def refuse(*args):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli.multiplier, "sobolev_weight", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment=NormEquivalence\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: Unable to allocate" in capsys.readouterr().err


# reals at the ends of their ranges: the least subnormal, a tiny and a huge
# normal, and a negative zero
_EDGES = st.sampled_from([5e-324, 1e-300, 1e300, -0.0])
_SMALL_SIZES = {"RadonRecon": st.integers(16, 20), "CrossCheck1D": st.integers(33, 64),
                "AdjointSmoothing2D": st.integers(2, 9)}


@st.composite
def run_configs(draw):
    """Key-value pairs of a config that parses, for each experiment at a small
    size, with its reals drawn near the ends of their ranges."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    values = {
        "experiment": experiment,
        "s": draw(_EDGES | st.floats(0.0, 4.0) | st.floats(0.0, 1e300)),
        "noise_rel": draw(_EDGES | st.floats(0.0, 1.0)),
        "tau": draw(st.just(float(np.nextafter(1.0, 2.0)))
                    | st.floats(1.0, 2.0, exclude_min=True)),
        "step": draw(_EDGES | st.floats(0.0, 10.0)),
        "max_iter": draw(st.integers(1, 200)),
        "seed": draw(st.integers(0, 2**32)),
    }
    if experiment in _SMALL_SIZES:
        values["n"] = draw(_SMALL_SIZES[experiment])
    if experiment == "RadonRecon":
        values.update(n_offsets=draw(st.integers(1, 8)), n_angles=draw(st.integers(1, 5)),
                      phantom=draw(st.sampled_from(PHANTOMS)))
    return values


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(values=run_configs())
@example(values={"experiment": "RadonRecon", "n": 16, "n_offsets": 8, "n_angles": 5,
                 "noise_rel": 1e300, "max_iter": 50})
@example(values={"experiment": "CrossCheck1D", "n": 64, "s": 2000.0})
@example(values={"experiment": "CrossCheck1D", "n": 64, "s": 100.0})
@example(values={"experiment": "CrossCheck1D", "n": 64, "s": 7.5})
@example(values=_OVERSIZED[0])
@example(values=_OVERSIZED[1])
@example(values=_OVERSIZED[2])
def test_every_run_ends_in_a_documented_exit(values):
    # 0 success, 2 config error, 3 numerical failure, 4 stopping rule; never
    # an exception.  The CLI does not turn warnings into errors, so overflow
    # warnings are ignored here as they are in a run.
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3, 4), err.getvalue()
        if code == 2:
            assert not out.exists()
        if code in (3, 4):
            assert err.getvalue().strip()


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
