"""Tests for the configuration front end and its subcommands."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from subspaceq import cli, graphs, quantizers
from subspaceq.cli import ConfigError

ROOT = Path(__file__).resolve().parent.parent

BASE = """\
[network]
n = 5
connectivity = 1.0
seed = 11

[model]
l = 2
p_vectors = 2
tau = 3.0
sigma_u_sq = 1.5, 2.5
sigma_v_sq = 0.1, 0.2

[algorithm]
mu = 0.01
gamma = 0.9
iterations = {iters}
runs = 2
quantizer = anq:omega=0.25,eta=auto

[output]
directory = {out}
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def base_config(tmp_path, iters=650, extra="", **edits):
    text = BASE.format(iters=iters, out=tmp_path / "out") + extra
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    return write_config(tmp_path, text)


# ---------------------------------------------------------------------------
# config parsing

def test_missing_required_key_names_path(tmp_path):
    path = write_config(tmp_path, "[network]\nconnectivity = 1.0\n")
    with pytest.raises(ConfigError, match="network.n"):
        cli.load_config(path)


def test_invalid_values_name_offending_key(tmp_path):
    cases = [
        ("connectivity = 1.0", "connectivity = 1.5", "network.connectivity"),
        ("gamma = 0.9", "gamma = 0", "algorithm.gamma"),
        ("gamma = 0.9", "gamma = 1.3", "algorithm.gamma"),
        ("mu = 0.01", "mu = -0.01", "algorithm.mu"),
        ("iterations = 650", "iterations = 0", "algorithm.iterations"),
        ("p_vectors = 2", "p_vectors = 5", "model.p_vectors"),
        ("sigma_u_sq = 1.5, 2.5", "sigma_u_sq = 2.5, 1.5", "model.sigma_u_sq"),
        ("quantizer = anq:omega=0.25,eta=auto", "quantizer = anq:omega=-1,eta=0.1",
         "algorithm.quantizer"),
    ]
    for old, new, keypath in cases:
        path = base_config(tmp_path, **{old: new})
        with pytest.raises(ConfigError, match=keypath.replace(".", r"\.")):
            cli.load_config(path)


@pytest.mark.parametrize("old, new, keypath", [
    ("mu = 0.01", "mu = nan", "algorithm.mu"),
    ("mu = 0.01", "mu = 0.01, nan", "algorithm.mu"),
    ("tau = 3.0", "tau = nan", "model.tau"),
    ("sigma_u_sq = 1.5, 2.5", "sigma_u_sq = nan, 2.5", "model.sigma_u_sq"),
    ("sigma_u_sq = 1.5, 2.5", "sigma_u_sq = 1.5, nan", "model.sigma_u_sq"),
    ("sigma_v_sq = 0.1, 0.2", "sigma_v_sq = nan, 0.2", "model.sigma_v_sq"),
    ("sigma_v_sq = 0.1, 0.2", "sigma_v_sq = 0.1, nan", "model.sigma_v_sq"),
    ("p_vectors = 2", "p_vectors = 2\nlaplacian_weight = nan", "model.laplacian_weight"),
    ("[output]", "[sweep]\nschemes = uniform\nvalues = 0.1, nan\n\n[output]",
     "sweep.values"),
    ("[output]", "[sweep]\nschemes = uniform\nlog_range = nan, 1.0, 4\n\n[output]",
     "sweep.log_range"),
    ("[output]", "[sweep]\nschemes = uniform\nlog_range = 0.01, 1.0, nan\n\n[output]",
     "sweep.log_range"),
])
def test_nan_values_are_config_errors(tmp_path, old, new, keypath):
    path = base_config(tmp_path, **{old: new})
    with pytest.raises(ConfigError, match=keypath.replace(".", r"\.")):
        cli.load_config(path)


@pytest.mark.parametrize("old, new, keypath", [
    ("mu = 0.01", "mu = inf", "algorithm.mu"),
    ("mu = 0.01", "mu = 0.01, -inf", "algorithm.mu"),
    ("tau = 3.0", "tau = inf", "model.tau"),
    ("sigma_u_sq = 1.5, 2.5", "sigma_u_sq = 1.5, inf", "model.sigma_u_sq"),
    ("sigma_v_sq = 0.1, 0.2", "sigma_v_sq = 0.1, inf", "model.sigma_v_sq"),
    ("p_vectors = 2", "p_vectors = 2\nlaplacian_weight = inf", "model.laplacian_weight"),
    ("[output]", "[sweep]\nschemes = uniform\nvalues = 0.1, inf\n\n[output]",
     "sweep.values"),
    ("[output]", "[sweep]\nschemes = uniform\nlog_range = 0.01, 1.0, inf\n\n[output]",
     "sweep.log_range"),
])
def test_infinite_values_are_config_errors(tmp_path, old, new, keypath):
    path = base_config(tmp_path, **{old: new})
    with pytest.raises(ConfigError, match=keypath.replace(".", r"\.") + ": .*finite"):
        cli.load_config(path)


@pytest.mark.parametrize("old, new, keypath", [
    # before: an OverflowError traceback from Generator.uniform
    ("sigma_u_sq = 1.5, 2.5", "sigma_u_sq = 1.5, inf", "model.sigma_u_sq"),
    # before: a false "divergence ... at iteration 1" with exit 3
    ("mu = 0.01", "mu = inf", "algorithm.mu"),
])
def test_run_with_infinite_value_exits_with_config_error(tmp_path, capsys, old,
                                                         new, keypath):
    path = base_config(tmp_path, **{old: new})
    assert cli.main(["run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert f"config error: {keypath}" in err and "divergence" not in err


def test_run_with_nan_step_size_exits_with_config_error(tmp_path, capsys):
    # before: a ValueError traceback from RunConfig
    path = base_config(tmp_path, **{"mu = 0.01": "mu = nan"})
    assert cli.main(["run", "--config", path]) == 1
    assert "config error: algorithm.mu" in capsys.readouterr().err


def test_connectivity_and_topology_file_exclusive(tmp_path):
    extra = "\n[unused]\n"
    path = base_config(tmp_path,
                       **{"connectivity = 1.0":
                          "connectivity = 1.0\ntopology_file = edges.txt"})
    with pytest.raises(ConfigError, match="topology_file"):
        cli.load_config(path)


def test_seed_and_out_overrides(tmp_path):
    path = base_config(tmp_path)
    exp = cli.load_config(path, seed_override=99, out_override="elsewhere")
    assert exp.seed == 99
    assert exp.out_dir == "elsewhere"


def test_negative_seed_is_a_config_error(tmp_path):
    path = base_config(tmp_path, **{"seed = 11": "seed = -1"})
    with pytest.raises(ConfigError, match=r"network\.seed: must be >= 0"):
        cli.load_config(path)
    with pytest.raises(ConfigError, match=r"network\.seed: must be >= 0"):
        cli.load_config(base_config(tmp_path), seed_override=-5)


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-5"], ["verify", "--seed", "-5"],
    ["rate-distortion", "--seed", "-5"], ["run"]])
def test_negative_seed_exits_with_config_error(tmp_path, capsys, argv):
    # before: numpy's "expected non-negative integer" traceback
    extra = "\n[sweep]\nschemes = uniform\nvalues = 0.1\n"
    edits = {} if "--seed" in argv else {"seed = 11": "seed = -1"}
    path = base_config(tmp_path, extra=extra, **edits)
    assert cli.main(argv[:1] + ["--config", path] + argv[1:]) == 1
    assert "config error: network.seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a value that breaks each key's own check, and the exact message it raises
CHECK_MESSAGES = [
    ("network", "n", "0", "must be >= 1"),
    ("network", "connectivity", "0", "must be in (0, 1]"),
    ("network", "connectivity", "1.5", "must be in (0, 1]"),
    ("network", "seed", "-1", "must be >= 0"),
    ("network", "combination", "ring", "unknown mode 'ring'"),
    ("model", "l", "0", "must be >= 1"),
    ("model", "tau", "-1", "must be >= 0 and finite"),
    ("model", "tau", "inf", "must be >= 0 and finite"),
    ("model", "sigma_u_sq", "0, 1", "lower bound must be > 0"),
    ("model", "sigma_v_sq", "-0.1, 0.2", "must be >= 0"),
    ("model", "laplacian_weight", "0", "must be > 0 and finite"),
    ("model", "laplacian_weight", "inf", "must be > 0 and finite"),
    ("algorithm", "mu", "0.01, 0", "every value must be > 0"),
    ("algorithm", "mu", "0.01, 0.02, 1e-2", "step size 0.01 is repeated"),
    ("algorithm", "gamma", "0", "must be in (0, 1]"),
    ("algorithm", "gamma", "1.3", "must be in (0, 1]"),
    ("algorithm", "iterations", "0", "must be >= 1"),
    ("algorithm", "runs", "0", "must be >= 1"),
    ("algorithm", "b_hp", "0", "must be >= 1"),
    ("output", "per_agent", "maybe", "not a boolean: 'maybe'"),
]


def set_key(tmp_path, section, key, value):
    """base_config with section.key set to value: its line replaced, or one
    added under the section header."""
    text = BASE.format(iters=650, out=tmp_path / "out")
    line = f"{key} = {value}"
    text, found = re.subn(rf"^{key} = .*$", lambda _: line, text, flags=re.M)
    if not found:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    return write_config(tmp_path, text)


@pytest.mark.parametrize("section, key, value, message", CHECK_MESSAGES)
def test_each_key_check_raises_its_exact_message(tmp_path, section, key, value,
                                                 message):
    with pytest.raises(ConfigError) as info:
        cli.load_config(set_key(tmp_path, section, key, value))
    assert str(info.value) == f"{section}.{key}: {message}"


def test_every_checked_key_has_a_pinned_message():
    # per_agent's check is its converter
    assert {(k.section, k.key) for k in cli._CONFIG if k.checks} | \
        {("output", "per_agent")} == {(s, k) for s, k, _, _ in CHECK_MESSAGES}


def test_percent_values_interpolate_or_are_config_errors(tmp_path):
    # before: a bare '%' or an unknown %(name)s escaped as a traceback
    exp = cli.load_config(base_config(tmp_path, **{
        "quantizer = anq:omega=0.25,eta=auto": "quantizer = uniform:delta=%(mu)s"}))
    assert exp.quantizer_text == "uniform:delta=0.01"
    with pytest.raises(ConfigError, match=r"^algorithm\.mu: '%' must be followed"):
        cli.load_config(base_config(tmp_path, **{"mu = 0.01": "mu = 1%"}))
    with pytest.raises(ConfigError, match=r"^model\.tau: Bad value substitution"):
        cli.load_config(base_config(tmp_path, **{"tau = 3.0": "tau = %(nope)s"}))


def test_eta_auto_resolution():
    spec = cli.resolve_quantizer("anq:omega=0.25,eta=auto", 0.01, 5, 32)
    assert spec.kind == "anq"
    assert spec.eta == pytest.approx(0.01 / math.sqrt(10.0))
    explicit = cli.resolve_quantizer("anq:omega=0.25,eta=0.5", 0.01, 5, 32)
    assert explicit.eta == 0.5


def test_sweep_section_parsing(tmp_path):
    extra = "\n[sweep]\nschemes = uniform, anq:omega=0.5\nvalues = 0.1, 0.2\n"
    exp = cli.load_config(base_config(tmp_path, extra=extra))
    assert exp.sweep_schemes == ("uniform", "anq:omega=0.5")
    assert exp.sweep_values == (0.1, 0.2)
    extra = "\n[sweep]\nschemes = uniform\nlog_range = 0.01, 1.0, 4\n"
    exp = cli.load_config(base_config(tmp_path, extra=extra))
    assert len(exp.sweep_values) == 4
    assert exp.sweep_values[0] == pytest.approx(0.01)
    assert exp.sweep_values[-1] == pytest.approx(1.0)
    extra = "\n[sweep]\nschemes = uniform\n"
    with pytest.raises(ConfigError, match="sweep.values"):
        cli.load_config(base_config(tmp_path, extra=extra))


@pytest.mark.parametrize("old, new, message", [
    # before: each of these loaded, the typo falling back to a default
    ("runs = 2", "run = 2", "algorithm.run: unknown key"),
    ("runs = 2", "runs = 2\nb_hq = 8", "algorithm.b_hq: unknown key"),
    ("[output]", "[outptu]", "outptu: unknown section"),
    ("[network]", "[DEFAULT]\nruns = 3\n\n[network]", "DEFAULT: unknown section"),
])
def test_unknown_sections_and_keys_are_config_errors(tmp_path, capsys, old, new,
                                                     message):
    path = base_config(tmp_path, **{old: new})
    with pytest.raises(ConfigError, match=re.escape(message)):
        cli.load_config(path)
    assert cli.main(["run", "--config", path]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    # before: a configparser traceback
    ("[network]\nn = 5\nn = 6\n", "option 'n' in section 'network' already exists"),
    ("[network]\nn = 5\n[network]\nseed = 1\n", "section 'network' already exists"),
    ("n = 5\n", "no section headers"),
])
def test_a_config_configparser_cannot_read_is_a_config_error(tmp_path, capsys,
                                                              text, message):
    path = write_config(tmp_path, text)
    assert cli.main(["verify", "--config", path]) == 1
    err = capsys.readouterr().err
    assert f"config error: cannot parse config file {path}: " in err
    assert message in err


@pytest.mark.parametrize("sweep, message", [
    # before: the count was truncated to 10, and values won over log_range
    ("log_range = 0.004, 0.4, 10.9", "integer count >= 2"),
    ("log_range = 0.004, 0.4, 1", "integer count >= 2"),
    ("values = 0.1, 0.2\nlog_range = 0.004, 0.4, 10", "either this or sweep.values"),
])
def test_sweep_grid_errors(tmp_path, sweep, message):
    path = base_config(tmp_path, extra=f"\n[sweep]\nschemes = uniform\n{sweep}\n")
    with pytest.raises(ConfigError, match=r"sweep\.log_range: .*" + re.escape(message)):
        cli.load_config(path)


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(ROOT)) for p in [*ROOT.glob("configs/*.ini"),
                                       ROOT / "benchmarks" / "wide_mixed.ini"]))
def test_every_shipped_config_loads(path):
    cli.load_config(str(ROOT / path))


# every declared key with a valid value; connectivity excludes topology_file
# and values excludes log_range, so each config names one of each pair
EVERY_KEY = {
    "network": {"n": "5", "seed": "11", "combination": "subspace-lsq",
                "connectivity": "1.0", "topology_file": "edges.txt"},
    "model": {"l": "2", "p_vectors": "2", "tau": "3.0", "sigma_u_sq": "1.5, 2.5",
              "sigma_v_sq": "0.1, 0.2", "laplacian_weight": "0.1"},
    "algorithm": {"mu": "0.01", "gamma": "0.9", "iterations": "600", "runs": "2",
                  "quantizer": "uniform:delta=0.1", "b_hp": "16"},
    "output": {"directory": "out", "per_agent": "yes"},
    "sweep": {"schemes": "uniform", "values": "0.1, 0.2",
              "log_range": "0.01, 1.0, 3"},
}


def test_load_config_reads_exactly_the_declared_keys(tmp_path, monkeypatch):
    assert {s: set(keys) for s, keys in EVERY_KEY.items()} == \
        {s: set(keys) for s, keys in cli._KEYS.items()}
    asked = set()
    field = cli._field

    def spy(cp, section, key, *args):
        asked.add((section, key))
        return field(cp, section, key, *args)
    monkeypatch.setattr(cli, "_field", spy)
    for drop in (("topology_file", "log_range"), ("connectivity", "values")):
        text = "".join(f"[{section}]\n" + "".join(
            f"{key} = {value}\n" for key, value in keys.items() if key not in drop)
            for section, keys in EVERY_KEY.items())
        exp = cli.load_config(write_config(tmp_path, text))
        assert exp.b_hp == 16 and exp.per_agent and len(exp.sweep_values) > 1
    assert asked == {(s, k) for s, keys in cli._KEYS.items() for k in keys}


def test_readme_lists_the_declared_keys():
    readme = (ROOT / "README.md").read_text()
    text = readme.split("A config is an INI file with the sections ")[1]
    text = text.split("Each key is one row")[0]
    listed = {section: set(re.findall(r"`(\w+)`", keys))
              for section, keys in re.findall(r"`(\w+)` \(([^)]*)\)", text)}
    assert listed == cli._KEYS


def _unreadable_topology(tmp_path):
    extra = "\n[sweep]\nschemes = uniform\nvalues = 0.1\n"
    return base_config(tmp_path, iters=500, extra=extra, **{
        "connectivity = 1.0": f"topology_file = {tmp_path / 'missing.edges'}"})


@pytest.mark.parametrize("command", ["run", "verify", "rate-distortion"])
def test_unreadable_topology_file_is_a_config_error(tmp_path, capsys, command):
    # before: a FileNotFoundError traceback from graphs.load_topology
    path = _unreadable_topology(tmp_path)
    assert cli.main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert (f"config error: network.topology_file: cannot read "
            f"{tmp_path / 'missing.edges'}: No such file or directory") in err


def test_topology_file_is_relative_to_the_working_directory(tmp_path, capsys,
                                                            monkeypatch):
    config = str(ROOT / "configs" / "baseline.ini")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--config", config]) == 1
    assert ("config error: network.topology_file: cannot read "
            "configs/smallworld50.edges") in capsys.readouterr().err


MALFORMED_SPECS = ["uniform:delta=0.1,foo=2", "anq:omega=0.25,eta=0.01,eta=5",
                   "anq:omega=0.25", "uniform:delta=", "nope:x=1"]


@pytest.mark.parametrize("text", MALFORMED_SPECS)
@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_malformed_quantizer_string_is_a_config_error(tmp_path, capsys,
                                                        command, text):
    path = base_config(tmp_path, **{"anq:omega=0.25,eta=auto": text})
    assert cli.main([command, "--config", path]) == 1
    assert "config error: algorithm.quantizer: " in capsys.readouterr().err


@pytest.mark.parametrize("text", MALFORMED_SPECS)
def test_quantizer_test_rejects_a_malformed_string(capsys, text):
    assert cli.main(["quantizer-test", text, "--trials", "10"]) == 1
    assert "config error" in capsys.readouterr().err


def test_sweep_grid_and_eta_auto_specs_read_back_to_themselves():
    # before: 24 of the 30 grid specs and the eta=auto spec did not
    exp = cli.load_config(str(ROOT / "configs" / "rate_distortion.ini"))
    grids = cli._sweep_grid(exp)
    specs = []
    for scheme, points in grids:
        for v, spec in points:
            if scheme.startswith("anq:"):  # the spec the .17g text parses to
                again = quantizers.parse_spec(f"{scheme},eta={v / 2.0:.17g}",
                                              exp.l, exp.b_hp)
                assert again == spec
            specs.append(spec)
    assert len(specs) == 30
    base = cli.load_config(str(ROOT / "configs" / "baseline.ini"))
    specs.append(cli.resolve_quantizer(base.quantizer_text, base.mus[0], base.l,
                                       base.b_hp))
    for spec in specs:
        text = quantizers.spec_string(spec)
        assert quantizers.parse_spec(text, spec.dim, spec.b_hp) == spec, text


# ---------------------------------------------------------------------------
# run

def test_run_writes_csvs_and_manifest(tmp_path):
    out = tmp_path / "out"
    path = base_config(tmp_path, **{"mu = 0.01": "mu = 0.01, 0.02"})
    assert cli.main(["run", "--config", path]) == 0
    for tag in ("0p01", "0p02"):
        csv = out / f"metrics_mu{tag}.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("# subspaceq") and "seed=11" in lines[0]
        assert lines[1] == "iter,msd,msd_db,avg_bits_per_component"
        assert len(lines) == 2 + 651
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 11" in manifest
    assert "quantizer[mu=0.01]" in manifest
    assert "metrics_mu0p01.csv" in manifest


MANIFEST = """\
# subspaceq {version}
seed = 11
n = 5
connectivity = 1.0
topology_file = None
combination = subspace-lsq
l = 2
p_vectors = 2
tau = 3.0
su_range = (1.5, 2.5)
sv_range = (0.1, 0.2)
lap_weight = 0.1
gamma = 0.9
iterations = 200
runs = 2
quantizer_text = anq:omega=0.25,eta=auto
b_hp = 32
per_agent = True
mus = 0.01, 0.02
quantizer[mu=0.01] = anq:omega=0.25,eta=0.005
quantizer[mu=0.02] = anq:omega=0.25,eta=0.01
sigma_u_sq = 1.9861712718975828, 1.9270150534926511, 1.506220759790966, \
2.1564100864717082, 2.1843812709704995
sigma_v_sq = 0.16870171155955382, 0.16826405331906458, 0.17850886112339942, \
0.15411526210126691, 0.19580963288188258
files = metrics_mu0p01.csv, metrics_mu0p02.csv
"""


def test_run_manifest_bytes(tmp_path):
    path = base_config(tmp_path, iters=200, extra="per_agent = yes\n",
                       **{"mu = 0.01": "mu = 0.01, 0.02"})
    assert cli.main(["run", "--config", path]) == 0
    assert (tmp_path / "out" / "manifest.txt").read_text() == \
        MANIFEST.format(version=cli.__version__)


def test_manifest_records_the_resolved_quantizer_exactly(tmp_path):
    # before: eta=auto at mu = 0.003, l = 3 read eta=0.00122474
    path = base_config(tmp_path, iters=20,
                       **{"mu = 0.01": "mu = 0.003", "l = 2": "l = 3"})
    assert cli.main(["run", "--config", path]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    line = next(t for t in manifest.splitlines() if t.startswith("quantizer[mu="))
    text = line.split(" = ", 1)[1]
    assert text == "anq:omega=0.25,eta=0.0012247448713915891"
    assert quantizers.parse_spec(text, 3) == cli.resolve_quantizer(
        "anq:omega=0.25,eta=auto", 0.003, 3, 32)


def test_run_byte_identical_across_invocations_and_workers(tmp_path):
    path = base_config(tmp_path, iters=400)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path]) == 0
    first = (out / "metrics_mu0p01.csv").read_bytes()
    assert cli.main(["run", "--config", path]) == 0
    assert (out / "metrics_mu0p01.csv").read_bytes() == first
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "s2"),
                     "--seed", "12"]) == 0
    assert (tmp_path / "s2" / "metrics_mu0p01.csv").read_bytes() != first


def test_step_sizes_name_their_files_exactly(tmp_path, capsys):
    # before: both wrote metrics_mu0p003.csv, the second over the first, and
    # the manifest read "mus = 0.003, 0.003"
    path = base_config(tmp_path, iters=20,
                       **{"mu = 0.01": "mu = 0.003, 0.0030000001"})
    assert cli.main(["run", "--config", path]) == 0
    out = tmp_path / "out"
    names = sorted(p.name for p in out.glob("metrics_*.csv"))
    assert names == ["metrics_mu0p003.csv", "metrics_mu0p0030000001.csv"]
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "mus = 0.003, 0.0030000001" in manifest
    assert "files = metrics_mu0p003.csv, metrics_mu0p0030000001.csv" in manifest
    assert [t.split(" = ")[0] for t in manifest if t.startswith("quantizer[")] \
        == ["quantizer[mu=0.003]", "quantizer[mu=0.0030000001]"]
    printed = [t.split(":")[0] for t in capsys.readouterr().out.splitlines()
               if t.startswith("mu=")]
    assert printed == ["mu=0.003", "mu=0.0030000001"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.ini")),
                         ids=lambda p: p.name)
def test_shipped_step_sizes_keep_their_names(path):
    # the exact number form is :g wherever :g reads back exactly
    for mu in cli.load_config(str(path)).mus:
        assert cli._mu_tag(mu) == f"{mu:g}".replace(".", "p")


@pytest.mark.parametrize("mus", ["0.01, 0.01", "0.01, 0.02, 1e-2"])
def test_a_repeated_step_size_is_a_config_error(tmp_path, capsys, mus):
    path = base_config(tmp_path, **{"mu = 0.01": f"mu = {mus}"})
    assert cli.main(["run", "--config", path]) == 1
    assert ("config error: algorithm.mu: step size 0.01 is repeated"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_single_agent_runs_verifies_and_sweeps(tmp_path, capsys):
    # one agent is the consensus network of one: before, verify printed a
    # single-agent line and rate-distortion was a config error
    extra = "\n[sweep]\nschemes = uniform, anq:omega=0.5\nvalues = 0.02, 0.2\n"
    path = base_config(tmp_path, iters=600, extra=extra,
                       **{"n = 5": "n = 1"})
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "metrics_mu0p01.csv").exists()
    capsys.readouterr()
    assert cli.main(["verify", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "PASS complement contraction: rho 0.000000" in out
    assert "gamma_bound: 1 " in out
    assert cli.main(["rate-distortion", "--config", path,
                     "--out", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "rate_distortion.csv").read_text().splitlines()
    assert len(lines) == 2 + 4


def test_run_single_agent_is_sgd_trace(tmp_path):
    text = BASE.format(iters=900, out=tmp_path / "out")
    text = text.replace("n = 5", "n = 1")
    text = text.replace("quantizer = anq:omega=0.25,eta=auto",
                        "quantizer = identity")
    path = write_config(tmp_path, text)
    assert cli.main(["run", "--config", path]) == 0
    data = np.loadtxt(tmp_path / "out" / "metrics_mu0p01.csv",
                      delimiter=",", skiprows=2)
    assert data[0, 1] > data[-1, 1]          # deviation shrinks
    assert data[-1, 3] == pytest.approx(32.0)  # full-precision words


# the compander arm passes the divergence guard; the fine uniform arm's level
# indices leave the exact range (quantizers.IndexRange) first. The stable
# step size runs in the same batch, and the message names one iteration
@pytest.mark.parametrize("quantizer", ["anq:omega=0.25,eta=auto",
                                       "uniform:delta=1e-4"],
                         ids=["anq", "uniform"])
def test_run_divergence_exit_code(tmp_path, capsys, quantizer):
    path = base_config(tmp_path, iters=400, **{
        "mu = 0.01": "mu = 0.01, 60.0",
        "quantizer = anq:omega=0.25,eta=auto": f"quantizer = {quantizer}"})
    assert cli.main(["run", "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.count("at iteration") == 1
    assert "divergence: iterate exceeded the divergence guard at iteration" in err


@pytest.mark.parametrize("quantizer", ["uniform:delta=inf",
                                       "anq:omega=0.25,eta=inf",
                                       "anq:omega=nan,eta=0.1",
                                       "uniform:delta=1e200"])
def test_run_rejects_non_finite_quantizer_parameters(tmp_path, capsys, quantizer):
    path = base_config(tmp_path, **{
        "quantizer = anq:omega=0.25,eta=auto": f"quantizer = {quantizer}"})
    assert cli.main(["run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "config error: algorithm.quantizer" in err and "divergence" not in err


def test_run_rejects_a_word_cost_beyond_exact_floats(tmp_path, capsys):
    # before: OverflowError from the kernel's float(L * b_hp)
    path = base_config(tmp_path, **{"quantizer = anq": f"b_hp = {10**310}\n"
                                                      "quantizer = anq"})
    assert cli.main(["run", "--config", path]) == 1
    assert "config error: algorithm.quantizer: b_hp" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    path = base_config(tmp_path, **{"gamma = 0.9": "gamma = 2.0"})
    assert cli.main(["run", "--config", path]) == 1
    assert "algorithm.gamma" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify

def test_verify_consensus_metropolis_passes(tmp_path, capsys):
    extra_edit = {"connectivity = 1.0":
                  "connectivity = 0.6\ncombination = consensus-metropolis"}
    path = base_config(tmp_path, **extra_edit)
    assert cli.main(["verify", "--config", path]) == 0
    outtext = capsys.readouterr().out
    assert "PASS subspace constraints" in outtext
    assert "rho_j=" in outtext


def test_verify_never_builds_the_dense_consensus_matrix(tmp_path, capsys,
                                                        monkeypatch):
    def dense_read(self):
        raise AssertionError("the dense combination matrix was built")

    monkeypatch.setattr(graphs.CombinationMatrix, "a", property(dense_read))
    extra_edit = {"connectivity = 1.0":
                  "connectivity = 0.6\ncombination = consensus-metropolis"}
    path = base_config(tmp_path, **extra_edit)
    assert cli.main(["verify", "--config", path]) == 0
    outtext = capsys.readouterr().out
    assert "PASS sparsity pattern" in outtext
    assert "PASS complement contraction" in outtext


def test_verify_flags_an_off_neighborhood_weight(tmp_path, capsys,
                                                 monkeypatch):
    # moving weight onto a non-link keeps W doubly stochastic, so only the
    # sparsity check fails
    real_setup = cli.build_setup

    def tampered_setup(exp):
        top, basis, comb, models = real_setup(exp)
        k, j = next((k, j) for k in range(top.n) for j in range(top.n)
                    if j not in top.neighborhoods[k])
        w = comb.matrix
        w[k, j] = w[j, k] = 1e-3
        w[k, k] -= 1e-3
        w[j, j] -= 1e-3
        # stored as a factored table: each row's nonzeros in ascending
        # order, padded with the agent itself at weight 0
        cols = [np.flatnonzero(row).tolist() for row in w]
        width = max(map(len, cols))
        index = np.array([c + [r] * (width - len(c)) for r, c in enumerate(cols)])
        real = np.arange(width) < np.array([len(c) for c in cols])[:, None]
        weights = np.where(real, np.take_along_axis(w, index, axis=1), 0.0)
        return top, basis, graphs.CombinationMatrix(
            top, comb.block_dims, index, weights), models

    monkeypatch.setattr(cli, "build_setup", tampered_setup)
    extra_edit = {"connectivity = 1.0":
                  "connectivity = 0.6\ncombination = consensus-metropolis"}
    path = base_config(tmp_path, **extra_edit)
    assert cli.main(["verify", "--config", path]) == 2
    outtext = capsys.readouterr().out
    assert "FAIL sparsity pattern: nonzero block found" in outtext
    assert "PASS subspace constraints" in outtext
    assert "PASS complement contraction" in outtext


def test_verify_identity_quantizer_prints_clipped_bound(tmp_path, capsys):
    path = base_config(tmp_path,
                       **{"quantizer = anq:omega=0.25,eta=auto":
                          "quantizer = identity"})
    assert cli.main(["verify", "--config", path]) == 0
    assert "gamma_bound: 1 " in capsys.readouterr().out


@pytest.mark.parametrize("option", [["--workers", "2"], ["--out", "x"]])
def test_verify_takes_no_workers_or_out(tmp_path, capsys, option):
    # verify runs nothing and writes nothing; before, both were accepted and
    # ignored. Every command runs in this one process, so none takes
    # --workers
    path = base_config(tmp_path)
    commands = ["verify"] + (["run", "rate-distortion"]
                             if option[0] == "--workers" else [])
    for command in commands:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", path, *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_spectral_line_names_four_quantities(tmp_path, capsys):
    path = base_config(tmp_path)
    assert cli.main(["verify", "--config", path]) == 0
    line = next(t for t in capsys.readouterr().out.splitlines()
                if t.startswith("spectral report:"))
    assert re.fullmatch(r"spectral report: rho_j=\S+ rho_i_minus_j=\S+ "
                        r"v1=\S+ v2=\S+", line)


def test_verify_disconnected_topology_file(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("1 2\n3 4\n")  # two components on 4 nodes
    text = BASE.format(iters=100, out=tmp_path / "out")
    text = text.replace("n = 5", "n = 4")
    text = text.replace("connectivity = 1.0", f"topology_file = {edges}")
    path = write_config(tmp_path, text)
    assert cli.main(["verify", "--config", path]) == 2
    assert "NotConnected" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["2 3 4", "2 x"])
def test_malformed_edge_line_is_an_invalid_edge_list(tmp_path, capsys, line):
    # before: an unpacking or int() ValueError traceback
    edges = tmp_path / "edges.txt"
    edges.write_text(f"# ring\n1 2\n{line}\n3 4\n4 1\n")
    text = BASE.format(iters=100, out=tmp_path / "out")
    text = text.replace("n = 5", "n = 4")
    text = text.replace("connectivity = 1.0", f"topology_file = {edges}")
    path = write_config(tmp_path, text)
    with pytest.raises(graphs.InvalidEdgeList,
                       match=re.escape(f"{edges}, line 3")):
        graphs.load_topology(edges)
    assert cli.main(["verify", "--config", path]) == 2
    assert "FAIL construction: InvalidEdgeList" in capsys.readouterr().out
    assert cli.main(["run", "--config", path]) == 2
    assert "validation failure: InvalidEdgeList" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rate-distortion

def test_rate_distortion_combined_csv(tmp_path):
    extra = "\n[sweep]\nschemes = uniform, anq:omega=0.5\nvalues = 0.02, 0.2\n"
    path = base_config(tmp_path, iters=700, extra=extra)
    assert cli.main(["rate-distortion", "--config", path]) == 0
    lines = (tmp_path / "out" / "rate_distortion.csv").read_text().splitlines()
    assert lines[1] == "scheme,param_value,rate_bits,msd,msd_db,diverged_flag"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 4
    assert {r[0] for r in rows} == {"uniform", "anq:omega=0.5"}


def test_rate_distortion_requires_sweep(tmp_path, capsys):
    path = base_config(tmp_path)
    assert cli.main(["rate-distortion", "--config", path]) == 1
    assert "sweep.schemes" in capsys.readouterr().err


def test_rate_distortion_with_several_step_sizes_is_a_config_error(tmp_path,
                                                                   capsys):
    # before: it swept mus[0] and ignored the rest
    extra = "\n[sweep]\nschemes = uniform\nvalues = 0.1\n"
    path = base_config(tmp_path, iters=500, extra=extra,
                       **{"mu = 0.01": "mu = 0.01, 0.02"})
    assert cli.main(["rate-distortion", "--config", path]) == 1
    assert ("config error: algorithm.mu: rate-distortion sweeps one step size"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_rate_distortion_rejects_unsweepable_scheme(tmp_path, capsys):
    extra = "\n[sweep]\nschemes = qsgd\nvalues = 0.1\n"
    path = base_config(tmp_path, extra=extra)
    assert cli.main(["rate-distortion", "--config", path]) == 1
    assert "sweep.schemes" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["gossip", "anq:omega=-1"])
def test_rate_distortion_rejects_the_grid_before_set_up(tmp_path, capsys,
                                                        monkeypatch, scheme):
    def no_setup(exp):
        raise AssertionError("built the network for a grid that cannot run")

    monkeypatch.setattr(cli, "build_setup", no_setup)
    extra = f"\n[sweep]\nschemes = uniform, {scheme}\nvalues = 0.1\n"
    path = base_config(tmp_path, extra=extra)
    assert cli.main(["rate-distortion", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_rate_distortion_below_the_steady_window_is_a_config_error(
        tmp_path, capsys, monkeypatch):
    # before: the whole sweep ran, then steady_mean raised a ValueError
    def no_setup(exp):
        raise AssertionError("built the network for a sweep that cannot finish")

    monkeypatch.setattr(cli, "build_setup", no_setup)
    extra = "\n[sweep]\nschemes = uniform\nvalues = 0.1\n"
    path = base_config(tmp_path, iters=100, extra=extra)
    assert cli.main(["rate-distortion", "--config", path]) == 1
    assert "config error: algorithm.iterations: must be >= 500" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("scheme", ["anq:omega=nan", "anq:omega=1e200"])
def test_rate_distortion_rejects_a_scheme_without_finite_budget(tmp_path, capsys,
                                                                 scheme):
    extra = f"\n[sweep]\nschemes = uniform, {scheme}\nvalues = 0.1\n"
    path = base_config(tmp_path, extra=extra)
    assert cli.main(["rate-distortion", "--config", path]) == 1
    assert "config error: anq:omega=" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# quantizer-test

def test_quantizer_test_negative_seed_is_a_config_error(capsys):
    assert cli.main(["quantizer-test", "identity", "--seed", "-1"]) == 1
    assert "config error: --seed: must be >= 0" in capsys.readouterr().err


def test_quantizer_test_uniform_and_identity(capsys):
    assert cli.main(["quantizer-test", "uniform:delta=0.2", "--dim", "4",
                     "--trials", "20000"]) == 0
    out = capsys.readouterr().out
    assert "sigma_sq=0.04" in out
    assert "FAIL" not in out
    assert cli.main(["quantizer-test", "identity", "--trials", "1000"]) == 0
    assert cli.main(["quantizer-test", "qsgd:s=2", "--dim", "5",
                     "--trials", "20000"]) == 0


def test_quantizer_test_bad_spec(capsys):
    assert cli.main(["quantizer-test", "uniform:delta=-1"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["uniform:delta=inf", "uniform:delta=1e200",
                                  "anq:omega=1e200,eta=0.1"])
def test_quantizer_test_rejects_a_spec_without_finite_budget(capsys, spec):
    # before: NaN contract violations (exit 2), or an OverflowError
    assert cli.main(["quantizer-test", spec, "--trials", "100"]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "contract violations" not in captured.err


@pytest.mark.parametrize("spec, b_hp", [("identity", str(10**310)),
                                        ("qsgd:s=" + str(10**300), "32")])
def test_quantizer_test_rejects_words_beyond_exact_floats(capsys, spec, b_hp):
    # before: an OverflowError, or 8 contract violations from wrapped levels
    assert cli.main(["quantizer-test", spec, "--b-hp", b_hp,
                     "--trials", "100"]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "contract violations" not in captured.err


def test_quantizer_test_judges_spreadless_bias_by_the_budget(capsys):
    # omega = 1e10 makes the first cell [0, 4e9]: every input here rounds
    # down in every trial, so the error has no spread, yet the spec is
    # unbiased (before: four false "bias FAIL" lines, exit 2)
    assert cli.main(["quantizer-test", "anq:omega=1e10,eta=0.1",
                     "--trials", "1000"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "all contract checks passed" in out


@pytest.mark.parametrize("spec, dim", [("sparsifier:q=0.5", "8"),
                                       ("sparsifier:q=0.5", "100"),
                                       ("gossip:q=0.5", "8")])
def test_quantizer_test_passes_a_budget_met_with_equality(capsys, spec, dim):
    # at q = 0.5 every draw's error norm is the budget, so mse == cap up to
    # rounding; before, an absolute 1e-12 slack failed input 3 (cap 97142.9)
    assert cli.main(["quantizer-test", spec, "--dim", dim,
                     "--trials", "20000"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "all contract checks passed" in out


def test_quantizer_test_fails_a_budget_cut_below_the_error(monkeypatch, capsys):
    budget = quantizers.noise_budget

    def cut(spec):
        nb = budget(spec)
        return quantizers.NoiseBudget(nb.beta_sq * (1 - 1e-9), nb.sigma_sq)
    monkeypatch.setattr(quantizers, "noise_budget", cut)
    assert cli.main(["quantizer-test", "sparsifier:q=0.5", "--dim", "8",
                     "--trials", "20000"]) == 2
    lines = [t for t in capsys.readouterr().out.splitlines()
             if t.startswith("input")]
    # input 0 is the zero vector, whose error is 0
    assert ["mse FAIL" in t for t in lines] == [False, True, True, True, True]


def fake_moments(mean_err, se_mean):
    def moments(spec, x, rng, draws):
        return {"mean_err": np.full(spec.dim, mean_err), "se_mean": np.full(spec.dim, se_mean),
                "mse": 0.0, "se_mse": 0.0, "draws": draws}
    return moments


@pytest.mark.parametrize("mean_err, se_mean, verdict", [
    (0.5, 0.1, "FAIL"),        # biased, with spread: 4 se is the bar
    (0.39, 0.1, "PASS"),
    (0.5, 0.0, "FAIL"),        # no spread: 4 sqrt(cap / trials) = 4 * 0.1 is the bar
    (0.39, 0.0, "PASS"),
])
def test_quantizer_test_bias_verdict(monkeypatch, capsys, mean_err, se_mean, verdict):
    # uniform:delta=0.2 has beta_sq = 0 and sigma_sq = 0.04, so cap = 0.04
    monkeypatch.setattr(quantizers, "empirical_moments", fake_moments(mean_err, se_mean))
    code = cli.main(["quantizer-test", "uniform:delta=0.2", "--trials", "4"])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("input")]
    assert len(lines) == 5
    assert all(f"bias {verdict}" in ln for ln in lines)
    assert code == (2 if verdict == "FAIL" else 0)


@pytest.mark.parametrize("trials", [0, -3])
def test_quantizer_test_rejects_trials_below_one(capsys, trials):
    assert cli.main(["quantizer-test", "uniform:delta=0.2",
                     "--trials", str(trials)]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "draws >= 1" in captured.err
    assert "all contract checks passed" not in captured.out
