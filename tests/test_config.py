"""Configuration parsing: defaults, file values, flag precedence."""

import ast
import pathlib
import pickle
from typing import get_args, get_type_hints

import pytest

from shiftwatch import cli
from shiftwatch.calibration import GridSpec
from shiftwatch.confidence import PmEbState
from shiftwatch.config import _KEY_TYPES, BUILT, KNOWN_KEYS, AppConfig, _keys_of, parse_config
from shiftwatch.errors import ConfigError, InvalidInput
from shiftwatch.monitor import MonitorConfig
from shiftwatch.shiftsim import Schedule, ShiftScenario


def _is_numeric(kind) -> bool:
    """True for int, float and Optional or tuple forms of them."""
    return kind in (int, float) or any(_is_numeric(arg) for arg in get_args(kind))


# Every numeric key, read from the annotations of the fields that hold the
# keys, AppConfig's and its settings types', so a new key is covered.
_NUMERIC_KEYS = sorted(key for key, kind in _KEY_TYPES.items() if _is_numeric(kind))


class TestDefaults:
    def test_minimal_config_applies_defaults(self, tmp_path):
        src = tmp_path / "source.csv"
        src.write_text("f0,error\n1.0,0.5\n")
        cfg = parse_config(source=str(src))
        assert cfg.monitor.alpha_source == 0.05
        assert cfg.monitor.alpha_prod == 0.05
        assert cfg.grid.fdp_max == 0.2
        assert cfg.k == 10
        assert cfg.monitor.eps_tol == 0.0
        assert (cfg.shift_schedule.kind, cfg.shift_schedule.horizon) == ("sudden", 2000)

    def test_no_arguments_is_valid(self):
        cfg = parse_config()
        assert isinstance(cfg, AppConfig)

    def test_a_config_is_made_once(self):
        """Its fields are read-only, and an unknown one is refused."""
        cfg = parse_config()
        for name in ("k", "monitor"):
            with pytest.raises(AttributeError):
                setattr(cfg, name, None)
        with pytest.raises(TypeError):
            AppConfig(kk=3)


    def test_settings_are_built_from_their_keys(self):
        cfg = parse_config(alpha1="0.01", eps_tol="0.1", p_values="0.6,0.7", schedule="none", horizon="100")
        assert cfg.monitor == MonitorConfig(alpha1=0.01, eps_tol=0.1)
        assert (cfg.grid.p_values, cfg.grid.fdp_max) == ((0.6, 0.7), 0.2)
        assert cfg.shift_schedule == Schedule("none", 100)

    def test_each_key_is_declared_once(self):
        """A key is a field of AppConfig or of the settings type that checks
        it, never of both, and the keys are still these 22."""
        assert list(get_type_hints(AppConfig)) == list(AppConfig._fields) and len(AppConfig._fields) == 14
        assert not set(get_type_hints(AppConfig)) & {name for kind in BUILT.values() for name in kind._fields}
        assert sorted(KNOWN_KEYS) == sorted(
            "source production out_dir k seed n_seeds workers feature_kinds ablation_fraction eps_harm_grid "
            "eps_tol_grid alpha_source alpha_prod alpha1 eps_tol delta_corr p_values p_hat_values fdp_max "
            "schedule horizon onset".split()
        )
        assert _NUMERIC_KEYS == sorted(KNOWN_KEYS - {"source", "production", "out_dir", "feature_kinds", "schedule"})


class TestValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(alpha_prod=1.5)
        assert exc.value.key == "alpha_prod"

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config(frobnicate=1)

    def test_unknown_file_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("frobnicate = 1\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_key_set_twice_in_a_file(self, tmp_path):
        # the later value used to win silently: k = 5 then k = 50 gave 50
        path = tmp_path / "c.cfg"
        path.write_text("k = 5\n# a comment\nseed = 1\nk = 50\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert str(exc.value) == "k: set twice, on lines 1 and 4"

    def test_scores_key_is_unknown(self, tmp_path):
        # The production scores come from the production CSV's own column;
        # a separate scores file was never read, so the key is rejected.
        (tmp_path / "src.csv").write_text("f0,error\n1.0,0.5\n")
        path = tmp_path / "c.cfg"
        path.write_text(f"scores = {tmp_path / 'src.csv'}\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert exc.value.key == "scores"

    @pytest.mark.parametrize("key", ["p_values", "p_hat_values", "eps_harm_grid", "eps_tol_grid"])
    def test_empty_list_is_rejected(self, tmp_path, key):
        # an empty p_values used to fall back to the default grid, and an
        # empty eps_tol_grid crashed sweep on its first row
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} =\n")
        for args, flags in (((str(path),), {}), ((), {key: ","})):
            with pytest.raises(ConfigError) as exc:
                parse_config(*args, **flags)
            assert exc.value.key == key

    def test_alpha2_key_is_unknown(self, tmp_path):
        # alpha2 is the rest of alpha_prod once alpha1 is taken
        path = tmp_path / "c.cfg"
        path.write_text("alpha2 = 0.025\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert exc.value.key == "alpha2"

    @pytest.mark.parametrize("alpha1", [0.0, 0.05, 0.5])
    def test_alpha1_must_lie_below_alpha_prod(self, alpha1):
        with pytest.raises(ConfigError) as exc:
            parse_config(alpha_prod=0.05, alpha1=alpha1)
        assert exc.value.key == "alpha1"

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"alpha_source": "0"}, "alpha_source"),
            ({"eps_tol": "-0.1"}, "eps_tol"),
            ({"delta_corr": "-0.1"}, "delta_corr"),
            ({"eps_tol_grid": "0,-5"}, "eps_tol_grid"),
            ({"p_values": "0.9,0.5"}, "p_values"),
            ({"p_values": "0.4,0.6"}, "p_values"),
            ({"p_hat_values": "0,0.5"}, "p_hat_values"),
            ({"p_hat_values": "0.5,1"}, "p_hat_values"),
            ({"fdp_max": "1"}, "fdp_max"),
            ({"horizon": "0"}, "horizon"),
            ({"schedule": "sometimes"}, "schedule"),
            ({"schedule": "none", "horizon": "100", "onset": "101"}, "onset"),
            ({"schedule": "none", "onset": "0"}, "onset"),
        ],
        ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else None,
    )
    def test_out_of_range_value_names_its_key(self, tmp_path, values, key):
        # the range rules of MonitorConfig, GridSpec and Schedule hold when
        # the configuration is parsed, whichever command will read it
        path = tmp_path / "c.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        for args, flags in (((str(path),), {}), ((), values)):
            with pytest.raises(ConfigError) as exc:
                parse_config(*args, **flags)
            assert exc.value.key == key

    @pytest.mark.parametrize("key", _NUMERIC_KEYS)
    def test_nan_is_rejected(self, key):
        # NaN fails every comparison, so a rule written as "x < 0 is an
        # error" lets it through; every numeric key must refuse it
        with pytest.raises(ConfigError) as exc:
            parse_config(**{key: "nan"})
        assert exc.value.key == key

    def test_negative_seed(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = -1\n")
        for args, flags in (((str(path),), {}), ((), {"seed": -1})):
            with pytest.raises(ConfigError) as exc:
                parse_config(*args, **flags)
            assert exc.value.key == "seed"

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_missing_source_file(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(source="/nonexistent/data.csv")
        assert exc.value.key == "source"

    def test_bad_schedule_and_onset(self):
        with pytest.raises(ConfigError):
            parse_config(schedule="sometimes")
        with pytest.raises(ConfigError):
            parse_config(horizon=100, onset=200)

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("k = soon\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))


# Each checked type, a valid value of it, fields that its checks refuse,
# and the error they raise, with the key at fault for a ConfigError.
_CHECKED = [
    (MonitorConfig(), {"eps_tol": -1.0}, ConfigError, "eps_tol"),
    (MonitorConfig(), {"eps_tol": float("nan")}, ConfigError, "eps_tol"),
    (MonitorConfig(), {"alpha1": 0.5}, ConfigError, "alpha1"),
    (GridSpec(), {"fdp_max": 1.0}, ConfigError, "fdp_max"),
    (GridSpec(), {"p_values": (0.9, 0.5)}, ConfigError, "p_values"),
    (Schedule(), {"onset": 5000}, ConfigError, "onset"),
    (Schedule(), {"kind": "sometimes"}, ConfigError, "schedule"),
    (ShiftScenario(0, "above_median"), {"ablation_fraction": 0.0}, ConfigError, "ablation_fraction"),
    (ShiftScenario(0, "above_median"), {"split_kind": "category"}, InvalidInput, None),
    (PmEbState(0.05), {"alpha": 1.0}, InvalidInput, None),
]


class TestCheckedTypes:
    @pytest.mark.parametrize(
        "good, bad, error, key", _CHECKED, ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else None
    )
    def test_every_construction_path_checks(self, good, bad, error, key):
        """A call, ``_make`` and ``_replace`` all run the type's checks; a
        NamedTuple's own ``_make`` and ``_replace`` would skip them."""
        kind, fields = type(good), {**good._asdict(), **bad}
        for make in (lambda: kind(**fields), lambda: kind._make(fields.values()), lambda: good._replace(**bad)):
            with pytest.raises(error) as exc:
                make()
            assert getattr(exc.value, "key", None) == key

    @pytest.mark.parametrize("good", sorted({type(g): g for g, *_ in _CHECKED}.values(), key=repr), ids=lambda g: type(g).__name__)
    def test_valid_values_pass_every_path(self, good):
        """What a check fills in (MonitorConfig's alpha1, Schedule's onset)
        is held, so every path, unpickling included, gives the value back."""
        kind = type(good)
        for made in (kind(*good), kind._make(good), good._replace(), pickle.loads(pickle.dumps(good))):
            assert type(made) is kind and made == good

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_eps_tol_grid_values_pass_monitor_config(self, value):
        """Each eps_tol_grid value is some sweep row's eps_tol, so a value
        MonitorConfig refuses fails parse_config under eps_tol_grid."""
        with pytest.raises(ConfigError) as exc:
            parse_config(eps_tol_grid=f"0,{value}")
        assert exc.value.key == "eps_tol_grid"


class TestPrecedence:
    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("eps_tol = 0\nk = 25\n")
        cfg = parse_config(str(path), eps_tol=0.05)
        assert cfg.monitor.eps_tol == 0.05
        assert cfg.k == 25

    def test_none_flags_are_unset(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("k = 25\n")
        cfg = parse_config(str(path), k=None)
        assert cfg.k == 25

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nk = 7  # trailing\n")
        assert parse_config(str(path)).k == 7

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # '#' starts a comment only at the start of a line or after whitespace
        source = tmp_path / "run#1" / "src.csv"
        source.parent.mkdir()
        source.write_text("f0,error\n0.5,0.1\n")
        path = tmp_path / "c.cfg"
        path.write_text(f"out_dir = results#2\nsource = {source}  # trailing\n\t# indented comment\n")
        cfg = parse_config(str(path))
        assert cfg.out_dir == "results#2"
        assert cfg.source == str(source)

    def test_list_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("eps_harm_grid = 0, 0.05, 0.1\n")
        assert parse_config(str(path)).eps_harm_grid == (0.0, 0.05, 0.1)


CLI_TREE = ast.parse((pathlib.Path(__file__).resolve().parent.parent / "src" / "shiftwatch" / "cli.py").read_text())


def _cfg_reads(node):
    """Names read as ``cfg.<name>``; reading a setting that parse_config
    builds, such as ``cfg.monitor``, reads every key of its type."""
    reads = {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id == "cfg"
    }
    return reads.union(*(_keys_of(BUILT[name]) for name in reads & BUILT.keys()))


def test_every_key_is_read_by_the_cli():
    """A configuration key that no command reads as ``cfg.<key>`` exists
    for nobody."""
    assert sorted(KNOWN_KEYS - _cfg_reads(CLI_TREE)) == []


CLI_FUNCTIONS = {node.name: node for node in CLI_TREE.body if isinstance(node, ast.FunctionDef)}


def _function_reads(name, seen):
    """Keys a cli.py function reads, in its own body or in a cli.py helper
    it calls."""
    seen.add(name)
    keys = _cfg_reads(CLI_FUNCTIONS[name])
    for sub in ast.walk(CLI_FUNCTIONS[name]):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            callee = sub.func.id
            if callee in CLI_FUNCTIONS and callee not in seen:
                keys |= _function_reads(callee, seen)
    return keys


def _reads_and_flags():
    """Per command: the keys it reads and the keys it has a flag for."""
    return {
        name: (_function_reads(command.__name__, set()), set(keys.split()))
        for name, (command, keys) in cli._COMMANDS.items()
    }


def test_every_flag_is_read_by_its_command():
    """A flag that its command never reads as ``cfg.<key>``, in its own body
    or in a cli.py helper it calls, would be accepted and then ignored."""
    unread = {name: sorted(flags - reads) for name, (reads, flags) in _reads_and_flags().items()}
    assert unread == {name: [] for name in cli._COMMANDS}


# keys with no flag on any command (README, "Command line"), and sweep's
# eps_tol, which reads its tolerances from --eps-tol-grid instead
FLAGLESS = {"alpha1", "p_values", "p_hat_values"}
NO_FLAG = {name: FLAGLESS | ({"eps_tol"} if name == "sweep" else set()) for name in cli._COMMANDS}


def test_every_key_a_command_reads_has_a_flag():
    """A key that its command reads can be set from the command line, save
    the flag-less keys a config file sets."""
    missing = {
        name: sorted((reads & KNOWN_KEYS) - flags - NO_FLAG[name]) for name, (reads, flags) in _reads_and_flags().items()
    }
    assert missing == {name: [] for name in cli._COMMANDS}
