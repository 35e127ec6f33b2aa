"""README documents the whole command line and the package's exports."""

import argparse
import importlib.util
import inspect
import json
import re
import types
from pathlib import Path

import scimetrics
from scimetrics.cli import SETTINGS, build_parser, main
from scimetrics.ingest import parse_records, parse_roster

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CONFIG_FILE_KEYS = ("records", *SETTINGS)

_spec = importlib.util.spec_from_file_location(
    "run_full_analysis", ROOT / "scripts" / "run_full_analysis.py"
)
run_full_analysis = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_full_analysis)


def readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def long_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every ``--flag`` of ``parser`` and of its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= long_flags(sub)
    return flags


def test_every_config_file_key_is_accepted(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(dict.fromkeys(CONFIG_FILE_KEYS)))
    assert main(["index", "--config", str(cfg_path)]) == 2  # no records, but no unknown key
    assert "unknown config file key" not in capsys.readouterr().err


def test_running_names_every_config_file_key():
    section = readme_section("Running")
    assert [key for key in CONFIG_FILE_KEYS if f"`{key}`" not in section] == []


def test_running_names_every_long_flag():
    section = readme_section("Running")
    flags = long_flags(build_parser())
    assert {"--records", "--config", "--key", "--help"} <= flags
    missing = [f for f in sorted(flags) if not re.search(rf"(?<![\w-]){f}(?![\w-])", section)]
    assert missing == []


def test_python_api_lists_the_package_exports():
    sentence = readme_section("Python API").split(" exports ", 1)[1].split(".", 1)[0]
    exported = {
        name
        for name, value in vars(scimetrics).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(re.findall(r"`(\w+)`", sentence)) == exported


def test_python_api_writes_the_parser_signatures():
    section = readme_section("Python API")
    for parse in (parse_records, parse_roster):
        written = re.findall(rf"`{parse.__name__}\(([^)`]*)\)`", section)
        assert written == [", ".join(inspect.signature(parse).parameters)]


def test_output_files_sentence_names_every_report(tmp_path, capsys):
    assert run_full_analysis.run(ROOT / "tests" / "data" / "synthetic", tmp_path, []) == 0
    # A full run ranks by h; README names those files with a placeholder key.
    stems = {
        re.sub(r"^rank_h(?=_plot$|$)", "rank_<key>", path.stem)
        for path in tmp_path.iterdir()
        if not path.name.startswith("rejects_")
    }
    sentence = readme_section("Running").split("Output files per command", 1)[1].split(".", 1)[0]
    assert set(re.findall(r"`([\w<>]+)`", sentence)) == stems
